"""End-to-end acceptance checks with pinned tolerances.

Each test prints one PASS/FAIL line (run ``pytest -v -s`` to see them
live).  Targets are either closed forms pinned by independent oracles
inside the test or direct finite-difference/brute-force comparisons;
tolerances are stated inline and never loosened at runtime.
"""

import filecmp
import time

import numpy as np
import pytest

from nlgriffith.domain import Affine, BoxDomain, Grid, PlaneJump, sample
from nlgriffith.energy import (
    BallStrategy,
    averaged_energy,
    ball_supremum_energy,
    pairwise_energy,
)
from nlgriffith.harness import SweepSpec, audit_inequalities, random_section, run_sweep
from nlgriffith.limits import bulk_density, closed_form_bulk_p1, surface_constant
from nlgriffith.minimize import (
    DirichletProblem,
    MinimizeOptions,
    band_opening,
    DescentKernel,
    energy_gradient,
    minimize_dirichlet,
)
from nlgriffith.quad import build_direction_rule, integrate
from nlgriffith.slicing import mumford_shah_1d, piecewise_project

SQRT_PI = np.sqrt(np.pi)
HALF_PI = np.pi / 2
BULK_1D = 0.75 * SQRT_PI  # calibrated unit-strain bulk density in 1D


def _report(name: str, failures: list[str], elapsed: float | None = None):
    status = "PASS" if not failures else "FAIL"
    stamp = f" [{elapsed:.1f} s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {name}: {status}{stamp}", flush=True)
    assert not failures, "; ".join(failures)


def affine_config_1d(a):
    return {
        "domain": {"lower": [0.0], "upper": [1.0]},
        "field": {"kind": "affine", "matrix": [[a]], "offset": [0.0]},
    }


JUMP_CONFIG_1D = {
    "domain": {"lower": [0.0], "upper": [1.0]},
    "field": {
        "kind": "plane_jump",
        "normal": [1.0],
        "offset": 0.5,
        "value_minus": [0.0],
        "value_plus": [10.0],
    },
}

A_2D = [[1.0, 0.25], [0.25, 0.5]]

CONFIG_2D = {
    "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
    "field": {
        "kind": "sum",
        "parts": [
            {"kind": "affine", "matrix": A_2D, "offset": [0.0, 0.0]},
            {
                "kind": "plane_jump",
                "normal": [1.0, 0.0],
                "offset": 0.5,
                "value_minus": [0.0, 0.0],
                "value_plus": [10.0, 0.0],
            },
        ],
    },
}


@pytest.fixture(scope="module")
def rule1():
    return build_direction_rule(1)


@pytest.fixture(scope="module")
def rule2():
    return build_direction_rule(2, radial_order=10, angular_order=24)


@pytest.fixture(scope="module")
def sweep2d_csv(tmp_path_factory):
    """One full 2D sweep with CSV output, shared by the accuracy and
    determinism criteria."""
    path = tmp_path_factory.mktemp("c3") / "sweep2d.csv"
    spec = SweepSpec(
        field_config=CONFIG_2D,
        eps_list=[0.08, 0.04, 0.02],
        h_over=6,
        out_path=str(path),
    )
    t0 = time.perf_counter()
    result = run_sweep(spec)
    return result, str(path), time.perf_counter() - t0


def test_c01_bulk_limit_1d():
    t0 = time.perf_counter()
    failures = []
    for a in (0.5, 1.0, 2.0):
        res = run_sweep(
            SweepSpec(
                field_config=affine_config_1d(a),
                eps_list=[0.08, 0.04, 0.02, 0.01],
                h_over=8,
            )
        )
        target = BULK_1D * a**2
        rel = abs(res.extrapolated - target) / target
        if rel > 0.02:
            failures.append(f"A={a}: extrapolated {res.extrapolated:.5f} vs {target:.5f} ({rel:.2%})")
    elapsed = time.perf_counter() - t0
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 10 s")
    _report("bulk-limit-1d", failures, elapsed)


def test_c02_surface_limit_1d():
    t0 = time.perf_counter()
    failures = []
    res = run_sweep(
        SweepSpec(field_config=JUMP_CONFIG_1D, eps_list=[0.08, 0.04, 0.02, 0.01], h_over=8)
    )
    rel = abs(res.extrapolated - HALF_PI) / HALF_PI
    if rel > 0.02:
        failures.append(f"extrapolated {res.extrapolated:.5f} vs {HALF_PI:.5f} ({rel:.2%})")
    elapsed = time.perf_counter() - t0
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 10 s")
    _report("surface-limit-1d", failures, elapsed)


def test_c03_bulk_plus_surface_2d(sweep2d_csv):
    result, _, elapsed = sweep2d_csv
    failures = []
    # pin the 2D surface constant with a brute-force tensor-grid oracle
    # before trusting it as a target
    t = np.linspace(-8.0, 8.0, 80001)
    w = np.exp(-(t**2))
    from scipy.integrate import trapezoid

    oracle = HALF_PI * trapezoid(np.abs(t) * w, t) * trapezoid(w, t)
    if abs(oracle - np.pi**1.5 / 2) > 1e-6:
        failures.append(f"surface oracle {oracle} vs closed form {np.pi**1.5 / 2}")
    target = closed_form_bulk_p1(np.array(A_2D)) * 1.0 + oracle * 1.0
    rel = abs(result.extrapolated - target) / target
    if rel > 0.05:
        failures.append(f"extrapolated {result.extrapolated:.5f} vs {target:.5f} ({rel:.2%})")
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 5 min")
    _report("bulk-plus-surface-2d", failures, elapsed)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: sampled fields converge to the wrong limit at fixed h/eps; the sampled sweep "
    "extrapolates to about 7.135 against 6.711 (+6.3%), outside c03's 5%",
)
def test_c03_sampled_bulk_plus_surface_2d():
    # c03's sweep and 5% tolerance on the sampled field
    t0 = time.perf_counter()
    spec = SweepSpec(field_config=CONFIG_2D, eps_list=[0.08, 0.04, 0.02], h_over=6, sampled=True)
    result = run_sweep(spec)
    target = closed_form_bulk_p1(np.array(A_2D)) + np.pi**1.5 / 2
    rel = abs(result.extrapolated - target) / target
    failures = [f"extrapolated {result.extrapolated:.5f} vs {target:.5f} ({rel:.2%})"] if rel > 0.05 else []
    _report("bulk-plus-surface-2d-sampled", failures, time.perf_counter() - t0)


def test_c04_bulk_identity():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2024)
    rules = {
        1: build_direction_rule(1, radial_order=8),
        2: build_direction_rule(2, radial_order=8, angular_order=16),
        3: build_direction_rule(3, radial_order=8, angular_order=12),
    }
    for n, rule in rules.items():
        for _ in range(20):
            A = rng.normal(size=(n, n))
            val = integrate(rule, lambda xi: float((A @ xi) @ xi) ** 2)
            exact = closed_form_bulk_p1(A)
            if abs(val - exact) > 1e-6 * (1 + abs(exact)):
                failures.append(f"n={n}: {val} vs {exact}")
    elapsed = time.perf_counter() - t0
    if elapsed > 1.0:
        failures.append(f"runtime {elapsed:.2f} s exceeds 1 s")
    _report("bulk-identity", failures, elapsed)


def test_c05_homogeneity_symmetry_rotation(rule2):
    failures = []
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.normal(size=(2, 2))
        lam = rng.uniform(0.2, 4.0)
        for p in (1.0, 2.0):
            a = bulk_density(lam * A, p, rule2)
            b = lam**2 * bulk_density(A, p, rule2)
            if abs(a - b) > 1e-10 * (1 + abs(b)):
                failures.append(f"homogeneity p={p}: {a} vs {b}")
        S = 0.5 * (A + A.T)
        if bulk_density(A, 1.0, rule2) != bulk_density(S, 1.0, rule2):
            failures.append("symmetric-part equality is not exact")
    base = surface_constant(1.0, 2, rule2, normal=np.array([1.0, 0.0]))
    tilt = surface_constant(1.0, 2, rule2, normal=np.array([1.0, 1.0]) / np.sqrt(2))
    if abs(base - tilt) > 1e-8 * base:
        failures.append(f"rotation invariance: {base} vs {tilt}")
    _report("homogeneity-symmetry-rotation", failures)


def test_c06_inequality_audit():
    t0 = time.perf_counter()
    report = audit_inequalities(seed=0, n_fields=10)
    failures = [
        f"{c.name} {c.field_id} ({c.params}): margin {c.margin:.3e}"
        for c in report.checks
        if not c.passed
    ]
    elapsed = time.perf_counter() - t0
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 30 s")
    _report("inequality-audit", failures, elapsed)


def test_c07_rigid_motion_nullity(rule2):
    failures = []
    rng = np.random.default_rng(11)
    dom = BoxDomain(np.zeros(2), np.ones(2))
    grid = Grid(dom, 0.025)
    for k in range(10):
        w = rng.normal()
        W = np.array([[0.0, w], [-w, 0.0]])
        f = Affine(W, rng.normal(size=2))
        e_avg = averaged_energy(f, dom, 0.1, rule2, grid=grid).total
        e_pair = pairwise_energy(f, dom, 0.1, grid=grid)
        e_sup = ball_supremum_energy(
            f, dom, 0.1, 1.0, BallStrategy("dyadic", 1), rule2, grid=grid
        ).total
        u = sample(f, grid)
        g_max = float(np.max(np.abs(energy_gradient(u, 0.1, rule2, dom))))
        for tag, val in (
            ("averaged", e_avg),
            ("pairwise", e_pair),
            ("ball-sup", e_sup),
            ("gradient", g_max),
        ):
            if abs(val) > 1e-12:
                failures.append(f"W[{k}] {tag}: {val}")
    _report("rigid-motion-nullity", failures)


def test_c08_fubini_consistency(rule1, rule2):
    failures = []
    cases = []
    dom1 = BoxDomain(np.zeros(1), np.ones(1))
    eps = 0.04
    g1 = Grid(dom1, eps / 8)
    cases.append(("affine-1d", Affine(np.array([[1.0]]), np.zeros(1)), dom1, eps, g1, rule1))
    cases.append(
        (
            "jump-1d",
            PlaneJump(np.array([1.0]), 0.5, np.array([0.0]), np.array([10.0])),
            dom1,
            eps,
            g1,
            rule1,
        )
    )
    dom2 = BoxDomain(np.zeros(2), np.ones(2))
    g2 = Grid(dom2, 0.1 / 8)
    cases.append(("affine-2d", Affine(np.array(A_2D), np.zeros(2)), dom2, 0.1, g2, rule2))
    for name, f, dom, e, g, rule in cases:
        a = averaged_energy(f, dom, e, rule, grid=g).total
        b = pairwise_energy(f, dom, e, grid=g)
        rel = abs(a - b) / max(abs(a), 1e-30)
        if rel > 0.03:
            failures.append(f"{name}: averaged {a:.5f} vs pairwise {b:.5f} ({rel:.2%})")
    _report("fubini-consistency", failures)


def test_c09_gradient_check(rule1):
    failures = []
    rng = np.random.default_rng(31)
    prob = DirichletProblem.bar(1.0, 0.05, 0.0125)
    kernel = DescentKernel(prob.grid, prob.outer, prob.eps, rule1)
    u = prob.sampled_datum()
    free = ~u.dirichlet_mask
    u.values[free] += 0.1 * rng.normal(size=(int(free.sum()), 1))
    _, grad = kernel.energy_and_grad(u.values, u.dirichlet_mask)
    delta = 1e-5
    worst = 0.0
    for _ in range(50):
        v = rng.normal(size=u.values.shape)
        v[u.dirichlet_mask] = 0.0
        fd = (kernel.energy(u.values + delta * v) - kernel.energy(u.values - delta * v)) / (
            2 * delta
        )
        an = float(np.sum(grad * v))
        worst = max(worst, abs(an - fd) / (1 + abs(an)))
    if worst > 1e-5:
        failures.append(f"worst relative error {worst:.2e}")
    _report("gradient-check", failures)


def test_c10_bar_fracture_transition():
    t0 = time.perf_counter()
    failures = []
    rule = build_direction_rule(1, radial_order=6)
    eps, h = 0.02, 0.0025
    opts = MinimizeOptions(max_iter=600, gtol=1e-7)
    for load in (0.5, 0.9):
        prob = DirichletProblem.bar(load, eps, h)
        tr = minimize_dirichlet(prob, opts, rule=rule)
        target = BULK_1D * load**2
        rel = abs(tr.iterates[-1] - target) / target
        opening = float(band_opening(tr.final, eps).max())
        if rel > 0.05:
            failures.append(f"t={load}: energy {tr.iterates[-1]:.4f} vs {target:.4f} ({rel:.2%})")
        if opening > 0.5:
            failures.append(f"t={load}: unexpected crack (opening {opening:.2f})")
        if tr.stop_reason != "gtol":
            failures.append(f"t={load}: stop {tr.stop_reason} at |g| {tr.grad_norms[-1]:.2e}")
    for load in (1.3, 2.0):
        prob = DirichletProblem.bar(load, eps, h)
        tr = minimize_dirichlet(prob, opts, rule=rule)
        rel = abs(tr.iterates[-1] - HALF_PI) / HALF_PI
        profile = band_opening(tr.final, eps)
        opening = float(profile.max())
        if rel > 0.10:
            failures.append(f"t={load}: energy {tr.iterates[-1]:.4f} vs {HALF_PI:.4f} ({rel:.2%})")
        if opening < 1.0:
            failures.append(f"t={load}: no crack opened (opening {opening:.2f})")
        hot = np.nonzero(profile > 0.5 * opening)[0]
        if hot.size and hot[-1] - hot[0] > 3 * int(round(eps / h)):
            failures.append(f"t={load}: crack not localized ({hot[-1] - hot[0]} cells)")
        if tr.stop_reason != "gtol":
            failures.append(f"t={load}: stop {tr.stop_reason} at |g| {tr.grad_norms[-1]:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 2 min")
    _report("bar-fracture-transition", failures, elapsed)


def test_c11_projection_identity():
    failures = []
    rng = np.random.default_rng(4)
    for trial in range(100):
        v = random_section(rng, n_pieces=5)
        j = int(rng.integers(3, 12))
        anchor = float(rng.uniform(0.0, 0.01))
        proj = piecewise_project(v, anchor, j)
        z_min = int(np.ceil((0.0 - anchor) * j - 1e-12))
        z_max = int(np.floor((1.0 - anchor) * j + 1e-12)) - 1
        for z in range(z_min, z_max + 1):
            t0, t1 = anchor + z / j, anchor + (z + 1) / j
            delta = v.value(t1) - v.value(t0)
            lhs = HALF_PI * mumford_shah_1d(proj, (t0, t1), 2 / np.pi)
            rhs = min(HALF_PI, j * delta**2)
            if abs(lhs - rhs) > 1e-12 * (1 + abs(rhs)):
                failures.append(f"trial {trial} z={z}: {lhs} vs {rhs}")
    _report("projection-identity", failures)


def test_c12_determinism(sweep2d_csv, tmp_path):
    _, first_csv, _ = sweep2d_csv
    failures = []
    second = tmp_path / "rerun.csv"
    run_sweep(
        SweepSpec(
            field_config=CONFIG_2D,
            eps_list=[0.08, 0.04, 0.02],
            h_over=6,
            out_path=str(second),
        )
    )
    if not filecmp.cmp(first_csv, second, shallow=False):
        failures.append("re-run CSV differs from the first run")
    _report("determinism", failures)
