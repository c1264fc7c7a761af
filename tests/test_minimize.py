from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgriffith.domain import Affine, Ball, BoxDomain, Grid, InputError, PlaneSegment, SampledField, sample
from nlgriffith.energy import GridCapabilityError, _components, averaged_energy
from nlgriffith.minimize import (
    DescentTrace,
    DirichletProblem,
    MinimizeOptions,
    band_opening,
    DescentKernel,
    dirichlet_candidates,
    energy_gradient,
    minimize_dirichlet,
    optimality_gap,
    _descend,
    _lbfgs_direction,
)
from nlgriffith.quad import build_direction_rule
from one_direction import OneDirection

PHI = 0.75 * np.sqrt(np.pi)  # calibrated 1D bulk density at unit strain
BETA = np.pi / 2


@pytest.fixture(scope="module")
def rule_fast():
    return build_direction_rule(1, radial_order=4, angular_order=4)


@pytest.fixture(scope="module")
def rule2_fast():
    return build_direction_rule(2, radial_order=4, angular_order=8)


def bar(load, eps=0.04, h=0.01):
    return DirichletProblem.bar(load, eps, h)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_zero_on_constant(rule_fast):
    prob = bar(0.0)
    u = prob.sampled_datum()
    u.values[:] = 2.5
    g = energy_gradient(u, prob.eps, rule_fast, prob.outer)
    assert np.max(np.abs(g)) <= 1e-15


def test_gradient_zero_on_skew(rule2_fast):
    outer = BoxDomain(np.array([-0.1, -0.1]), np.array([1.1, 1.1]))
    grid = Grid(outer, 0.025)
    W = np.array([[0.0, 1.0], [-1.0, 0.0]])
    u = sample(Affine(W, np.zeros(2)), grid)
    g = energy_gradient(u, 0.1, rule2_fast, outer)
    assert np.max(np.abs(g)) <= 1e-12


def test_gradient_matches_central_differences(rule_fast, rule2_fast):
    rng = np.random.default_rng(17)
    # a 2D plate with a frozen layer two cells wide; shifted endpoints
    # between the outermost centers and the boundary extrapolate
    outer = BoxDomain(np.array([-0.1, -0.1]), np.array([1.1, 1.1]))
    plate = DirichletProblem(
        outer=outer,
        inner=BoxDomain(np.zeros(2), np.ones(2)),
        datum=Affine(np.array([[1.0, 0.3], [-0.2, 0.6]]), np.zeros(2)),
        eps=0.2,
        grid=Grid(outer, 0.05),
    )
    for prob, rule in ((bar(1.0, eps=0.05, h=0.0125), rule_fast), (plate, rule2_fast)):
        kernel = DescentKernel(prob.grid, prob.outer, prob.eps, rule)
        u = prob.sampled_datum()
        free = ~u.dirichlet_mask
        u.values[free] += 0.1 * rng.normal(size=(free.sum(), prob.grid.dim))
        _, grad = kernel.energy_and_grad(u.values, u.dirichlet_mask)
        delta = 1e-5
        for _ in range(20):
            v = rng.normal(size=u.values.shape)
            v[u.dirichlet_mask] = 0.0
            e_plus = kernel.energy(u.values + delta * v)
            e_minus = kernel.energy(u.values - delta * v)
            fd = (e_plus - e_minus) / (2 * delta)
            an = float(np.sum(grad * v))
            assert abs(an - fd) <= 1e-5 * (1 + abs(an))


# max over sigma of |d^3/dsigma^3 arctan(sigma^2)| = |24 sigma^7 - 40 sigma^3| / (1 + sigma^4)^3,
# about 6.158 near sigma = 0.70, and of |d/dsigma arctan(sigma^2)| = 2 sigma / (1 + sigma^4), about 1.140
ARCTAN_THIRD, ARCTAN_SLOPE = 6.2, 1.2


@st.composite
def gradient_cases(draw):
    """A small grid of 1D or 2D cells, a region on it (the whole box, a
    sub-box or the box with a slit), eps of 4-6 cells, a seed and a scale
    of the nodal values: slopes well below, near or well above sqrt(eps)."""
    dim = draw(st.integers(1, 2))
    cells = draw(st.integers(8, 16) if dim == 1 else st.integers(6, 10))
    box = BoxDomain(np.zeros(dim), np.ones(dim))
    grid = Grid(box, 1.0 / cells)
    kind = draw(st.sampled_from(["box", "sub-box", "slit"]))
    if kind == "sub-box":
        box = BoxDomain(np.full(dim, 0.1), np.full(dim, 0.8))
    elif kind == "slit":
        lower, upper = np.full(dim, 0.2), np.full(dim, 0.7)
        lower[0] = upper[0] = draw(st.sampled_from([0.5, 0.43]))
        box = BoxDomain(box.lower, box.upper, (PlaneSegment(lower, upper),))
    eps = draw(st.sampled_from([4, 5, 6])) * grid.h
    return grid, box, eps, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.01, 0.3, 3.0]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=gradient_cases())
def test_analytic_gradient_matches_central_differences_within_the_step_bound(rule_fast, rule2_fast, case):
    # E(x + t v) = sum W arctan(s^2/eps) with s = D (x + t v) is smooth in t.
    # A central difference at step t is off E'(0) by at most t^2/6 max|E'''|,
    # and E''' = sum W phi'''(s) (D v)^3 with |phi'''| <= 6.2 eps^-3/2.  Each
    # of its two energies rounds by at most R, which adds R/t: R bounds the
    # sum of n terms below W pi/2 (n + 4 ulps of its bound) and the rounding
    # of s (a few ulps of |D| |x| per pair, times |phi'| <= 1.2 eps^-1/2).
    grid, region, eps, seed, scale = case
    rule = rule_fast if grid.dim == 1 else rule2_fast
    rng = np.random.default_rng(seed)
    frozen = rng.random(grid.n_cells) < 0.25
    u = SampledField(grid, scale * rng.normal(size=(grid.n_cells, grid.dim)), frozen)
    kernel = DescentKernel(grid, region, eps, rule)
    _, grad = kernel.energy_and_grad(u.values, frozen)
    np.testing.assert_array_equal(energy_gradient(u, eps, rule, region), grad)
    assert np.all(grad[frozen] == 0.0)
    v = rng.normal(size=u.values.shape)
    v[frozen] = 0.0
    t = 1e-5
    fd = (kernel.energy(u.values + t * v) - kernel.energy(u.values - t * v)) / (2 * t)
    analytic = float(np.sum(grad * v))
    truncation = t**2 / 6 * ARCTAN_THIRD * eps**-1.5 * np.sum(kernel.W * np.abs(kernel.D @ v.reshape(-1)) ** 3)
    reach = abs(kernel.D) @ (np.abs(u.values) + t * np.abs(v)).reshape(-1)
    ulp = np.finfo(float).eps
    R = ulp * (kernel.W.size + 4) * np.sum(kernel.W) * np.pi / 2
    R += ulp * (2 * grid.dim * 2**grid.dim + 4) * ARCTAN_SLOPE / np.sqrt(eps) * np.sum(kernel.W * reach)
    assert abs(analytic - fd) <= truncation + R / t


def _kernel_cases(rule_fast, rule2_fast):
    """(grid, region, eps, rule, datum) of a bar, a plate and a slit domain."""
    outer = BoxDomain(np.array([-0.1, -0.1]), np.array([1.1, 1.1]))
    plate = DirichletProblem(
        outer=outer,
        inner=BoxDomain(np.zeros(2), np.ones(2)),
        datum=Affine(np.array([[1.0, 0.3], [-0.2, 0.6]]), np.zeros(2)),
        eps=0.2,
        grid=Grid(outer, 0.05),
    )
    # a slit through a row of cell centers (x_1 = 7.5 h) drops pairs inside
    # the range box
    slit = BoxDomain(np.zeros(2), np.ones(2), (PlaneSegment(np.array([0.25, 0.46875]), np.array([0.75, 0.46875])),))
    bar_prob = bar(1.0, eps=0.05, h=0.0125)
    return [
        (bar_prob.grid, bar_prob.outer, bar_prob.eps, rule_fast, bar_prob.datum),
        (plate.grid, plate.outer, plate.eps, rule2_fast, plate.datum),
        (Grid(slit, 0.0625), slit, 0.25, rule2_fast, plate.datum),
    ]


def test_descent_kernel_energy_matches_averaged_energy(rule_fast, rule2_fast):
    # the assembled operator and the per-direction slope passes of
    # averaged_energy are two evaluations of the same discrete energy, and
    # the operator's rows are the kept pairs' slopes pair for pair
    rng = np.random.default_rng(23)
    for grid, region, eps, rule, datum in _kernel_cases(rule_fast, rule2_fast):
        values = sample(datum, grid).values + 0.1 * rng.normal(size=(grid.n_cells, grid.dim))
        kernel = DescentKernel(grid, region, eps, rule)
        directions = [OneDirection(grid, region, xi, eps) for xi in rule.nodes]
        comps = _components(values, grid)
        slopes = np.concatenate([one.slopes(comps)[one.kept()] for one in directions])
        assert np.allclose(kernel.D @ values.reshape(-1), slopes, rtol=0.0, atol=1e-12 * np.abs(slopes).max())
        e_avg = averaged_energy(SampledField(grid, values), region, eps, rule).total
        assert kernel.energy(values) == pytest.approx(e_avg, rel=1e-12, abs=0.0)


def test_descent_kernel_evaluation_is_the_plain_expression_bit_for_bit(rule_fast, rule2_fast):
    # the in-place evaluation through the stored transpose performs the
    # float operations of the plain expressions below, in the same order
    rng = np.random.default_rng(29)
    for grid, region, eps, rule, datum in _kernel_cases(rule_fast, rule2_fast):
        kernel = DescentKernel(grid, region, eps, rule)
        D, W = kernel.D, kernel.W
        for scale in (1e-3, 0.1, 10.0):
            values = sample(datum, grid).values + scale * rng.normal(size=(grid.n_cells, grid.dim))
            frozen = rng.random(grid.n_cells) < 0.3
            before = values.copy()
            s = D @ values.reshape(-1)
            q = s * s / eps
            e_ref = float(np.sum(W * np.arctan(q)))
            g_ref = (D.T @ ((2.0 / eps) * W * s / (1.0 + q * q))).reshape(values.shape)
            g_ref[frozen] = 0.0
            energy, grad = kernel.energy_and_grad(values, frozen)
            assert energy.hex() == e_ref.hex()
            assert grad.shape == values.shape
            assert grad.tobytes() == g_ref.tobytes()
            assert kernel.energy(values).hex() == float(np.sum(W * np.arctan(s * s / eps))).hex()
            assert values.tobytes() == before.tobytes()


def test_gradient_zero_on_frozen_cells(rule_fast):
    prob = bar(1.0)
    u = prob.sampled_datum()
    g = energy_gradient(u, prob.eps, rule_fast, prob.outer)
    assert np.all(g[u.dirichlet_mask] == 0.0)


@pytest.mark.parametrize(
    "region", [BoxDomain(np.zeros(2), np.ones(2)), Ball(np.full(3, 0.5), 0.3)], ids=["2d-box", "3d-ball"]
)
def test_kernel_refuses_a_region_of_another_dimension(region, rule2_fast):
    # as every energy does: the region's other axes would be ignored
    prob = DirichletProblem.bar(2.0, 0.02, 0.0025)
    rule = build_direction_rule(1, radial_order=6)
    with pytest.raises(InputError, match="a region of dimension .* does not fit a field of dimension 1"):
        DescentKernel(prob.grid, region, prob.eps, rule)
    with pytest.raises(InputError, match="a region of dimension .* does not fit a field of dimension 1"):
        energy_gradient(prob.sampled_datum(), prob.eps, rule, region=region)
    with pytest.raises(InputError, match="rule dimension must match"):
        DescentKernel(prob.grid, prob.outer, prob.eps, rule2_fast)


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------


def test_candidates_include_elastic_and_cracks():
    prob = bar(1.0)
    cands = dirichlet_candidates(prob)
    names = [name for name, _ in cands]
    assert names[0] == "elastic"
    assert sum(1 for n in names if n.startswith("crack")) >= 3


def test_crack_candidate_realizes_plateaus():
    load = 2.0
    prob = bar(load)
    cands = dirichlet_candidates(prob)
    mid = [c for name, c in cands if name.startswith("crack") and "0.5" in name][0]
    x = prob.grid.centers[:, 0]
    free = ~prob.dirichlet_mask
    left = free & (x < 0.4)
    right = free & (x > 0.6)
    # each side is a constant anchored at its padding midpoint
    assert np.ptp(mid.values[left, 0]) <= 1e-12
    assert np.ptp(mid.values[right, 0]) <= 1e-12
    pad = prob.inner.lower[0] - prob.outer.lower[0]
    assert mid.values[left, 0][0] == pytest.approx(-load * pad / 2, rel=1e-9)
    assert mid.values[right, 0][0] == pytest.approx(load * (1 + pad / 2), rel=1e-9)


def test_candidates_freeze_datum_exactly():
    prob = bar(1.3)
    datum_vals = prob.sampled_datum().values
    for _, cand in dirichlet_candidates(prob):
        assert np.array_equal(cand.values[prob.dirichlet_mask], datum_vals[prob.dirichlet_mask])


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------


def test_rigid_datum_minimizer_is_datum(rule_fast):
    # constant datum (the 1D rigid motion): zero energy, zero gradient
    prob = DirichletProblem(
        outer=BoxDomain(np.array([-0.06]), np.array([1.06])),
        inner=BoxDomain(np.array([0.0]), np.array([1.0])),
        datum=Affine(np.zeros((1, 1)), np.array([0.7])),
        eps=0.04,
        grid=Grid(BoxDomain(np.array([-0.06]), np.array([1.06])), 0.01),
    )
    trace = minimize_dirichlet(prob, MinimizeOptions(max_iter=50), rule=rule_fast)
    assert trace.iterates[-1] <= 1e-12
    assert trace.converged
    assert np.allclose(trace.final.values, 0.7)


def test_rigid_rotation_datum_2d(rule2_fast):
    # a genuine infinitesimal rotation: skew gradient plus translation;
    # the datum is already the global minimizer
    outer = BoxDomain(np.array([-0.08, -0.08]), np.array([1.08, 1.08]))
    inner = BoxDomain(np.zeros(2), np.ones(2))
    grid = Grid(outer, 0.04)
    W = np.array([[0.0, 0.8], [-0.8, 0.0]])
    prob = DirichletProblem(
        outer=outer, inner=inner, datum=Affine(W, np.array([0.3, -0.2])),
        eps=0.16, grid=grid,
    )
    trace = minimize_dirichlet(prob, MinimizeOptions(max_iter=30), rule=rule2_fast)
    assert trace.iterates[-1] <= 1e-12
    assert np.max(np.abs(trace.final.values - prob.sampled_datum().values)) <= 1e-12


def test_energy_monotone_and_frozen_bitidentical(rule_fast):
    prob = bar(0.8)
    trace = minimize_dirichlet(prob, MinimizeOptions(max_iter=120), rule=rule_fast)
    e = np.array(trace.iterates)
    assert np.all(np.diff(e) <= 1e-15)
    datum_vals = prob.sampled_datum().values
    mask = prob.dirichlet_mask
    assert np.array_equal(trace.final.values[mask], datum_vals[mask])


def test_bar_subcritical_stays_elastic(rule_fast):
    prob = bar(0.5)
    trace = minimize_dirichlet(prob, MinimizeOptions(max_iter=400), rule=rule_fast)
    opening = band_opening(trace.final, prob.eps).max()
    assert opening <= 0.5
    assert trace.iterates[-1] == pytest.approx(PHI * 0.25, rel=0.15)
    assert not trace.restarted


def test_bar_supercritical_cracks(rule_fast):
    prob = bar(2.0)
    trace = minimize_dirichlet(prob, MinimizeOptions(max_iter=400), rule=rule_fast)
    opening = band_opening(trace.final, prob.eps).max()
    assert opening >= 1.0
    assert trace.restarted
    assert trace.iterates[-1] == pytest.approx(BETA, rel=0.25)
    # single localized crack: cells with large opening form one cluster
    profile = band_opening(trace.final, prob.eps)
    hot = np.nonzero(profile > 0.5 * profile.max())[0]
    assert hot[-1] - hot[0] <= 3 * int(round(prob.eps / prob.grid.h))


def test_supercritical_bar_stops_on_gtol(rule_fast):
    prob = bar(2.0)
    opts = MinimizeOptions(max_iter=400)
    trace = minimize_dirichlet(prob, opts, rule=rule_fast)
    assert trace.stop_reason == "gtol"
    assert trace.converged
    assert trace.grad_norms[-1] <= opts.gtol


def test_capped_descent_reports_max_iter(rule_fast):
    trace = minimize_dirichlet(bar(2.0), MinimizeOptions(max_iter=5), rule=rule_fast)
    assert trace.stop_reason == "max_iter"
    assert trace.converged is False


def test_descent_is_bit_reproducible(rule_fast):
    prob = bar(2.0)
    opts = MinimizeOptions(max_iter=400)
    tr_a = minimize_dirichlet(prob, opts, rule=rule_fast)
    tr_b = minimize_dirichlet(prob, opts, rule=rule_fast)
    assert np.array_equal(tr_a.iterates, tr_b.iterates)
    assert np.array_equal(tr_a.grad_norms, tr_b.grad_norms)
    assert np.array_equal(tr_a.step_sizes, tr_b.step_sizes)
    assert np.array_equal(tr_a.final.values, tr_b.final.values)


def test_lbfgs_direction_satisfies_newest_secant_equation():
    # the inverse-Hessian estimate maps the newest y to the newest s
    rng = np.random.default_rng(5)
    A = rng.normal(size=(8, 8))
    A = A @ A.T + 8.0 * np.eye(8)
    pairs = []
    for _ in range(4):
        s = rng.normal(size=8)
        y = A @ s
        pairs.append((s, y, 1.0 / float(s @ y)))
    s, y, _ = pairs[-1]
    assert np.allclose(-_lbfgs_direction(y, pairs), s, rtol=1e-12, atol=1e-12)
    # off the span of the pairs the estimate is the scaling s.y / y.y
    basis, _ = np.linalg.qr(np.column_stack([s, y, rng.normal(size=8)]))
    v = basis[:, 2]
    gamma = float(s @ y) / float(y @ y)
    assert np.allclose(-_lbfgs_direction(v, pairs[-1:]), gamma * v, rtol=1e-12, atol=1e-12)
    assert np.array_equal(_lbfgs_direction(np.ones(8), []), -np.ones(8))


def _reference_lbfgs_direction(grad, pairs):
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float(np.sum(s * q))
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * float(np.sum(y * y)))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float(np.sum(y * q))
        q += (a - b) * s
    return -q


@pytest.mark.parametrize("n_pairs", [1, 5, 10])
def test_lbfgs_direction_matches_reference_recursion(n_pairs):
    # the two-loop recursion written with np.sum, bit for bit, on arrays of
    # a descent's (cells, components) layout
    rng = np.random.default_rng(n_pairs)
    shape = (700, 2)
    pairs = deque(maxlen=10)
    for _ in range(n_pairs):
        s = rng.normal(size=shape)
        y = rng.uniform(0.5, 2.0, size=shape) * s + 0.1 * rng.normal(size=shape)
        pairs.append((s, y, 1.0 / float(np.sum(s * y))))
    grad = rng.normal(size=shape)
    before = grad.copy()
    direction = _lbfgs_direction(grad, pairs)
    assert direction.tobytes() == _reference_lbfgs_direction(before, pairs).tobytes()
    assert grad.tobytes() == before.tobytes()


def test_descent_from_datum_stays_elastic(rule_fast):
    # without the candidate restart, descent from the datum stays on the
    # elastic branch even far above the crack threshold
    prob = bar(2.0)
    kernel = DescentKernel(prob.grid, prob.outer, prob.eps, rule_fast)
    start = prob.sampled_datum()
    trace = DescentTrace()
    values, _, _ = _descend(
        kernel, start.values.copy(), start.dirichlet_mask, MinimizeOptions(max_iter=150), trace
    )
    assert band_opening(SampledField(prob.grid, values), prob.eps).max() <= 0.5


def test_equivariance_under_rigid_shift(rule_fast):
    # adding a constant to the datum shifts every iterate by that constant;
    # descent is deterministic, so runs capped at successive iteration
    # counts expose the iterates at those checkpoints
    shift = 0.37
    prob_a = bar(0.6)
    outer, inner, grid = prob_a.outer, prob_a.inner, prob_a.grid
    datum_b = Affine(np.array([[0.6]]), np.array([shift]))
    prob_b = DirichletProblem(
        outer=outer, inner=inner, datum=datum_b, eps=prob_a.eps, grid=grid
    )
    for cap in (10, 20, 30, 40, 50):
        opts = MinimizeOptions(max_iter=cap)
        tr_a = minimize_dirichlet(prob_a, opts, rule=rule_fast)
        tr_b = minimize_dirichlet(prob_b, opts, rule=rule_fast)
        assert len(tr_a.iterates) == len(tr_b.iterates)
        assert np.allclose(tr_a.iterates, tr_b.iterates, rtol=1e-10, atol=1e-12)
        assert np.max(np.abs((tr_a.final.values + shift) - tr_b.final.values)) <= 1e-10


def test_eps_continuation_warm_start(rule_fast):
    prob = bar(0.5, eps=0.04, h=0.01)
    opts = MinimizeOptions(max_iter=150, eps_schedule=[0.08, 0.04])
    trace = minimize_dirichlet(prob, opts, rule=rule_fast)
    assert trace.final is not None
    assert band_opening(trace.final, prob.eps).max() <= 0.5


@pytest.mark.parametrize("schedule, levels", [(None, [0.02]), ([0.04, 0.02], [0.04, 0.02])])
def test_one_kernel_per_eps(rule_fast, monkeypatch, schedule, levels):
    # the candidate scan and the restart reuse the last level's kernel
    built = []
    init = DescentKernel.__init__

    def counting_init(self, grid, region, eps, rule):
        built.append(eps)
        init(self, grid, region, eps, rule)

    monkeypatch.setattr(DescentKernel, "__init__", counting_init)
    opts = MinimizeOptions(max_iter=100, eps_schedule=schedule)
    trace = minimize_dirichlet(bar(2.0, eps=0.02, h=0.005), opts, rule=rule_fast)
    assert trace.restarted
    assert built == levels


def test_eps_schedule_validation(rule_fast):
    prob = bar(0.5)
    with pytest.raises(ValueError):
        minimize_dirichlet(prob, MinimizeOptions(eps_schedule=[0.08]), rule=rule_fast)
    with pytest.raises(ValueError):
        minimize_dirichlet(
            prob, MinimizeOptions(eps_schedule=[0.02, 0.04]), rule=rule_fast
        )


@pytest.mark.parametrize("load", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_datum(load):
    with pytest.raises(ValueError, match=f"load must be finite, got {load}"):
        bar(load)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gtol": np.nan},
        {"gtol": np.inf},
        {"gtol": -1e-6},
        {"max_iter": -1},
        {"nucleation_amplitude": np.nan},
        {"nucleation_amplitude": np.inf},
        {"nucleation_amplitude": -0.1},
        {"max_iter": np.nan},
        {"max_iter": np.inf},
        {"max_iter": 2.5},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": "0"},
        {"seed": True},
    ],
)
def test_options_reject_bad_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        MinimizeOptions(**kwargs)


def test_problem_rejects_unresolvable_grid():
    with pytest.raises(GridCapabilityError):
        bar(0.5, eps=0.01, h=0.01)


@pytest.mark.parametrize(
    "eps, h", [(np.nan, 0.01), (np.inf, 0.01), (0.04, np.nan), (0.04, np.inf)]
)
def test_bar_rejects_non_finite_eps_and_h(eps, h):
    with pytest.raises(ValueError, match="finite"):
        bar(1.0, eps=eps, h=h)


def test_optimality_gap_clamped_and_branch_sized(rule_fast):
    prob = bar(2.0)
    trace = minimize_dirichlet(prob, MinimizeOptions(max_iter=400), rule=rule_fast)
    gap_min = optimality_gap(trace.final, prob, rule_fast)
    assert gap_min <= 0.05
    # the untouched datum at this load sits a whole branch above
    datum = prob.sampled_datum()
    gap_datum = optimality_gap(datum, prob, rule_fast)
    assert gap_datum == pytest.approx(PHI * 4.0 - BETA, rel=0.35)


def test_optimality_gap_of_crack_below_threshold(rule_fast):
    # handing the solver a crack at a sub-threshold load: the gap is the
    # branch separation beta - phi t^2
    load = 0.5
    prob = bar(load)
    crack = [c for name, c in dirichlet_candidates(prob) if name.startswith("crack")][0]
    gap = optimality_gap(crack, prob, rule_fast)
    assert gap == pytest.approx(BETA - PHI * load**2, rel=0.35)


def test_band_opening_scales():
    prob = bar(1.0)
    u = prob.sampled_datum()
    opening = band_opening(u, prob.eps).max()
    assert opening == pytest.approx(prob.eps * 1.0, rel=0.3)
