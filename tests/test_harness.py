import filecmp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgriffith.energy import BallStrategy, GridCapabilityError, averaged_energy, directional_energy
from nlgriffith.harness import (
    ExtrapolationResult,
    SweepSpec,
    audit_inequalities,
    griffith_target,
    random_field,
    random_section,
    richardson,
    run_sweep,
    write_csv,
    _reference_field,
    _translation_discrepancy,
)
from nlgriffith.domain import Affine, BoxDomain, Grid, InputError, PlaneJump, SumField, _dot_rows, eval_nudged, load_problem
from nlgriffith.quad import DirectionRule, build_direction_rule
from one_direction import OneDirection

SQRT_PI = np.sqrt(np.pi)


def affine_config(a=1.0):
    return {
        "domain": {"lower": [0.0], "upper": [1.0]},
        "field": {"kind": "affine", "matrix": [[a]], "offset": [0.0]},
    }


def jump_config(s=10.0):
    return {
        "domain": {"lower": [0.0], "upper": [1.0]},
        "field": {
            "kind": "plane_jump",
            "normal": [1.0],
            "offset": 0.5,
            "value_minus": [0.0],
            "value_plus": [s],
        },
    }


def test_richardson_removes_linear_term():
    eps = [0.04, 0.02, 0.01]
    vals = [3.0 + 5 * e for e in eps]
    assert richardson(eps, vals) == pytest.approx(3.0, rel=1e-12)


def test_griffith_target_affine():
    dom, fld, _ = load_problem(affine_config(2.0))
    rule = build_direction_rule(1)
    assert griffith_target(fld, dom, 1.0, rule) == pytest.approx(
        4.0 * 0.75 * SQRT_PI, rel=1e-12
    )


def test_griffith_target_jump():
    dom, fld, _ = load_problem(jump_config())
    rule = build_direction_rule(1)
    assert griffith_target(fld, dom, 1.0, rule) == pytest.approx(np.pi / 2, rel=1e-12)


def test_run_sweep_affine_within_two_percent(tmp_path):
    spec = SweepSpec(
        field_config=affine_config(1.0),
        eps_list=[0.04, 0.02, 0.01],
        h_over=8,
        out_path=str(tmp_path / "sweep.csv"),
    )
    res = run_sweep(spec)
    assert abs(res.extrapolated - res.target) / res.target <= 0.02
    assert (tmp_path / "sweep.csv").exists()


def test_run_sweep_jump_within_two_percent():
    spec = SweepSpec(field_config=jump_config(), eps_list=[0.04, 0.02, 0.01])
    res = run_sweep(spec)
    assert abs(res.extrapolated - res.target) / res.target <= 0.02


def test_run_sweep_constant_field_zero():
    cfg = {
        "domain": {"lower": [0.0], "upper": [1.0]},
        "field": {"kind": "affine", "matrix": [[0.0]], "offset": [1.0]},
    }
    res = run_sweep(SweepSpec(field_config=cfg, eps_list=[0.04, 0.02]))
    assert res.values == [0.0, 0.0]
    assert res.extrapolated == 0.0
    assert res.relative_error == 0.0


def test_run_sweep_with_ball_strategy():
    spec = SweepSpec(
        field_config=affine_config(1.0),
        eps_list=[0.04, 0.02],
        strategy=BallStrategy("dyadic", 1),
    )
    res = run_sweep(spec)
    assert 0 < res.values[-1] < res.target


def test_run_sweep_refuses_untileable_grid():
    cfg = affine_config()
    cfg["domain"]["upper"] = [0.997]  # not an integer multiple of eps/8
    with pytest.raises(GridCapabilityError):
        run_sweep(SweepSpec(field_config=cfg, eps_list=[0.04, 0.02]))


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(field_config=affine_config(), eps_list=[0.01, 0.02])
    with pytest.raises(ValueError):
        SweepSpec(field_config=affine_config(), eps_list=[0.04, 0.02], h_over=2)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"eps_list": []}, "empty"),
        ({"eps_list": [0.1, np.nan]}, "eps"),
        ({"eps_list": [np.inf, 0.1]}, "eps"),
        ({"eps_list": [0.1, -0.05]}, "eps"),
        ({"eps_list": [0.1, 0.0]}, "eps"),
        ({"eps_list": [0.04, 0.02], "p": np.nan}, "p must be finite"),
        ({"eps_list": [0.04, 0.02], "p": np.inf}, "p must be finite"),
        ({"eps_list": [0.04, 0.02], "h_over": np.nan}, "h_over >= 4, got nan"),
        ({"eps_list": [0.04, 0.02], "h_over": np.inf}, "h_over >= 4, got inf"),
    ],
)
def test_sweep_spec_rejects_bad_values(kwargs, match):
    with pytest.raises(ValueError, match=match):
        SweepSpec(field_config=affine_config(), **kwargs)


def test_relative_error_normalization():
    res = ExtrapolationResult([0.1], [1.0], extrapolated=1.5, target=1.0)
    assert res.relative_error == pytest.approx(0.5 / 2.0)


def test_multi_step_inequality_on_smooth_field():
    # jump-free case of the multi-step comparison, checked directly
    u = Affine(np.array([[1.5]]), np.zeros(1))
    box = BoxDomain(np.zeros(1), np.ones(1))
    E = BoxDomain(np.array([0.3]), np.array([0.7]))
    eps = 0.01
    grid = Grid(box, eps / 8)
    full = build_direction_rule(1, radial_order=6)
    near = [float(np.linalg.norm(xi)) <= 2.0 for xi in full.nodes]  # the audit's capped rule
    rule = DirectionRule(1, full.nodes[near], full.weights[near], 2.0, full.radial_order, full.angular_order)
    rhs = averaged_energy(u, box, eps, rule, grid=grid).total
    for m in (2, 3, 5):
        lhs = averaged_energy(u, E, m * eps, rule, grid=grid).total
        assert lhs <= rhs * 1.01


def test_multi_step_rows_equal_per_node_directional_loop():
    # the audit's Gaussian-weighted sums over |xi| <= 2, bit for bit against
    # a plain loop of directional energies over the capped nodes in order
    def node_loop(u, region, eps, rule, grid):
        total = 0.0
        for i in range(rule.n_nodes):
            xi = rule.nodes[i]
            if float(np.linalg.norm(xi)) > 2.0:
                continue
            total += rule.weights[i] * directional_energy(u, region, eps, xi, grid=grid)
        return total

    rows = [c for c in audit_inequalities(seed=0, n_fields=10).checks if c.name == "m-step-monotonicity"]
    assert len(rows) == 30
    rng = np.random.default_rng(0)
    for _ in range(10):
        random_section(rng)
    dims = [1] * 8 + [2, 2]
    fields = [random_field(rng, d) for d in dims]
    rules = {d: build_direction_rule(d, radial_order=6, angular_order=16) for d in (1, 2)}
    for row in rows:
        fid = int(row.field_id.split("-")[1])
        dim, u = dims[fid], fields[fid]
        m = int(row.params.split(" m=")[1])
        eps = 0.01 if dim == 1 else 0.02
        box = BoxDomain(np.zeros(dim), np.ones(dim))
        E = BoxDomain(np.full(dim, 0.3), np.full(dim, 0.7))
        grid = Grid(box, eps / 8.0 if dim == 1 else eps / 4.0)
        assert row.rhs == node_loop(u, box, eps, rules[dim], grid), row.params
        assert row.lhs == node_loop(u, E, m * eps, rules[dim], grid), row.params


def test_translation_rows_equal_per_direction_loop():
    # the audit's translation rows take each (field, shift) in one energy call
    # and one evaluation of E's centers; their lhs and rhs keep the bits of a
    # plain loop over the directions, with c_ref calibrated the same way
    deltas = (0.05, 0.1)
    dirs_by_dim = {
        1: [np.array([1.0]), np.array([-0.7])],
        2: [np.array([1.0, 0.0]), np.array([0.6, -0.8]), np.array([-0.5, 0.5])],
    }

    def sides(u, dim, delta, xi):
        grid = Grid(BoxDomain(np.zeros(dim), np.ones(dim)), delta / 8.0)
        E = BoxDomain(np.full(dim, 0.15), np.full(dim, 0.85))
        lhs = _translation_discrepancy(u, E, delta, xi[None, :], grid)[0]
        return lhs, delta * (1.0 + directional_energy(u, E, delta, xi, grid=grid))

    c_ref = {}
    for dim in (1, 2):
        worst = 0.0
        for delta in deltas:
            for xi in dirs_by_dim[dim]:
                lhs, base = sides(_reference_field(dim), dim, delta, xi)
                worst = max(worst, lhs / base)
        c_ref[dim] = 2.0 * worst

    rng = np.random.default_rng(0)
    for _ in range(10):
        random_section(rng)
    dims = [1] * 8 + [2, 2]
    fields = [random_field(rng, d) for d in dims]
    expected = []
    for fid, (dim, u) in enumerate(zip(dims, fields)):
        for delta in deltas:
            for xi in dirs_by_dim[dim]:
                lhs, base = sides(u, dim, delta, xi)
                params = f"dim={dim} delta={delta} xi={np.array2string(xi)}"
                expected.append((f"field-{fid:02d}", params, lhs, c_ref[dim] * base))
    rows = [c for c in audit_inequalities(seed=0, n_fields=10).checks if c.name == "translation-estimate"]
    assert len(rows) == len(expected) == 44
    for row, (field_id, params, lhs, rhs) in zip(rows, expected):
        assert (row.field_id, row.params) == (field_id, params)
        assert row.lhs.hex() == lhs.hex(), params
        assert row.rhs.hex() == rhs.hex(), params


def test_sweep_monotonicity_diagnostic():
    res = run_sweep(
        SweepSpec(field_config=affine_config(1.0), eps_list=[0.08, 0.04, 0.02])
    )
    assert res.values_monotone


def test_audit_all_margins_nonnegative():
    report = audit_inequalities(seed=0, n_fields=10)
    assert len(report.checks) > 40
    for c in report.checks:
        assert c.passed, f"{c.name} on {c.field_id} ({c.params}): margin {c.margin}"
    names = {c.name for c in report.checks}
    assert names == {
        "endpoint-lower-bound",
        "saturation-upper-bound",
        "translation-estimate",
        "m-step-monotonicity",
    }


def test_audit_writes_csv(tmp_path):
    out = tmp_path / "audit.csv"
    report = audit_inequalities(seed=3, n_fields=3, out_path=str(out))
    assert out.exists()
    text = out.read_text()
    assert "m-step-monotonicity" in text
    assert report.passed


@pytest.mark.parametrize("n_fields", [0, 1])
def test_audit_refuses_fewer_than_two_fields(tmp_path, n_fields):
    out = tmp_path / "audit.csv"
    with pytest.raises(ValueError, match="n_fields must be at least 2"):
        audit_inequalities(seed=0, n_fields=n_fields, out_path=str(out))
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
def test_audit_refuses_a_seed_that_is_not_a_non_negative_integer(tmp_path, seed):
    out = tmp_path / "audit.csv"
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        audit_inequalities(seed=seed, n_fields=2, out_path=str(out))
    assert not out.exists()


@pytest.mark.parametrize("n_fields", [2.5, 3.0])
def test_audit_refuses_non_integer_n_fields(tmp_path, n_fields):
    out = tmp_path / "audit.csv"
    with pytest.raises(ValueError, match="n_fields must be .* an integer"):
        audit_inequalities(seed=0, n_fields=n_fields, out_path=str(out))
    assert not out.exists()


def test_run_sweep_refuses_misspelled_quad_key():
    spec = SweepSpec(field_config=affine_config(1.0), eps_list=[0.04], quad={"radial_ordr": 8})
    with pytest.raises(TypeError, match="radial_ordr"):
        run_sweep(spec)


def test_csv_bit_identical_for_identical_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_sweep(
            SweepSpec(
                field_config=affine_config(1.0),
                eps_list=[0.04, 0.02],
                out_path=str(path),
            )
        )
    assert filecmp.cmp(a, b, shallow=False)


def test_write_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_csv(str(tmp_path / "x.csv"), [])


def test_translation_discrepancy_is_its_points_summed_in_any_batch():
    # each center's term is formed row by row, so each direction's cell sum
    # equals the terms computed in sub-batches of 1, 3 and 17 centers, bit for
    # bit (a matrix product over the whole batch rounds some rows differently,
    # which moves the sum at the second direction), and the centers shared by
    # the rows give each row its value with that direction alone
    u = random_field(np.random.default_rng(5), 2)
    grid = Grid(BoxDomain(np.zeros(2), np.ones(2)), 1 / 80)
    E = BoxDomain(np.full(2, 0.15), np.full(2, 0.85))
    delta, nudge = 0.1, grid.h / 7.0
    pts = grid.centers[E.contains(grid.centers)]
    xis = np.array([[0.6, -0.8], [0.3, -0.7]])
    rows = _translation_discrepancy(u, E, delta, xis, grid)
    assert len(rows) == len(xis)
    for xi, whole in zip(xis, rows):
        assert _translation_discrepancy(u, E, delta, xi[None, :], grid)[0].hex() == whole.hex()
        for size in (1, 3, 17):
            terms = []
            for at in range(0, len(pts), size):
                part = pts[at : at + size]
                ends = [np.arctan(_dot_rows(eval_nudged(u, x, nudge), xi)) for x in (part + delta * xi, part)]
                terms.append(np.abs(ends[0] - ends[1]))
            assert float(grid.cell_volume * np.sum(np.concatenate(terms))).hex() == whole.hex()


@st.composite
def translation_cases(draw):
    """A field from ``random_field``'s parameter box (affine part with
    entries in [-2, 2] and an offset in [-3, 3]; one or two planes with an
    offset in [0.35, 0.65] and a jump in [-3, 3] per component), a shift
    delta of the audit and a direction with components in [-1, 1]."""
    dim = draw(st.integers(1, 2))

    def vector(lo, hi, size=dim):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    parts = [Affine(vector(-2.0, 2.0, dim * dim).reshape(dim, dim), vector(-3.0, 3.0))]
    for _ in range(draw(st.integers(1, 2))):
        nu = vector(-1.0, 1.0)
        nu = nu / np.linalg.norm(nu) if np.linalg.norm(nu) > 0.1 else np.eye(dim)[0]
        parts.append(PlaneJump(nu, draw(st.floats(0.35, 0.65)), np.zeros(dim), vector(-3.0, 3.0)))
    xi = vector(-1.0, 1.0)
    if np.linalg.norm(xi) < 0.1:
        xi[0] = 1.0
    return SumField(tuple(parts)), draw(st.sampled_from([0.05, 0.1])), xi


@settings(derandomize=True, max_examples=40, deadline=None)
@given(translation_cases())
def test_translation_estimate_obeys_its_proven_bound(case):
    # pointwise |arctan a - arctan b| <= min(|t|, pi) <= 4 (delta + arctan(t^2/delta))
    # with t = a - b: past t^2 = delta the arctan is at least pi/4, and below
    # it arctan(t^2/delta) >= (pi/4) t^2/delta, while |t| <= 4 delta + pi t^2/delta
    # for every t.  So the cells of E whose pair the energy keeps add at most
    # delta (4 |E| + 4 F_dir) over E's cells, and every other cell of E at most
    # pi h^n.  The audit's translation check is this left side.
    u, delta, xi = case
    dim = xi.size
    grid = Grid(BoxDomain(np.zeros(dim), np.ones(dim)), delta / 8.0)
    E = BoxDomain(np.full(dim, 0.15), np.full(dim, 0.85))
    # the bound holds row by row: the drawn direction and its reverse
    xis = np.array([xi, -xi])
    cells = int(np.count_nonzero(E.contains(grid.centers)))
    for row, lhs in zip(xis, _translation_discrepancy(u, E, delta, xis, grid)):
        f_dir = directional_energy(u, E, delta, row, grid=grid)
        pairs = OneDirection(grid, E, row, delta)
        leaving = cells - int(np.sum(pairs.hi - pairs.lo))
        assert leaving >= 0
        assert lhs <= delta * (4.0 * cells * grid.cell_volume + 4.0 * f_dir) + np.pi * leaving * grid.cell_volume
