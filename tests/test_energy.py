import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nlgriffith.domain import (
    Affine,
    Ball,
    BoxDomain,
    Grid,
    InputError,
    PlaneJump,
    PlaneSegment,
    SampledField,
    SumField,
    difference_body,
    eval_nudged,
    sample,
)
from nlgriffith.energy import (
    BallFamily,
    BallStrategy,
    GridCapabilityError,
    averaged_energy,
    ball_candidates,
    ball_supremum_energy,
    check_resolution,
    directional_energy,
    family_energy,
    pairwise_energy,
)
from nlgriffith.quad import build_direction_rule, integrate

SQRT_PI = np.sqrt(np.pi)


@pytest.fixture(scope="module")
def rule1():
    return build_direction_rule(1)


@pytest.fixture(scope="module")
def rule2():
    return build_direction_rule(2, radial_order=10, angular_order=16)


def interval(a=0.0, b=1.0):
    return BoxDomain(np.array([a]), np.array([b]))


def square():
    return BoxDomain(np.zeros(2), np.ones(2))


def jump_1d(s=10.0, c=0.5):
    return PlaneJump(np.array([1.0]), c, np.array([0.0]), np.array([s]))


def richardson(eps_list, values):
    e1, e2 = eps_list[-2], eps_list[-1]
    v1, v2 = values[-2], values[-1]
    return (e1 * v2 - e2 * v1) / (e1 - e2)


# ---------------------------------------------------------------------------
# single-direction energy
# ---------------------------------------------------------------------------


def test_directional_energy_zero_on_constant(rule1):
    dom = interval()
    g = Grid(dom, 0.01)
    f = Affine(np.zeros((1, 1)), np.array([3.0]))
    assert directional_energy(f, dom, 0.05, np.array([1.0]), grid=g) == 0.0


def test_directional_energy_zero_on_skew():
    dom = square()
    g = Grid(dom, 0.01)
    W = np.array([[0.0, 1.3], [-1.3, 0.0]])
    f = Affine(W, np.zeros(2))
    val = directional_energy(f, dom, 0.05, np.array([0.7, -0.2]), grid=g)
    assert abs(val) <= 1e-12


def test_directional_energy_jump_band():
    # a straddling band of width eps |xi| at saturation level arctan(s^2 xi^2 / eps)
    dom = interval()
    eps, s = 0.01, 10.0
    g = Grid(dom, eps / 20)
    val = directional_energy(jump_1d(s), dom, eps, np.array([1.0]), grid=g)
    expected = np.arctan(s**2 / eps)
    assert val == pytest.approx(expected, rel=0.01)
    # independent brute-force oracle on a finer grid
    g_fine = Grid(dom, eps / 80)
    oracle = directional_energy(jump_1d(s), dom, eps, np.array([1.0]), grid=g_fine)
    assert val == pytest.approx(oracle, rel=0.01)


def test_directional_energy_rejects_bad_eps():
    dom = interval()
    g = Grid(dom, 0.01)
    for eps in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            directional_energy(jump_1d(), dom, eps, np.array([1.0]), grid=g)


@pytest.mark.parametrize("size", [1, 4])
def test_directional_energy_refuses_xi_of_another_dimension(size):
    # one component per grid axis: a 4-vector on a 2D grid is not two directions
    with pytest.raises(ValueError, match="xi must have 2 components"):
        directional_energy(Affine(np.eye(2), np.zeros(2)), square(), 0.2, np.ones(size), grid=Grid(square(), 0.05))


@pytest.mark.parametrize("sampled", [False, True], ids=["closed-form", "sampled"])
def test_every_energy_refuses_a_region_of_another_dimension(sampled):
    # a 3D ball on a 2D field once gave a number from its first two center
    # coordinates; every public entry now refuses any region, ball or
    # domain whose dimension is not the grid's
    grid = Grid(square(), 0.05)
    u = Affine(np.array([[1.0, 0.3], [-0.2, 0.6]]), np.zeros(2))
    u = sample(u, grid) if sampled else u
    rule = build_direction_rule(2, radial_order=4, angular_order=4)
    ball2, ball3 = Ball(np.full(2, 0.5), 0.3), Ball(np.full(3, 0.5), 0.3)
    line, cube = interval(), BoxDomain(np.zeros(3), np.ones(3))
    calls = [
        lambda: directional_energy(u, ball3, 0.2, np.array([1.0, 0.0]), grid=grid),
        lambda: directional_energy(u, line, 0.2, np.array([1.0, 0.0]), grid=grid),
        lambda: averaged_energy(u, ball3, 0.2, rule, grid=grid),
        lambda: averaged_energy(u, cube, 0.2, rule, grid=grid),
        lambda: averaged_energy(u, square(), 0.2, rule, grid=grid, support=cube),
        lambda: pairwise_energy(u, line, 0.2, grid=grid),
        lambda: family_energy(u, square(), BallFamily((ball3,)), 0.2, 2.0, rule, grid=grid),
        lambda: family_energy(u, cube, BallFamily((ball2,)), 0.2, 2.0, rule, grid=grid),
        lambda: ball_supremum_energy(u, cube, 0.2, 2.0, BallStrategy("dyadic", 1), rule, grid=grid),
        lambda: ball_supremum_energy(u, line, 0.2, 1.0, BallStrategy("greedy", 2), rule, grid=grid),
    ]
    for call in calls:
        with pytest.raises(InputError, match="does not fit a field of dimension 2"):
            call()


@pytest.mark.parametrize(
    "other", [Grid(square(), 1 / 32), Grid(BoxDomain(np.zeros(2), np.full(2, 2.0)), 1 / 16)], ids=["spacing", "box"]
)
def test_every_energy_refuses_a_grid_other_than_the_sampled_fields(other):
    # a field sampled at h = 1/16 once gave its own value whatever grid was
    # passed; a grid of another spacing, shape or box is refused
    grid = Grid(square(), 1 / 16)
    u = sample(Affine(np.array([[1.0, 0.3], [-0.2, 0.6]]), np.zeros(2)), grid)
    rule = build_direction_rule(2, radial_order=4, angular_order=4)
    calls = [
        lambda g: directional_energy(u, square(), 0.3, np.array([1.0, 0.0]), grid=g),
        lambda g: averaged_energy(u, square(), 0.3, rule, grid=g).total,
        lambda g: pairwise_energy(u, square(), 0.3, grid=g),
        lambda g: family_energy(u, square(), BallFamily((Ball(np.full(2, 0.5), 0.3),)), 0.3, 2.0, rule, grid=g),
        lambda g: ball_supremum_energy(u, square(), 0.3, 2.0, BallStrategy("dyadic", 1), rule, grid=g).total,
    ]
    for call in calls:
        with pytest.raises(InputError, match="is not the sampled field's"):
            call(other)
        # the field's own grid, or an equal one, is taken as before
        assert call(Grid(square(), 1 / 16)) == call(None)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_directional_energy_refuses_non_finite_xi(bad):
    dom = interval()
    with pytest.raises(ValueError, match="xi must be finite"):
        directional_energy(jump_1d(), dom, 0.04, np.array([bad]), grid=Grid(dom, 0.01))


def test_resolution_contract_enforced():
    dom = interval()
    g = Grid(dom, 0.05)
    with pytest.raises(GridCapabilityError):
        directional_energy(jump_1d(), dom, 0.1, np.array([1.0]), grid=g)
    for h, eps in ((0.01, np.nan), (np.nan, 0.1), (np.inf, 0.1)):
        with pytest.raises(ValueError):
            check_resolution(h, eps)


def _oracle_directional(u, region, eps, xi, grid):
    # the pair sum spelled out: membership by region.contains at both
    # endpoints, values by exact evaluation or by interpolation
    shifted = grid.centers + eps * xi
    mask = region.contains(grid.centers) & region.contains(shifted)
    if isinstance(u, SampledField):
        vals, u_q = u.values[mask], u.eval_many(shifted[mask])
    else:
        vals = eval_nudged(u, grid.centers[mask], grid.h / 7.0)
        u_q = eval_nudged(u, shifted[mask], grid.h / 7.0)
    s = (u_q - vals) @ xi
    return float(grid.cell_volume / eps * np.sum(np.arctan(s * s / eps)))


def test_directional_energy_matches_pair_oracle():
    # c03's field plus an oblique plane, so that endpoints land on planes
    f = SumField(
        (
            Affine(np.array([[1.0, 0.25], [0.25, 0.5]]), np.zeros(2)),
            PlaneJump(np.array([1.0, 0.0]), 0.5, np.zeros(2), np.array([10.0, 0.0])),
            PlaneJump(np.array([0.6, 0.8]), 0.55, np.zeros(2), np.array([0.3, 0.7])),
        )
    )
    slit = PlaneSegment(np.array([0.5, 0.2]), np.array([0.5, 0.7]))
    cases = [
        (square(), 0.08, Grid(square(), 0.08 / 6)),  # c03
        (BoxDomain(np.full(2, 0.15), np.full(2, 0.85)), 0.1, Grid(square(), 0.1 / 8)),  # audit E
        (Ball(np.array([0.4, 0.55]), 0.3), 0.04, Grid(square(), 0.01)),
        (BoxDomain(np.zeros(2), np.ones(2), (slit,)), 0.04, Grid(square(), 0.01)),
    ]
    rule = build_direction_rule(2, radial_order=4, angular_order=8)
    for region, eps, g in cases:
        for u in (f, sample(f, g)):
            new = [directional_energy(u, region, eps, xi, grid=g) for xi in rule.nodes]
            old = [_oracle_directional(u, region, eps, xi, g) for xi in rule.nodes]
            assert any(old)
            np.testing.assert_allclose(new, old, rtol=1e-12, atol=0.0)


def test_set_monotonicity(rule1):
    dom = interval()
    g = Grid(dom, 0.005)
    f = jump_1d(2.0, 0.45)
    small = Ball(np.array([0.5]), 0.2)
    big = Ball(np.array([0.5]), 0.45)
    for xi in (np.array([0.8]), np.array([-1.7]), np.array([3.0])):
        v_small = directional_energy(f, small, 0.04, xi, grid=g)
        v_big = directional_energy(f, big, 0.04, xi, grid=g)
        assert v_small <= v_big + 1e-15


def test_saturation_bound():
    rng = np.random.default_rng(5)
    dom = interval()
    g = Grid(dom, 0.005)
    u = SampledField(g, rng.normal(size=(g.n_cells, 1)))
    eps = 0.04
    for xi in (np.array([0.5]), np.array([2.0]), np.array([-1.0])):
        shifted = g.centers + eps * xi
        count = int(np.sum(dom.contains(g.centers) & dom.contains(shifted)))
        bound = 0.5 * np.pi * count * g.cell_volume / eps
        assert directional_energy(u, dom, eps, xi) <= bound


# ---------------------------------------------------------------------------
# direction-averaged energy
# ---------------------------------------------------------------------------


def test_averaged_energy_constant_is_zero(rule1):
    dom = interval()
    g = Grid(dom, 0.01)
    f = Affine(np.zeros((1, 1)), np.array([1.0]))
    rep = averaged_energy(f, dom, 0.05, rule1, grid=g)
    assert rep.total == 0.0


def test_averaged_energy_affine_limit(rule1):
    # small-eps limit is |domain| * A^2 * int xi^4 exp(-xi^2) = A^2 * 3 sqrt(pi) / 4
    A = 1.0
    dom = interval()
    f = Affine(np.array([[A]]), np.zeros(1))
    eps_list = [0.04, 0.02, 0.01]
    vals = [
        averaged_energy(f, dom, e, rule1, grid=Grid(dom, e / 8)).total for e in eps_list
    ]
    extrap = richardson(eps_list, vals)
    assert extrap == pytest.approx(A**2 * 0.75 * SQRT_PI, rel=0.01)


def test_averaged_energy_jump_limit(rule1):
    # surface constant in dimension 1: (pi/2) * int |xi| exp(-xi^2) = pi/2
    dom = interval()
    f = jump_1d(10.0)
    eps_list = [0.04, 0.02, 0.01]
    vals = [
        averaged_energy(f, dom, e, rule1, grid=Grid(dom, e / 8)).total for e in eps_list
    ]
    extrap = richardson(eps_list, vals)
    assert extrap == pytest.approx(np.pi / 2, rel=0.01)


def test_averaged_energy_total_reproducible_from_breakdown(rule1):
    dom = interval()
    g = Grid(dom, 0.005)
    rep = averaged_energy(jump_1d(3.0), dom, 0.04, rule1, grid=g)
    recomputed = sum(rule1.weights[i] * v for i, v in rep.per_direction.items())
    assert rep.total == recomputed


def test_averaged_energy_matches_generic_integrate(rule1):
    # the report reduction must match the quadrature module's node sum
    from nlgriffith.domain import difference_body

    dom = interval()
    g = Grid(dom, 0.005)
    f = jump_1d(3.0)
    eps = 0.04
    rep = averaged_energy(f, dom, eps, rule1, grid=g)
    support = difference_body(dom, eps)
    direct = integrate(
        rule1,
        lambda xi: directional_energy(f, dom, eps, xi, grid=g) if support.contains(xi)[0] else 0.0,
    )
    assert rep.total == pytest.approx(direct, rel=1e-14)


def test_translation_invariance(rule1):
    dom = interval()
    g = Grid(dom, 0.005)
    f = SumField((Affine(np.array([[2.0]]), np.zeros(1)), jump_1d(1.5)))
    f_shift = SumField((Affine(np.array([[2.0]]), np.array([0.7])), jump_1d(1.5)))
    a = averaged_energy(f, dom, 0.04, rule1, grid=g).total
    b = averaged_energy(f_shift, dom, 0.04, rule1, grid=g).total
    assert a == pytest.approx(b, abs=1e-12)


def test_rigid_motion_nullity_all_forms(rule2):
    rng = np.random.default_rng(11)
    dom = square()
    g = Grid(dom, 0.02)
    for _ in range(10):
        w = rng.normal()
        W = np.array([[0.0, w], [-w, 0.0]])
        f = Affine(W, rng.normal(size=2))
        assert averaged_energy(f, dom, 0.1, rule2, grid=g).total <= 1e-12
        assert pairwise_energy(f, dom, 0.1, grid=g) <= 1e-12


# ---------------------------------------------------------------------------
# pairwise (double-integral) energy
# ---------------------------------------------------------------------------


def test_pairwise_energy_constant_zero():
    dom = interval()
    g = Grid(dom, 0.01)
    f = Affine(np.zeros((1, 1)), np.array([2.0]))
    assert pairwise_energy(f, dom, 0.05, grid=g) == 0.0


def test_pairwise_matches_averaged_1d_affine(rule1):
    dom = interval()
    eps = 0.04
    g = Grid(dom, eps / 8)
    f = Affine(np.array([[1.0]]), np.zeros(1))
    a = averaged_energy(f, dom, eps, rule1, grid=g).total
    b = pairwise_energy(f, dom, eps, grid=g)
    assert b == pytest.approx(a, rel=0.03)


def test_pairwise_matches_averaged_1d_jump(rule1):
    dom = interval()
    eps = 0.04
    g = Grid(dom, eps / 8)
    f = jump_1d(10.0)
    a = averaged_energy(f, dom, eps, rule1, grid=g).total
    b = pairwise_energy(f, dom, eps, grid=g)
    assert b == pytest.approx(a, rel=0.03)


def test_pairwise_matches_averaged_2d(rule2):
    dom = square()
    eps = 0.1
    g = Grid(dom, eps / 8)
    f = Affine(np.array([[1.0, 0.3], [0.3, 0.5]]), np.zeros(2))
    a = averaged_energy(f, dom, eps, rule2, grid=g).total
    b = pairwise_energy(f, dom, eps, grid=g)
    assert b == pytest.approx(a, rel=0.03)


def _pairwise_oracle(u, domain, eps, grid):
    """The double-integral cell sum over every ordered pair of distinct cell
    centers inside the domain, O(N^2): ``x' - x = k h`` for the index
    difference ``k``, cutoff ``|k h| <= 6 eps``, the field evaluated at the
    centers."""
    inside = domain.contains(grid.centers)
    idx = np.indices(grid.shape).reshape(grid.dim, -1).T[inside]
    vals = u.eval_many(grid.centers[inside])
    total = 0.0
    for i in range(idx.shape[0]):  # one center at a time keeps memory O(N)
        delta = (idx - idx[i]) * grid.h
        r2 = np.sum(delta * delta, axis=1)
        pair = (r2 > 0.0) & (r2 <= (6.0 * eps) ** 2)
        s = np.sum((vals[pair] - vals[i]) * delta[pair], axis=1)
        total += np.sum(np.exp(-r2[pair] / eps**2) * np.arctan(s * s / eps**3))
    return grid.cell_volume**2 / eps ** (grid.dim + 1) * total


A_TILT = np.array([[1.0, 0.7], [-0.2, 0.5]])
TILTED_JUMP = PlaneJump(np.array([0.6, 0.8]), 0.51, np.zeros(2), np.array([1.0, -2.0]))
SLIT_FIELD = Affine(np.array([[1.0, 0.3], [0.3, 0.5]]), np.zeros(2))
# a precrack slit through the row of cell centers at x = 15.5/32 when h = 1/32
SLIT_ON_CENTERS = BoxDomain(
    np.zeros(2), np.ones(2), (PlaneSegment(np.array([15.5 / 32, 0.0]), np.array([15.5 / 32, 0.5])),)
)


@pytest.mark.parametrize(
    "f, dom, eps, h",
    [
        pytest.param(Affine(np.array([[1.5]]), np.array([0.3])), interval(), 0.05, 0.01, id="1d-affine"),
        pytest.param(jump_1d(10.0), interval(), 0.05, 0.01, id="1d-jump"),
        pytest.param(Affine(A_TILT, np.zeros(2)), square(), 0.18, 1 / 24, id="2d-affine"),
        pytest.param(SumField((Affine(A_TILT, np.zeros(2)), TILTED_JUMP)), square(), 0.18, 1 / 24, id="2d-jump"),
        # the centers on the slit drop out of the pairs, as centers and as
        # partners; at eps 0.15 a shifted center x + eps xi misses its
        # partner center by roundoff, at eps 0.125 it lands exactly
        pytest.param(SumField((Affine(A_TILT, np.zeros(2)), TILTED_JUMP)), SLIT_ON_CENTERS, 0.125, 1 / 32, id="2d-slit"),
        pytest.param(SLIT_FIELD, SLIT_ON_CENTERS, 0.15, 1 / 32, id="2d-slit-eps0.15"),
    ],
)
def test_pairwise_energy_matches_brute_force_pair_sum(f, dom, eps, h):
    # no cell center lies on a jump plane, so the oracle's plain evaluation
    # at the centers is the closed-form difference up to roundoff
    g = Grid(dom, h)
    assert pairwise_energy(f, dom, eps, grid=g) == pytest.approx(_pairwise_oracle(f, dom, eps, g), rel=1e-12, abs=0.0)


@st.composite
def pairwise_cases(draw):
    """An affine field with a definite symmetric part plus a plane jump whose
    plane passes no cell center; a 1D or 2D unit box of a few cells, whole
    or with a slit through a row of centers or between two rows; eps."""
    dim = draw(st.integers(1, 2))
    m = draw(st.sampled_from([24, 32]) if dim == 1 else st.sampled_from([10, 12, 14]))
    grid = Grid(BoxDomain(np.zeros(dim), np.ones(dim)), 1.0 / m)
    floats = st.floats(-2, 2)
    W = np.array(draw(st.lists(floats, min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    A = W + (2 * dim + 1) * np.eye(dim)
    nu = np.array(draw(st.lists(floats, min_size=dim, max_size=dim)))
    nu = nu / np.linalg.norm(nu) if np.linalg.norm(nu) > 0.1 else np.eye(dim)[0]
    offset = draw(st.floats(0.2, 0.8))
    # off the centers by more than roundoff, so that the oracle's plain
    # evaluation at the centers is the closed-form difference
    assume(np.min(np.abs(grid.centers @ nu - offset)) > 1e-9)
    jump = np.array(draw(st.lists(st.floats(-10, 10), min_size=dim, max_size=dim)))
    u = SumField((Affine(A, np.zeros(dim)), PlaneJump(nu, offset, np.zeros(dim), jump)))
    domain = grid.domain
    at = draw(st.sampled_from([(m // 2 + 0.5) / m, 0.5, None]))
    if at is not None:
        lower, upper = np.zeros(dim), np.full(dim, 0.6)
        lower[0] = upper[0] = at
        domain = BoxDomain(np.zeros(dim), np.ones(dim), (PlaneSegment(lower, upper),))
    return u, domain, grid, draw(st.floats(4.0, 5.0)) / m


@settings(derandomize=True, max_examples=40, deadline=None)
@given(pairwise_cases())
def test_pairwise_energy_matches_brute_force_pair_sum_on_drawn_fields(case):
    # the counting kernel on the lattice directions k h / eps, whose
    # partners land on centers up to roundoff, against every pair of centers
    u, domain, grid, eps = case
    assert pairwise_energy(u, domain, eps, grid=grid) == pytest.approx(
        _pairwise_oracle(u, domain, eps, grid), rel=1e-12, abs=0.0
    )


# ---------------------------------------------------------------------------
# ball families and the supremum functional
# ---------------------------------------------------------------------------


def test_ball_family_rejects_overlap():
    with pytest.raises(ValueError):
        BallFamily((Ball(np.array([0.3, 0.5]), 0.2), Ball(np.array([0.5, 0.5]), 0.2)))


def test_ball_family_names_first_overlapping_pair():
    # balls 0, 3 and balls 1, 2 overlap; the pair first in (i, j) order is named
    balls = [Ball(np.array(c), 0.1) for c in ([0.1, 0.1], [0.5, 0.5], [0.55, 0.5], [0.15, 0.1])]
    with pytest.raises(ValueError, match="balls 0 and 3 overlap"):
        BallFamily(tuple(balls))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: BallStrategy.parse("dyadic:-1"), "levels"),
        (lambda: BallStrategy.parse("greedy:0"), "count"),
        (lambda: BallStrategy.parse("greedy:-2"), "count"),
        (lambda: BallStrategy("dyadic", levels=1.5), "levels"),
        (lambda: BallStrategy("greedy", count=np.nan), "count"),
        (lambda: BallStrategy("greedy", count=True), "count"),
        (lambda: BallStrategy("dyadic", levels=False), "levels"),
    ],
    ids=["dyadic:-1", "greedy:0", "greedy:-2", "levels=1.5", "count=nan", "count=True", "levels=False"],
)
def test_ball_strategy_refuses_bad_counts(build, name):
    with pytest.raises(ValueError, match=name):
        build()


@pytest.mark.parametrize("text", ["dyadic:x", "dyadic:1.5", "dyadic:1:2", "dyadic:", "greedy:", "greedy:two"])
def test_ball_strategy_parse_refuses_malformed_counts(text):
    # the message names the text and the accepted form, not int()'s complaint
    kind = text.partition(":")[0]
    with pytest.raises(ValueError, match=f"{text!r} must have the form {kind} or {kind}:integer"):
        BallStrategy.parse(text)


def test_ball_strategy_parse_defaults_are_the_field_defaults():
    assert BallStrategy.parse("dyadic") == BallStrategy("dyadic")
    assert BallStrategy.parse("greedy") == BallStrategy("greedy")
    assert BallStrategy.parse("dyadic:0") == BallStrategy("dyadic", levels=0)


@pytest.mark.parametrize("sampled", [False, True], ids=["closed-form", "sampled"])
def test_an_empty_family_is_worth_zero(sampled):
    # a family of no balls is admissible; its value is the empty sum 0.0 on
    # either kernel, where a sampled field once raised from max() of nothing
    grid = Grid(square(), 0.05)
    jump = PlaneJump(np.array([1.0, 0.0]), 0.5, np.zeros(2), np.ones(2))
    u = SumField((Affine(np.array([[1.0, 0.3], [-0.2, 0.6]]), np.zeros(2)), jump))
    u = sample(u, grid) if sampled else u
    rule = build_direction_rule(2, radial_order=4, angular_order=4)
    for support in (False, True):
        value = family_energy(u, square(), BallFamily(()), 0.2, 2.0, rule, grid=grid, per_ball_support=support)
        assert type(value[0]) is float and value == (0.0, {})


def test_ball_family_allows_touching():
    fam = BallFamily((Ball(np.array([0.25, 0.25]), 0.25), Ball(np.array([0.75, 0.25]), 0.25)))
    assert len(fam) == 2


def test_dyadic_level0_inscribed_ball():
    fams = ball_candidates(square(), BallStrategy("dyadic", levels=0))
    assert len(fams) == 1 and len(fams[0]) == 1
    ball = fams[0].balls[0]
    assert np.allclose(ball.center, [0.5, 0.5]) and ball.radius == pytest.approx(0.5)


def test_dyadic_level1_four_balls():
    fams = ball_candidates(square(), BallStrategy("dyadic", levels=1))
    assert len(fams[1]) == 4
    assert all(b.radius == pytest.approx(0.25) for b in fams[1].balls)


def test_dyadic_respects_precrack():
    seg = PlaneSegment(np.array([0.2, 0.5]), np.array([0.8, 0.5]))
    dom = BoxDomain(np.zeros(2), np.ones(2), (seg,))
    fams = ball_candidates(dom, BallStrategy("dyadic", levels=1))
    # the level-0 inscribed ball meets the slit and is rejected entirely;
    # the level-1 balls only touch it and survive
    assert all(len(f) > 0 for f in fams)
    assert len(fams[0]) == 4


def test_greedy_strategy_packs_disjoint_balls():
    fams = ball_candidates(square(), BallStrategy("greedy", count=5))
    fam = fams[0]
    assert 1 <= len(fam) <= 5
    assert all(square().contains_ball(b) for b in fam.balls)


def test_ball_supremum_zero_on_constant(rule1):
    dom = interval()
    g = Grid(dom, 0.005)
    f = Affine(np.zeros((1, 1)), np.array([1.0]))
    for strategy in (BallStrategy("dyadic", 2), BallStrategy("greedy", count=4)):
        for p in (1.0, 2.0):
            rep = ball_supremum_energy(f, dom, 0.04, p, strategy, rule1, grid=g)
            assert rep.total == 0.0


def test_single_ball_family_variant_equals_averaged(rule1):
    # per-ball support, p = 1, one ball: exactly the direction-averaged energy
    dom = interval()
    g = Grid(dom, 0.005)
    f = jump_1d(4.0)
    ball = Ball(np.array([0.5]), 0.5)
    total, _ = family_energy(
        f, dom, BallFamily((ball,)), 0.04, 1.0, rule1, grid=g, per_ball_support=True
    )
    rep = averaged_energy(f, ball, 0.04, rule1, grid=g)
    assert total == rep.total


def test_supremum_monotone_under_refinement(rule1):
    dom = interval()
    g = Grid(dom, 0.005)
    f = Affine(np.array([[2.0]]), np.zeros(1))
    values = [
        ball_supremum_energy(f, dom, 0.04, 1.0, BallStrategy("dyadic", L), rule1, grid=g).total
        for L in (0, 1, 2)
    ]
    assert values[0] <= values[1] + 1e-15
    assert values[1] <= values[2] + 1e-15


def test_superadditivity_over_disjoint_intervals(rule1):
    # two disjoint half-interval balls cannot beat the whole interval
    dom = interval()
    g = Grid(dom, 0.005)
    f = Affine(np.array([[2.0]]), np.zeros(1))
    eps = 0.04
    halves = BallFamily((Ball(np.array([0.25]), 0.25), Ball(np.array([0.75]), 0.25)))
    total_halves, _ = family_energy(f, dom, halves, eps, 1.0, rule1, grid=g)
    whole = averaged_energy(f, dom, eps, rule1, grid=g).total
    assert total_halves <= whole + 1e-12


def test_holder_comparison_per_family(rule1):
    # L^1 norm <= (total weight)^(1 - 1/p) * L^p norm, per ball family
    dom = interval()
    g = Grid(dom, 0.005)
    f = SumField((Affine(np.array([[1.0]]), np.zeros(1)), jump_1d(2.0, 0.4)))
    fam = BallFamily((Ball(np.array([0.3]), 0.3), Ball(np.array([0.8]), 0.2)))
    for p in (1.5, 2.0, 3.0):
        v1, _ = family_energy(f, dom, fam, 0.04, 1.0, rule1, grid=g)
        vp, _ = family_energy(f, dom, fam, 0.04, p, rule1, grid=g)
        C = rule1.total_weight ** (1.0 - 1.0 / p)
        assert v1 <= C * vp * (1 + 1e-12)


def test_supremum_report_reproducible_from_per_ball(rule1):
    dom = interval()
    g = Grid(dom, 0.005)
    f = jump_1d(5.0, 0.37)
    rep = ball_supremum_energy(f, dom, 0.04, 2.0, BallStrategy("dyadic", 2), rule1, grid=g)
    assert rep.total == pytest.approx(sum(rep.per_ball.values()), rel=1e-14)
    assert rep.family is not None
    assert all(dom.contains_ball(b) for b in rep.family.balls)


def _sampled_cube(dim):
    """A sampled affine-plus-jump field with noise on the unit cube, its eps,
    and a small direction rule."""
    eps = 0.1 if dim == 2 else 0.25
    dom = BoxDomain(np.zeros(dim), np.ones(dim))
    g = Grid(dom, eps / 4)
    rng = np.random.default_rng(dim)
    A = rng.normal(size=(dim, dim))
    normal = rng.normal(size=dim)
    jump = PlaneJump(normal / np.linalg.norm(normal), 0.55, np.zeros(dim), rng.normal(size=dim))
    u = sample(SumField((Affine(A, np.zeros(dim)), jump)), g)
    u = SampledField(g, u.values + 0.05 * rng.normal(size=u.values.shape))
    return dom, u, eps, build_direction_rule(dim, radial_order=2, angular_order=8 if dim == 2 else 4)


def _families(dom):
    fine = ball_candidates(dom, BallStrategy.parse("dyadic:2"))[-1].balls
    return {
        "dyadic:1": ball_candidates(dom, BallStrategy.parse("dyadic:1"))[-1],
        "dyadic:2": BallFamily(fine),
        "greedy": ball_candidates(dom, BallStrategy.parse("greedy:5"))[0],
        "reordered": BallFamily(fine[::-1]),
        "partial": BallFamily(fine[1::3]),
    }


@pytest.mark.parametrize(
    "dim, name", [(2, "dyadic:1"), (2, "dyadic:2"), (2, "greedy"), (2, "reordered"), (2, "partial"), (3, "dyadic:1")]
)
def test_sampled_family_per_ball_equals_averaged_energy_bit_for_bit(dim, name):
    # the family's one slope pass per direction over all balls gives each
    # ball the sums of a pass over that ball alone, in the same order
    dom, u, eps, rule = _sampled_cube(dim)
    family = _families(dom)[name]
    for per_ball_support in (False, True):
        support = None if per_ball_support else difference_body(dom, eps)
        _, per_ball = family_energy(u, dom, family, eps, 1.0, rule, per_ball_support=per_ball_support)
        assert len(per_ball) == len(family) and any(v > 0 for v in per_ball.values())
        for i, ball in enumerate(family.balls):
            assert per_ball[i].hex() == averaged_energy(u, ball, eps, rule, support=support).total.hex()


def _candidate_case(dim, field, seed):
    """The unit cube, a closed-form field, its eps, grid, a small direction
    rule and an rng.  ``random``: an affine field with one jump plane drawn
    from ``seed``; ``corner``: a jump across a corner that the inscribed
    ball misses and the balls of the next level cut, so that a later
    family is the best; ``zero``: every family ties at zero."""
    rng = np.random.default_rng(seed)
    dom = BoxDomain(np.zeros(dim), np.ones(dim))
    eps = {1: 0.04, 2: 0.1, 3: 0.25}[dim]
    g = Grid(dom, eps / 4)
    nu = rng.normal(size=dim)
    nu /= np.linalg.norm(nu)
    if field == "random":
        jump = PlaneJump(nu, 0.5, np.zeros(dim), rng.normal(size=dim))
        parts = (Affine(rng.normal(size=(dim, dim)), np.zeros(dim)), jump)
    elif field == "corner":
        nu = np.ones(dim) / np.sqrt(dim)
        jump = PlaneJump(nu, 0.1 if dim == 1 else 0.25 / np.sqrt(dim), np.zeros(dim), 3 * nu)
        parts = (Affine(0.1 * np.eye(dim), np.zeros(dim)), jump)
    else:
        parts = (Affine(np.zeros((dim, dim)), np.zeros(dim)),)
    orders = {1: {}, 2: {"radial_order": 2, "angular_order": 8}, 3: {"radial_order": 2, "angular_order": 4}}
    rule = build_direction_rule(dim, **orders[dim])
    return dom, SumField(parts), eps, g, rule, rng


def _first_best_alone(u, dom, eps, p, strategy, rule, g):
    """``ball_supremum_energy`` against the first best family of separate
    ``family_energy`` calls, bit for bit."""
    families = ball_candidates(dom, BallStrategy.parse(strategy))
    alone = [family_energy(u, dom, family, eps, p, rule, grid=g) for family in families]
    best = max(range(len(families)), key=lambda k: alone[k][0])
    report = ball_supremum_energy(u, dom, eps, p, BallStrategy.parse(strategy), rule, grid=g)
    assert [(b.center.tolist(), b.radius) for b in report.family.balls] == [
        (b.center.tolist(), b.radius) for b in families[best].balls
    ]
    assert report.total.hex() == alone[best][0].hex()
    assert {k: v.hex() for k, v in report.per_ball.items()} == {k: v.hex() for k, v in alone[best][1].items()}
    return best


@pytest.mark.parametrize(
    "dim, field, seed, strategy, p, best",
    [(2, "random", seed, text, 2.0, 0) for seed in (0, 1, 2) for text in ("dyadic:1", "dyadic:2", "greedy:5")]
    + [(2, "random", 3, "dyadic:2", 1.0, 0), (2, "random", 4, "dyadic:2", 1.5, 0), (3, "random", 5, "dyadic:1", 2.0, 0)]
    + [(2, "corner", 6, "dyadic:2", 2.0, 1), (1, "corner", 7, "dyadic:3", 2.0, 1), (2, "zero", 8, "dyadic:2", 2.0, 0)],
)
def test_sampled_ball_supremum_is_the_first_best_family_evaluated_alone(dim, field, seed, strategy, p, best):
    # every candidate family shares one slope pass per direction; each
    # family's value is still the one it has alone, bit for bit (random
    # fields carry noise on the nodes)
    dom, u, eps, g, rule, rng = _candidate_case(dim, field, seed)
    u = sample(u, g)
    if field == "random":
        u = SampledField(g, u.values + 0.05 * rng.normal(size=u.values.shape))
    assert _first_best_alone(u, dom, eps, p, strategy, rule, g) == best


@pytest.mark.parametrize("field, best", [("random", 0), ("corner", 1)])
@pytest.mark.parametrize("strategy", ["dyadic:1", "dyadic:2", "dyadic:3"])
def test_closed_form_ball_supremum_is_the_first_best_family_evaluated_alone(field, strategy, best):
    dom, u, eps, g, rule, _ = _candidate_case(2, field, 0)
    assert _first_best_alone(u, dom, eps, 2.0, strategy, rule, g) == best


@pytest.mark.parametrize("p", [np.nan, np.inf, 0.5])
def test_ball_functionals_reject_bad_p(rule1, p):
    dom = interval()
    g = Grid(dom, 0.005)
    family = BallFamily((Ball(np.array([0.5]), 0.5),))
    with pytest.raises(ValueError, match="p must be finite and at least 1"):
        family_energy(jump_1d(), dom, family, 0.04, p, rule1, grid=g)
    with pytest.raises(ValueError, match="p must be finite and at least 1"):
        ball_supremum_energy(jump_1d(), dom, 0.04, p, BallStrategy("dyadic", 1), rule1, grid=g)


@pytest.mark.parametrize("eps", [np.nan, np.inf, -0.04, 0.0])
def test_ball_supremum_rejects_bad_eps(rule1, eps):
    dom = interval()
    g = Grid(dom, 0.005)
    with pytest.raises(ValueError):
        ball_supremum_energy(jump_1d(), dom, eps, 1.0, BallStrategy("dyadic", 1), rule1, grid=g)


def test_sampled_field_energy_close_to_analytic(rule1):
    # interpolation smears a large jump over one cell, widening the
    # near-saturated band by O(h/eps); the sampled value overshoots by
    # roughly that fraction and no more
    dom = interval()
    eps = 0.04
    g = Grid(dom, eps / 8)
    f = jump_1d(10.0)
    analytic = averaged_energy(f, dom, eps, rule1, grid=g).total
    sampled = averaged_energy(sample(f, g), dom, eps, rule1).total
    assert sampled >= analytic - 1e-12
    assert sampled == pytest.approx(analytic, rel=0.2)
