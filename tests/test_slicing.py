import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlgriffith.domain import Affine, Ball, BoxDomain, PlaneJump, SumField
from nlgriffith.energy import BallFamily, BallStrategy, ball_candidates
from nlgriffith.quad import build_sphere_rule
from nlgriffith.slicing import (
    Section1D,
    averaged_jump_measure,
    ball_sup_slice_measure,
    directional_slice_measure,
    endpoint_lower_bound,
    family_slice_measure,
    mumford_shah_1d,
    nonlocal_energy_1d,
    piecewise_project,
    section,
)
from nlgriffith.slicing import _check_interval, _jump_term, _slice_table, _sloped_piece_integral

HALF_PI = np.pi / 2


def square():
    return BoxDomain(np.zeros(2), np.ones(2))


def plane_jump_2d(amp=10.0, c=0.5):
    return PlaneJump(np.array([1.0, 0.0]), c, np.zeros(2), np.array([amp, 0.0]))


def random_piecewise(rng, n_pieces=4, span=(0.0, 1.0), max_slope=3.0, max_jump=3.0):
    knots = np.sort(rng.uniform(*span, size=n_pieces - 1))
    knots = np.concatenate([[span[0]], knots, [span[1]]])
    # enforce separation so eps-shifted breakpoints stay distinct
    while np.any(np.diff(knots) < 0.02):
        knots = np.sort(rng.uniform(*span, size=n_pieces - 1))
        knots = np.concatenate([[span[0]], knots, [span[1]]])
    slopes = rng.uniform(-max_slope, max_slope, size=n_pieces)
    left_values = np.empty(n_pieces)
    left_values[0] = rng.normal()
    for i in range(1, n_pieces):
        prev_end = left_values[i - 1] + slopes[i - 1] * (knots[i] - knots[i - 1])
        left_values[i] = prev_end + rng.uniform(-max_jump, max_jump)
    return Section1D.piecewise(knots, left_values, slopes)


def values_at(v, ts):
    return np.array([v.value(t) for t in ts])


@dataclass(frozen=True)
class SliceMeasureValue:
    """Per-slice measure split: small-jump/gradient mass plus a big-jump count."""

    ac_part: float
    jump_count: int

    @property
    def total(self) -> float:
        return self.ac_part + self.jump_count


def slice_measure(sec: Section1D, span=None) -> SliceMeasureValue:
    """Small-jump/gradient mass and big-jump count of one section: the
    per-line oracle that ``lattice_slice_measure`` integrates."""
    if sec.degenerate:
        return SliceMeasureValue(0.0, 0)
    a, b = sec.domain if span is None else span
    _check_interval(float(a), float(b))
    ac = 0.0
    count = 0
    for i in range(sec.slopes.size):
        seg = max(0.0, min(b, sec.knots[i + 1]) - max(a, sec.knots[i]))
        ac += abs(sec.slopes[i]) * seg
    for t, amp in sec.jumps():
        if a < t < b:
            if abs(amp) > 1.0:
                count += 1
            else:
                ac += abs(amp)
    return SliceMeasureValue(ac, count)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def test_section_affine_slope_is_xi_quadratic():
    u = Affine(np.eye(2), np.zeros(2))
    for xi in (np.array([1.0, 0.0]), np.array([0.6, -0.4])):
        sec = section(u, xi, np.array([0.0, 0.5]), square())
        assert sec.slopes[0] == pytest.approx(float(xi @ xi), rel=1e-14)


def test_section_plane_jump_breakpoint_1d():
    # one-dimensional bar: the hyperplane of base points is the origin
    s = 7.0
    u = PlaneJump(np.array([1.0]), 0.5, np.array([0.0]), np.array([s]))
    dom = BoxDomain(np.array([0.0]), np.array([1.0]))
    sec = section(u, np.array([1.0]), np.array([0.0]), dom)
    jumps = sec.jumps()
    assert len(jumps) == 1
    t, amp = jumps[0]
    assert t == pytest.approx(0.5) and amp == pytest.approx(s)


def test_section_plane_jump_breakpoint_2d():
    s = 7.0
    u = PlaneJump(np.array([1.0, 0.0]), 0.5, np.zeros(2), np.array([s, 0.0]))
    sec = section(u, np.array([1.0, 0.0]), np.array([0.0, 0.3]), square())
    jumps = sec.jumps()
    assert len(jumps) == 1
    t, amp = jumps[0]
    assert t == pytest.approx(0.5) and amp == pytest.approx(s)
    # reversed direction: the slice now crosses plus-to-minus and the jump
    # vector is dotted with -e1, so the two sign flips cancel
    sec_rev = section(u, np.array([-1.0, 0.0]), np.array([0.0, 0.3]), square())
    assert sec_rev.jumps()[0][1] == pytest.approx(s)


def test_section_parallel_direction_sees_no_jump():
    u = plane_jump_2d()
    sec = section(u, np.array([0.0, 1.0]), np.array([0.2, 0.0]), square())
    assert sec.jumps() == []
    assert not sec.degenerate


def test_section_inside_jump_plane_is_degenerate():
    u = plane_jump_2d()
    sec = section(u, np.array([0.0, 1.0]), np.array([0.5, 0.0]), square())
    assert sec.degenerate
    assert slice_measure(sec).total == 0.0


def test_section_translation_consistency():
    rng = np.random.default_rng(2)
    u = SumField((Affine(rng.normal(size=(2, 2)), rng.normal(size=2)), plane_jump_2d(2.0)))
    xi = np.array([0.8, 0.6])
    big = BoxDomain(-5 * np.ones(2), 5 * np.ones(2))
    for _ in range(20):
        x = rng.uniform(0.1, 0.9, size=2)
        t = rng.uniform(-0.05, 0.05)
        y = x - (x @ xi) * xi / (xi @ xi)
        sec = section(u, xi, y, big)
        lhs = sec.value((x @ xi) / (xi @ xi) + t)
        rhs = float(u.eval_many((x + t * xi)[None, :])[0] @ xi)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# 1D energies
# ---------------------------------------------------------------------------


def test_energy_1d_constant_is_zero():
    v = Section1D.affine(0.0, 1.0, 2.0, 0.0)
    assert nonlocal_energy_1d(v, (0.0, 0.9), 0.1) == 0.0


def test_energy_1d_affine_closed_form():
    m = 2.0
    v = Section1D.affine(0.0, 1.0, 0.0, m)
    for eps in (0.1, 0.01, 0.001):
        val = nonlocal_energy_1d(v, (0.0, 1.0 - eps), eps)
        expected = (1.0 - eps) / eps * np.arctan(m**2 * eps)
        assert val == pytest.approx(expected, rel=1e-12)
    # eps -> 0 limit is the squared slope times the length
    assert nonlocal_energy_1d(v, (0.0, 1.0 - 1e-4), 1e-4) == pytest.approx(m**2, rel=1e-3)


def test_energy_1d_single_jump_band():
    s = 5.0
    v = Section1D.piecewise([0.0, 0.5, 1.0], [0.0, s], [0.0, 0.0])
    for eps in (0.1, 0.01):
        val = nonlocal_energy_1d(v, (0.0, 1.0 - eps), eps)
        assert val == pytest.approx(np.arctan(s**2 / eps), rel=1e-12)
    assert nonlocal_energy_1d(v, (0.0, 0.999), 1e-3) == pytest.approx(HALF_PI, rel=1e-2)


def test_energy_1d_precondition():
    v = Section1D.affine(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        nonlocal_energy_1d(v, (0.0, 1.0), 0.1)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0])
def test_energy_1d_refuses_non_finite_or_non_positive_eps(eps):
    v = Section1D.affine(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        nonlocal_energy_1d(v, (0.0, 0.5), eps)


def test_energy_1d_mixed_slope_pieces_match_quadrature():
    # difference is genuinely affine across the breakpoint shift
    v = Section1D.piecewise([0.0, 0.5, 1.0], [0.0, 0.25], [0.5, 2.0])
    eps = 0.2
    val = nonlocal_energy_1d(v, (0.0, 0.8), eps)
    # brute-force midpoint oracle
    m = 200000
    t = (np.arange(m) + 0.5) * 0.8 / m
    g = np.array([v.value(x + eps) for x in t]) - np.array([v.value(x) for x in t])
    oracle = 0.8 / m * np.sum(np.arctan(g * g / eps)) / eps
    assert val == pytest.approx(oracle, rel=1e-6)


@st.composite
def sloped_pieces(draw):
    """A piece of length 1e-4..1 on which the difference runs with slope
    |beta| in 1e-8..1e3 around a midpoint value anywhere, near zero, or
    such that the piece crosses zero."""
    eps = draw(st.floats(1e-3, 0.1))
    beta = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-8.0, 3.0))
    length = 10.0 ** draw(st.floats(-4.0, 0.0))
    u = draw(st.floats(-1.0, 1.0))
    where = draw(st.sampled_from(["anywhere", "near-zero", "crossing"]))
    g = {"anywhere": 10.0 * u, "near-zero": u * np.sqrt(eps), "crossing": 0.5 * u * beta * length}[where]
    return g, beta, length, eps


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sloped_pieces())
@example((2.0, 1e-3, 1.0, 0.01))  # |dy| = 1e-3 <= 1e-2 |y|: the Gauss-Legendre sum
@example((0.0, 1e-3, 1.0, 0.01))  # |dy| = 1e-3 <= 1e-2 sqrt(eps), around zero
@example((0.3, 0.05, 1.0, 0.01))  # |dy| = 0.05 just above 1e-2 * 3.3: the closed form
@example((0.0, -1e3, 1.0, 1e-3))  # a steep piece through zero
def test_sloped_piece_closed_form_matches_adaptive_quadrature(piece):
    g, beta, length, eps = piece
    zero = 0.5 * length - g / beta  # where the difference crosses zero
    ref, _ = quad(
        lambda t: np.arctan((g + beta * (t - 0.5 * length)) ** 2 / eps),
        0.0,
        length,
        points=[zero] if 0.0 < zero < length else None,
        epsabs=1e-13,
        epsrel=1e-11,
        limit=200,
    )
    assert abs(_sloped_piece_integral(g, beta, length, eps) - ref) <= 1e-13 + 1e-11 * abs(ref)


def _two_pieces():
    return Section1D.piecewise([0.0, 0.5, 1.0], [0.0, 1.0], [1.0, 1.0])


def test_energy_1d_refuses_non_finite_interval():
    # used to return nan
    with pytest.raises(ValueError, match=r"interval \(nan, 0.5\) must be finite"):
        nonlocal_energy_1d(_two_pieces(), (np.nan, 0.5), 0.1)


def test_energy_1d_refuses_reversed_interval():
    # used to raise "t=0.5 sits exactly on a jump"
    with pytest.raises(ValueError, match=r"interval \(0.6, 0.2\) is reversed"):
        nonlocal_energy_1d(_two_pieces(), (0.6, 0.2), 0.1)


# ---------------------------------------------------------------------------
# Mumford-Shah and the grid projection
# ---------------------------------------------------------------------------


def test_ms_1d_affine():
    v = Section1D.affine(0.0, 1.0, 0.0, 3.0)
    assert mumford_shah_1d(v, (0.0, 1.0), 2 / np.pi) == pytest.approx((2 / np.pi) * 9.0)


def test_ms_1d_counts_jumps():
    v = Section1D.piecewise([0.0, 0.3, 0.7, 1.0], [0.0, 1.0, 3.0], [0.0, 0.0, 0.0])
    assert mumford_shah_1d(v, (0.0, 1.0), 1.0) == 2.0


def test_ms_1d_refuses_non_finite_gamma():
    # used to return nan
    with pytest.raises(ValueError, match="gamma must be finite, got nan"):
        mumford_shah_1d(_two_pieces(), (0.0, 1.0), np.nan)


def test_ms_1d_refuses_reversed_interval():
    # used to return 0.0
    with pytest.raises(ValueError, match=r"interval \(0.7, 0.2\) is reversed"):
        mumford_shah_1d(_two_pieces(), (0.7, 0.2), 1.0)


def test_upper_bound_energy_vs_ms():
    rng = np.random.default_rng(9)
    for _ in range(20):
        v = random_piecewise(rng)
        for eps in (0.1, 0.01):
            lhs = nonlocal_energy_1d(v, (0.0, 1.0 - eps), eps)
            rhs = HALF_PI * mumford_shah_1d(v, (0.0, 1.0), 2 / np.pi)
            assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_projection_reproduces_affine():
    v = Section1D.affine(0.0, 1.0, 0.5, 1.0)
    proj = piecewise_project(v, 0.0, 8)
    ts = np.linspace(0.01, 0.99, 37)
    assert np.allclose(values_at(proj, ts), values_at(v, ts), atol=1e-12)


def test_projection_inserts_jump_on_steep_interval():
    j = 8
    v = Section1D.piecewise([0.0, 0.5 / j, 1.0], [0.0, 10.0], [0.0, 0.0])
    proj = piecewise_project(v, 0.0, j)
    jumps = proj.jumps()
    assert len(jumps) == 1
    t, amp = jumps[0]
    assert t == pytest.approx(0.5 / j)
    assert amp == pytest.approx(10.0)


def test_projection_energy_identity_exact():
    rng = np.random.default_rng(4)
    for _ in range(100):
        v = random_piecewise(rng, n_pieces=5)
        j = int(rng.integers(3, 12))
        anchor = float(rng.uniform(0.0, 0.01))
        proj = piecewise_project(v, anchor, j)
        z_min = int(np.ceil((0.0 - anchor) * j - 1e-12))
        z_max = int(np.floor((1.0 - anchor) * j + 1e-12)) - 1
        for z in range(z_min, z_max + 1):
            # the projection's knots are these exact floats, so the
            # unpadded interval clips the gradient mass piece-exactly
            t0, t1 = anchor + z / j, anchor + (z + 1) / j
            delta = v.value(t1) - v.value(t0)
            lhs = HALF_PI * mumford_shah_1d(proj, (t0, t1), 2 / np.pi)
            rhs = min(HALF_PI, j * delta**2)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_projection_never_exceeds_original_ms():
    # per grid interval: an affine piece costs j*delta^2 <= int |v'|^2 by
    # Cauchy-Schwarz, a jump piece costs pi/2 <= pi/2 per original jump,
    # so the projected energy is dominated interval by interval
    rng = np.random.default_rng(6)
    for _ in range(25):
        v = random_piecewise(rng)
        j = int(rng.integers(4, 16))
        anchor = float(rng.uniform(0.0, 0.005))
        proj = piecewise_project(v, anchor, j)
        lo, hi = proj.domain
        lhs = HALF_PI * mumford_shah_1d(proj, (lo, hi), 2 / np.pi)
        rhs = HALF_PI * mumford_shah_1d(v, (lo - 1.0 / j, hi + 1.0 / j), 2 / np.pi)
        assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_projection_l1_convergence():
    rng = np.random.default_rng(12)
    v = random_piecewise(rng, n_pieces=5)
    # stay inside the coarsest projection's domain
    ts = np.linspace(0.14, 0.86, 4001)
    dists = []
    for j in (8, 16, 32, 64):
        proj = piecewise_project(v, 0.0005, j)
        dists.append(np.mean(np.abs(values_at(proj, ts) - values_at(v, ts))))
    assert dists[-1] <= dists[0]
    assert dists[-1] <= 0.5 / 64 * 40  # C/j decay with a generous constant


# ---------------------------------------------------------------------------
# endpoint lower bound
# ---------------------------------------------------------------------------


def test_lower_bound_examples():
    v = Section1D.affine(0.0, 1.0, 0.0, 2.0)  # v(1) - v(0) = 2
    assert endpoint_lower_bound(v, 0.0, 1.0) == pytest.approx(HALF_PI)
    v2 = Section1D.affine(0.0, 1.0, 0.0, 0.5)
    assert endpoint_lower_bound(v2, 0.0, 1.0) == pytest.approx(0.25)
    v3 = Section1D.affine(0.0, 1.0, 1.0, 0.0)
    assert endpoint_lower_bound(v3, 0.0, 1.0) == 0.0


def test_lower_bound_shifts_off_jump():
    v = Section1D.piecewise([0.0, 0.5, 1.0], [0.0, 2.0], [0.0, 0.0])
    val = endpoint_lower_bound(v, 0.5, 1.0)
    assert np.isfinite(val)


def test_lower_bound_refuses_non_finite_endpoint():
    # used to return pi/2
    with pytest.raises(ValueError, match=r"interval \(nan, 0.5\) must be finite"):
        endpoint_lower_bound(_two_pieces(), np.nan, 0.5)


def test_slice_measure_refuses_non_finite_span():
    # used to return 0.0
    with pytest.raises(ValueError, match=r"interval \(nan, 0.5\) must be finite"):
        slice_measure(_two_pieces(), (np.nan, 0.5))


def test_slice_measure_refuses_reversed_span():
    # used to return 0.0
    with pytest.raises(ValueError, match=r"interval \(0.7, 0.2\) is reversed"):
        slice_measure(_two_pieces(), (0.7, 0.2))


def test_small_eps_energy_dominates_lower_bound():
    rng = np.random.default_rng(21)
    for _ in range(10):
        v = random_piecewise(rng)
        a, b = 0.011, 0.973
        bound = endpoint_lower_bound(v, a, b)
        eps = 1e-3
        val = nonlocal_energy_1d(v, (a, b), eps)
        tol = 0.02 * (1 + bound) + 5 * eps * (1 + 9.0)
        assert val >= bound - tol


# ---------------------------------------------------------------------------
# slice measures
# ---------------------------------------------------------------------------


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def lattice_slice_measure(u, xi, region, m):
    """Midpoint-lattice oracle for the transverse integral: sums
    ``slice_measure(section(...))`` over m^(n-1) base points on xi^perp,
    covering the region's circumscribed ball, times the cell measure."""
    n = xi.size
    basis = np.linalg.qr(np.column_stack([xi, np.eye(n)]))[0][:, 1:].T
    if isinstance(region, Ball):
        center, half = region.center, region.radius
    else:
        center, half = 0.5 * (region.lower + region.upper), 0.5 * np.linalg.norm(region.sides)
    t = -half + (np.arange(m) + 0.5) * (2 * half / m)
    total = 0.0
    for coords in itertools.product(t, repeat=n - 1):
        sec = section(u, xi, center + np.asarray(coords) @ basis, region)
        if sec is not None:
            total += slice_measure(sec).total
    return total * (2 * half / m) ** (n - 1)


def test_mu_constant_field_is_zero():
    u = Affine(np.zeros((2, 2)), np.ones(2))
    ball = Ball(np.array([0.5, 0.5]), 0.4)
    assert directional_slice_measure(u, np.array([1.0, 0.0]), ball) == 0.0


def test_mu_affine_identity_on_unit_ball():
    # slope 1 along e1, so the measure is the ball area pi
    u = Affine(np.eye(2), np.zeros(2))
    ball = Ball(np.zeros(2), 1.0)
    val = directional_slice_measure(u, np.array([1.0, 0.0]), ball)
    assert val == pytest.approx(np.pi, rel=1e-12)


def test_mu_linear_in_slope_and_volume():
    ball = Ball(np.zeros(2), 1.0)
    xi = np.array([1.0, 0.0])
    v1 = directional_slice_measure(Affine(np.eye(2), np.zeros(2)), xi, ball)
    v3 = directional_slice_measure(Affine(3 * np.eye(2), np.zeros(2)), xi, ball)
    assert v1 == pytest.approx(np.pi, rel=1e-12)
    assert v3 == pytest.approx(3 * v1, rel=1e-12)
    half = Ball(np.zeros(2), 0.5)
    vh = directional_slice_measure(Affine(np.eye(2), np.zeros(2)), xi, half)
    assert vh == pytest.approx(v1 / 4, rel=1e-12)  # area scales with r^2


def test_mu_counts_big_jump_crossings():
    # amplitude 10 > 1: every crossing line counts one, transverse measure
    # is the diameter 2
    u = PlaneJump(np.array([1.0, 0.0]), 0.0, np.zeros(2), np.array([10.0, 0.0]))
    ball = Ball(np.zeros(2), 1.0)
    val = directional_slice_measure(u, np.array([1.0, 0.0]), ball)
    assert val == pytest.approx(2.0, rel=1e-12)


def test_mu_small_jump_contributes_amplitude():
    amp = 0.5
    u = PlaneJump(np.array([1.0, 0.0]), 0.0, np.zeros(2), np.array([amp, 0.0]))
    ball = Ball(np.zeros(2), 1.0)
    val = directional_slice_measure(u, np.array([1.0, 0.0]), ball)
    assert val == pytest.approx(amp * 2.0, rel=1e-12)


def test_mu_unit_threshold_is_inclusive():
    # |amplitude| == 1 is classed small: it contributes 1.0 per crossing to
    # the ac part either way, but must not be double counted
    u = PlaneJump(np.array([1.0, 0.0]), 0.0, np.zeros(2), np.array([1.0, 0.0]))
    ball = Ball(np.zeros(2), 1.0)
    sec = section(u, np.array([1.0, 0.0]), np.zeros(2), ball)
    sm = slice_measure(sec)
    assert sm.jump_count == 0 and sm.ac_part == pytest.approx(1.0)


def test_mu_requires_unit_direction():
    u = Affine(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        directional_slice_measure(u, np.array([2.0, 0.0]), Ball(np.zeros(2), 1.0))


def test_mu_3d_ball_tilted_plane():
    # the plane cuts the ball in a disk of radius^2 r^2 - d^2
    A = np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.3], [0.0, 0.3, 2.0]])
    nu = unit([1.0, 2.0, -2.0])
    jump = np.array([0.3, -0.4, 0.1])
    ball = Ball(np.array([0.1, -0.2, 0.3]), 0.7)
    d = 0.25
    u = SumField((Affine(A, np.ones(3)), PlaneJump(nu, ball.center @ nu + d, np.zeros(3), jump)))
    for xi in (unit([1.0, 1.0, 1.0]), unit([0.2, -0.9, 0.4]), np.array([0.0, 0.0, 1.0])):
        bulk = abs(xi @ A @ xi) * 4.0 / 3.0 * np.pi * ball.radius**3
        surface = abs(nu @ xi) * np.pi * (ball.radius**2 - d**2) * min(abs(jump @ xi), 1.0)
        val = directional_slice_measure(u, xi, ball)
        assert val == pytest.approx(bulk + surface, rel=1e-12)


def test_mu_3d_box_tilted_plane():
    # x + y + z = 3/2 cuts the unit cube in a regular hexagon of side
    # sqrt(2)/2, area 3 sqrt(3)/4; the big jump counts once per crossing
    nu = unit([1.0, 1.0, 1.0])
    u = PlaneJump(nu, 1.5 / np.sqrt(3.0), np.zeros(3), np.array([5.0, -3.0, 4.0]))
    cube = BoxDomain(np.zeros(3), np.ones(3))
    hexagon = 3.0 * np.sqrt(3.0) / 4.0
    for xi in (unit([1.0, 0.0, 0.0]), unit([0.3, -0.5, 0.8]), unit([1.0, 1.0, 1.0])):
        val = directional_slice_measure(u, xi, cube)
        assert val == pytest.approx(abs(nu @ xi) * hexagon, rel=1e-12)


def test_coincident_planes_are_refused():
    nu = unit([1.0, 1.0])
    first = PlaneJump(nu, 0.5, np.zeros(2), np.array([2.0, 0.0]))
    same = PlaneJump(-nu, -0.5, np.zeros(2), np.array([0.0, 0.3]))
    u = SumField((first, same))
    rule = build_sphere_rule(2, 8)
    for region in (square(), Ball(np.array([0.5, 0.5]), 0.3)):
        with pytest.raises(ValueError, match="coincident"):
            directional_slice_measure(u, unit([1.0, 0.2]), region)
        with pytest.raises(ValueError, match="coincident"):
            averaged_jump_measure(u, region, rule)
    # planes that miss the region do not interact there
    far = Ball(np.array([3.0, 3.0]), 0.5)
    assert directional_slice_measure(u, unit([1.0, 0.2]), far) == 0.0


@pytest.mark.parametrize(
    "dim, kind, m, rel",
    [(2, "box", 2000, 2e-3), (2, "ball", 2000, 2e-3), (3, "box", 60, 1e-2), (3, "ball", 60, 1e-2)],
)
def test_mu_matches_section_lattice(dim, kind, m, rel):
    # independent check of the volume and plane-area factors: integrate the
    # per-line slice measure on a midpoint lattice of parallel lines
    nu1 = unit([1.0, 0.3, 0.2][:dim])
    nu2 = unit([-0.2, 1.0, 0.5][:dim])
    jumps = (
        PlaneJump(nu1, 0.5 * nu1.sum(), np.zeros(dim), 4.0 * nu1),
        PlaneJump(nu2, 0.45 * nu2.sum(), np.zeros(dim), 0.6 * unit(np.arange(1.0, dim + 1))),
    )
    affine = Affine(0.5 * np.diag(np.arange(1.0, dim + 1)), np.zeros(dim))
    if kind == "box":
        region = BoxDomain(np.zeros(dim), np.ones(dim))
    else:
        region = Ball(0.5 * np.ones(dim), 0.4)
    xi = unit([0.8, -0.6, 0.3][:dim])
    for u in (SumField(jumps), SumField((affine,) + jumps)):
        exact = directional_slice_measure(u, xi, region)
        assert lattice_slice_measure(u, xi, region, m) == pytest.approx(exact, rel=rel)


# ---------------------------------------------------------------------------
# averaged jump measure
# ---------------------------------------------------------------------------


def test_averaged_jump_measure_no_jumps():
    u = Affine(np.eye(2), np.zeros(2))
    rule = build_sphere_rule(2, 16)
    assert averaged_jump_measure(u, Ball(np.zeros(2), 0.5), rule) == 0.0


def test_averaged_jump_measure_matches_area_formula():
    # one plane through the ball center: the transverse integral reduces to
    # chord_length * min(|jump . xi|, 1) * |normal . xi| per direction
    amp = 10.0
    u = PlaneJump(np.array([1.0, 0.0]), 0.0, np.zeros(2), np.array([amp, 0.0]))
    ball = Ball(np.zeros(2), 0.8)
    rule = build_sphere_rule(2, 32)
    val = averaged_jump_measure(u, ball, rule)
    nodes, weights = rule
    chord = 2 * ball.radius
    oracle = sum(
        w * min(amp * abs(xi[0]), 1.0) * abs(xi[0]) * chord for xi, w in zip(nodes, weights)
    )
    assert val == pytest.approx(oracle, rel=1e-12)


def test_averaged_jump_measure_radius_scaling():
    u = PlaneJump(np.array([1.0, 0.0]), 0.0, np.zeros(2), np.array([5.0, 0.0]))
    rule = build_sphere_rule(2, 16)
    v1 = averaged_jump_measure(u, Ball(np.zeros(2), 0.4), rule)
    v2 = averaged_jump_measure(u, Ball(np.zeros(2), 0.8), rule)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)  # 2^(n-1) with n = 2


def test_averaged_jump_measure_1d():
    amp = 0.3
    u = PlaneJump(np.array([1.0]), 0.5, np.array([0.0]), np.array([amp]))
    rule = build_sphere_rule(1, 2)
    dom = BoxDomain(np.array([0.0]), np.array([1.0]))
    assert averaged_jump_measure(u, dom, rule) == pytest.approx(2 * amp, rel=1e-12)


def test_averaged_jump_measure_is_weighted_jump_part():
    # the jump part of each directional measure, summed with sphere weights
    nu = unit([1.0, -2.0, 0.5])
    u = PlaneJump(nu, 0.1, np.zeros(3), np.array([0.4, 1.5, -0.2]))
    ball = Ball(np.array([0.2, 0.1, 0.0]), 0.6)
    nodes, weights = build_sphere_rule(3, 8)
    direct = sum(w * directional_slice_measure(u, xi, ball) for xi, w in zip(nodes, weights))
    assert averaged_jump_measure(u, ball, (nodes, weights)) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_jump_term_of_a_direction_does_not_depend_on_its_batch(dim):
    # each direction's products with the planes' normals and jumps are
    # formed row by row, so its entry is the same in the whole batch and in
    # sub-batches of 1, 3 and 17 rows, bit for bit
    rng = np.random.default_rng(dim)
    planes = tuple(
        PlaneJump(unit(rng.normal(size=dim)), float(rng.uniform(0.35, 0.65)), np.zeros(dim), rng.uniform(-3, 3, dim))
        for _ in range(2)
    )
    u = SumField((Affine(rng.uniform(-2, 2, (dim, dim)), np.zeros(dim)),) + planes)
    ball = Ball(np.full(dim, 0.5), 0.4)
    xis = np.concatenate([build_sphere_rule(dim, 64 if dim == 2 else 16)[0], rng.normal(size=(300, dim))])
    whole = _jump_term(u, xis, ball)
    for size in (1, 3, 17):
        parts = np.concatenate([_jump_term(u, xis[at : at + size], ball) for at in range(0, len(xis), size)])
        assert parts.tobytes() == whole.tobytes()


@st.composite
def slice_tables(draw):
    """A closed-form field of 1D, 2D or 3D (an affine part and one or two
    planes with distinct offsets, so never coincident), a ball that the
    planes cross or that lies far from them, and unit nodes: the sphere
    rule's, the axes' (with zero components) and random ones."""
    dim = draw(st.sampled_from([1, 2, 3]))
    coords = st.floats(-3.0, 3.0, allow_subnormal=False)
    vector = st.lists(coords, min_size=dim, max_size=dim).map(np.array)
    A = np.array(draw(st.lists(vector, min_size=dim, max_size=dim)))
    planes = []
    for k in range(draw(st.integers(1, 2))):
        nu = draw(vector)
        nu = unit(nu) if np.linalg.norm(nu) > 1e-3 else np.eye(dim)[k % dim]
        offset = 0.25 + 0.4 * k + draw(st.floats(0.0, 0.2))
        planes.append(PlaneJump(nu, offset, np.zeros(dim), draw(vector)))
    where = draw(st.sampled_from(["near", "far"]))
    center = draw(st.lists(st.floats(0.2, 0.8), min_size=dim, max_size=dim).map(np.array))
    ball = Ball(center + (10.0 if where == "far" else 0.0), draw(st.floats(0.05, 0.5)))
    extra = np.array(draw(st.lists(vector, min_size=0, max_size=4))).reshape(-1, dim)
    extra = extra[np.linalg.norm(extra, axis=1) > 1e-3]
    extra /= np.linalg.norm(extra, axis=1)[:, None]
    nodes = np.concatenate([build_sphere_rule(dim, 8)[0], np.eye(dim), -np.eye(dim), extra])
    return SumField((Affine(A, np.zeros(dim)),) + tuple(planes)), ball, nodes


@settings(derandomize=True, max_examples=150, deadline=None)
@given(slice_tables())
def test_slice_table_is_each_directional_slice_measure(case):
    # a ball's slice measures along all nodes at once are the ones of
    # directional_slice_measure node by node, bit for bit
    u, ball, nodes = case
    table, jump = _slice_table(u, nodes, ball)
    oracle = np.array([directional_slice_measure(u, xi, ball) for xi in nodes])
    assert table.tobytes() == oracle.tobytes()
    assert jump.tobytes() == _jump_term(u, nodes, ball).tobytes()


# ---------------------------------------------------------------------------
# ball-supremum slice measure
# ---------------------------------------------------------------------------


def test_ball_sup_slice_measure_lower_bounds_direct_integral():
    u = SumField((Affine(np.eye(2), np.zeros(2)), plane_jump_2d(5.0)))
    dom = square()
    rule = build_sphere_rule(2, 8)
    val, family = ball_sup_slice_measure(u, dom, 1.0, rule, BallStrategy("dyadic", 1))
    nodes, weights = rule
    direct = sum(
        w * directional_slice_measure(u, np.asarray(xi, float), dom)
        for xi, w in zip(nodes, weights)
    )
    assert val <= direct * (1 + 1e-9)
    assert family is not None


@pytest.mark.parametrize("p", [np.nan, np.inf, 0.5])
def test_ball_sup_slice_measure_rejects_bad_p(p):
    u = Affine(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="p must be finite and at least 1"):
        ball_sup_slice_measure(u, square(), p, build_sphere_rule(2, 8), BallStrategy("dyadic", 1))


def test_family_slice_measure_is_what_the_supremum_maximizes():
    A = np.array([[1.0, 0.3], [0.3, -0.5]])
    u = SumField((Affine(A, np.zeros(2)), plane_jump_2d(5.0, 0.3)))
    rule = build_sphere_rule(2, 8)
    strategy = BallStrategy("dyadic", 2)
    val, family = ball_sup_slice_measure(u, square(), 2.0, rule, strategy)
    families = ball_candidates(square(), strategy)
    totals = [family_slice_measure(u, f, 2.0, rule)[0] for f in families]
    assert val == max(totals)
    centers = [[b.center.tolist() for b in f.balls] for f in (family, families[totals.index(val)])]
    assert centers[0] == centers[1]
    total, per_ball = family_slice_measure(u, family, 2.0, rule)
    assert total == sum(per_ball.values()) and sorted(per_ball) == list(range(len(family)))


def test_family_slice_measure_per_ball_norm():
    u = SumField((Affine(np.eye(2), np.zeros(2)), plane_jump_2d(0.5, 0.4)))
    balls = (Ball(np.array([0.25, 0.5]), 0.25), Ball(np.array([0.75, 0.5]), 0.25))
    nodes, weights = build_sphere_rule(2, 8)
    for p in (1.0, 2.0):
        _, per_ball = family_slice_measure(u, BallFamily(balls), p, (nodes, weights))
        for bi, ball in enumerate(balls):
            mus = np.array([directional_slice_measure(u, xi, ball) for xi in nodes])
            assert per_ball[bi] == pytest.approx(np.sum(weights * mus**p) ** (1 / p), rel=1e-14)
