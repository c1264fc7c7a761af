"""One-dimensional sections and slice measures of closed-form fields.

A section of a vector field u along direction xi through a base point y
is the scalar function t -> u(y + t xi) . xi on the set of t with
y + t xi inside the region.  For the closed-form fields of this package
every section is exactly piecewise affine with finitely many jumps, so
the 1D energies along the slice direction are computed in closed form.
The slice measures integrated over all lines parallel to a direction are
closed-form too: by the Cauchy-Crofton formula the lines crossing a
plane fill a transverse set of measure ``|normal . xi|`` times the
plane's area inside the region, and the gradient part fills the region's
volume.

``family_slice_measure`` is the ball-family functional of
``nlgriffith.energy`` with the slice measure in place of the directional
energy, and ``ball_sup_slice_measure`` maximizes it over candidate
families: each ball's measures along all sphere nodes form one table
(``_slice_table``), and ``energy._ball_families`` forms every value.

Jump bookkeeping follows the size-one threshold: slice jumps with
amplitude at most 1 contribute their amplitude to the absolutely
continuous part, strictly larger jumps are counted once each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .domain import AnalyticField, BoxDomain, InputError, PlaneJump, _dot_rows
from .energy import BallFamily, BallStrategy, Region, _ball_families, ball_candidates
from .limits import plane_area_in_box
from .quad import _gamma

__all__ = [
    "Section1D",
    "SliceMeasureValue",
    "section",
    "slice_interval",
    "slice_measure",
    "nonlocal_energy_1d",
    "mumford_shah_1d",
    "piecewise_project",
    "endpoint_lower_bound",
    "directional_slice_measure",
    "averaged_jump_measure",
    "family_slice_measure",
    "ball_sup_slice_measure",
]

HALF_PI = np.pi / 2.0
_SQRT2 = math.sqrt(2.0)
_GL_NODES, _GL_WEIGHTS = leggauss(8)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


@dataclass
class Section1D:
    """Scalar function of one variable: piecewise affine with jumps.

    ``knots`` are the m+1 piece boundaries; on piece i the value is
    ``left_values[i] + slopes[i] * (t - knots[i])``.  Jumps sit at the
    interior knots.
    """

    knots: np.ndarray
    left_values: np.ndarray
    slopes: np.ndarray
    degenerate: bool = False

    @classmethod
    def piecewise(cls, knots, left_values, slopes, degenerate=False) -> "Section1D":
        knots = np.asarray(knots, dtype=float)
        left_values = np.asarray(left_values, dtype=float)
        slopes = np.asarray(slopes, dtype=float)
        if knots.ndim != 1 or np.any(np.diff(knots) <= 0):
            raise InputError("knots must be strictly increasing")
        if left_values.shape != slopes.shape or left_values.size != knots.size - 1:
            raise InputError("need one (value, slope) pair per piece")
        if not (np.all(np.isfinite(left_values)) and np.all(np.isfinite(slopes))):
            raise InputError("piece data must be finite")
        return cls(knots, left_values, slopes, degenerate)

    @classmethod
    def affine(cls, a: float, b: float, value_at_a: float, slope: float) -> "Section1D":
        return cls.piecewise([a, b], [value_at_a], [slope])

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[0]), float(self.knots[-1])

    def jumps(self) -> list[tuple[float, float]]:
        """Interior (position, signed amplitude) pairs with nonzero amplitude."""
        out = []
        for i in range(1, self.knots.size - 1):
            left_limit = self.left_values[i - 1] + self.slopes[i - 1] * (
                self.knots[i] - self.knots[i - 1]
            )
            amp = self.left_values[i] - left_limit
            if amp != 0.0:
                out.append((float(self.knots[i]), float(amp)))
        return out

    def value(self, t: float) -> float:
        """Pointwise value; exact jump locations must be perturbed by the caller."""
        lo, hi = self.domain
        if t < lo or t > hi:
            raise InputError(f"t={t} outside the section domain [{lo}, {hi}]")
        i = int(np.searchsorted(self.knots, t, side="right") - 1)
        i = min(max(i, 0), self.left_values.size - 1)
        if self.knots[i] == t and 0 < i:
            left_limit = self.left_values[i - 1] + self.slopes[i - 1] * (
                self.knots[i] - self.knots[i - 1]
            )
            if left_limit != self.left_values[i]:
                raise InputError(f"t={t} sits exactly on a jump; perturb the query")
        return float(self.left_values[i] + self.slopes[i] * (t - self.knots[i]))


@dataclass(frozen=True)
class SliceMeasureValue:
    """Per-slice measure split: small-jump/gradient mass plus a big-jump count."""

    ac_part: float
    jump_count: int

    @property
    def total(self) -> float:
        return self.ac_part + self.jump_count


def slice_interval(region: Region, xi: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
    """Parameter interval of {t : y + t xi in region}, or None if empty."""
    xi = np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    if isinstance(region, BoxDomain):
        t_lo, t_hi = -np.inf, np.inf
        for d in range(region.dim):
            if xi[d] == 0.0:
                if not (region.lower[d] < y[d] < region.upper[d]):
                    return None
                continue
            a = (region.lower[d] - y[d]) / xi[d]
            b = (region.upper[d] - y[d]) / xi[d]
            lo, hi = (a, b) if a < b else (b, a)
            t_lo, t_hi = max(t_lo, lo), min(t_hi, hi)
        if not (t_lo < t_hi):
            return None
        return float(t_lo), float(t_hi)
    # ball: |y + t xi - c|^2 < r^2
    d = y - region.center
    a = float(xi @ xi)
    if a == 0.0:
        return None
    b = 2.0 * float(d @ xi)
    c = float(d @ d) - region.radius**2
    disc = b * b - 4 * a * c
    if disc <= 0:
        return None
    root = np.sqrt(disc)
    return float((-b - root) / (2 * a)), float((-b + root) / (2 * a))


def section(
    u: AnalyticField, xi: np.ndarray, y: np.ndarray, region: Region
) -> Section1D | None:
    """Exact 1D trace of a closed-form field along ``y + t xi``.

    The affine part contributes the constant slope ``(A xi) . xi``; each
    jump plane with ``xi . normal != 0`` contributes one breakpoint with
    signed amplitude ``(jump . xi) * sign(xi . normal)``.  A slice running
    inside a jump plane is flagged degenerate (its measure contribution is
    zero by the almost-every-line convention).  Returns None when the
    slice misses the region.
    """
    xi = np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    span = slice_interval(region, xi, y)
    if span is None:
        return None
    t_lo, t_hi = span
    A, b = u.affine_part()
    slope = float((A @ xi) @ xi)
    intercept = float((A @ y + b) @ xi)
    degenerate = False
    steps: list[tuple[float, float]] = []
    for plane in u.jump_planes():
        dot = float(xi @ plane.normal)
        if dot == 0.0:
            if float(y @ plane.normal) == plane.offset:
                degenerate = True
            continue
        t_j = (plane.offset - float(y @ plane.normal)) / dot
        if t_lo < t_j < t_hi:
            steps.append((t_j, float(plane.jump @ xi) * np.sign(dot)))
    steps.sort(key=lambda s: s[0])
    knots = [t_lo] + [s[0] for s in steps] + [t_hi]
    left_values = []
    slopes = []
    acc = 0.0
    for i in range(len(knots) - 1):
        if i > 0:
            acc += steps[i - 1][1]
        left_values.append(intercept + slope * knots[i] + acc)
        slopes.append(slope)
    return Section1D.piecewise(knots, left_values, slopes, degenerate=degenerate)


# ---------------------------------------------------------------------------
# 1D energies
# ---------------------------------------------------------------------------


def _check_interval(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError(f"interval ({a}, {b}) must be finite")
    if b < a:
        raise InputError(f"interval ({a}, {b}) is reversed")


def _arctan_sq_antiderivative(y: float, eps: float) -> float:
    """``F(y) = int_0^y arctan(s^2/eps) ds``.

    By parts, ``F(y) = y arctan(y^2/eps) - 2 eps int_0^y s^2/(s^4 + eps^2) ds``,
    and in ``x = y/sqrt(eps)`` the last integral is one log plus two
    arctans, joined into one ``atan2`` so that F stays continuous.
    """
    c = math.sqrt(eps)
    x = y / c
    rest = 0.5 * math.log1p(-2.0 * _SQRT2 * x / (x * x + _SQRT2 * x + 1.0))
    rest += math.atan2(_SQRT2 * x, 1.0 - x * x)
    return y * math.atan(y * y / eps) - c / _SQRT2 * rest


def _sloped_piece_integral(g: float, beta: float, length: float, eps: float) -> float:
    """``int arctan(y(t)^2/eps) dt`` over a piece of the given length on
    which ``y`` is affine with slope ``beta != 0`` and midpoint value ``g``.

    The antiderivative difference over ``beta`` is exact; where ``y``
    barely moves against its size that difference cancels, and an 8-node
    Gauss-Legendre sum, exact to roundoff there, is used instead.
    """
    y0, y1 = g - 0.5 * beta * length, g + 0.5 * beta * length
    dy = y1 - y0
    if abs(dy) <= 1e-2 * max(abs(y0), abs(y1), math.sqrt(eps)):
        y = g + 0.5 * dy * _GL_NODES
        return 0.5 * length * float(_GL_WEIGHTS @ np.arctan(y * y / eps))
    return (_arctan_sq_antiderivative(y1, eps) - _arctan_sq_antiderivative(y0, eps)) / beta


def nonlocal_energy_1d(v: Section1D, A: tuple[float, float], eps: float) -> float:
    """1D finite-difference energy
    ``(1/eps) * int_A arctan((v(t + eps) - v(t))^2 / eps) dt`` on the
    interval ``A = (a, b)``.

    The difference ``v(t+eps)-v(t)`` is affine between the breakpoints
    of v and their eps-shifts, so every piece integrates in closed form
    (no adaptive quadrature): a constant difference directly, a sloped one
    through the antiderivative of ``arctan(y^2/eps)``.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be finite and positive, got {eps}")
    a, b = float(A[0]), float(A[1])
    _check_interval(a, b)
    lo, hi = v.domain
    if a < lo - 1e-12 or b > hi - eps + 1e-12:
        raise InputError(
            f"interval ({a}, {b}) not contained in Dom(v) and Dom(v) - eps"
        )

    cuts = np.concatenate([v.knots, v.knots - eps])
    inner = np.unique(cuts[(cuts > a) & (cuts < b)])
    pts = np.concatenate([[a], inner, [b]])
    total = 0.0
    for s0, s1 in zip(pts[:-1], pts[1:]):
        tm = 0.5 * (s0 + s1)
        g_m = v.value(tm + eps) - v.value(tm)
        # slope of the difference on this smooth piece
        i_t = int(np.searchsorted(v.knots, tm, side="right") - 1)
        i_s = int(np.searchsorted(v.knots, tm + eps, side="right") - 1)
        i_t = min(max(i_t, 0), v.slopes.size - 1)
        i_s = min(max(i_s, 0), v.slopes.size - 1)
        beta = v.slopes[i_s] - v.slopes[i_t]
        if beta == 0.0:
            total += (s1 - s0) * float(np.arctan(g_m * g_m / eps))
        else:
            total += _sloped_piece_integral(g_m, beta, s1 - s0, eps)
    return total / eps


def mumford_shah_1d(v: Section1D, interval: tuple[float, float], gamma: float) -> float:
    """``gamma * int |v'|^2 + #(jumps)`` on the interval, in closed form."""
    a, b = float(interval[0]), float(interval[1])
    _check_interval(a, b)
    if not math.isfinite(gamma):
        raise InputError(f"gamma must be finite, got {gamma}")
    grad2 = 0.0
    for i in range(v.slopes.size):
        seg = max(0.0, min(b, v.knots[i + 1]) - max(a, v.knots[i]))
        grad2 += v.slopes[i] ** 2 * seg
    n_jumps = sum(1 for t, amp in v.jumps() if a < t < b)
    return gamma * grad2 + n_jumps


def piecewise_project(v: Section1D, anchor: float, j: int) -> Section1D:
    """Project onto the grid of step 1/j: affine interpolant or mid-interval jump.

    On each grid interval the choice is by energy: if ``j * delta^2`` stays
    below pi/2 the affine interpolant through the endpoint values is used,
    otherwise two constant pieces with a single jump at the midpoint.  The
    per-interval energy identity
    ``(pi/2) * MS_(2/pi)(result) = min(pi/2, j * delta^2)`` then holds
    exactly.
    """
    if j < 1:
        raise InputError("j must be a positive integer")
    lo, hi = v.domain
    z_min = int(np.ceil((lo - anchor) * j - 1e-12))
    z_max = int(np.floor((hi - anchor) * j + 1e-12)) - 1
    if z_max < z_min:
        raise InputError("domain too short for the requested grid")
    knots: list[float] = [anchor + z_min / j]
    left_values: list[float] = []
    slopes: list[float] = []
    # the running value is chained so that affine pieces join without
    # roundoff-size phantom jumps
    carry = v.value(anchor + z_min / j)
    for z in range(z_min, z_max + 1):
        t0 = anchor + z / j
        t1 = anchor + (z + 1) / j
        delta = v.value(t1) - v.value(t0)
        if j * delta**2 <= HALF_PI:
            left_values.append(carry)
            slopes.append(delta * j)
            knots.append(t1)
            carry = carry + (delta * j) * (t1 - t0)
        else:
            mid = 0.5 * (t0 + t1)
            left_values.extend([carry, carry + delta])
            slopes.extend([0.0, 0.0])
            knots.extend([mid, t1])
            carry = carry + delta
    return Section1D.piecewise(knots, left_values, slopes)


def endpoint_lower_bound(v: Section1D, a: float, b: float) -> float:
    """``min(pi/2, (v(b) - v(a))^2 / (b - a))``.

    Endpoints landing exactly on a jump are shifted into the adjacent
    piece by a seventh of its length before evaluating.
    """
    a, b = float(a), float(b)
    _check_interval(a, b)
    for t, _ in v.jumps():
        if a == t:
            nxt = v.knots[v.knots > t][0]
            a = t + (nxt - t) / 7.0
        if b == t:
            prv = v.knots[v.knots < t][-1]
            b = t - (t - prv) / 7.0
    if b <= a:
        raise InputError("need a < b")
    return float(min(HALF_PI, (v.value(b) - v.value(a)) ** 2 / (b - a)))


# ---------------------------------------------------------------------------
# slice measures
# ---------------------------------------------------------------------------


def slice_measure(sec: Section1D, span: tuple[float, float] | None = None) -> SliceMeasureValue:
    """Small-jump/gradient mass and big-jump count of one section."""
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


def _unit_ball_volume(k: int) -> float:
    """Lebesgue measure of the unit ball of R^k (1 for k = 0)."""
    return float(np.pi ** (k / 2.0) / _gamma(k / 2.0 + 1.0))


def _volume(region: Region) -> float:
    if isinstance(region, BoxDomain):
        return region.volume
    return _unit_ball_volume(region.dim) * region.radius**region.dim


def _plane_area(plane: PlaneJump, region: Region) -> float:
    """``H^(n-1)`` measure of the jump plane inside the region.

    For a ball at distance d from the plane this is the (n-1)-ball of
    radius ``sqrt(r^2 - d^2)``: one point in 1D, a chord in 2D, a disk
    in 3D.
    """
    if isinstance(region, BoxDomain):
        return plane_area_in_box(plane.normal, plane.offset, region)
    gap = region.radius**2 - (float(region.center @ plane.normal) - plane.offset) ** 2
    if gap <= 0.0:
        return 0.0
    k = region.dim - 1
    return _unit_ball_volume(k) * gap ** (k / 2.0)


def _jump_term(u: AnalyticField, xis: np.ndarray, region: Region) -> np.ndarray:
    """Transverse integral of the truncated slice-jump mass, per direction.

    The lines parallel to a unit ``xi`` that cross a plane with normal
    ``nu`` inside the region fill a transverse set of measure
    ``|nu . xi| * H^(n-1)(plane ∩ R)``, and each carries one jump of
    amplitude ``|J . xi|`` weighted ``min(|J . xi|, 1)``.  Rows of ``xis``
    are directions.  Coincident planes crossing the region are refused:
    their slice jumps merge, so the per-plane sum would be wrong.
    """
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    total = np.zeros(xis.shape[0])
    crossing: list[PlaneJump] = []
    for plane in u.jump_planes():
        area = _plane_area(plane, region)
        if area == 0.0:
            continue
        here = np.append(plane.normal, plane.offset)
        for other in crossing:
            there = np.sign(plane.normal @ other.normal) * np.append(other.normal, other.offset)
            if np.allclose(here, there, rtol=0.0, atol=1e-12):
                raise InputError("coincident jump planes cross the region")
        crossing.append(plane)
        total += np.abs(_dot_rows(xis, plane.normal)) * area * np.minimum(np.abs(_dot_rows(xis, plane.jump)), 1.0)
    return total


def directional_slice_measure(u: AnalyticField, xi: np.ndarray, region: Region) -> float:
    """Transverse integral of the per-slice measure for one unit direction.

    Integrates ``|D section|(slice minus big jumps) + #(big jumps)`` over
    the hyperplane orthogonal to xi in closed form (Cauchy-Crofton):
    ``|(A xi) . xi| |R| + sum_planes |nu . xi| H^(n-1)(plane ∩ R) min(|J . xi|, 1)``.
    """
    xi = np.asarray(xi, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > 1e-9:
        raise InputError("direction must be a unit vector")
    A, _ = u.affine_part()
    return abs(float((A @ xi) @ xi)) * _volume(region) + float(_jump_term(u, xi, region)[0])


def averaged_jump_measure(
    u: AnalyticField, region: Region, sphere_rule: tuple[np.ndarray, np.ndarray]
) -> float:
    """Sphere average of the truncated slice-jump mass.

    For each direction on the sphere rule, integrates the sum of
    ``min(|jump amplitude|, 1)`` over all slice jumps inside the region,
    then sums with the sphere weights.  Computed on synthetic fields with
    finitely many jump planes; rectifiability questions about the limit
    object are out of scope.
    """
    nodes, weights = sphere_rule
    return float(np.asarray(weights, dtype=float) @ _jump_term(u, nodes, region))


def _slice_table(u: AnalyticField, nodes: np.ndarray, region: Region) -> np.ndarray:
    """``directional_slice_measure`` of the region along each row of
    ``nodes``, bit for bit: one ``_jump_term`` call takes every node, and
    the bulk term is formed per node as there."""
    if np.any(np.abs(np.linalg.norm(nodes, axis=1) - 1.0) > 1e-9):
        raise InputError("direction must be a unit vector")
    A, _ = u.affine_part()
    bulk = np.array([abs(float((A @ xi) @ xi)) for xi in nodes])
    return bulk * _volume(region) + _jump_term(u, nodes, region)


def _slice_search(u: AnalyticField, families, p: float, sphere_rule: tuple[np.ndarray, np.ndarray]):
    """The slice measures of each family's balls per sphere node
    (``_slice_table``), one list of rows per family, and
    ``energy._ball_families`` of them."""
    nodes, weights = sphere_rule
    tables = [[_slice_table(u, nodes, ball).tolist() for ball in family.balls] for family in families]
    return tables, _ball_families(families, p, ((weights, row) for rows in tables for row in rows))


def family_slice_measure(
    u: AnalyticField,
    family: BallFamily,
    p: float,
    sphere_rule: tuple[np.ndarray, np.ndarray],
) -> tuple[float, dict[int, float]]:
    """Value of one disjoint ball family: sum of per-ball L^p sphere norms
    of the slice measure.

    Returns ``(total, per_ball)`` with
    ``per_ball[i] = (sum_j w_j mu_(xi_j)(B_i)^p)^(1/p)``, the slice-measure
    counterpart of ``family_energy``.
    """
    _, (results, _) = _slice_search(u, (family,), p, sphere_rule)
    return results[0]


def ball_sup_slice_measure(
    u: AnalyticField,
    domain: BoxDomain,
    p: float,
    sphere_rule: tuple[np.ndarray, np.ndarray],
    strategy: BallStrategy,
) -> tuple[float, BallFamily]:
    """Strategy-searched lower bound for the ball-supremum slice measure.

    Returns ``(value, family)``: the best ``family_slice_measure`` total
    over the candidate families and the first family that attains it.  As
    with the energy supremum, the reported value is a lower bound for the
    supremum over all finite disjoint families.
    """
    families = ball_candidates(domain, strategy)
    _, (results, best) = _slice_search(u, families, p, sphere_rule)
    return float(results[best][0]), families[best]
