"""Nonlocal finite-difference fracture energies.

One object lives here: the single-direction energy

    ``(1/eps) * int_{E cap (E - eps xi)} arctan(((u(x+eps xi)-u(x)).xi)^2 / eps) dx``,

discretized by a midpoint cell sum on the grid (``directional_energy``),
and its Gaussian-weighted sum over the nodes of a direction rule,
truncated to the scaled difference body of the region
(``averaged_energy``).  The double integral over point pairs is the same
sum under the change of variables ``xi = (x'-x)/eps``; only the rule
differs.  ``averaged_energy`` usually takes the product Gauss rule of
``nlgriffith.quad``, and ``pairwise_energy`` the lattice rule of the cell
offsets, a Riemann sum of the Gaussian measure.

Every energy and the ball families sum over one shift stencil,
``_Shift``.  It works on per-axis coordinates only: the range box of
pairs inside the region's bounding box is one index range per axis, and
the ball or slit mask within it is a broadcast sum of per-axis terms.
A closed-form field enters it through its exact difference
quotient, the affine part's plus the jump of each plane a pair crosses,
so the field itself is only evaluated at pairs that touch a plane.  The
descent kernel of ``nlgriffith.minimize`` assembles one sparse operator
on the nodal values from the stencils' kept pairs and interpolation rows
(``_Shift.pairs``), so the stencil alone decides which pairs interact;
the energies here keep the matrix-free stencil, whose pair counts at
sweep sizes would make that operator too large to hold.

On top of these sits one ball-family functional, ``family_energy``:
``sum_B (sum_j w_j F_dir(u, B, xi_j)^p)^(1/p)`` over a finite family of
pairwise disjoint open balls.  The averaged energy is its p = 1 value on
one region, and ``slicing.family_slice_measure`` is the same functional
of the slice measure.  ``ball_supremum_energy`` maximizes it over
candidate families.  The true supremum over all finite families is not
computable; the returned value is a certified lower bound achieved by the
reported family, and it improves monotonically under family refinement.

Only pairs whose endpoints both lie in the region interact.  A precrack
slit is removed from the membership test pointwise, so interactions may
still reach across it; ball families that avoid the slit are the
mechanism that exposes it energetically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .domain import (
    AnalyticField,
    Ball,
    BoxDomain,
    Grid,
    SampledField,
    _interp_row,
    difference_body,
    eval_nudged,
)
from .quad import DirectionRule

__all__ = [
    "BallFamily",
    "BallStrategy",
    "EnergyReport",
    "GridCapabilityError",
    "check_resolution",
    "directional_energy",
    "averaged_energy",
    "pairwise_energy",
    "family_energy",
    "ball_supremum_energy",
    "ball_candidates",
]

Region = Union[BoxDomain, Ball]
FieldLike = Union[AnalyticField, SampledField]


class GridCapabilityError(ValueError):
    """The grid is too coarse to resolve the requested interaction range."""


def check_resolution(h: float, eps: float) -> None:
    """Enforce the resolution contract h <= eps / 4."""
    if not (np.isfinite(h) and np.isfinite(eps)):
        raise ValueError(f"h={h} and eps={eps} must be finite")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if h > eps / 4.0 * (1.0 + 1e-9):
        raise GridCapabilityError(
            f"grid spacing h={h} cannot resolve eps={eps}; need h <= eps/4"
        )


# ---------------------------------------------------------------------------
# Ball families
# ---------------------------------------------------------------------------


def _overlaps(balls, ball: Ball) -> np.ndarray:
    """Which of ``balls`` overlap the open ``ball`` (see ``BallFamily``)."""
    centers = np.array([b.center for b in balls]).reshape(-1, ball.dim)
    radii = np.array([b.radius for b in balls])
    return np.linalg.norm(centers - ball.center, axis=1) < radii + ball.radius - 1e-12


@dataclass(frozen=True)
class BallFamily:
    """Finite family of pairwise disjoint open balls.

    Disjointness of open balls allows touching: center distance at least
    the radius sum (up to roundoff).
    """

    balls: tuple[Ball, ...]

    def __post_init__(self):
        balls = tuple(self.balls)
        object.__setattr__(self, "balls", balls)
        for i, ball in enumerate(balls):
            hits = np.flatnonzero(_overlaps(balls[i + 1 :], ball))
            if hits.size:
                raise ValueError(f"balls {i} and {i + 1 + hits[0]} overlap")

    def __len__(self) -> int:
        return len(self.balls)


@dataclass(frozen=True)
class BallStrategy:
    """Candidate-family generator specification.

    ``dyadic`` produces one family per refinement level: the balls
    inscribed in the 2^(level*n) subcells of the bounding box, filtered
    to the domain minus any precrack.  ``greedy`` packs one family of at
    most ``count`` balls, largest radius first: six radii, each 0.7 of
    the one before, starting from the half-width of the box's short side.
    """

    kind: str
    levels: int = 2
    count: int = 8

    def __post_init__(self):
        if self.kind not in ("dyadic", "greedy"):
            raise ValueError("strategy kind must be 'dyadic' or 'greedy'")
        for name, least in (("levels", 0), ("count", 1)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")

    @classmethod
    def parse(cls, text: str) -> "BallStrategy":
        """Parse compact forms like ``dyadic:3`` or ``greedy:8``; a bare
        ``dyadic`` or ``greedy`` takes the field default."""
        kind, _, arg = text.partition(":")
        name = {"dyadic": "levels", "greedy": "count"}.get(kind)
        if name is None:
            raise ValueError(f"unknown ball strategy {text!r}")
        return cls(kind, **({name: int(arg)} if arg else {}))


def ball_candidates(domain: BoxDomain, strategy: BallStrategy) -> list[BallFamily]:
    """Generate candidate disjoint ball families inside the domain."""
    if strategy.kind == "dyadic":
        families = []
        for level in range(strategy.levels + 1):
            per_axis = 2**level
            sub = domain.sides / per_axis
            radius = float(np.min(sub)) / 2.0
            balls = []
            for flat in range(per_axis**domain.dim):
                idx = np.unravel_index(flat, (per_axis,) * domain.dim)
                center = domain.lower + (np.asarray(idx, dtype=float) + 0.5) * sub
                ball = Ball(center, radius)
                if domain.contains_ball(ball):
                    balls.append(ball)
            if balls:
                families.append(BallFamily(tuple(balls)))
        if not families:
            raise ValueError("dyadic strategy produced no admissible family")
        return families

    # greedy: deterministic lattice scan, largest radius first
    r0 = float(np.min(domain.sides)) / 2.0
    radii = [r0 * 0.7**k for k in range(6)]
    lattice_n = 16
    offsets = [
        domain.lower + (np.asarray(idx, dtype=float) + 0.5) * (domain.sides / lattice_n)
        for idx in np.ndindex(*(lattice_n,) * domain.dim)
    ]
    accepted: list[Ball] = []
    for r in radii:
        for center in offsets:
            if len(accepted) >= strategy.count:
                break
            ball = Ball(center, r)
            if not domain.contains_ball(ball):
                continue
            if np.any(_overlaps(accepted, ball)):
                continue
            accepted.append(ball)
    if not accepted:
        raise ValueError("greedy strategy produced no admissible family")
    return [BallFamily(tuple(accepted))]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class EnergyReport:
    """Energy value plus the breakdown that reproduces it.

    For the direction-averaged energy, ``total`` equals the weighted sum
    of ``per_direction`` over the retained quadrature nodes; for the
    ball-supremum energy it equals the sum of ``per_ball`` entries of the
    achieving family.
    """

    total: float
    eps: float
    p: float
    per_direction: dict[int, float] | None = None
    per_ball: dict[int, float] | None = None
    family: BallFamily | None = None


# ---------------------------------------------------------------------------
# Shift stencil
# ---------------------------------------------------------------------------


def _axis_inside(region: Region, d: int, x: np.ndarray) -> np.ndarray:
    """Axis-d bounding-box factor of ``region.contains``, same float ops."""
    if isinstance(region, Ball):
        return (x - region.center[d]) ** 2 < region.radius**2
    return (x > region.lower[d]) & (x < region.upper[d])


def _fold(terms) -> np.ndarray:
    """Sum of per-axis arrays over the range box, term d broadcast along
    axis d, added left to right as ``np.sum(..., axis=1)`` adds the
    coordinates of one point."""
    terms = list(terms)
    total = 0
    for d, t in enumerate(terms):
        total = total + t.reshape((-1,) + (1,) * (len(terms) - 1 - d))
    return total


def _snap_to_axis(axis: np.ndarray, h: float, x: np.ndarray, step: float) -> np.ndarray:
    """``x = axis + step`` with each coordinate within roundoff of a grid
    coordinate moved onto it, so that a shifted center landing on a center
    (a lattice step ``k h``) is tested for membership at that center; only
    ``_Shift`` calls it, for the energies and the descent kernel alike."""
    tol = 8 * np.finfo(float).eps * (max(abs(float(axis[0])), abs(float(axis[-1]))) + abs(step))
    # the axis is uniform up to roundoff, so a step far from every multiple
    # of h moves no coordinate near a grid coordinate
    if abs(step - h * round(step / h)) > 2 * tol:
        return x
    near = axis[np.clip(np.rint((x - axis[0]) / h), 0, axis.size - 1).astype(np.int64)]
    return np.where(np.abs(x - near) <= tol, near, x)


def _range_box_inside(region: Region, coords) -> np.ndarray | bool:
    """``region.contains`` on the product of the per-axis ``coords`` of a
    range box, same float ops, shaped like the box.

    Every bounding-box factor holds there, so a plain box contains all of
    it; a ball's squared distance and a slit's squared excess are folded
    from per-axis terms.
    """
    if isinstance(region, Ball):
        return _fold((c - region.center[d]) ** 2 for d, c in enumerate(coords)) < region.radius**2
    inside = True
    for seg in region.precrack:
        excess = (
            np.maximum(seg.lower[d] - c, 0.0) + np.maximum(c - seg.upper[d], 0.0)
            for d, c in enumerate(coords)
        )
        inside = inside & (np.sqrt(_fold(e**2 for e in excess)) > 0.0)
    return inside


class _Shift:
    """The pairs ``(x, x + eps xi)`` of one region on a regular grid.

    A pair interacts when both points lie in the region.  Grid centers
    and their shifts are products of per-axis coordinates, so the cells
    whose pair stays inside the region's bounding box form one index
    range per axis, the range box; ``keep`` selects the interacting pairs
    in it (a residual mask for balls and precrack slits).  Both are built
    from the per-axis coordinates, like the closed-form slopes, so no
    point mesh is formed; a shifted coordinate within roundoff of a grid
    coordinate is tested there, so a partner that lands on a center has
    its membership.  The shifted endpoint is multilinear in the
    nodal values, with one row of cells and weights per axis.
    """

    def __init__(self, grid: Grid, region: Region, xi: np.ndarray, eps: float):
        self.grid, self.xi = grid, xi
        box, self.centers, self.moved, self.rows, probes = [], [], [], [], []
        for d, axis in enumerate(grid.axes):
            step = eps * xi[d]
            partner = axis + step
            probe = _snap_to_axis(axis, grid.h, partner, float(step))
            hits = np.flatnonzero(_axis_inside(region, d, axis) & _axis_inside(region, d, probe))
            sl = slice(hits[0], hits[-1] + 1) if hits.size else slice(0, 0)
            box.append(sl)
            self.centers.append(axis[sl])
            self.moved.append(partner[sl])
            probes.append(probe[sl])
            base, top, frac = _interp_row(axis, grid.h, partner[sl])
            col = (-1,) + (1,) * (grid.dim - d)  # broadcasts along axis d
            self.rows.append((base, top, (1.0 - frac).reshape(col), frac.reshape(col)))
        self.box = tuple(box)
        self.shape = tuple(c.size for c in self.centers)
        self.keep = slice(None)
        if isinstance(region, Ball) or region.precrack:
            ends = (_range_box_inside(region, coords) for coords in (self.centers, probes))
            self.keep = np.logical_and(*ends).reshape(-1)

    def pairs(self) -> tuple[np.ndarray, list]:
        """The kept pairs in C order: each center's flat grid index, and its
        partner's ``(base, top, frac)`` interpolation row per axis."""
        at = [i[self.keep] for i in np.indices(self.shape).reshape(self.grid.dim, -1)]
        centers = np.ravel_multi_index([sl.start + i for sl, i in zip(self.box, at)], self.grid.shape)
        return centers, [(base[i], top[i], hi.reshape(-1)[i]) for (base, top, _, hi), i in zip(self.rows, at)]

    @staticmethod
    def _axes_dot(coords, v) -> np.ndarray:
        """``sum_d coords_d * v_d`` over the range box, from per-axis coordinates."""
        return _fold(c * v[d] for d, c in enumerate(coords))

    def slopes(self, u) -> np.ndarray:
        """``(u(x + eps xi) - u(x)).xi`` over the range box, flat in C order.

        A closed-form field is an affine part ``A`` plus flat jump planes, so
        a pair's slope is ``(x + eps xi - x).(A^T xi)`` plus ``J.xi`` for each
        plane it crosses to the plus side, minus that for each it crosses
        back.  A cell within roundoff of a plane at either endpoint is
        evaluated at both endpoints with ``eval_nudged`` instead, so the side
        of each plane and the h/7 nudge off it are those of ``eval_many``.
        Nodal values are interpolated at the shifted endpoint, one pass per
        axis.
        """
        if isinstance(u, AnalyticField):
            steps = [m - c for m, c in zip(self.moved, self.centers)]
            s = self._axes_dot(steps, u.affine_part()[0].T @ self.xi)
            near = np.zeros(self.shape, dtype=bool)
            for plane in u.jump_planes():
                up = []
                for coords in (self.centers, self.moved):
                    side = self._axes_dot(coords, plane.normal)
                    side -= plane.offset
                    up.append(side > 0)
                    # eval_many sums x.nu in another order; beyond this bound
                    # both sums have the sign of the exact side
                    size = abs(plane.offset) + sum(
                        np.max(np.abs(c), initial=0.0) * abs(n) for c, n in zip(coords, plane.normal)
                    )
                    near |= np.abs(side, out=side) <= 4 * (self.grid.dim + 1) * np.finfo(float).eps * size
                s += (plane.jump @ self.xi) * np.subtract(up[1], up[0], dtype=np.int8)
            s, cells = s.reshape(-1), np.flatnonzero(near)
            if cells.size:
                at = np.unravel_index(cells, self.shape)
                ends = (np.stack([c[i] for c, i in zip(cs, at)], axis=1) for cs in (self.moved, self.centers))
                moved, centers = (eval_nudged(u, x, self.grid.h / 7.0) for x in ends)
                s[cells] = (moved - centers) @ self.xi
            return s
        nodal = (u.values if isinstance(u, SampledField) else u).reshape(self.grid.shape + (-1,))
        # each axis pass reads only the partner columns of the later axes;
        # the rows' cells are nondecreasing, so those span base[0]..top[-1]
        cols = [slice(base[0], top[-1] + 1) if base.size else slice(0, 0) for base, top, _, _ in self.rows]
        end = nodal[tuple(cols)]
        for d, ((base, top, lo_w, hi_w), sl) in enumerate(zip(self.rows, cols)):
            end = lo_w * np.take(end, base - sl.start, axis=d) + hi_w * np.take(end, top - sl.start, axis=d)
        return (end - nodal[self.box]).reshape(-1, nodal.shape[-1]) @ self.xi

    def cell_sum(self, u, eps: float) -> float:
        """Midpoint cell sum ``(h^n/eps) sum arctan(s^2/eps)`` over the pairs."""
        s = self.slopes(u)[self.keep]
        return float(self.grid.cell_volume / eps * np.sum(np.arctan(s * s / eps)))


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------


def _support_box(region: Region, eps: float) -> BoxDomain:
    if isinstance(region, BoxDomain):
        return difference_body(BoxDomain(region.lower, region.upper), eps)
    half = np.full(region.dim, 2.0 * region.radius / eps)
    return BoxDomain(-half, half)


def _resolve_grid(u: FieldLike, grid: Grid | None) -> Grid:
    if isinstance(u, SampledField):
        return u.grid
    if grid is None:
        raise ValueError("a grid is required to integrate a closed-form field")
    return grid


def directional_energy(
    u: FieldLike,
    region: Region,
    eps: float,
    xi: np.ndarray,
    grid: Grid | None = None,
) -> float:
    """Single-direction nonlocal energy on a region.

    The direction ``xi`` need not be a unit vector.  Sampled fields use
    multilinear interpolation for the shifted endpoint, which keeps the
    discrete energy differentiable in the nodal values.  Closed-form
    fields take the exact difference of their affine part and the jump
    of each plane a pair crosses; only pairs with an endpoint on or
    within roundoff of a plane evaluate the field, nudged off it by h/7.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError(f"xi must be finite, got {xi}")
    g = _resolve_grid(u, grid)
    check_resolution(g.h, eps)
    return _Shift(g, region, xi, eps).cell_sum(u, eps)


def _direction_values(
    u: FieldLike, region: Region, eps: float, rule: DirectionRule, grid: Grid, support: BoxDomain
) -> tuple[np.ndarray, list[float]]:
    """Rule nodes inside ``support`` and their directional cell sums on the
    region, both in ascending node order."""
    nodes = np.flatnonzero(support.contains(rule.nodes))
    return nodes, [_Shift(grid, region, rule.nodes[i], eps).cell_sum(u, eps) for i in nodes]


def _lp_norm(weights, values, p: float) -> float:
    """``(sum_i w_i v_i^p)^(1/p)``, accumulated in the given order.

    At p = 1 both powers are exact, so this is the plain weighted sum.
    """
    acc = 0.0
    for w, v in zip(weights, values):
        acc += w * v**p
    return acc ** (1.0 / p)


def averaged_energy(
    u: FieldLike,
    region: Region,
    eps: float,
    rule: DirectionRule,
    grid: Grid | None = None,
    support: BoxDomain | None = None,
) -> EnergyReport:
    """Gaussian-weighted direction average of the nonlocal energy.

    Directions outside the scaled difference body of the region are
    discarded.  The per-direction breakdown is recorded; the total is the
    weighted sum over retained nodes, accumulated in ascending node order:
    the p = 1 value of the ball-family functional on the one region.
    """
    g = _resolve_grid(u, grid)
    check_resolution(g.h, eps)
    if rule.dimension != g.dim:
        raise ValueError("rule dimension must match the field dimension")
    if support is None:
        support = _support_box(region, eps)
    nodes, values = _direction_values(u, region, eps, rule, g, support)
    return EnergyReport(
        total=_lp_norm(rule.weights[nodes], values, 1.0),
        eps=eps,
        p=1.0,
        per_direction=dict(zip(nodes.tolist(), values)),
    )


def pairwise_energy(
    u: FieldLike,
    domain: BoxDomain,
    eps: float,
    grid: Grid | None = None,
) -> float:
    """Double-integral form of the nonlocal energy over cell pairs.

    Discretizes
    ``eps^-(n+1) * int int arctan((((u(x')-u(x)).(x'-x))^2 / eps^3)
    * exp(-|x'-x|^2/eps^2) dx dx'``
    over the pairs of cell centers ``x' - x = k h`` with integer ``k != 0``
    and cutoff ``|x'-x| <= 6 eps``, the truncation radius of the default
    direction rule.  The change of variables ``xi = (x'-x)/eps`` makes this
    the direction-averaged energy on the lattice rule: nodes ``k h/eps``
    with weights ``(h/eps)^n exp(-|xi|^2)``, a Riemann sum of the Gaussian
    measure where ``averaged_energy`` usually takes the product Gauss rule.
    Each pair is formed as ``x + eps xi``, as in every other direction,
    and its partner is tested for membership at the center it lands on.
    """
    g = _resolve_grid(u, grid)
    check_resolution(g.h, eps)
    cells = int(np.floor(6.0 * eps / g.h))
    k = np.indices((2 * cells + 1,) * g.dim).reshape(g.dim, -1).T - cells
    delta = k * g.h
    xi = delta[np.any(k, axis=1) & (np.sum(delta * delta, axis=1) <= (6.0 * eps) ** 2)] / eps
    weights = (g.h / eps) ** g.dim * np.exp(-np.sum(xi * xi, axis=1))
    lattice = DirectionRule(g.dim, xi, weights, truncation_radius=6.0, radial_order=0, angular_order=0)
    return float(averaged_energy(u, domain, eps, lattice, grid=g).total)


def family_energy(
    u: FieldLike,
    domain: BoxDomain,
    family: BallFamily,
    eps: float,
    p: float,
    rule: DirectionRule,
    grid: Grid | None = None,
    per_ball_support: bool = False,
) -> tuple[float, dict[int, float]]:
    """Value of one disjoint ball family: sum of per-ball L^p direction norms.

    Returns ``(total, per_ball)`` with
    ``per_ball[i] = (sum_kept w_j F_dir(u, B_i, xi_j)^p)^(1/p)``.

    With ``per_ball_support`` the direction integral of each ball is
    truncated to that ball's own difference body instead of the domain's;
    for p = 1 and a single ball this reproduces the direction-averaged
    energy of the ball exactly.
    """
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and at least 1, got {p}")
    g = _resolve_grid(u, grid)
    check_resolution(g.h, eps)
    domain_support = _support_box(domain, eps)
    per_ball: dict[int, float] = {}
    for bi, ball in enumerate(family.balls):
        support = _support_box(ball, eps) if per_ball_support else domain_support
        nodes, values = _direction_values(u, ball, eps, rule, g, support)
        per_ball[bi] = _lp_norm(rule.weights[nodes], values, p)
    return sum(per_ball.values()), per_ball


def ball_supremum_energy(
    u: FieldLike,
    domain: BoxDomain,
    eps: float,
    p: float,
    strategy: BallStrategy,
    rule: DirectionRule,
    grid: Grid | None = None,
) -> EnergyReport:
    """Best value of the ball-family functional over strategy candidates.

    Maximizes ``sum_B (int F_dir(u, B, xi)^p dGauss(xi))^(1/p)`` over the
    generated families of pairwise disjoint open balls.  The result is a
    lower bound for the supremum over all finite families; the first
    family that attains it is returned so results are reproducible and
    refinable (adding candidate families can only increase the value).
    """
    g = _resolve_grid(u, grid)
    check_resolution(g.h, eps)
    families = ball_candidates(domain, strategy)
    results = [family_energy(u, domain, family, eps, p, rule, grid=g) for family in families]
    best = max(range(len(families)), key=lambda k: results[k][0])
    total, per_ball = results[best]
    return EnergyReport(
        total=total,
        eps=eps,
        p=p,
        per_ball=per_ball,
        family=families[best],
    )
