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

Every energy and the ball families follow one pair rule, ``_pair_axis``:
per grid axis, the partner coordinates ``x + eps xi``, the probes at
which their membership is tested, and the range of cells whose pair
stays inside the region's bounding box.  A sampled field is summed over
the shift stencil ``_Shift``, cell by cell, with the ball or slit mask a
broadcast sum of per-axis terms.  A closed-form field is counted, not
visited: a pair's slope is the affine part's ``eps xi.(A^T xi)`` plus the
jump of each plane the pair crosses, so it takes one value per crossing
pattern, and along a grid column every predicate of a cell (the side of
a plane at either endpoint, ball membership, lying on a slit) holds on
one interval of indices.  ``_closed_form_sums`` counts the cells of each
pattern from the interval ends, a fixed-size chunk of directions at a
time, and evaluates the field only at the few pairs within roundoff of
a plane.  The descent kernel of ``nlgriffith.minimize`` assembles one
sparse operator on the nodal values from the stencils' kept pairs and
interpolation rows (``_Shift.pairs``), so the pair rule alone decides
which pairs interact; the energies keep the matrix-free stencil, whose
pair counts at sweep sizes would make that operator too large to hold.

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

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .domain import (
    AnalyticField,
    Ball,
    BoxDomain,
    Grid,
    SampledField,
    _dot_rows,
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

_ULP = np.finfo(float).eps


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

_CHUNK = 16  # directions per set-up or kernel pass: bounds its arrays, never its values


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


def _snap_to_axis(axis: np.ndarray, h: float, x: np.ndarray, step) -> np.ndarray:
    """``x = axis + step`` with each coordinate within roundoff of a grid
    coordinate moved onto it, so that a shifted center landing on a center
    (a lattice step ``k h``) is tested for membership at that center.

    ``step`` is a scalar for one row ``x`` or a column ``(k, 1)`` for k rows.
    """
    tol = 8 * _ULP * (max(abs(float(axis[0])), abs(float(axis[-1]))) + np.abs(step))
    # the axis is uniform up to roundoff, so a step far from every multiple
    # of h moves no coordinate near a grid coordinate
    lattice = np.abs(step - h * np.rint(step / h)) <= 2 * tol
    if not np.any(lattice):
        return x
    near = axis[np.clip(np.rint((x - axis[0]) / h), 0, axis.size - 1).astype(np.int64)]
    return np.where(lattice & (np.abs(x - near) <= tol), near, x)


def _pair_axis(region: Region, d: int, axis: np.ndarray, h: float, steps):
    """The pair rule along grid axis d for a batch of steps ``eps xi_d``.

    Returns one row per step: the partners ``axis + step``, the probes at
    which their membership is tested (``_snap_to_axis``), and the first
    and stop index of the cells whose center and probe both pass the
    region's axis-d factor (``0, 0`` when none does).  ``_Shift`` calls it
    with one step, the closed-form kernel with a chunk of them.
    """
    steps = np.asarray(steps, dtype=float).reshape(-1, 1)
    partner = axis + steps
    probe = _snap_to_axis(axis, h, partner, steps)
    hits = _axis_inside(region, d, axis) & _axis_inside(region, d, probe)
    # a row without hits has argmax 0 both ways
    first = hits.argmax(axis=1)
    stop = (axis.size - hits[:, ::-1].argmax(axis=1)) * hits.any(axis=1)
    return partner, probe, first, stop


def _inside_terms(region: Region, coords) -> list[list[np.ndarray]]:
    """The per-axis terms of ``region.contains`` that its bounding-box
    factors leave out, same float ops, at per-axis ``coords`` (rows or
    tables): a ball's squared distances, or each slit's squared excesses;
    none for a box without slits."""
    if isinstance(region, Ball):
        return [[(c - region.center[d]) ** 2 for d, c in enumerate(coords)]]
    return [[e**2 for e in _slit_excess(seg, coords)] for seg in region.precrack]


def _folded_inside(region: Region, terms) -> np.ndarray | bool:
    """``region.contains`` where every bounding-box factor holds, from its
    ``_inside_terms`` folded over their product (``_fold``); True for a box
    without slits."""
    inside = True
    for group in terms:
        total = _fold(group)
        inside = inside & (total < region.radius**2 if isinstance(region, Ball) else np.sqrt(total) > 0.0)
    return inside


def _slit_excess(seg, coords):
    """Per-axis distance of coordinates to a slit's extent, as ``PlaneSegment.distance`` forms it."""
    return (np.maximum(seg.lower[d] - c, 0.0) + np.maximum(c - seg.upper[d], 0.0) for d, c in enumerate(coords))


def _buffer(buffers: list, i: int, shape) -> np.ndarray:
    """Buffer i of ``buffers`` as a C-ordered array of ``shape``, first
    replaced by a larger one if it is too small."""
    size = math.prod(shape)
    if buffers[i].size < size:
        buffers[i] = np.empty(size)
    return buffers[i][:size].reshape(shape)


class _Shift:
    """The pairs ``(x, x + eps xi)`` of one region on a regular grid.

    A pair interacts when both points lie in the region.  Grid centers
    and their shifts are products of per-axis coordinates, so the cells
    whose pair stays inside the region's bounding box form one index
    range per axis, the range box (``_pair_axis``); ``keep`` selects the
    interacting pairs in it (a residual mask for balls and precrack
    slits, folded from per-axis ``_inside_terms`` at the centers and the
    probes).  Both are built from the per-axis coordinates, so no point
    mesh is formed; a shifted coordinate within roundoff of a grid
    coordinate is tested there, so a partner that lands on a center has
    its membership.  The shifted endpoint is multilinear in the nodal
    values, with one row of cells and weights per axis.  Closed-form
    fields do not visit the stencil's cells: ``_closed_form_sums`` counts
    them with the same pair rule.

    ``_Shift(grid, region, xi, eps)`` is ``each`` on the one row ``xi``.
    """

    def __new__(cls, grid: Grid, region: Region, xi: np.ndarray, eps: float):
        (stencil,) = cls.each(grid, region, np.reshape(xi, (1, -1)), eps)
        return stencil

    @classmethod
    def each(cls, grid: Grid, region: Region, xis: np.ndarray, eps: float):
        """The stencil of each row of ``xis`` in turn.  The per-axis set-up
        is done for ``_CHUNK`` rows at once (the pair rule, the partners'
        interpolation rows and the probes' ``_inside_terms``) and the
        centers' membership once, so that a stencil only slices its row
        out of each table.  A stencil does not depend on the other rows.
        Their ``slopes`` run the axis passes in three shared buffers, so
        that the process reuses memory it holds rather than mapping fresh
        pages for each stencil; no two of them may run at once."""
        centers = _folded_inside(region, _inside_terms(region, grid.axes))
        buffers = [np.empty(0)] * 3
        for at in range(0, len(xis), _CHUNK):
            X = xis[at : at + _CHUNK]
            rules = [_pair_axis(region, d, axis, grid.h, eps * X[:, d]) for d, axis in enumerate(grid.axes)]
            rows = [_interp_row(axis, grid.h, partner) for axis, (partner, _, _, _) in zip(grid.axes, rules)]
            probes = _inside_terms(region, [probe for _, probe, _, _ in rules])
            for k, xi in enumerate(X):
                stencil = object.__new__(cls)
                stencil._place(grid, region, xi, rules, rows, centers, probes, k)
                stencil._buffers = buffers
                yield stencil

    def _place(self, grid: Grid, region: Region, xi: np.ndarray, rules, rows, centers, probes, k: int):
        """Build from row k of each axis's pair rule, interpolation rows and
        probe terms, and the grid's membership mask ``centers``."""
        self.grid, self.xi = grid, xi
        box, self.centers, self.rows = [], [], []
        for d, (axis, (_, _, first, stop), row) in enumerate(zip(grid.axes, rules, rows)):
            sl = slice(int(first[k]), int(stop[k]))
            box.append(sl)
            self.centers.append(axis[sl])
            base, top, frac = (a[k, sl] for a in row)
            col = (-1,) + (1,) * (grid.dim - d)  # broadcasts along axis d
            self.rows.append((base, top, (1.0 - frac).reshape(col), frac.reshape(col)))
        self.box = tuple(box)
        self.shape = tuple(c.size for c in self.centers)
        self.keep = slice(None)
        if probes:
            ends = centers[self.box], _folded_inside(region, [[t[k, sl] for t, sl in zip(g, box)] for g in probes])
            self.keep = np.logical_and(*ends).reshape(-1)

    def pairs(self) -> tuple[np.ndarray, list]:
        """The kept pairs in C order: each center's flat grid index, and its
        partner's ``(base, top, frac)`` interpolation row per axis."""
        at = [i[self.keep] for i in np.indices(self.shape).reshape(self.grid.dim, -1)]
        centers = np.ravel_multi_index([sl.start + i for sl, i in zip(self.box, at)], self.grid.shape)
        return centers, [(base[i], top[i], hi.reshape(-1)[i]) for (base, top, _, hi), i in zip(self.rows, at)]

    def slopes(self, u) -> np.ndarray:
        """``(u(x + eps xi) - u(x)).xi`` of nodal values ``u`` (a
        ``SampledField`` or an array with one row per cell) over the range
        box, flat in C order, interpolated at the shifted endpoint one
        pass per axis."""
        nodal = (u.values if isinstance(u, SampledField) else u).reshape(self.grid.shape + (-1,))
        # each axis pass reads only the partner columns of the later axes;
        # the rows' cells are nondecreasing, so those span base[0]..top[-1]
        cols = [slice(base[0], top[-1] + 1) if base.size else slice(0, 0) for base, top, _, _ in self.rows]
        end = nodal[tuple(cols)]
        for d, ((base, top, lo_w, hi_w), sl) in enumerate(zip(self.rows, cols)):
            if d == self.grid.dim - 1:  # per component too, so that one inner loop runs over both last axes
                lo_w, hi_w = (np.repeat(w, nodal.shape[-1], axis=1) for w in (lo_w, hi_w))
            # lo_w * end[base] + hi_w * end[top], in buffers other than end's
            shape = end.shape[:d] + base.shape + end.shape[d + 1 :]
            lo = np.take(end, base - sl.start, axis=d, mode="clip", out=_buffer(self._buffers, d % 2, shape))
            hi = np.take(end, top - sl.start, axis=d, mode="clip", out=_buffer(self._buffers, 2, shape))
            lo *= lo_w
            hi *= hi_w
            end = np.add(lo, hi, out=lo)
        end -= nodal[self.box]
        return end.reshape(-1, nodal.shape[-1]) @ self.xi

    def cell_sum(self, u, eps: float) -> float:
        """Midpoint cell sum ``(h^n/eps) sum arctan(s^2/eps)`` over the pairs."""
        s = self.slopes(u)[self.keep]
        s *= s
        s /= eps
        return float(self.grid.cell_volume / eps * np.sum(np.arctan(s, out=s)))


# ---------------------------------------------------------------------------
# Closed-form cell sums by counting
# ---------------------------------------------------------------------------


def _first_true(test, lo: np.ndarray, hi: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Per row, the least ``j`` in ``[lo, hi)`` with ``test(rows, j)``, or
    ``hi``, for tests that fail and then hold along each row.

    The guess is confirmed where the test fails just below it and holds at
    it; the other rows are searched by halving their bracket.
    """
    at = np.clip(guess, lo, hi)
    every = slice(None)
    # indices kept inside the grid where a row is empty; those tests are masked
    high = (at > lo) & test(every, np.minimum(np.maximum(at - 1, lo), hi - 1))
    low = (at < hi) & ~test(every, np.minimum(at, hi - 1))
    rows = np.flatnonzero(high | low)
    left = np.where(high[rows], lo[rows], at[rows] + 1)
    right = np.where(high[rows], at[rows] - 1, hi[rows])
    while True:
        at[rows] = left
        open_ = left < right
        if not open_.any():
            return at
        rows, left, right = rows[open_], left[open_], right[open_]
        mid = (left + right) // 2
        yes = test(rows, mid)
        right = np.where(yes, mid, right)
        left = np.where(yes, left, mid + 1)


def _runs(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of the given lengths laid end to end, each element's run
    and its place in that run."""
    owner = np.repeat(np.arange(lengths.size), lengths)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _guess(target: np.ndarray, start: np.ndarray, h: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Index of the first coordinate past ``target`` on rows that start at
    ``start`` with spacing ``h``, clipped to ``[lo, hi]``; rows without a
    finite target guess ``lo``."""
    with np.errstate(invalid="ignore", over="ignore"):
        j = np.floor((target - start) / h) + 1.0
    return np.clip(np.where(np.isnan(j), lo, j), lo, hi).astype(np.int64)


class _Columns:
    """The range boxes of a chunk of directions as grid columns along the
    last axis, in C order per direction (direction-major).

    A column holds its direction (``dirs``), its grid index on each earlier
    axis (``index``) and its stretch ``[lo, hi)`` of last-axis indices.
    Coordinates come in three kinds: the centers, the partners ``x + eps
    xi`` and the probes at which the partners' membership is tested.
    """

    def __init__(self, grid: Grid, region: Region, eps: float, xis: np.ndarray):
        self.grid, self.dim = grid, grid.dim
        rules = [_pair_axis(region, d, axis, grid.h, eps * xis[:, d]) for d, axis in enumerate(grid.axes)]
        self.partners, self.probes = [r[0] for r in rules], [r[1] for r in rules]
        self.first = np.stack([r[2] for r in rules], axis=1)
        self.stop = np.stack([r[3] for r in rules], axis=1)
        dirs, index = np.arange(len(xis)), []
        for d in range(self.dim - 1):
            owner, offset = _runs((self.stop - self.first)[dirs, d])
            index = [i[owner] for i in index] + [self.first[dirs[owner], d] + offset]
            dirs = dirs[owner]
        self.dirs, self.index = dirs, index
        self.lo, self.hi = self.first[dirs, -1], self.stop[dirs, -1]

    def coords(self, kind: str) -> list[np.ndarray]:
        """Each column's coordinate on every earlier axis: its centers',
        partners' or probes'."""
        if kind == "center":
            return [self.grid.axes[d][i] for d, i in enumerate(self.index)]
        table = self.partners if kind == "moved" else self.probes
        return [table[d][self.dirs, i] for d, i in enumerate(self.index)]

    def last(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """The last-axis coordinates of ``kind`` as a table and each
        column's row in it: one row for the centers, one per direction for
        the partners and probes."""
        if kind == "center":
            return self.grid.axes[-1][None, :], np.zeros_like(self.dirs)
        return (self.partners if kind == "moved" else self.probes)[-1], self.dirs

    def extent(self, kind: str) -> list[np.ndarray]:
        """Per axis and direction, the largest ``|coordinate|`` of the
        centers or partners over the range box (0 where it is empty); the
        coordinates rise along each axis, so it sits at an end."""
        out = []
        for d, axis in enumerate(self.grid.axes):
            rows = np.broadcast_to(axis, self.partners[d].shape) if kind == "center" else self.partners[d]
            k, first, stop = np.arange(len(rows)), self.first[:, d], self.stop[:, d]
            ends = np.maximum(np.abs(rows[k, first]), np.abs(rows[k, np.maximum(stop - 1, 0)]))
            out.append(np.where(stop > first, ends, 0.0))
        return out


def _plane_intervals(cols: _Columns, plane, kind: str):
    """Per column, where the ``kind`` endpoints (centers or partners) lie on
    the plus side of the plane, and the stretch within roundoff of it.

    The plus side is given as ``(cut, above)``: the cells at or past the
    cut when ``above``, else the cells before it.

    The side is ``x.nu - offset`` as ``PlaneJump.eval_many`` forms it
    (``_dot_rows``): the axes' terms added left to right, then the offset
    subtracted.  Float addition and multiplication are monotone, so along
    a column the side is monotone in the last coordinate and each stretch
    is one interval of indices.  Its ends are guessed from the real line
    and confirmed, or else searched (``_first_true``), with the exact
    per-cell expression.  A cell is within roundoff when ``|side| <= 4
    (n+1) ulp size`` with ``size = |offset| + sum_d max|x_d| |nu_d|`` over
    the direction's range box.
    """
    nu, off, n = plane.normal, plane.offset, cols.dim
    rest = np.zeros(cols.dirs.size)
    for c, w in zip(cols.coords(kind), nu[:-1]):
        rest = rest + c * w
    size = 0
    for ext, w in zip(cols.extent(kind), nu):
        size = size + ext * abs(w)
    bound = (4 * (n + 1) * _ULP * (abs(off) + size))[cols.dirs]
    lo, hi, nu_l = cols.lo, cols.hi, nu[-1]
    if nu_l == 0:
        # x_l * 0 adds a zero: the side is the same along the column
        side = rest - off
        return (np.where(side > 0, lo, hi), True), (lo, np.where(np.abs(side) <= bound, hi, lo))
    sgn = -1.0 if nu_l < 0 else 1.0
    table, row = cols.last(kind)

    def s(sel, j):
        # sgn side, which rises along the column
        return sgn * ((rest[sel] + table[row[sel], j] * nu_l) - off)

    # the plus side is s > 0 for sgn 1 and s < 0 for sgn -1, so cut at the
    # first s > 0 or the first s >= 0
    zero = 0.0 if sgn > 0 else -np.finfo(float).smallest_subnormal
    with np.errstate(over="ignore"):
        # a tiny |nu_l| sends the guess off the column; the search then corrects it
        target = (off + sgn * zero - rest) / nu_l
    cut = _guess(target, table[row, 0], cols.grid.h, lo, hi)
    every = slice(None)
    # s just below and at the guess (indices kept in the grid; masked where out of the column)
    before, at = s(every, np.maximum(cut - 1, 0)), s(every, np.minimum(cut, table.shape[1] - 1))
    wrong = np.flatnonzero(((cut > lo) & (before > zero)) | ((cut < hi) & ~(at > zero)))
    if wrong.size:
        cut[wrong] = _first_true(lambda sel, j: s(wrong[sel], j) > zero, lo[wrong], hi[wrong], cut[wrong])
        before[wrong] = s(wrong, np.maximum(cut[wrong] - 1, 0))
        at[wrong] = s(wrong, np.minimum(cut[wrong], table.shape[1] - 1))
    # the band -bound <= s <= bound meets the cut; it holds more than the
    # cut itself only where a neighbour of the cut lies in it
    below = np.flatnonzero((cut > lo) & (before >= -bound))
    above = np.flatnonzero((cut < hi) & (at <= bound))
    band_lo, band_hi = cut.copy(), cut.copy()
    if below.size:
        band_lo[below] = _first_true(
            lambda sel, j: s(below[sel], j) >= -bound[below[sel]], lo[below], cut[below], cut[below] - 1
        )
    if above.size:
        band_hi[above] = _first_true(
            lambda sel, j: s(above[sel], j) > bound[above[sel]], cut[above], hi[above], cut[above] + 1
        )
    return (cut, sgn > 0), (band_lo, band_hi)


def _ball_interval(cols: _Columns, ball: Ball, kind: str):
    """Per column, the stretch of cells whose ``kind`` endpoint (centers or
    probes) lies in the ball, ``fold((x - c)^2) < r^2`` as ``_Shift``
    forms it from ``_inside_terms``; the squared distance falls and then
    rises along the column, so the stretch is one interval."""
    rest = np.zeros(cols.dirs.size)
    for d, c in enumerate(cols.coords(kind)):
        rest = rest + (c - ball.center[d]) ** 2
    table, row = cols.last(kind)
    ctr, r2 = ball.center[-1], ball.radius**2
    # the last-axis term falls up to the first coordinate at or past the center
    bottom = np.clip(np.sum(table - ctr < 0, axis=1)[row], cols.lo, cols.hi)
    lo, hi = np.concatenate([cols.lo, bottom]), np.concatenate([bottom, cols.hi])
    rest2, row2 = np.tile(rest, 2), np.tile(row, 2)
    leaving = np.arange(lo.size) >= rest.size

    def test(sel, j):
        return ((rest2[sel] + (table[row2[sel], j] - ctr) ** 2) < r2) != leaving[sel]

    with np.errstate(invalid="ignore"):
        half = np.sqrt(r2 - rest2)
    target = np.where(leaving, ctr + half, ctr - half)
    guess = _guess(target, table[row2, 0], cols.grid.h, lo, hi)
    # a column that misses the ball settles at its first try
    guess = np.where(np.isnan(half), np.where(leaving, lo, hi), guess)
    return tuple(np.split(_first_true(test, lo, hi, guess), 2))


def _slit_interval(cols: _Columns, seg, kind: str):
    """Per column, the stretch of cells whose ``kind`` endpoint (centers or
    probes) lies on the slit: every per-axis excess is zero.  On the last
    axis that is one interval per row; a column meets it only where its
    earlier axes' excess vanishes."""
    rest = np.zeros(cols.dirs.size)
    for e in _slit_excess(seg, cols.coords(kind)):
        rest = rest + e**2
    table, row = cols.last(kind)
    on = (np.maximum(seg.lower[-1] - table, 0.0) + np.maximum(table - seg.upper[-1], 0.0)) ** 2 == 0.0
    first = on.argmax(axis=1)
    stop = (on.shape[1] - on[:, ::-1].argmax(axis=1)) * on.any(axis=1)
    hit = rest == 0.0
    return tuple(np.clip(np.where(hit, end[row], 0), cols.lo, cols.hi) for end in (first, stop))


def _count_chunk(u: AnalyticField, grid: Grid, region: Region, eps: float, xis: np.ndarray):
    """Count the pairs of a chunk of directions by the planes they cross.

    Returns ``(crossings, counts, owners, cells, cols)``: the distinct
    crossing patterns, one row each with one entry per jump plane (+1 where
    the pair crosses to the plus side, -1 where it crosses back, 0 where it
    does not cross); ``counts[k, i]``, the kept pairs of direction k with
    pattern i and both endpoints clear of every plane; the kept pairs within
    roundoff of a plane at either endpoint (the exceptions), as the
    direction and grid index of each center, direction-major and in C order;
    and the chunk's ``_Columns``.

    Along a column every predicate of a cell (the plus side of a plane at
    the center and at the partner, the roundoff band of each, ball
    membership at the center and at the probe, lying on a slit) holds on
    one interval of indices.  Between the sorted ends of the side and
    membership intervals a stretch of cells shares one pattern and is
    counted by its length; the few cells in a band are then taken out of
    those counts one by one.
    """
    cols = _Columns(grid, region, eps, xis)
    sides, bands = [], []
    for plane in u.jump_planes():
        for kind in ("center", "moved"):
            side, band = _plane_intervals(cols, plane, kind)
            sides.append(side)
            bands.append(band)
    inside, outside = [], []
    if isinstance(region, Ball):
        inside = [_ball_interval(cols, region, kind) for kind in ("center", "probe")]
    else:
        outside = [_slit_interval(cols, seg, kind) for seg in region.precrack for kind in ("center", "probe")]

    def classify(j, at):
        """Whether the cells ``j`` of columns ``at`` are kept, and their pattern code."""
        kept = np.ones(j.shape, dtype=bool)
        for lo, hi in inside:
            kept &= (lo[at] <= j) & (j < hi[at])
        for lo, hi in outside:
            kept &= (j < lo[at]) | (hi[at] <= j)
        code = np.zeros(j.shape, dtype=np.int64)
        for (cut0, above0), (cut1, above1) in zip(sides[::2], sides[1::2]):
            code = 3 * code + 1 + ((j >= cut1[at]) == above1) - ((j >= cut0[at]) == above0).astype(np.int64)
        return kept, code

    # every interval end lies in its column's [lo, hi]
    ends = [cols.lo, cols.hi] + [cut for cut, _ in sides] + [e for iv in inside + outside for e in iv]
    ends = np.sort(np.column_stack(ends), axis=1)
    start, length = ends[:, :-1], ends[:, 1:] - ends[:, :-1]
    kept, code = classify(start, (slice(None), None))
    kept &= length > 0
    col, j = _band_cells(bands, grid.shape[-1])
    near_kept, near_code = classify(j, col)
    col, j, near_code = col[near_kept], j[near_kept], near_code[near_kept]

    code = np.concatenate([code[kept], near_code])
    patterns = np.flatnonzero(np.bincount(code, minlength=1))
    which = np.zeros(patterns[-1] + 1 if patterns.size else 0, dtype=np.int64)
    which[patterns] = np.arange(patterns.size)
    dirs = np.concatenate([np.broadcast_to(cols.dirs[:, None], kept.shape)[kept], cols.dirs[col]])
    weight = np.concatenate([length[kept], -np.ones(col.size)])
    counts = np.bincount(dirs * patterns.size + which[code], weight, len(xis) * patterns.size)
    crossings = np.zeros((patterns.size, len(sides) // 2), dtype=np.int64)
    for p in reversed(range(crossings.shape[1])):
        crossings[:, p], patterns = patterns % 3 - 1, patterns // 3
    cells = np.column_stack([i[col] for i in cols.index] + [j])
    return crossings, counts.reshape(len(xis), -1), cols.dirs[col], cells, cols


def _band_cells(bands, size: int):
    """The cells of the band intervals, each once, as ``(column, index)``
    sorted by column and then index: columns are direction-major, so each
    direction's cells come in C order.  ``size`` is the column length."""
    run = np.concatenate([np.zeros(0, dtype=np.int64)] + [hi - lo for lo, hi in bands])
    if not run.any():
        return run[:0], run[:0]
    owner, offset = _runs(run)
    col = np.tile(np.arange(bands[0][0].size), len(bands))[owner]
    j = np.concatenate([lo for lo, _ in bands])[owner] + offset
    return np.divmod(np.unique(col * size + j), size)


def _closed_form_sums(u: AnalyticField, grid: Grid, region: Region, eps: float, xis: np.ndarray) -> np.ndarray:
    """Cell sums ``(h^n/eps) sum arctan(s^2/eps)`` of a closed-form field
    for each row of ``xis``, ``_CHUNK`` directions per pass.

    A pair's slope is ``eps xi.(A^T xi)`` for the affine part ``A``, plus
    ``J.xi`` for each plane it crosses to the plus side, minus that for each
    it crosses back, so each crossing pattern's cells share one value and
    are counted (``_count_chunk``).  The exceptions, pairs within roundoff
    of a plane, are evaluated at both endpoints with ``eval_nudged``, so the
    side of each plane and the h/7 nudge off it are those of ``eval_many``.
    A direction's value depends on that direction alone, not on its chunk.
    """
    xis = np.asarray(xis, dtype=float).reshape(-1, grid.dim)
    A = u.affine_part()[0]
    jumps = [plane.jump for plane in u.jump_planes()]
    out = np.empty(len(xis))
    for at in range(0, len(xis), _CHUNK):
        X = xis[at : at + _CHUNK]
        crossings, counts, owners, cells, cols = _count_chunk(u, grid, region, eps, X)
        # row by row, so that no direction's value depends on its chunk
        affine = 0
        for d in range(grid.dim):
            affine = affine + (eps * X[:, d]) * _dot_rows(X, A[:, d])
        jump_xi = [_dot_rows(X, J) for J in jumps]
        total = np.zeros(len(X))
        for crossing, count in zip(crossings, counts.T):
            s = affine
            for j_xi, c in zip(jump_xi, crossing):
                s = s + c * j_xi
            total = total + count * np.arctan(s * s / eps)
        # one evaluation per direction, of its partners and then its centers
        for k in np.unique(owners):
            at_k = cells[owners == k]
            ends = np.concatenate(
                [
                    np.stack([rows[k, i] for rows, i in zip(cols.partners, at_k.T)], axis=1),
                    np.stack([axis[i] for axis, i in zip(grid.axes, at_k.T)], axis=1),
                ]
            )
            moved, centers = np.split(eval_nudged(u, ends, grid.h / 7.0), 2)
            s = (moved - centers) @ X[k]
            total[k] += np.sum(np.arctan(s * s / eps))
        out[at : at + len(X)] = grid.cell_volume / eps * total
    return out


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
    of each plane a pair crosses, and their pairs are counted per
    crossing pattern rather than visited (``_closed_form_sums``, here a
    batch of one; the value equals this direction's entry of
    ``averaged_energy`` bit for bit).  Only pairs with an endpoint on or
    within roundoff of a plane evaluate the field, nudged off it by h/7.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise ValueError(f"xi must be finite, got {xi}")
    g = _resolve_grid(u, grid)
    check_resolution(g.h, eps)
    if xi.shape != (g.dim,):
        raise ValueError(f"xi must have {g.dim} components, got shape {xi.shape}")
    if isinstance(u, AnalyticField):
        return float(_closed_form_sums(u, g, region, eps, xi[None, :])[0])
    return _Shift(g, region, xi, eps).cell_sum(u, eps)


def _direction_values(
    u: FieldLike, region: Region, eps: float, rule: DirectionRule, grid: Grid, support: BoxDomain
) -> tuple[np.ndarray, list[float]]:
    """Rule nodes inside ``support`` and their directional cell sums on the
    region, both in ascending node order."""
    nodes = np.flatnonzero(support.contains(rule.nodes))
    if isinstance(u, AnalyticField):
        return nodes, _closed_form_sums(u, grid, region, eps, rule.nodes[nodes]).tolist()
    return nodes, [stencil.cell_sum(u, eps) for stencil in _Shift.each(grid, region, rule.nodes[nodes], eps)]


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
