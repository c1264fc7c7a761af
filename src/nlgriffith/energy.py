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

Every energy and the ball families follow one pair rule: per grid axis,
the partner coordinates ``x + eps xi`` and the probes at which their
membership is tested (``_partners``, which do not depend on the region),
and the range of cells whose pair stays inside the region's bounding box
(``_pair_axis``).  And one membership rule: along each grid column a
region keeps its pairs as runs of cells (``_region_runs``), because ball
membership and lying on a slit each hold on one interval of indices.
Both kernels take every region's runs from one pass over the directions,
a chunk at a time, whose partners the regions share (``_chunks``);
``_direction_values`` picks the kernel by the field's type.  A sampled
field is summed over the runs: only ``(u(x+eps xi)-u(x)).xi`` enters,
and interpolation is linear, so the field is projected onto xi before it
is interpolated, and one slope pass, one arctan and one run sum per
direction serve every region (``_sampled_sums``).  A closed-form field
is counted, not visited: a pair's slope is the affine part's
``eps xi.(A^T xi)`` plus the jump of each plane the pair crosses, so it
takes one value per crossing pattern, and along a grid column the side
of a plane at either endpoint holds on one interval of indices.
``_closed_form_sums`` counts each pattern's cells from the ends of the
runs and of those intervals, and evaluates the field only at the few
pairs with an endpoint exactly on a plane.  A chunk holds as many
directions as fill a budget of grid columns (``_chunk``), so its arrays
are about the same size on every grid.  The descent kernel of
``nlgriffith.minimize`` assembles one sparse operator on the nodal
values from the same runs' kept pairs and interpolation rows
(``_kept_pairs``), so the pair rule alone decides which pairs interact;
the energies stay matrix-free, because their pair counts at sweep sizes
would make that operator too large to hold.

On top of these sits one ball-family functional, ``family_energy``:
``sum_B (sum_j w_j F_dir(u, B, xi_j)^p)^(1/p)`` over a finite family of
pairwise disjoint open balls.  The averaged energy is its p = 1 value on
one region, and ``slicing.family_slice_measure`` is the same functional
of the slice measure.  ``ball_supremum_energy`` maximizes it over
candidate families, evaluated together.  One helper, ``_ball_families``,
forms every family value from a table of values per ball and direction
node, and picks the first best family.  The true supremum over all
finite families is not computable; the returned value is a certified
lower bound achieved by the reported family, and it improves
monotonically under family refinement.

Only pairs whose endpoints both lie in the region interact.  A precrack
slit is removed from the membership test pointwise, so interactions may
still reach across it; ball families that avoid the slit are the
mechanism that exposes it energetically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .domain import (
    AnalyticField,
    Ball,
    BoxDomain,
    Grid,
    InputError,
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


class GridCapabilityError(InputError):
    """The grid is too coarse to resolve the requested interaction range."""


def check_resolution(h: float, eps: float) -> None:
    """Enforce the resolution contract h <= eps / 4."""
    if not (np.isfinite(h) and np.isfinite(eps)):
        raise InputError(f"h={h} and eps={eps} must be finite")
    if eps <= 0:
        raise InputError("eps must be positive")
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
                raise InputError(f"balls {i} and {i + 1 + hits[0]} overlap")

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
            raise InputError("strategy kind must be 'dyadic' or 'greedy'")
        for name, least in (("levels", 0), ("count", 1)):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) and value >= least):
                raise InputError(f"{name} must be an integer of at least {least}, got {value!r}")

    @classmethod
    def parse(cls, text: str) -> "BallStrategy":
        """Parse compact forms like ``dyadic:3`` or ``greedy:8``; a bare
        ``dyadic`` or ``greedy`` takes the field default."""
        kind, colon, arg = text.partition(":")
        name = {"dyadic": "levels", "greedy": "count"}.get(kind)
        if name is None:
            raise InputError(f"unknown ball strategy {text!r}")
        if not colon:
            return cls(kind)
        try:
            value = int(arg)
        except ValueError:
            raise InputError(f"ball strategy {text!r} must have the form {kind} or {kind}:integer") from None
        return cls(kind, **{name: value})


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
            raise InputError("dyadic strategy produced no admissible family")
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
        raise InputError("greedy strategy produced no admissible family")
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
# Pairs, a chunk of directions at a time
# ---------------------------------------------------------------------------

_COLUMNS = 4800  # grid columns per set-up or counting pass: bounds its arrays, never its values


def _chunk(grid: Grid) -> int:
    """Directions per set-up or counting pass on ``grid``: as many as fill
    ``_COLUMNS`` grid columns (lines of cells along the last axis, one per
    index on the earlier axes), and at least 16.  The budget is 16
    directions on a grid with 300 rows, so a smaller grid takes more
    directions per pass and none takes more columns, beyond the floor."""
    return max(16, _COLUMNS // math.prod(grid.shape[:-1]))


def _axis_inside(region: Region, d: int, x: np.ndarray) -> np.ndarray:
    """Axis-d bounding-box factor of ``region.contains``, same float ops."""
    if isinstance(region, Ball):
        return (x - region.center[d]) ** 2 < region.radius**2
    return (x > region.lower[d]) & (x < region.upper[d])


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


def _partners(grid: Grid, eps: float, xis: np.ndarray) -> list:
    """The region-free half of the pair rule for a chunk of directions: per
    grid axis, one row per direction of the partners ``axis + eps xi_d``
    and of the probes at which their membership is tested
    (``_snap_to_axis``).  Both kernels build it once per chunk."""
    steps = eps * xis.T[:, :, None]
    return [(p := axis + step, _snap_to_axis(axis, grid.h, p, step)) for axis, step in zip(grid.axes, steps)]


def _pair_axis(region: Region, d: int, axis: np.ndarray, probe: np.ndarray):
    """The pair rule of a region along grid axis d: per row of ``probe``
    (``_partners``), the first and stop index of the cells whose center
    and probe both pass the region's axis-d factor (``0, 0`` when none
    does), for a chunk of rows."""
    hits = _axis_inside(region, d, axis) & _axis_inside(region, d, probe)
    # a row without hits has argmax 0 both ways
    first = hits.argmax(axis=1)
    stop = (axis.size - hits[:, ::-1].argmax(axis=1)) * hits.any(axis=1)
    return first, stop


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


def _components(u, grid: Grid) -> list[np.ndarray]:
    """Each component of a sampled field's nodal values (a ``SampledField``
    or an array with one row per cell) as its own C-ordered grid array."""
    nodal = (u.values if isinstance(u, SampledField) else np.asarray(u)).reshape(grid.n_cells, -1)
    return [np.ascontiguousarray(c).reshape(grid.shape) for c in nodal.T]


def _chunks(grid: Grid, regions, xis: np.ndarray, eps: float):
    """The pairs ``(x, x + eps xi)`` of each region on a regular grid, per
    chunk of rows of ``xis`` (``_chunk``): its slice of the rows, and each
    region's columns narrowed to runs (``_region_runs``), as many per column
    as the region with the most slits needs.

    A pair interacts when both points lie in the region.  Grid centers and
    their shifts are products of per-axis coordinates, so the cells whose
    pair stays inside the region's bounding box form one index range per
    axis, the range box (``_pair_axis``).  Along each column of the range
    box the interacting pairs are runs of last-axis indices ``[lo, hi)``,
    from interval rules, so no point mesh or mask is formed; a shifted
    coordinate within roundoff of a grid coordinate is tested there, so a
    partner that lands on a center has its membership.  Every kernel sums
    over these runs: the sampled sums, the counting kernel and the descent
    operator (``_kept_pairs``).  The regions share the chunk's partners and
    probes, and a ball's centers' stretches are found once per call."""
    # every grid column, if a ball needs them: the range box of the grid's own domain at no shift
    balls = any(isinstance(region, Ball) for region in regions)
    whole = balls and _Columns(grid, grid.domain, _partners(grid, 0.0, np.zeros((1, grid.dim))))
    centers = [_ball_interval(whole, region, "center") if isinstance(region, Ball) else None for region in regions]
    width = max([1 + 2 * len(getattr(region, "precrack", ())) for region in regions], default=1)
    size = _chunk(grid)
    for at in range(0, len(xis), size):
        moved = _partners(grid, eps, xis[at : at + size])
        yield slice(at, at + size), [
            _region_runs(_Columns(grid, r, moved), r, c, width) for r, c in zip(regions, centers)
        ]


def _kept_pairs(cols: _Columns) -> tuple[np.ndarray, np.ndarray, list]:
    """The kept pairs of a chunk's columns (``_chunks``), direction by
    direction and each direction's in C order, run by run: each pair's
    direction (its row in the chunk), its center's flat grid index, and its
    partner's ``(base, top, frac)`` interpolation row per axis."""
    owner, offset = _runs((cols.hi - cols.lo).reshape(-1))
    column = owner // cols.lo.shape[1]
    dirs = cols.dirs[column]
    at = [i[column] for i in cols.index] + [cols.lo.reshape(-1)[owner] + offset]
    rows = (_interp_row(axis, cols.grid.h, partner) for axis, partner in zip(cols.grid.axes, cols.partners))
    return dirs, np.ravel_multi_index(at, cols.grid.shape), [tuple(a[dirs, i] for a in row) for row, i in zip(rows, at)]


def _slopes(comps, grid: Grid, xi: np.ndarray, line, box: tuple, buffers: list) -> np.ndarray:
    """``(u(x + eps xi) - u(x)).xi`` over the range box ``box``, flat in C
    order, from the field's components ``comps`` (``_components``) and the
    partners' ``(base, top, frac)`` interpolation rows ``line``, one per
    axis along the whole axis.

    Only ``(u(x + eps xi) - u(x)).xi`` enters an energy, and interpolation
    is linear, so the field is projected first, ``U = u.xi`` with the
    components' terms added left to right cell by cell as ``_dot_rows``
    adds them, so that a cell's value does not depend on the box.  ``U`` is
    then interpolated at the shifted endpoint one pass per axis, and ``U``
    at the centers subtracted.  The passes run in the four arrays
    ``buffers`` (``_buffer``), so that the process reuses memory it holds
    rather than mapping fresh pages for each pass.
    """
    rows = []
    for d, ((base, top, frac), sl) in enumerate(zip(line, box)):
        # the partners over the box, weights broadcast along it
        col = (-1,) + (1,) * (grid.dim - 1 - d)
        frac = frac[sl]
        rows.append((base[sl], top[sl], (1.0 - frac).reshape(col), frac.reshape(col)))
    # each axis pass reads only the partner columns of the later axes;
    # the rows' cells are nondecreasing, so those span base[0]..top[-1]
    span = tuple(slice(min(sl.start, base[0]), max(sl.stop, top[-1] + 1)) for sl, (base, top, _, _) in zip(box, rows))
    shape = tuple(sl.stop - sl.start for sl in span)
    U = np.multiply(comps[0][span], xi[0], out=_buffer(buffers, 3, shape))
    for c, x in zip(comps[1:], xi[1:]):
        U += np.multiply(c[span], x, out=_buffer(buffers, 2, shape))
    end = U
    for d, ((base, top, lo_w, hi_w), sl) in enumerate(zip(rows, span)):
        # lo_w * end[base] + hi_w * end[top], in buffers other than end's and U's
        shape = end.shape[:d] + base.shape + end.shape[d + 1 :]
        lo = np.take(end, base - sl.start, axis=d, mode="clip", out=_buffer(buffers, d % 2, shape))
        hi = np.take(end, top - sl.start, axis=d, mode="clip", out=_buffer(buffers, 2, shape))
        lo *= lo_w
        hi *= hi_w
        end = np.add(lo, hi, out=lo)
    end -= U[tuple(slice(b.start - s.start, b.stop - s.start) for b, s in zip(box, span))]
    return end.reshape(-1)


def _sampled_sums(u, grid: Grid, regions, eps: float, xis: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Cell sums ``(h^n/eps) sum arctan(s^2/eps)`` of a sampled field, one
    row per region and one column per row of ``xis``, where ``kept`` (the
    same shape) holds; 0.0 elsewhere.

    Per direction, one slope pass runs over the union of the live regions'
    range boxes and the terms ``arctan(s^2/eps)`` are formed once over
    it; one ``np.add.reduceat`` then sums every run of every region.  A
    region's value adds its runs' sums column by column, left to right,
    with 0.0 for an empty run, and then its columns in C order as one
    ``reduceat`` segment.  A cell's term is formed elementwise and each
    segment's sum depends on its own terms alone, so a region's value does
    not depend on the other regions or rows.
    """
    comps = _components(u, grid)
    sums = np.zeros(kept.shape)
    buffers, n = [np.empty(0)] * 4, len(regions)
    for chunk, cols in _chunks(grid, regions, xis, eps):
        rows = [_interp_row(axis, grid.h, partner) for axis, partner in zip(grid.axes, cols[0].partners)]
        first, stop = np.stack([c.first for c in cols]), np.stack([c.stop for c in cols])
        live = kept[:, chunk] & np.all(stop > first, axis=2)
        # per direction, the union of the live range boxes
        low = np.where(live[..., None], first, grid.shape).min(axis=0)
        high = np.where(live[..., None], stop, 0).max(axis=0)
        # the live columns, by direction and then region (group k n + r), each region's in C order
        blocks = np.stack([np.searchsorted(c.dirs, np.arange(first.shape[1] + 1)) for c in cols])
        blocks += np.cumsum([0] + [c.dirs.size for c in cols[:-1]])[:, None]
        group, offset = _runs(np.where(live, np.diff(blocks, axis=1), 0).T.reshape(-1))
        order = blocks[:, :-1].T.reshape(-1)[group] + offset
        ends = np.empty((order.size, cols[0].lo.shape[1], 2), dtype=np.int64)
        for j, end in enumerate(("lo", "hi")):
            ends[..., j] = np.concatenate([getattr(c, end) for c in cols])[order]
        index = [np.concatenate([c.index[d] for c in cols])[order] for d in range(grid.dim - 1)]
        dirs = group // n
        # tables and arrays go once read, so that no two chunks' are held at once
        del cols, order
        # each run's first and stop cell, flat in its direction's union box
        at_box = 0
        for d, i in enumerate(index):
            at_box = (at_box + i - low[dirs, d]) * (high - low)[dirs, d + 1]
        ends -= np.reshape(low[dirs, -1] - at_box, (-1, 1, 1))
        empty = ends[..., 0] == ends[..., 1]
        ends = ends.reshape(-1, 2 * empty.shape[1])
        del index, at_box
        runs = np.empty(empty.shape)
        bounds = np.searchsorted(dirs, np.arange(first.shape[1] + 1)).tolist()
        for k in np.flatnonzero(np.diff(bounds)).tolist():
            line = [tuple(a[k] for a in row) for row in rows]
            box = tuple(map(slice, low[k].tolist(), high[k].tolist()))
            s = _slopes(comps, grid, xis[chunk][k], line, box, buffers)
            s *= s
            s /= eps
            # buffer 2 holds only slope temporaries; a spare term lets a run end at the last cell
            terms = _buffer(buffers, 2, (s.size + 1,))
            np.arctan(s, out=terms[:-1])
            part = slice(bounds[k], bounds[k + 1])
            runs[part] = np.add.reduceat(terms, ends[part].reshape(-1))[::2].reshape(-1, empty.shape[1])
        # reduceat gives an empty run its first term
        runs[empty] = 0.0
        columns = runs[:, 0]
        for run in runs.T[1:]:
            columns = columns + run
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        sums[group[starts] % n, chunk.start + dirs[starts]] = grid.cell_volume / eps * np.add.reduceat(columns, starts)
        del rows, group, dirs, ends, empty, runs, columns
    return sums


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
    """A region's range boxes (``_pair_axis``) for a chunk of directions,
    whose partners and probes are ``moved`` (``_partners``), as grid
    columns along the last axis, in C order per direction (direction-major).

    A column holds its direction (``dirs``), its grid index on each earlier
    axis (``index``) and its stretch ``[lo, hi)`` of last-axis indices.
    Coordinates come in three kinds: the centers, the partners ``x + eps
    xi`` and the probes at which the partners' membership is tested.
    """

    def __init__(self, grid: Grid, region: Region, moved):
        self.grid, self.dim = grid, grid.dim
        self.partners, self.probes = [m[0] for m in moved], [m[1] for m in moved]
        ranges = [_pair_axis(region, d, axis, probe) for d, (axis, probe) in enumerate(zip(grid.axes, self.probes))]
        self.first = np.stack([r[0] for r in ranges], axis=1)
        self.stop = np.stack([r[1] for r in ranges], axis=1)
        dirs, index = np.arange(len(self.first)), []
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


def _plane_intervals(cols: _Columns, plane, kind: str):
    """Per column, between its first run's start and last run's stop, where
    the ``kind`` endpoints (centers or partners) lie on the plus side of the
    plane, and the stretch where they lie on it.

    The plus side is given as ``(cut, above)``: the cells at or past the
    cut when ``above``, else the cells before it.

    The side is ``x.nu - offset`` as ``PlaneJump.eval_many`` forms it
    (``_dot_rows``): the axes' terms added left to right, then the offset
    subtracted.  Float addition and multiplication are monotone, so along
    a column the side is monotone in the last coordinate and each stretch
    is one interval of indices.  Its ends are guessed from the real line
    and confirmed, or else searched (``_first_true``), with the exact
    per-cell expression.  The cells on the plane are those whose side is
    0.0, the points ``eval_nudged`` moves.
    """
    nu, off = plane.normal, plane.offset
    rest = np.zeros(cols.dirs.size)
    for c, w in zip(cols.coords(kind), nu[:-1]):
        rest = rest + c * w
    lo, hi, nu_l = cols.lo[:, 0], cols.hi[:, -1], nu[-1]
    if nu_l == 0:
        # x_l * 0 adds a zero: the side is the same along the column
        side = rest - off
        return (np.where(side > 0, lo, hi), True), (lo, np.where(side == 0, hi, lo))
    sgn = -1.0 if nu_l < 0 else 1.0
    table, row = cols.last(kind)

    def s(sel, j):
        # sgn side, which rises along the column
        return sgn * ((rest[sel] + table[row[sel], j] * nu_l) - off)

    with np.errstate(over="ignore"):
        # a tiny |nu_l| sends the guess off the column; the search then corrects it
        target = (off - rest) / nu_l
    guess = _guess(target, table[row, 0], cols.grid.h, lo, hi)
    # the first cell with s >= 0, and past the cells on the plane the first with s > 0
    ge = _first_true(lambda sel, j: s(sel, j) >= 0, lo, hi, guess)
    on = np.flatnonzero((ge < hi) & (s(slice(None), np.minimum(ge, table.shape[1] - 1)) == 0))
    gt = ge.copy()
    if on.size:
        gt[on] = _first_true(lambda sel, j: s(on[sel], j) > 0, ge[on] + 1, hi[on], ge[on] + 1)
    # the plus side is s > 0 for sgn 1 and s < 0 for sgn -1
    return (gt, True) if sgn > 0 else (ge, False), (ge, gt)


def _ball_interval(cols: _Columns, ball: Ball, kind: str):
    """Per column, the stretch of cells whose ``kind`` endpoint (centers or
    probes) lies in the ball, ``(x_0 - c_0)^2 + ... < r^2`` with the axes'
    terms added left to right as ``Ball.contains`` adds them; the squared
    distance falls and then rises along the column, so the stretch is one
    interval.  Its two ends are searched one after the other, so that the
    search's arrays stay the size of the columns."""
    rest = np.zeros(cols.dirs.size)
    for d, c in enumerate(cols.coords(kind)):
        rest = rest + (c - ball.center[d]) ** 2
    table, row = cols.last(kind)
    ctr, r2 = ball.center[-1], ball.radius**2
    # the last-axis term falls up to the first coordinate at or past the center
    bottom = np.clip(np.sum(table - ctr < 0, axis=1)[row], cols.lo, cols.hi)
    with np.errstate(invalid="ignore"):
        half = np.sqrt(r2 - rest)
    ends = []
    # the first cell in the ball, before the center, and the first past it
    for lo, hi, sign in ((cols.lo, bottom, -1.0), (bottom, cols.hi, 1.0)):

        def test(sel, j, leaving=sign > 0):
            return ((rest[sel] + (table[row[sel], j] - ctr) ** 2) < r2) != leaving

        guess = _guess(ctr + sign * half, table[row, 0], cols.grid.h, lo, hi)
        # a column that misses the ball settles at its first try
        ends.append(_first_true(test, lo, hi, np.where(np.isnan(half), hi if sign < 0 else lo, guess)))
    return tuple(ends)


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


def _region_runs(cols: _Columns, region: Region, centers, width: int) -> _Columns:
    """``cols`` with each column's stretch narrowed to ``width`` runs ``[lo,
    hi)`` of last-axis indices, in order (``lo`` and ``hi`` of shape
    ``(columns, width)``): the stretches of kept cells, each ended by an
    unkept cell or the column's end, and empty runs.

    A box keeps its columns' whole stretches.  A ball keeps the cells whose
    center (``centers``, the stretch of each grid column) and probe lie in
    it (``_ball_interval``).  A precracked box cuts out the cells whose
    center or probe lies on a slit (``_slit_interval``), and its runs are
    the gaps between the cuts taken in order of their first cell."""
    lo, hi, cuts = cols.lo, cols.hi, []
    if isinstance(region, Ball):
        flat = np.ravel_multi_index(cols.index, cols.grid.shape[:-1]) if cols.index else 0
        for a, b in ((end[flat] for end in centers), _ball_interval(cols, region, "probe")):
            lo, hi = np.maximum(lo, a), np.minimum(hi, b)
        # an empty run too lies in the column's stretch
        lo = np.minimum(lo, cols.hi)
        hi = np.maximum(lo, hi)
    else:
        cuts = [_slit_interval(cols, seg, kind) for seg in region.precrack for kind in ("center", "probe")]
    # an empty cut, and each cut that pads the runs to ``width``, sits at the
    # column's end, where it splits no run
    cuts = [np.where(b > a, (a, b), hi) for a, b in cuts] + [(hi, hi)] * (width - 1 - len(cuts))
    cols.lo, cols.hi = lo[:, None], hi[:, None]
    if cuts:
        cuts = np.stack(cuts, axis=2)
        cuts = np.take_along_axis(cuts, np.argsort(cuts[0], axis=1, kind="stable")[None], axis=2)
        reach, starts, stops = lo, [], []
        for a, b in zip(cuts[0].T, cuts[1].T):
            starts.append(reach)
            stops.append(np.maximum(reach, a))
            reach = np.maximum(reach, b)
        cols.lo, cols.hi = np.stack(starts + [reach], axis=1), np.stack(stops + [hi], axis=1)
    return cols


@functools.cache
def _sorting_network(n: int) -> tuple[tuple[int, int], ...]:
    """The compare-exchanges ``(a, b)``, ``a < b``, of Batcher's odd-even
    merge sort of ``n`` keys, in order; comparators past the last key are
    left out, as if the missing keys were larger than every key."""
    pairs = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _count_chunk(u: AnalyticField, cols: _Columns):
    """Count the kept pairs of a chunk of directions by the planes they cross.

    ``cols`` is one region's columns narrowed to runs (``_chunks``).
    Returns ``(crossings, counts, owners, cells)``: the distinct crossing
    patterns, one row each with one entry per jump plane (+1 where the pair
    crosses to the plus side, -1 where it crosses back, 0 where it does not
    cross); ``counts[k, i]``, the kept pairs of direction k with pattern i
    and both endpoints off every plane; and the kept pairs with an endpoint
    exactly on a plane (the exceptions), as the direction and grid index of
    each center, direction-major and in C order.

    Along a column the plus side of a plane at the center and at the
    partner, and lying on the plane, each hold on one interval of indices.
    A stretch between the sorted ends of the runs and of the side intervals
    lies in a run or in none and has one pattern, and counts by its length;
    the few cells on a plane are then taken out of those counts one by one.
    """
    sides, on_plane = [], []
    for plane in u.jump_planes():
        for kind in ("center", "moved"):
            side, on = _plane_intervals(cols, plane, kind)
            sides.append(side)
            on_plane.append(on)

    gaps = list(zip(cols.hi.T[:-1], cols.lo.T[1:]))

    def classify(j, at):
        """Whether the cells ``j`` of columns ``at``, which lie from the first run's start to the
        last run's stop, lie in a run (in no gap between two), and their pattern code."""
        kept = np.ones(j.shape, dtype=bool)
        for hi, lo in gaps:
            kept &= (j < hi[at]) | (lo[at] <= j)
        code = np.zeros(j.shape, dtype=np.int64)
        for plane in zip(sides[::2], sides[1::2]):
            # 3 code + 1, plus 1 where the partner lies on the plus side
            # and minus 1 where the center does
            center, moved = ((j >= cut[at]) if above else (j < cut[at]) for cut, above in plane)
            code *= 3
            code += 1
            code += moved
            code -= center
        return kept, code

    # every end lies between its column's first run start and last run stop; the
    # ends are integers, so sorting them elementwise cannot reorder ties visibly
    ends = [*cols.lo.T, *cols.hi.T] + [cut for cut, _ in sides]
    for a, b in _sorting_network(len(ends)):
        ends[a], ends[b] = np.minimum(ends[a], ends[b]), np.maximum(ends[a], ends[b])
    # one row per stretch between consecutive ends, one column per grid column
    ends = np.stack(ends)
    start, length = ends[:-1], ends[1:] - ends[:-1]
    kept, code = classify(start, (None, slice(None)))
    # an unkept or empty stretch counts with weight 0
    weight = np.where(kept, length, 0).reshape(-1)
    code = code.reshape(-1)
    col, j = _interval_cells(on_plane, cols.grid.shape[-1])
    near_kept, near_code = classify(j, col)
    col, j, near_code = col[near_kept], j[near_kept], near_code[near_kept]

    # a cell on a plane lies in a kept stretch of its own pattern, so the
    # patterns are those of the kept stretches of positive length
    patterns = np.flatnonzero(np.bincount(code, weight, minlength=1))
    which = np.zeros(code.max(initial=0) + 1, dtype=np.int64)
    which[patterns] = np.arange(patterns.size)
    size = len(cols.first) * patterns.size
    at = (cols.dirs * patterns.size + which[code].reshape(start.shape)).reshape(-1)
    near = cols.dirs[col] * patterns.size + which[near_code]
    # integer counts in floats, exact in any order
    counts = np.bincount(at, weight, size) - np.bincount(near, minlength=size)
    crossings = np.zeros((patterns.size, len(sides) // 2), dtype=np.int64)
    for p in reversed(range(crossings.shape[1])):
        crossings[:, p], patterns = patterns % 3 - 1, patterns // 3
    cells = np.column_stack([i[col] for i in cols.index] + [j])
    return crossings, counts.reshape(len(cols.first), -1), cols.dirs[col], cells


def _interval_cells(intervals, size: int):
    """The cells of the intervals, each once, as ``(column, index)``
    sorted by column and then index: columns are direction-major, so each
    direction's cells come in C order.  ``size`` is the column length.

    The nonempty intervals are sorted by their first flat cell ``column *
    size + lo`` and each starts past the cells the earlier ones reach, so
    the cells come out sorted and distinct without sorting the cells."""
    lo = np.concatenate([np.zeros(0, dtype=np.int64)] + [lo for lo, _ in intervals])
    hi = np.concatenate([np.zeros(0, dtype=np.int64)] + [hi for _, hi in intervals])
    live = np.flatnonzero(hi > lo)
    if not live.size:
        return live, live
    col = live % intervals[0][0].size
    first, stop = col * size + lo[live], col * size + hi[live]
    order = np.argsort(first, kind="stable")
    first, stop = first[order], stop[order]
    # a flat cell of an earlier column never reaches a later column's cells
    reach = np.maximum.accumulate(stop)
    first[1:] = np.maximum(first[1:], reach[:-1])
    owner, offset = _runs(np.maximum(stop - first, 0))
    return np.divmod(first[owner] + offset, size)


def _closed_form_sums(u: AnalyticField, grid: Grid, regions, eps: float, xis: np.ndarray, kept: np.ndarray):
    """Cell sums ``(h^n/eps) sum arctan(s^2/eps)`` of a closed-form field,
    one row per region and one column per row of ``xis``, where ``kept``
    (the same shape) holds; 0.0 elsewhere.  The pairs are those of the
    runs (``_chunks``), counted a chunk of directions at a time.

    A pair's slope is ``eps xi.(A^T xi)`` for the affine part ``A``, plus
    ``J.xi`` for each plane it crosses to the plus side, minus that for each
    it crosses back, so each crossing pattern's cells share one value and
    are counted (``_count_chunk``).  The exceptions, pairs with an endpoint
    exactly on a plane, are nudged off it by h/7 there, so they are
    evaluated at both endpoints with ``eval_nudged``, one batch per region
    and chunk.  Every point's value, its slope (``_dot_rows``) and its
    direction's sum (``np.bincount``, in order) are formed row by row, so a
    direction's value depends on that direction and region alone.
    """
    A = u.affine_part()[0]
    jumps = [plane.jump for plane in u.jump_planes()]
    sums = np.zeros(kept.shape)
    for chunk, cols in _chunks(grid, regions, xis, eps):
        X = xis[chunk]
        # row by row, so that no direction's value depends on its chunk
        affine = 0
        for d in range(grid.dim):
            affine = affine + (eps * X[:, d]) * _dot_rows(X, A[:, d])
        jump_xi = [_dot_rows(X, J) for J in jumps]
        for r, runs in enumerate(cols):
            crossings, counts, owners, cells = _count_chunk(u, runs)
            total = np.zeros(len(X))
            for crossing, count in zip(crossings, counts.T):
                s = affine
                for j_xi, c in zip(jump_xi, crossing):
                    s = s + c * j_xi
                total = total + count * np.arctan(s * s / eps)
            if owners.size:
                moved = np.stack([rows[owners, i] for rows, i in zip(runs.partners, cells.T)], axis=1)
                centers = np.stack([axis[i] for axis, i in zip(grid.axes, cells.T)], axis=1)
                # one evaluation, of the exceptions' partners and then their centers
                moved, centers = np.split(eval_nudged(u, np.concatenate([moved, centers]), grid.h / 7.0), 2)
                s = _dot_rows(moved - centers, X[owners].T)
                # summed in order per direction
                total = total + np.bincount(owners, np.arctan(s * s / eps), len(X))
            sums[r, chunk] = grid.cell_volume / eps * total
    sums[~kept] = 0.0
    return sums


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------


def _support_box(region: Region, eps: float) -> BoxDomain:
    if isinstance(region, BoxDomain):
        return difference_body(BoxDomain(region.lower, region.upper), eps)
    half = np.full(region.dim, 2.0 * region.radius / eps)
    return BoxDomain(-half, half)


def _resolve_grid(u: FieldLike, grid: Grid | None, eps: float, regions, rule: DirectionRule | None = None) -> Grid:
    """The grid every energy sums on, once it resolves ``eps`` and has each region's and the rule's
    dimension: a sampled field's own, which a given ``grid`` must equal in spacing, shape and box,
    or else ``grid`` (the descent kernel, which has no field, passes ``u`` None)."""
    if isinstance(u, SampledField):
        box = [(g.h, g.shape, g.domain.lower.tolist(), g.domain.upper.tolist()) for g in (grid or u.grid, u.grid)]
        if box[0] != box[1]:
            raise InputError(f"grid (h, shape, box) {box[0]} is not the sampled field's {box[1]}")
        grid = u.grid
    elif grid is None:
        raise InputError("a grid is required to integrate a closed-form field")
    check_resolution(grid.h, eps)
    for region in regions:
        if region.dim != grid.dim:
            raise InputError(f"a region of dimension {region.dim} does not fit a field of dimension {grid.dim}")
    if rule is not None and rule.dimension != grid.dim:
        raise InputError("rule dimension must match the field dimension")
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
    ``averaged_energy`` bit for bit).  Only pairs with an endpoint exactly
    on a plane evaluate the field, nudged off it by h/7.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise InputError(f"xi must be finite, got {xi}")
    g = _resolve_grid(u, grid, eps, (region,))
    if xi.shape != (g.dim,):
        raise InputError(f"xi must have {g.dim} components, got shape {xi.shape}")
    return _direction_values(u, (region,), eps, xi[None, :], g, np.ones((1, 1), dtype=bool))[0][1][0]


def _direction_values(
    u: FieldLike, regions, eps: float, xis: np.ndarray, grid: Grid, kept: np.ndarray
) -> list[tuple[np.ndarray, list[float]]]:
    """For each region, the rows of ``xis`` it keeps (``kept``, one row of
    flags per region) and their directional cell sums on it, both in
    ascending order, from one call of the field type's kernel
    (``_closed_form_sums`` or ``_sampled_sums``) over all the regions."""
    nodes = np.flatnonzero(kept.any(axis=0))
    kept = kept[:, nodes]
    kernel = _closed_form_sums if isinstance(u, AnalyticField) else _sampled_sums
    sums = kernel(u, grid, regions, eps, xis[nodes], kept)
    return [(nodes[flags], row[flags].tolist()) for row, flags in zip(sums, kept)]


def _lp_norm(weights, values, p: float) -> float:
    """``(sum_i w_i v_i^p)^(1/p)``, accumulated in the given order.

    At p = 1 both powers are exact, so this is the plain weighted sum.
    """
    acc = 0.0
    for w, v in zip(weights, values):
        acc += w * v**p
    return acc ** (1.0 / p)


def _ball_families(families, p: float, tables) -> tuple[list[tuple[float, dict[int, float]]], int]:
    """Each family's ``(total, per_ball)``, ``per_ball[i]`` the L^p norm of
    its ball i (``_lp_norm``), and the index of the first family with the
    largest total.  ``tables`` yields one ``(weights, values)`` per ball of
    the families in order, a ball's values at direction nodes and their
    weights; it is read in full once ``p`` is checked."""
    if not (np.isfinite(p) and p >= 1):
        raise InputError(f"p must be finite and at least 1, got {p}")
    norms = iter([_lp_norm(weights, values, p) for weights, values in tables])
    # zip takes the next len(family) norms: it stops at the range first
    per_ball = [dict(zip(range(len(family)), norms)) for family in families]
    results = [(sum(balls.values(), 0.0), balls) for balls in per_ball]
    return results, max(range(len(results)), key=lambda k: results[k][0])


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
    g = _resolve_grid(u, grid, eps, (region,) if support is None else (region, support), rule)
    if support is None:
        support = _support_box(region, eps)
    ((nodes, values),) = _direction_values(u, (region,), eps, rule.nodes, g, support.contains(rule.nodes)[None, :])
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
    g = _resolve_grid(u, grid, eps, (domain,))
    cells = int(np.floor(6.0 * eps / g.h))
    k = np.indices((2 * cells + 1,) * g.dim).reshape(g.dim, -1).T - cells
    delta = k * g.h
    xi = delta[np.any(k, axis=1) & (np.sum(delta * delta, axis=1) <= (6.0 * eps) ** 2)] / eps
    weights = (g.h / eps) ** g.dim * np.exp(-np.sum(xi * xi, axis=1))
    lattice = DirectionRule(g.dim, xi, weights, truncation_radius=6.0, radial_order=0, angular_order=0)
    return float(averaged_energy(u, domain, eps, lattice, grid=g).total)


def _energy_tables(u: FieldLike, domain: BoxDomain, families, eps: float, rule, grid, per_ball_support):
    """Each ball's kept nodes' weights and energies for ``_ball_families``,
    from one ``_direction_values`` call: on a sampled field one slope pass
    per direction serves every ball.  A generator, so ``p`` is checked first."""
    balls = [ball for family in families for ball in family.balls]
    g = _resolve_grid(u, grid, eps, [domain] + balls, rule)
    domain_support = _support_box(domain, eps)
    supports = [_support_box(ball, eps) if per_ball_support else domain_support for ball in balls]
    kept = np.array([support.contains(rule.nodes) for support in supports], dtype=bool)
    for nodes, row in _direction_values(u, balls, eps, rule.nodes, g, kept.reshape(len(balls), rule.n_nodes)):
        yield rule.weights[nodes], row


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
    energy of the ball exactly.  On a sampled field the balls take their
    cells from one slope pass per direction (``_sampled_sums``), so each
    ``per_ball`` entry at p = 1 is the ball's ``averaged_energy`` on the
    same support, bit for bit.
    """
    tables = _energy_tables(u, domain, (family,), eps, rule, grid, per_ball_support)
    return _ball_families((family,), p, tables)[0][0]


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
    The families are evaluated together, so on a sampled field one slope
    pass per direction serves all their balls; each family's value is what
    ``family_energy`` gives it alone, bit for bit.
    """
    families = ball_candidates(domain, strategy)
    results, best = _ball_families(families, p, _energy_tables(u, domain, families, eps, rule, grid, False))
    total, per_ball = results[best]
    return EnergyReport(total=total, eps=eps, p=p, per_ball=per_ball, family=families[best])
