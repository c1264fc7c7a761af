"""Property tests of the closed-form cell sums: the per-cell path (the
oracle) against endpoint evaluation, and the counting kernel against the
per-cell path, cell class by cell class."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgriffith import energy
from nlgriffith.domain import (
    Affine,
    Ball,
    BoxDomain,
    Grid,
    PlaneJump,
    PlaneSegment,
    SumField,
    _dot_rows,
    _mesh,
    eval_nudged,
    sample,
)
from nlgriffith.energy import (
    BallStrategy,
    _chunks,
    _closed_form_sums,
    _count_chunk,
    _sampled_sums,
    averaged_energy,
    ball_supremum_energy,
    directional_energy,
)
from nlgriffith.quad import build_direction_rule
from one_direction import OneDirection

PROFILE = settings(derandomize=True, max_examples=50, deadline=None)


def _fold(terms):
    """Sum of per-axis arrays over the range box, term d broadcast along
    axis d, added left to right as ``np.sum(..., axis=1)`` adds the
    coordinates of one point."""
    terms = list(terms)
    total = 0
    for d, t in enumerate(terms):
        total = total + t.reshape((-1,) + (1,) * (len(terms) - 1 - d))
    return total


def _counted(u, grid, region, eps, xis):
    """The closed-form cell sums of one region, one per row of ``xis``."""
    return _closed_form_sums(u, grid, (region,), eps, xis, np.ones((1, len(xis)), dtype=bool))[0]


def _centers(pairs):
    """The centers of the range box, per axis."""
    return [axis[sl] for axis, sl in zip(pairs.grid.axes, pairs.box)]


def _moved(pairs, eps):
    """The partners ``x + eps xi`` of the range box, per axis."""
    return [c + eps * x for c, x in zip(_centers(pairs), pairs.xi)]


def _per_cell(pairs, u, eps):
    """The per-cell closed-form path over the range box, flat in C order:
    each cell's slope, its crossing of each plane (+1, 0, -1, one column
    per plane) and whether an endpoint lies on a plane.

    A pair's slope is ``(x + eps xi - x).(A^T xi)`` plus ``J.xi`` for each
    plane it crosses to the plus side, minus that for each it crosses back;
    a cell with an endpoint on a plane (side exactly 0.0) is evaluated at
    both endpoints with ``eval_nudged`` instead.
    """
    xi = pairs.xi
    moved = _moved(pairs, eps)
    steps = [m - c for m, c in zip(moved, _centers(pairs))]
    a_xi = u.affine_part()[0].T @ xi
    s = _fold(t * a_xi[d] for d, t in enumerate(steps))
    near = np.zeros(pairs.shape, dtype=bool)
    crossings = []
    for plane in u.jump_planes():
        up = []
        for coords in (_centers(pairs), moved):
            side = _fold(c * plane.normal[d] for d, c in enumerate(coords))
            side -= plane.offset
            up.append(side > 0)
            near |= side == 0.0
        crossing = np.subtract(up[1], up[0], dtype=np.int8)
        s = s + (plane.jump @ xi) * crossing
        crossings.append(crossing.reshape(-1))
    s, near = np.broadcast_to(s, pairs.shape).reshape(-1).copy(), near.reshape(-1)
    cells = np.flatnonzero(near)
    if cells.size:
        at = np.unravel_index(cells, pairs.shape)
        ends = (np.stack([c[i] for c, i in zip(cs, at)], axis=1) for cs in (moved, _centers(pairs)))
        ends_u = [eval_nudged(u, x, pairs.grid.h / 7.0) for x in ends]
        s[cells] = (ends_u[0] - ends_u[1]) @ xi
    crossing = np.stack(crossings, axis=1) if crossings else np.zeros((s.size, 0), dtype=np.int8)
    return s, crossing, near


def _two_endpoint_slopes(pairs, u, eps):
    """Slopes from both endpoints evaluated exactly, nudged off the jump
    planes by h/7, and the largest ``|u| |xi|`` among those endpoints."""
    nudge = pairs.grid.h / 7.0
    ends = eval_nudged(u, _mesh(_moved(pairs, eps)), nudge), eval_nudged(u, _mesh(_centers(pairs)), nudge)
    size = max(np.max(np.abs(e), initial=0.0) for e in ends) * np.linalg.norm(pairs.xi)
    return (ends[0] - ends[1]) @ pairs.xi, size


def _unit(draw, dim):
    kind = draw(st.sampled_from(["axis", "random"] + (["pythagorean"] if dim == 2 else [])))
    if kind == "axis":
        nu = np.zeros(dim)
        nu[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([-1.0, 1.0]))
        return nu
    if kind == "pythagorean":
        return np.array(draw(st.sampled_from([[0.6, 0.8], [-0.8, 0.6], [0.28, -0.96]])))
    v = np.array(draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)))
    if np.linalg.norm(v) < 0.1:
        v[0] = 1.0
    return v / np.linalg.norm(v)


@st.composite
def cases(draw):
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(8, 16) if dim < 3 else st.integers(4, 7))
    h = 1.0 / m
    eps = draw(st.sampled_from([4, 5, 6])) * h
    domain = BoxDomain(np.zeros(dim), np.ones(dim))
    grid = Grid(domain, h)

    # directions: generic, or whole multiples of h/2 per axis, so that
    # shifted points land on grid-aligned planes exactly
    xi = np.array(
        [
            draw(st.one_of(st.floats(-1.5, 1.5), st.integers(-6, 6).map(lambda k: k * h / (2 * eps))))
            for _ in range(dim)
        ]
    )
    if np.linalg.norm(xi) < 0.1:
        xi[0] = 0.75

    A = np.array(draw(st.lists(st.floats(-2, 2), min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    parts = [Affine(A, np.array(draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim))))]
    for _ in range(draw(st.integers(1, 2))):
        nu = _unit(draw, dim)
        how = draw(st.sampled_from(["grid", "through", "generic"]))
        if how == "grid":
            offset = float(nu @ np.full(dim, 0.5)) + draw(st.integers(-4, 4)) * h / 2
        elif how == "through":
            # through a cell center or its shift: x.nu summed as eval_many sums
            # it hits the plane exactly, so the point is nudged; a matrix
            # product may miss it by an ulp, so the point is counted by its sign
            point = grid.centers[draw(st.integers(0, grid.n_cells - 1))] + draw(st.sampled_from([0.0, eps])) * xi
            exact = draw(st.booleans())
            offset = float((_dot_rows(point[None, :], nu) if exact else point[None, :] @ nu)[0])
        else:
            offset = draw(st.floats(-0.5, 1.5))
        jump = np.array(draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim)))
        if draw(st.booleans()):
            # J.xi = 0: the pair may cross the plane without a jump term
            k = draw(st.integers(0, dim - 1))
            jump = np.zeros(dim)
            jump[k] = 2.0
            if dim > 1:
                xi[k] = 0.0
                if np.linalg.norm(xi) < 0.1:
                    xi[(k + 1) % dim] = 0.75
            else:
                jump[k] = 0.0
        parts.append(PlaneJump(nu, offset, np.zeros(dim), jump))
    u = SumField(tuple(parts))

    kind = draw(st.sampled_from(["box", "ball", "precrack"]))
    if kind == "box":
        lo = np.array(draw(st.lists(st.floats(0, 0.3), min_size=dim, max_size=dim)))
        region = BoxDomain(lo, lo + 0.6)
    elif kind == "ball":
        center = np.array(draw(st.lists(st.floats(0.3, 0.7), min_size=dim, max_size=dim)))
        region = Ball(center, draw(st.floats(0.2, 0.5)))
    else:
        axis = draw(st.integers(0, dim - 1))
        lower, upper = np.full(dim, 0.2), np.full(dim, 0.8)
        lower[axis] = upper[axis] = draw(st.sampled_from([0.5, 0.5 + h / 2, 0.43]))
        region = BoxDomain(np.zeros(dim), np.ones(dim), (PlaneSegment(lower, upper),))
    return grid, region, eps, xi, u


@PROFILE
@given(cases())
def test_closed_form_slopes_match_two_endpoint_evaluation(case):
    grid, region, eps, xi, u = case
    pairs = OneDirection(grid, region, xi, eps)
    (new, _, _), (old, size) = _per_cell(pairs, u, eps), _two_endpoint_slopes(pairs, u, eps)
    assert new.shape == old.shape
    # the oracle differences field values, so its own roundoff scales with |u| |xi|
    scale = max(np.max(np.abs(old), initial=0.0), size)
    assert np.all(np.abs(new - old) <= 1e-12 * scale)

    # A pair crosses a plane by the sides of its endpoints alone, so a field
    # with the same planes, no affine part and J.xi = 1 on plane k only has
    # slope +-1 where the pair crosses plane k and 0 elsewhere.
    planes = u.jump_planes()
    carries_new = np.zeros(new.shape, dtype=bool)
    carries_old = np.zeros(old.shape, dtype=bool)
    for k, plane in enumerate(planes):
        probe = SumField(
            tuple(
                PlaneJump(p.normal, p.offset, np.zeros(grid.dim), (i == k) * xi / (xi @ xi))
                for i, p in enumerate(planes)
            )
        )
        crossed_new = np.rint(_per_cell(pairs, probe, eps)[0])
        crossed_old = np.rint(_two_endpoint_slopes(pairs, probe, eps)[0])
        np.testing.assert_array_equal(crossed_new, crossed_old)
        if plane.jump @ xi != 0.0:
            carries_new |= crossed_new != 0.0
            carries_old |= crossed_old != 0.0
    np.testing.assert_array_equal(carries_new, carries_old)


def _chunk_of(draw, grid, eps, xi):
    """A chunk with ``xi`` at a drawn place among other directions."""
    others = [
        np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=grid.dim, max_size=grid.dim)))
        for _ in range(draw(st.integers(0, 3)))
    ]
    at = draw(st.integers(0, len(others)))
    return np.array(others[:at] + [xi] + others[at:]), at


@st.composite
def chunk_cases(draw):
    grid, region, eps, xi, u = draw(cases())
    xis, at = _chunk_of(draw, grid, eps, xi)
    return grid, region, eps, xis, at, u


@settings(derandomize=True, max_examples=150, deadline=None)
@given(chunk_cases())
def test_counting_kernel_matches_the_per_cell_path(case):
    grid, region, eps, xis, at, u = case
    pairs = OneDirection(grid, region, xis[at], eps)
    s, crossing, near = _per_cell(pairs, u, eps)
    kept = pairs.kept()
    ((_, cols),) = _chunks(grid, (region,), xis, eps, np.ones((1, len(xis)), dtype=bool))
    crossings, counts, owners, cells = _count_chunk(u, cols)
    counts = counts[0]

    # the kept pairs clear of every plane, by crossing pattern
    regular = kept & ~near
    patterns, count = np.unique(crossing[regular], axis=0, return_counts=True)
    mine = counts[at] > 0
    np.testing.assert_array_equal(crossings[mine], patterns)
    np.testing.assert_array_equal(counts[at][mine], count)

    # the exceptions, kept pairs with an endpoint on a plane, as grid indices in C order
    at_box = np.unravel_index(np.flatnonzero(kept & near), pairs.shape)
    expected = np.stack([sl.start + i for sl, i in zip(pairs.box, at_box)], axis=1)
    np.testing.assert_array_equal(cells[owners == at], expected.reshape(-1, grid.dim))

    # the sums, within roundoff of the per-cell slopes: the kernel's affine
    # slope is eps xi.(A^T xi) where the oracle differences coordinates
    old = grid.cell_volume / eps * np.sum(np.arctan(s[kept] ** 2 / eps))
    new = _counted(u, grid, region, eps, xis)[at]
    slack = 1e-13 * (np.linalg.norm(u.affine_part()[0]) + 1.0) * np.linalg.norm(xis[at]) ** 2
    allowed = grid.cell_volume / eps * np.sum((2 * np.abs(s[kept]) + slack) * slack / eps)
    assert abs(new - old) <= 1e-12 * abs(old) + allowed


def _regions(dim, h):
    lower, upper = np.full(dim, 0.2), np.full(dim, 0.8)
    lower[0] = upper[0] = 0.5 + h / 2  # through a row of centers
    return {
        "box": BoxDomain(np.full(dim, 0.1), np.full(dim, 0.9)),
        "ball": Ball(np.full(dim, 0.52), 0.4),
        "slit": BoxDomain(np.zeros(dim), np.ones(dim), (PlaneSegment(lower, upper),)),
    }


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", ["box", "ball", "slit"])
def test_directional_energy_is_its_entry_of_the_average(dim, kind):
    # A direction's value depends on that direction alone, not on the chunk
    # it is counted in nor on how many directions share that chunk.
    h = {1: 1 / 64, 2: 1 / 24, 3: 1 / 10}[dim]
    grid = Grid(BoxDomain(np.zeros(dim), np.ones(dim)), h)
    region = _regions(dim, h)[kind]
    eps = 4 * h
    nu = np.ones(dim) / np.sqrt(dim)
    u = SumField(
        (
            Affine(np.arange(dim * dim).reshape(dim, dim) / 4 - 1, np.ones(dim)),
            # through a row of centers, so that some pairs are evaluated at their endpoints
            PlaneJump(np.eye(dim)[0], 0.5 + h / 2, np.zeros(dim), np.full(dim, 3.0)),
            PlaneJump(nu, 0.37 * np.sqrt(dim), np.zeros(dim), -2 * nu),
        )
    )
    rule = build_direction_rule(dim, radial_order=4, angular_order=8 if dim == 2 else 4)
    report = averaged_energy(u, region, eps, rule, grid=grid)
    for i, value in report.per_direction.items():
        alone = directional_energy(u, region, eps, rule.nodes[i], grid=grid)
        assert np.float64(alone).tobytes() == np.float64(value).tobytes()
    # at the floor of 16 directions per pass the average spans several chunks
    with mock.patch.object(energy, "_COLUMNS", 1):
        floor = averaged_energy(u, region, eps, rule, grid=grid)
        assert len(floor.per_direction) > energy._chunk(grid)
    assert floor.per_direction.keys() == report.per_direction.keys()
    for i, value in report.per_direction.items():
        assert np.float64(floor.per_direction[i]).tobytes() == np.float64(value).tobytes()


# the default column budget, and one that forces the floor of 16 directions per pass
BUDGETS = (energy._COLUMNS, 1)


def _each_budget(grid, xis, length, seed, fill):
    """Per column budget, while it is in force: a batch of ``chunks * K +
    extra`` rows for chunks of K directions, ``xis`` and then the rows of
    ``fill(rng, shape)`` for an rng seeded with ``seed``."""
    chunks, extra = length
    for columns in BUDGETS:
        with mock.patch.object(energy, "_COLUMNS", columns):
            count = chunks * energy._chunk(grid) + extra
            rows = fill(np.random.default_rng(seed), (max(count - len(xis), 0), grid.dim))
            yield np.concatenate([xis, rows])[:count]


def _generic(rng, shape):
    """Components as ``geometries`` draws them: at least 1e-3 and at most 1.5 in size."""
    return rng.choice([-1.0, 1.0], shape) * rng.uniform(1e-3, 1.5, shape)


@pytest.mark.parametrize(
    "shape", [(1,), (5,), (1, 4), (16, 3), (75, 2), (150, 2), (299, 2), (300, 2), (301, 2), (4, 8, 2), (40, 8, 2)]
)
def test_chunk_fills_the_column_budget_above_the_floor(shape):
    grid = Grid(BoxDomain(np.zeros(len(shape)), np.array(shape, dtype=float)), 1.0)
    columns = int(np.prod(shape[:-1]))
    size = energy._chunk(grid)
    assert size >= 16
    assert size == 16 or size * columns <= energy._COLUMNS < (size + 1) * columns


@pytest.mark.parametrize("strategy", ["", "dyadic:2"], ids=["one region", "seven balls"])
@pytest.mark.parametrize("kwargs", [{}, {"radial_order": 6}], ids=["default", "radial6"])
def test_a_1d_grid_counts_each_library_rule_in_one_chunk(kwargs, strategy, monkeypatch):
    # one counting pass per chunk, whatever the number of regions: the
    # averaged energy of the interval, or every ball of the three dyadic
    # families (1, 2 and 4 balls) in one call
    calls = []

    def counting(u, cols):
        calls.append(cols.first.shape[:2])
        return _count_chunk(u, cols)

    monkeypatch.setattr(energy, "_count_chunk", counting)
    grid = Grid(BoxDomain(np.zeros(1), np.ones(1)), 1 / 64)
    rule = build_direction_rule(1, **kwargs)
    u = SumField((Affine(np.eye(1), np.zeros(1)), PlaneJump(np.ones(1), 0.5, np.zeros(1), np.ones(1))))
    report = averaged_energy(u, grid.domain, 4 * grid.h, rule, grid=grid)
    regions = 1
    if strategy:
        calls.clear()
        ball_supremum_energy(u, grid.domain, 4 * grid.h, 2.0, BallStrategy.parse(strategy), rule, grid=grid)
        regions = 7
    assert calls == [(regions, len(report.per_direction))] and len(report.per_direction) > 16


@st.composite
def geometries(draw):
    """A grid of the unit cube with a power-of-two cell count, so that
    shifting it by whole cells moves every coordinate exactly; eps; a box,
    ball or slit box region; a few directions; a batch length for chunks
    of K directions, from one row to 2K, and a seed for the rows that fill
    it (``_each_budget``)."""
    dim = draw(st.integers(1, 3))
    m = draw(st.sampled_from([8, 16]) if dim < 3 else st.sampled_from([4, 8]))
    h = 1.0 / m
    grid = Grid(BoxDomain(np.zeros(dim), np.ones(dim)), h)
    eps = draw(st.sampled_from([4, 5, 6])) * h
    kind = draw(st.sampled_from(["box", "ball", "slit"]))
    if kind == "box":
        lo = h * np.array(draw(st.lists(st.integers(0, m // 4), min_size=dim, max_size=dim)))
        region = BoxDomain(lo, lo + 0.5)
    elif kind == "ball":
        center = np.array(draw(st.lists(st.floats(0.3, 0.7), min_size=dim, max_size=dim)))
        region = Ball(center, draw(st.floats(0.2, 0.5)))
    else:
        axis = draw(st.integers(0, dim - 1))
        lower, upper = np.full(dim, 0.25), np.full(dim, 0.75)
        lower[axis] = upper[axis] = draw(st.sampled_from([0.5, 0.5 + h / 2]))
        region = BoxDomain(np.zeros(dim), np.ones(dim), (PlaneSegment(lower, upper),))
    xis = np.array(
        [
            draw(st.lists(st.floats(-1.5, 1.5).filter(lambda x: abs(x) > 1e-3), min_size=dim, max_size=dim))
            for _ in range(draw(st.integers(1, 4)))
        ]
    )
    length = draw(st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, -1), (2, 0)]))
    return grid, region, eps, xis, length, draw(st.integers(0, 2**32 - 1))


INVARIANTS = settings(derandomize=True, max_examples=40, deadline=None)


@INVARIANTS
@given(geometries(), st.data())
def test_rigid_motions_cost_nothing(geometry, data):
    grid, region, eps, xis, length, seed = geometry
    dim = grid.dim
    W = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    b = np.array(data.draw(st.lists(st.floats(-5, 5), min_size=dim, max_size=dim)))
    for batch in _each_budget(grid, xis, length, seed, _generic):
        values = _counted(Affine(W - W.T, b), grid, region, eps, batch)
        assert np.all(np.abs(values) <= 1e-12)


def _moved_by(region, shift):
    if isinstance(region, Ball):
        return Ball(region.center + shift, region.radius)
    slits = tuple(PlaneSegment(s.lower + shift, s.upper + shift) for s in region.precrack)
    return BoxDomain(region.lower + shift, region.upper + shift, slits)


@INVARIANTS
@given(geometries(), st.data())
def test_translation_by_whole_cells_keeps_the_energy(geometry, data):
    grid, region, eps, xis, length, seed = geometry
    dim, h = grid.dim, grid.h
    A = np.array(data.draw(st.lists(st.floats(-2, 2), min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    b = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)))
    planes = []
    for _ in range(data.draw(st.integers(1, 2))):
        nu = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)))
        nu = nu / np.linalg.norm(nu) if np.linalg.norm(nu) > 0.1 else np.eye(dim)[0]
        jump = np.array(data.draw(st.lists(st.floats(-3, 3), min_size=dim, max_size=dim)))
        planes.append((nu, data.draw(st.floats(0.2, 0.8)), jump))
    shift = h * np.array(data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)))
    # partners a quarter cell off the lattice: a partner within roundoff of
    # the region's boundary may fall on either side of it once shifted
    quarters = st.integers(-6, 5).map(lambda j: j + 0.25) | st.integers(-6, 5).map(lambda j: j + 0.75)
    xis = np.array([[data.draw(quarters) * h / eps for _ in range(dim)] for _ in range(len(xis))])

    def quarter_cells(rng, shape):
        return (rng.integers(-6, 6, shape) + rng.choice([0.25, 0.75], shape)) * h / eps

    def field(by):
        # u(x - by): the same field carried along with the domain
        jumps = [PlaneJump(nu, off + nu @ by, np.zeros(dim), jump) for nu, off, jump in planes]
        return SumField((Affine(A, b - A @ by),) + tuple(jumps))

    moved = Grid(BoxDomain(grid.domain.lower + shift, grid.domain.upper + shift), h)
    for batch in _each_budget(grid, xis, length, seed, quarter_cells):
        here = np.sum(_counted(field(np.zeros(dim)), grid, region, eps, batch))
        there = np.sum(_counted(field(shift), moved, _moved_by(region, shift), eps, batch))
        assert abs(there - here) <= 1e-12 * abs(here)


@st.composite
def affine_cases(draw, dim, kind):
    """An affine field with a definite symmetric part; a grid of the unit
    cube; eps; a region of the ``kind``: the whole box, a sub-box (faces
    on cell faces or not), a ball or the box with a slit; a few
    directions, generic or on the half-cell lattice; and a seed for the
    rows that fill the batch."""
    m = draw(st.sampled_from([8, 12, 16]) if dim < 3 else st.sampled_from([6, 8]))
    h = 1.0 / m
    grid = Grid(BoxDomain(np.zeros(dim), np.ones(dim)), h)
    eps = draw(st.floats(4.0, 6.0)) * h
    if kind == "box":
        region = grid.domain
    elif kind == "sub-box":
        lo = np.array(draw(st.lists(st.sampled_from([0.0, h, 2 * h, 0.13]), min_size=dim, max_size=dim)))
        region = BoxDomain(lo, lo + draw(st.sampled_from([0.5, 0.61])))
    elif kind == "ball":
        center = np.array(draw(st.lists(st.floats(0.3, 0.7), min_size=dim, max_size=dim)))
        region = Ball(center, draw(st.floats(0.2, 0.5)))
    else:
        axis = draw(st.integers(0, dim - 1))
        lower, upper = np.full(dim, 0.25), np.full(dim, 0.75)
        lower[axis] = upper[axis] = draw(st.sampled_from([0.5, 0.5 + h / 2, 0.43]))
        region = BoxDomain(np.zeros(dim), np.ones(dim), (PlaneSegment(lower, upper),))
    W = np.array(draw(st.lists(st.floats(-2, 2), min_size=dim * dim, max_size=dim * dim))).reshape(dim, dim)
    b = np.array(draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)))
    # a definite symmetric part keeps every slope eps xi.(A xi) at least
    # eps |xi|^2, so that each sum counts its pairs (a rigid field's sums
    # are roundoff: test_rigid_motions_cost_nothing)
    A = W + (2 * dim + 1) * np.eye(dim)
    generic = st.floats(-1.5, 1.5).filter(lambda x: abs(x) > 1e-3)
    lattice = st.integers(-6, 6).map(lambda k: k * h / (2 * eps))
    xis = np.array(
        [[draw(st.one_of(generic, lattice)) for _ in range(dim)] for _ in range(draw(st.integers(1, 4)))]
    )
    xis[np.linalg.norm(xis, axis=1) < 0.1, 0] = 0.75
    return grid, region, eps, Affine(A, b), xis, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", ["box", "sub-box", "ball", "slit"])
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_visited_and_counted_sums_agree_on_affine_fields(dim, kind, data):
    # Multilinear interpolation reproduces an affine field, so the sampled
    # sums (the visited pairs) and the counting kernel (the counted pairs)
    # must keep the same pairs and give each the slope eps xi.(A xi), up to
    # roundoff.  Tolerance, fixed beforehand: 1e-11 relative per direction,
    # plus the change of the sum under a slope error of
    # delta = 1e-13 (|A| + |b| + 1) |xi| dim per pair, at most 6.2e-10
    # relative here.  Measured: at most 1.05e-12 relative over 45 fixed
    # cases (dims 1-3; box, sub-box and ball; 40 random directions each,
    # eps 4.2h-6h), and at most 4.6e-14 over this test's 5,760 sums.  A
    # pair kept by one kernel only moves a sum by 1/pairs relative, at
    # least 2.2e-3 on these grids.
    grid, region, eps, u, xis, seed = data.draw(affine_cases(dim, kind))
    # 20 rows: at the floor budget of 16 directions a batch spans two chunks
    xis = np.concatenate([xis, _generic(np.random.default_rng(seed), (20 - len(xis), dim))])
    values = sample(u, grid)
    A, b = u.affine_part()
    for columns in BUDGETS:
        with mock.patch.object(energy, "_COLUMNS", columns):
            visited = _sampled_sums(values, grid, (region,), eps, xis, np.ones((1, len(xis)), dtype=bool))[0]
            counted = _counted(u, grid, region, eps, xis)
        for xi, new, old in zip(xis, visited, counted):
            pairs = int(np.count_nonzero(OneDirection(grid, region, xi, eps).kept()))
            s = abs(eps * xi @ A @ xi)
            delta = 1e-13 * (np.linalg.norm(A) + np.linalg.norm(b) + 1.0) * np.linalg.norm(xi) * dim
            allowed = grid.cell_volume / eps * pairs * (2 * s + delta) * delta / eps
            assert abs(new - old) <= 1e-11 * abs(old) + allowed
