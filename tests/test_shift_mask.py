"""Property tests: the chunk tables' runs of kept pairs against
point-mesh membership, each direction of a chunk against a one-row call,
the descent operator built from the tables against per-point assembly, the
sampled slopes and cell sums against a full-width pass of the projected
field summed run by run, and those cell sums against the two-component
form."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from nlgriffith import energy
from nlgriffith.domain import Affine, Ball, BoxDomain, Grid, PlaneJump, PlaneSegment, SumField, _dot_rows, _mesh
from nlgriffith.energy import (
    BallStrategy,
    _chunks,
    _closed_form_sums,
    _components,
    _kept_pairs,
    _sampled_sums,
    _snap_to_axis,
    _support_box,
    ball_candidates,
)
from nlgriffith.minimize import DescentKernel, DirichletProblem
from nlgriffith.quad import DirectionRule, build_direction_rule
from one_direction import OneDirection

PROFILE = settings(derandomize=True, max_examples=150, deadline=None)


def _on_centers(axis, partner):
    """Partner coordinates within 1e-13 of a center moved onto it: a shifted
    center that lands on another center has that center's membership."""
    near = axis[np.argmin(np.abs(partner[:, None] - axis[None, :]), axis=1)]
    return np.where(np.abs(partner - near) <= 1e-13, near, partner)


def _mesh_mask(grid, region, partners):
    """Pairs with both endpoints in the region over the whole grid, from
    ``region.contains`` on full point meshes of the centers and partners."""
    partners = [_on_centers(a, p) for a, p in zip(grid.axes, partners)]
    inside = region.contains(_mesh(grid.axes)) & region.contains(_mesh(partners))
    return inside.reshape(grid.shape)


def _columns(pairs):
    """Each column of the runs as a tuple of grid indices on the earlier axes."""
    return [tuple(int(i[c]) for i in pairs.index) for c in range(len(pairs.lo))]


def _kept_mask(pairs):
    """The interacting pairs, the runs on the columns of the range box, placed on the whole grid."""
    full = np.zeros(pairs.grid.shape, dtype=bool)
    for column, lo, hi in zip(_columns(pairs), pairs.lo, pairs.hi):
        for a, b in zip(lo, hi):
            full[column + (slice(a, b),)] = True
    return full


def _stretches(row):
    """The maximal stretches ``(first, stop)`` of True along a boolean row."""
    edges = np.flatnonzero(np.diff(np.concatenate([[0], row.astype(np.int8), [0]])))
    return [tuple(e) for e in edges.reshape(-1, 2).tolist()]


def _run_order_sum(terms, mask):
    """The masked terms of a box summed as the sampled sums sum a region's
    runs: each maximal stretch of masked cells along the last axis as one
    ``np.add.reduceat`` segment, a column's stretches left to right, and the
    box's columns in C order as one segment; 0.0 for an empty box."""
    if 0 in terms.shape:
        return 0.0
    columns = []
    for t, m in zip(terms.reshape(-1, terms.shape[-1]), mask.reshape(-1, mask.shape[-1])):
        total = 0.0
        for a, b in _stretches(m):
            total = total + np.add.reduceat(t[a:b], [0])[0]
        columns.append(total)
    return np.add.reduceat(np.array(columns), [0])[0]


def _lattice(draw, m, lo, hi):
    """A coordinate on the half-cell lattice of a grid with ``m`` cells of the
    unit interval: cell centers at odd multiples of h/2, faces at even ones."""
    return draw(st.integers(2 * lo, 2 * hi)) / (2 * m)


def _slit(draw, dim, m):
    axis = draw(st.integers(0, dim - 1))
    lower = np.array([_lattice(draw, m, 0, m // 2 - 1) for _ in range(dim)])
    upper = np.array([_lattice(draw, m, m // 2, m) for _ in range(dim)])
    lower[axis] = upper[axis] = _lattice(draw, m, 1, m - 1)
    return PlaneSegment(lower, upper)


@st.composite
def geometries(draw):
    dim = draw(st.integers(1, 3))
    # power-of-two cell counts make every lattice coordinate, difference and
    # square exact, so that squared distances tie with r^2 exactly; 12 and 6
    # cells round them
    m = draw(st.sampled_from([8, 16, 12]) if dim < 3 else st.sampled_from([4, 8, 6]))
    h = 1.0 / m
    grid = Grid(BoxDomain(np.zeros(dim), np.ones(dim)), h)

    kind = draw(st.sampled_from(["lattice-ball", "ball", "slit", "box"]))
    if kind == "lattice-ball":
        center = np.array([_lattice(draw, m, 1, m - 1) for _ in range(dim)])
        # in half cells: any radius, or a hypotenuse of whole legs (3^2 + 4^2 =
        # 5^2, 1^2 + 2^2 + 2^2 = 3^2, ...), so that ties occur off the axes too
        half_cells = draw(st.one_of(st.integers(1, m), st.sampled_from([3, 5, 7, 10, 13])))
        region = Ball(center, half_cells / (2 * m))
    elif kind == "ball":
        center = np.array(draw(st.lists(st.floats(0.2, 0.8), min_size=dim, max_size=dim)))
        region = Ball(center, draw(st.floats(0.1, 0.6)))
    elif kind == "slit":
        region = BoxDomain(
            np.zeros(dim), np.ones(dim), tuple(_slit(draw, dim, m) for _ in range(draw(st.integers(1, 2))))
        )
    else:
        lo = np.array([_lattice(draw, m, 0, m // 2) for _ in range(dim)])
        region = BoxDomain(lo, lo + 0.5)

    eps = draw(st.one_of(st.sampled_from([4.0, 8.0]), st.floats(4.0, 8.0))) * h
    return grid, region, eps


def _direction(draw, grid, eps):
    """A generic direction, or whole multiples of h/2 per axis so that
    shifted points land on the lattice."""
    half = grid.h / (2 * eps)
    return np.array(
        [draw(st.one_of(st.floats(-1.5, 1.5), st.integers(-6, 6).map(lambda k: k * half))) for _ in range(grid.dim)]
    )


@st.composite
def cases(draw):
    grid, region, eps = draw(geometries())
    xi = _direction(draw, grid, eps)
    partners = [a + eps * x for a, x in zip(grid.axes, xi)]
    return grid, region, OneDirection(grid, region, xi, eps), partners


@PROFILE
@given(cases())
def test_keep_equals_mesh_membership(case):
    grid, region, pairs, partners = case
    mesh = _mesh_mask(grid, region, partners)
    np.testing.assert_array_equal(_kept_mask(pairs), mesh)
    # the runs lie on the range box's columns in C order, and each column's
    # nonempty runs are its maximal stretches of kept cells, in order
    box = [tuple(sl.start + i for sl, i in zip(pairs.box, at)) for at in np.ndindex(*pairs.shape[:-1])]
    assert _columns(pairs) == box
    for column, lo, hi in zip(_columns(pairs), pairs.lo, pairs.hi):
        assert [(a, b) for a, b in zip(lo.tolist(), hi.tolist()) if b > a] == _stretches(mesh[column])


# the default column budget, and one that forces the floor of 16 directions per pass
BUDGETS = (energy._COLUMNS, 1)


@st.composite
def batches(draw):
    """A geometry, a few directions, a seed for the rows that fill the
    batch, and a batch length of 1, K or K + 1 rows for chunks of K
    directions, as ``(chunks, extra)``."""
    grid, region, eps = draw(geometries())
    directions = np.array([_direction(draw, grid, eps) for _ in range(draw(st.integers(1, 4)))])
    length = draw(st.sampled_from([(0, 1), (1, 0), (1, 1)]))
    return grid, region, eps, directions, draw(st.integers(0, 2**32 - 1)), length


def _each_budget(grid, eps, directions, seed, length):
    """Per column budget, while it is in force: the chunk size K and a batch
    of ``chunks * K + extra`` rows, the directions and then seeded rows
    drawn as ``_direction`` draws its components."""
    chunks, extra = length
    half = grid.h / (2 * eps)
    for columns in BUDGETS:
        with mock.patch.object(energy, "_COLUMNS", columns):
            size = energy._chunk(grid)
            count = chunks * size + extra
            rng = np.random.default_rng(seed)
            shape = (max(count - len(directions), 0), grid.dim)
            fill = np.where(rng.random(shape) < 0.5, rng.uniform(-1.5, 1.5, shape), rng.integers(-6, 7, shape) * half)
            yield size, np.concatenate([directions, fill])[:count]


@PROFILE
@given(batches())
def test_each_direction_of_a_chunk_equals_a_one_row_call(case):
    # the set-up of a batch is shared by a chunk of rows; no direction's
    # columns, runs, partners or kept pairs, and no sampled sum, may depend
    # on the rows built with it, across a chunk boundary too.  At the floor
    # of 16 directions every row is checked; in the larger chunks of the
    # default budget, the drawn directions and the rows next to the
    # boundary and at the end.
    grid, region, eps, directions, seed, length = case
    values = np.random.default_rng(0).normal(size=(grid.n_cells, grid.dim))
    for size, xis in _each_budget(grid, eps, directions, seed, length):
        checked = set(range(len(xis))) if size == 16 else {*range(len(directions)), size - 1, size, len(xis) - 1}
        # the unchecked rows share their chunks' tables but take no slope pass
        kept = np.isin(np.arange(len(xis)), list(checked))[None, :]
        sums = _sampled_sums(values, grid, (region,), eps, xis, kept)[0]
        for chunk, (cols,) in _chunks(grid, (region,), xis, eps):
            ends = np.searchsorted(cols.dirs, np.arange(len(cols.first) + 1)).tolist()
            dirs, centers, rows = _kept_pairs(cols)
            for k in range(len(cols.first)):
                if chunk.start + k not in checked:
                    continue
                single = xis[chunk.start + k][None, :]
                ((_, (alone,)),) = _chunks(grid, (region,), single, eps)
                c = slice(ends[k], ends[k + 1])
                for a, b in zip([cols.first[k], cols.stop[k]], [alone.first[0], alone.stop[0]]):
                    _assert_same_bits(a, b)
                for a, b in zip([*cols.partners, *cols.probes], [*alone.partners, *alone.probes]):
                    _assert_same_bits(a[k], b[0])
                for a, b in zip([*cols.index, cols.lo, cols.hi], [*alone.index, alone.lo, alone.hi]):
                    _assert_same_bits(a[c], b)
                mine = dirs == k
                own = _kept_pairs(alone)
                _assert_same_bits(centers[mine], own[1])
                for row, own_row in zip(rows, own[2]):
                    for a, b in zip(row, own_row):
                        _assert_same_bits(a[mine], b)
                one = _sampled_sums(values, grid, (region,), eps, single, np.ones((1, 1), dtype=bool))[0, 0]
                assert sums[chunk.start + k].hex() == one.hex()


def test_keep_drops_partners_landing_on_a_slit_through_centers():
    # with h = 1/12 a shifted center x + eps xi misses its partner center one
    # cell to the right by roundoff; the partners on the slit still drop out
    grid = Grid(BoxDomain(np.zeros(2), np.ones(2)), 1 / 12)
    slit = PlaneSegment(np.array([4.5 / 12, 0.0]), np.array([4.5 / 12, 0.5]))
    region = BoxDomain(np.zeros(2), np.ones(2), (slit,))
    eps = 5 * grid.h
    pairs = OneDirection(grid, region, np.array([grid.h / eps, 0.0]), eps)
    right = [np.append(grid.axes[0][1:], 1.0 + grid.h / 2), grid.axes[1]]  # the lattice partners
    assert not np.array_equal(grid.axes[0] + eps * (grid.h / eps), right[0])
    np.testing.assert_array_equal(_kept_mask(pairs), _mesh_mask(grid, region, right))


def _assembled(grid, region, eps, rule):
    """``D`` and ``W`` of the descent operator assembled point by point:
    ``region.contains`` at the full-mesh centers and at their partners
    snapped onto grid coordinates within roundoff, and
    ``Grid.interp_weights`` at the unsnapped partners."""
    dim = grid.dim
    moved = grid.centers + eps * rule.nodes[:, None, :]
    probe = moved.copy()
    for n, xi in enumerate(rule.nodes):
        for d, axis in enumerate(grid.axes):
            probe[n, :, d] = _snap_to_axis(axis, grid.h, moved[n, :, d], float(eps * xi[d]))
    inside = region.contains(probe.reshape(-1, dim)).reshape(moved.shape[:2])
    node, cell = np.nonzero(region.contains(grid.centers) & inside)
    corners, weights = grid.interp_weights(moved[node, cell])
    cells = np.column_stack([cell, corners])
    weights = np.column_stack([np.full(node.size, -1.0), weights])
    cols = (cells[:, :, None] * dim + np.arange(dim)).reshape(-1)
    vals = (weights[:, :, None] * rule.nodes[node, None, :]).reshape(-1)
    D = sparse.csr_matrix(
        (vals, cols, np.arange(0, cols.size + 1, cells.shape[1] * dim)),
        shape=(node.size, grid.n_cells * dim),
    )
    D.sum_duplicates()
    D.eliminate_zeros()
    return D, (grid.cell_volume / eps * rule.weights)[node]


@st.composite
def operator_cases(draw):
    grid, region, eps = draw(geometries())
    count = draw(st.integers(1, 4))
    nodes = np.array([_direction(draw, grid, eps) for _ in range(count)])
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=count, max_size=count))
    # every drawn component is at most 1.5, so |xi| <= 1.5 sqrt(3) < 3
    return grid, region, eps, DirectionRule(grid.dim, nodes, weights, 3.0, 0, 0)


def _assert_same_bits(actual, expected):
    same = actual.shape == expected.shape and actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()
    if not same:
        # to show where they differ
        np.testing.assert_array_equal(actual, expected)
    assert same


def _slit_through_centers():
    """The h = 1/12 slit of the test above, where a lattice step misses its
    partner center by roundoff, with that step and a generic direction."""
    grid = Grid(BoxDomain(np.zeros(2), np.ones(2)), 1 / 12)
    slit = PlaneSegment(np.array([4.5 / 12, 0.0]), np.array([4.5 / 12, 0.5]))
    eps = 5 * grid.h
    nodes = np.array([[grid.h / eps, 0.0], [0.3, -0.7]])
    rule = DirectionRule(2, nodes, np.array([1.0, 0.5]), 3.0, 0, 0)
    return grid, BoxDomain(np.zeros(2), np.ones(2), (slit,)), eps, rule


def _bar_fracture():
    """The operator of the bar-fracture workload: the bar at load 2.0, eps
    0.02 and h 0.0025, with the 1D rule of radial order 6 (88 nodes)."""
    prob = DirichletProblem.bar(2.0, 0.02, 0.0025)
    return prob.grid, prob.outer, prob.eps, build_direction_rule(1, radial_order=6)


@PROFILE
@given(operator_cases())
@example(_slit_through_centers())
@example(_bar_fracture())
def test_descent_operator_equals_per_point_assembly(case):
    # the operator is put together a chunk of nodes at a time, across chunk
    # boundaries too at the floor of 16 nodes per chunk
    grid, region, eps, rule = case
    D, W = _assembled(grid, region, eps, rule)
    for columns in BUDGETS:
        with mock.patch.object(energy, "_COLUMNS", columns):
            kernel = DescentKernel(grid, region, eps, rule)
        assert kernel.D.shape == D.shape
        for name in ("indptr", "indices", "data"):
            _assert_same_bits(getattr(kernel.D, name), getattr(D, name))
        _assert_same_bits(kernel.W, W)


def _full_width_slopes(pairs, values):
    """The sampled slopes with every axis pass over all grid columns: the
    field projected onto xi cell by cell (``U = u.xi``, terms added left to
    right), interpolated at the shifted endpoints, minus ``U`` at the
    centers."""
    U = _dot_rows(values, pairs.xi).reshape(pairs.grid.shape)
    end = U
    for d, (base, top, lo_w, hi_w) in enumerate(pairs.rows):
        end = lo_w * np.take(end, base, axis=d) + hi_w * np.take(end, top, axis=d)
    return (end - U[pairs.box]).reshape(-1)


def _two_component_slopes(pairs, values):
    """The slopes as ``(u(x + eps xi) - u(x)).xi``: both components
    interpolated over all grid columns, then the difference projected."""
    nodal = values.reshape(pairs.grid.shape + (-1,))
    end = nodal
    for d, (base, top, lo_w, hi_w) in enumerate(pairs.rows):
        lo_w, hi_w = lo_w[..., None], hi_w[..., None]
        end = lo_w * np.take(end, base, axis=d) + hi_w * np.take(end, top, axis=d)
    return (end - nodal[pairs.box]).reshape(-1, nodal.shape[-1]) @ pairs.xi


def _regions(dim):
    box = BoxDomain(np.zeros(dim), np.ones(dim))
    lower, upper = np.full(dim, 0.2), np.full(dim, 0.6)
    lower[0] = upper[0] = 0.45
    return {
        "box": box,
        "ball": Ball(np.full(dim, 0.55), 0.3),
        "slit": BoxDomain(np.zeros(dim), np.ones(dim), (PlaneSegment(lower, upper),)),
        "small-ball": Ball(np.full(dim, 0.5), 0.08),  # range boxes of a cell or two, or empty
    }


def _grid(dim):
    return Grid(BoxDomain(np.zeros(dim), np.ones(dim)), {1: 1 / 40, 2: 1 / 20, 3: 1 / 10}[dim])


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["box", "ball", "slit", "small-ball"])
def test_sampled_slopes_equal_the_full_width_pass(dim, kind):
    grid = _grid(dim)
    region = _regions(dim)[kind]
    rng = np.random.default_rng(dim)
    values = rng.normal(size=(grid.n_cells, dim))
    eps = 0.2
    for xi in (rng.uniform(-1.5, 1.5, size=dim), np.eye(dim)[-1] * grid.h / eps, -np.ones(dim)):
        pairs = OneDirection(grid, region, xi, eps)
        _assert_same_bits(pairs.slopes(_components(values, grid)), _full_width_slopes(pairs, values))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["box", "ball", "slit", "small-ball"])
def test_cell_sum_equals_the_mesh_masked_sum(dim, kind):
    # the oracle forms every temporary anew and takes the kept cells from
    # mesh membership; it sums them in the run order bit for bit, and
    # within 1e-13 of one flat sum
    grid = _grid(dim)
    region = _regions(dim)[kind]
    rng = np.random.default_rng(dim)
    values = rng.normal(size=(grid.n_cells, dim))
    eps = 0.2
    for xi in (rng.uniform(-1.5, 1.5, size=dim), np.eye(dim)[-1] * grid.h / eps, -np.ones(dim)):
        pairs = OneDirection(grid, region, xi, eps)
        partners = [a + eps * x for a, x in zip(grid.axes, xi)]
        s = _full_width_slopes(pairs, values).reshape(pairs.shape)
        mask = _mesh_mask(grid, region, partners)[pairs.box]
        expected = float(grid.cell_volume / eps * _run_order_sum(np.arctan(s * s / eps), mask))
        actual = _sampled_sums(values, grid, (region,), eps, xi[None, :], np.ones((1, 1), dtype=bool))[0, 0]
        assert float(actual).hex() == expected.hex()
        flat = float(grid.cell_volume / eps * np.sum(np.arctan(s[mask] ** 2 / eps)))
        assert abs(actual - flat) <= 1e-13 * flat


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from(["box", "ball", "slit", "small-ball"]),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
)
def test_projected_cell_sums_match_the_two_component_form(dim, kind, seed, components):
    # projecting before interpolating reorders the float operations only;
    # with random normal values and a shift of at least a quarter cell, a
    # slope is of the size of the values, so the sums of positive terms
    # agree to roundoff (a shift far below a cell leaves slopes that are
    # roundoff in either form)
    grid = _grid(dim)
    region = _regions(dim)[kind]
    values = np.random.default_rng(seed).normal(size=(grid.n_cells, dim))
    eps = 0.2
    xi = np.array(components[:dim])
    assume(np.max(np.abs(eps * xi)) >= grid.h / 4)
    pairs = OneDirection(grid, region, xi, eps)
    partners = [a + eps * x for a, x in zip(grid.axes, xi)]
    s = _two_component_slopes(pairs, values)[_mesh_mask(grid, region, partners)[pairs.box].reshape(-1)]
    expected = float(grid.cell_volume / eps * np.sum(np.arctan(s * s / eps)))
    actual = _sampled_sums(values, grid, (region,), eps, xi[None, :], np.ones((1, 1), dtype=bool))[0, 0]
    assert abs(actual - expected) <= 1e-12 * expected


def _several_regions(dim):
    """Overlapping balls, a sub-box (a slice ``keep``), a precracked box
    with two slits and a ball whose range boxes are a cell or two, or empty."""
    lower, upper = np.full(dim, 0.2), np.full(dim, 0.6)
    lower[0] = upper[0] = 0.45
    start, end = np.full(dim, 0.3), np.full(dim, 0.5)
    start[-1] = end[-1] = 0.7
    return (
        Ball(np.full(dim, 0.55), 0.3),
        Ball(np.full(dim, 0.4), 0.25),
        BoxDomain(np.full(dim, 0.05), np.full(dim, 0.9)),
        BoxDomain(np.zeros(dim), np.ones(dim), (PlaneSegment(lower, upper), PlaneSegment(start, end))),
        Ball(np.full(dim, 0.5), 0.08),
    )


@pytest.mark.parametrize("dim, cells", [(1, 40), (2, 20), (3, 10), (2, 128)])
@pytest.mark.parametrize("columns", BUDGETS, ids=["default", "floor"])
def test_sampled_sums_of_several_regions_equal_each_region_alone(dim, cells, columns):
    # one slope pass and one arctan per direction over the union of the
    # range boxes; each region sums the same floats in the same order as a
    # pass over that region alone, across a chunk boundary at the floor
    # too.  On 128 x 128 cells a sub-box holds more terms than numpy's
    # 8192-element reduction buffer, so summing its strided view in place
    # of a contiguous copy would add them in another order.  The counting
    # kernel shares each chunk's partners and runs among the regions too;
    # its field has a plane through a row of centers, so that each region
    # evaluates its own exceptions.
    grid = Grid(BoxDomain(np.zeros(dim), np.ones(dim)), 1 / cells)
    regions = _several_regions(dim)
    rng = np.random.default_rng(dim)
    values = rng.normal(size=(grid.n_cells, dim))
    eps = min(0.2, 8 / cells)
    xis = np.concatenate([rng.uniform(-1.5, 1.5, size=(17, dim)), np.eye(dim)[-1:] * grid.h / eps, -np.ones((1, dim))])
    kept = rng.random((len(regions), len(xis))) < 0.8
    plane = PlaneJump(np.eye(dim)[0], 0.5 + grid.h / 2, np.zeros(dim), np.full(dim, 2.0))
    field = SumField((Affine(rng.normal(size=(dim, dim)), np.zeros(dim)), plane))
    spy = mock.patch.object(energy, "eval_nudged", wraps=energy.eval_nudged)
    with mock.patch.object(energy, "_COLUMNS", columns), spy as nudged:
        for kernel, u in ((_sampled_sums, values), (_closed_form_sums, field)):
            sums = kernel(u, grid, regions, eps, xis, kept)
            for region, row, flags in zip(regions, sums, kept):
                alone = kernel(u, grid, (region,), eps, xis[flags], np.ones((1, flags.sum()), dtype=bool))
                _assert_same_bits(row[flags], alone[0])
                assert np.all(row[~flags] == 0.0)
            assert np.count_nonzero(sums) > kept.sum() // 2
    assert nudged.called


def test_balls_2d_families_keep_the_pinned_number_of_pairs():
    # the ball-family geometry of the balls-2d benchmark: every ball of both
    # dyadic:1 families of the unit square, eps 0.04, h = eps/6, and the
    # default 2D rule's nodes in the domain's difference body
    domain = BoxDomain(np.zeros(2), np.ones(2))
    eps = 0.04
    grid = Grid(domain, eps / 6.0)
    rule = build_direction_rule(2)
    balls = [ball for family in ball_candidates(domain, BallStrategy.parse("dyadic:1")) for ball in family.balls]
    assert len(balls) == 5
    xis = rule.nodes[_support_box(domain, eps).contains(rule.nodes)]
    pairs = sum(int(np.sum(cols.hi - cols.lo)) for _, tables in _chunks(grid, balls, xis, eps) for cols in tables)
    assert pairs == 15_785_464
