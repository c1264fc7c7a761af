"""Property tests: the shift stencil's pair mask against point-mesh
membership, each stencil of a batch against the stencil built alone, the
descent operator built from the stencils against per-point assembly, and
the sampled slopes and cell sums against a full-width pass."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from nlgriffith.domain import Ball, BoxDomain, Grid, PlaneSegment, _mesh
from nlgriffith.energy import _CHUNK, _Shift, _snap_to_axis
from nlgriffith.minimize import DescentKernel
from nlgriffith.quad import DirectionRule

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


def _stencil_mask(pairs):
    """The stencil's interacting pairs, its range box and ``keep``, placed on the whole grid."""
    full = np.zeros(pairs.grid.shape, dtype=bool)
    kept = np.zeros(int(np.prod(pairs.shape)), dtype=bool)
    kept[pairs.keep] = True
    full[pairs.box] = kept.reshape(pairs.shape)
    return full


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
    return grid, region, _Shift(grid, region, xi, eps), partners


@PROFILE
@given(cases())
def test_keep_equals_mesh_membership(case):
    grid, region, pairs, partners = case
    np.testing.assert_array_equal(_stencil_mask(pairs), _mesh_mask(grid, region, partners))


@st.composite
def batches(draw):
    grid, region, eps = draw(geometries())
    count = draw(st.sampled_from([1, _CHUNK, _CHUNK + 1]))
    return grid, region, eps, np.array([_direction(draw, grid, eps) for _ in range(count)])


@PROFILE
@given(batches())
def test_each_stencil_equals_the_stencil_built_alone(case):
    # the set-up of a batch is shared by a chunk of rows; no stencil may
    # depend on the rows built with it, across a chunk boundary too
    grid, region, eps, xis = case
    values = np.random.default_rng(0).normal(size=(grid.n_cells, grid.dim))
    for xi, pairs in zip(xis, _Shift.each(grid, region, xis, eps)):
        alone = _Shift(grid, region, xi, eps)
        assert pairs.box == alone.box
        for row, own in zip(pairs.rows, alone.rows):
            for a, b in zip(row, own):
                _assert_same_bits(a, b)
        if isinstance(alone.keep, slice):
            assert pairs.keep == alone.keep
        else:
            _assert_same_bits(pairs.keep, alone.keep)
        _assert_same_bits(pairs.slopes(values), alone.slopes(values))
        assert pairs.cell_sum(values, eps).hex() == alone.cell_sum(values, eps).hex()


def test_keep_drops_partners_landing_on_a_slit_through_centers():
    # with h = 1/12 a shifted center x + eps xi misses its partner center one
    # cell to the right by roundoff; the partners on the slit still drop out
    grid = Grid(BoxDomain(np.zeros(2), np.ones(2)), 1 / 12)
    slit = PlaneSegment(np.array([4.5 / 12, 0.0]), np.array([4.5 / 12, 0.5]))
    region = BoxDomain(np.zeros(2), np.ones(2), (slit,))
    eps = 5 * grid.h
    pairs = _Shift(grid, region, np.array([grid.h / eps, 0.0]), eps)
    right = [np.append(grid.axes[0][1:], 1.0 + grid.h / 2), grid.axes[1]]  # the lattice partners
    assert not np.array_equal(grid.axes[0] + eps * (grid.h / eps), right[0])
    np.testing.assert_array_equal(_stencil_mask(pairs), _mesh_mask(grid, region, right))


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
    np.testing.assert_array_equal(actual, expected)
    assert actual.dtype == expected.dtype and actual.tobytes() == expected.tobytes()


def _slit_through_centers():
    """The h = 1/12 slit of the test above, where a lattice step misses its
    partner center by roundoff, with that step and a generic direction."""
    grid = Grid(BoxDomain(np.zeros(2), np.ones(2)), 1 / 12)
    slit = PlaneSegment(np.array([4.5 / 12, 0.0]), np.array([4.5 / 12, 0.5]))
    eps = 5 * grid.h
    nodes = np.array([[grid.h / eps, 0.0], [0.3, -0.7]])
    rule = DirectionRule(2, nodes, np.array([1.0, 0.5]), 3.0, 0, 0)
    return grid, BoxDomain(np.zeros(2), np.ones(2), (slit,)), eps, rule


@PROFILE
@given(operator_cases())
@example(_slit_through_centers())
def test_descent_operator_equals_per_point_assembly(case):
    grid, region, eps, rule = case
    kernel = DescentKernel(grid, region, eps, rule)
    D, W = _assembled(grid, region, eps, rule)
    assert kernel.D.shape == D.shape
    for name in ("indptr", "indices", "data"):
        _assert_same_bits(getattr(kernel.D, name), getattr(D, name))
    _assert_same_bits(kernel.W, W)


def _full_width_slopes(pairs, values):
    """The sampled slopes with every axis pass over all grid columns."""
    nodal = values.reshape(pairs.grid.shape + (-1,))
    end = nodal
    for d, (base, top, lo_w, hi_w) in enumerate(pairs.rows):
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


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["box", "ball", "slit", "small-ball"])
def test_sampled_slopes_equal_the_full_width_pass(dim, kind):
    grid = Grid(BoxDomain(np.zeros(dim), np.ones(dim)), 1 / 20 if dim == 2 else 1 / 10)
    region = _regions(dim)[kind]
    rng = np.random.default_rng(dim)
    values = rng.normal(size=(grid.n_cells, dim))
    eps = 0.2
    for xi in (rng.uniform(-1.5, 1.5, size=dim), np.eye(dim)[-1] * grid.h / eps, -np.ones(dim)):
        pairs = _Shift(grid, region, xi, eps)
        _assert_same_bits(pairs.slopes(values), _full_width_slopes(pairs, values))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", ["box", "ball", "slit", "small-ball"])
def test_cell_sum_equals_the_mesh_masked_sum(dim, kind):
    # the oracle forms every temporary anew; cell_sum writes into its own
    grid = Grid(BoxDomain(np.zeros(dim), np.ones(dim)), 1 / 20 if dim == 2 else 1 / 10)
    region = _regions(dim)[kind]
    rng = np.random.default_rng(dim)
    values = rng.normal(size=(grid.n_cells, dim))
    eps = 0.2
    for xi in (rng.uniform(-1.5, 1.5, size=dim), np.eye(dim)[-1] * grid.h / eps, -np.ones(dim)):
        pairs = _Shift(grid, region, xi, eps)
        partners = [a + eps * x for a, x in zip(grid.axes, xi)]
        s = _full_width_slopes(pairs, values)[_mesh_mask(grid, region, partners)[pairs.box].reshape(-1)]
        expected = float(grid.cell_volume / eps * np.sum(np.arctan(s * s / eps)))
        assert pairs.cell_sum(values, eps).hex() == expected.hex()
