"""Property test: the shift stencil's pair mask against point-mesh membership."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgriffith.domain import Ball, BoxDomain, Grid, PlaneSegment, _mesh
from nlgriffith.energy import _Shift

PROFILE = settings(derandomize=True, max_examples=150, deadline=None)


def _mesh_mask(grid, region, partners):
    """Pairs with both endpoints in the region over the whole grid, from
    ``region.contains`` on full point meshes of the centers and partners."""
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
def cases(draw):
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

    if draw(st.booleans()):
        # integer cell offsets, as pairwise_energy pairs cells
        offset = np.array(draw(st.lists(st.integers(-m // 2, m // 2), min_size=dim, max_size=dim)))
        if not offset.any():
            offset[0] = 1
        partners = []
        for a, k in zip(grid.axes, offset):
            j = np.arange(a.size) + k  # partners off the grid are nan, outside every region
            partners.append(np.where((j >= 0) & (j < a.size), a[j.clip(0, a.size - 1)], np.nan))
        return grid, region, _Shift(grid, region, offset * h, offset=offset), partners

    eps = draw(st.one_of(st.sampled_from([4.0, 8.0]), st.floats(4.0, 8.0))) * h
    # generic directions, or whole multiples of h/2 per axis so that shifted
    # points land on the lattice
    xi = np.array(
        [
            draw(st.one_of(st.floats(-1.5, 1.5), st.integers(-6, 6).map(lambda k: k * h / (2 * eps))))
            for _ in range(dim)
        ]
    )
    partners = [a + eps * x for a, x in zip(grid.axes, xi)]
    return grid, region, _Shift(grid, region, xi, eps), partners


@PROFILE
@given(cases())
def test_keep_equals_mesh_membership(case):
    grid, region, pairs, partners = case
    np.testing.assert_array_equal(_stencil_mask(pairs), _mesh_mask(grid, region, partners))
