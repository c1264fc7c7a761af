"""Property test: closed-form slopes of the shift stencil against endpoint evaluation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nlgriffith.domain import (
    Affine,
    Ball,
    BoxDomain,
    Grid,
    PlaneJump,
    PlaneSegment,
    SumField,
    _mesh,
    eval_nudged,
)
from nlgriffith.energy import _Shift

PROFILE = settings(derandomize=True, max_examples=50, deadline=None)


def _two_endpoint_slopes(pairs, u):
    """Slopes from both endpoints evaluated exactly, nudged off the jump
    planes by h/7, and the largest ``|u| |xi|`` among those endpoints."""
    nudge = pairs.grid.h / 7.0
    ends = eval_nudged(u, _mesh(pairs.moved), nudge), eval_nudged(u, _mesh(pairs.centers), nudge)
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
            # through a cell center or its shift, as eval_many computes x.nu, so
            # that tilted planes are hit exactly and nearly-hit where x.nu
            # summed in another order differs in the last bit
            point = grid.centers[draw(st.integers(0, grid.n_cells - 1))] + draw(st.sampled_from([0.0, eps])) * xi
            offset = float((point[None, :] @ nu)[0])
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
    pairs = _Shift(grid, region, xi, eps)
    new, (old, size) = pairs.slopes(u), _two_endpoint_slopes(pairs, u)
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
        crossed_new = np.rint(pairs.slopes(probe))
        crossed_old = np.rint(_two_endpoint_slopes(pairs, probe)[0])
        np.testing.assert_array_equal(crossed_new, crossed_old)
        if plane.jump @ xi != 0.0:
            carries_new |= crossed_new != 0.0
            carries_old |= crossed_old != 0.0
    np.testing.assert_array_equal(carries_new, carries_old)
