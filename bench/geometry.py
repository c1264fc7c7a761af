"""Interacting-pair counts from public geometry, computed outside timing.

A pair is a cell center ``x`` and its shift ``x + eps*xi`` with both
points inside the region.  The counts repeat the membership tests of
the library with the same floating-point operations, so they are exact.
"""

from __future__ import annotations

import numpy as np

from nlgriffith import Ball, BoxDomain, Grid, difference_body


def box_pairs(region: BoxDomain, grid: Grid, eps: float, xi: np.ndarray) -> int:
    """Pairs of one direction inside a box without precrack slits.

    Box membership is a product of per-axis tests, and the coordinates of
    ``grid.centers + eps * xi`` along axis d are ``grid.axes[d] + (eps *
    xi)[d]``, so the count factorizes over axes.
    """
    if region.precrack:
        centers = grid.centers
        return int(np.sum(region.contains(centers) & region.contains(centers + eps * xi)))
    shift = eps * np.asarray(xi, dtype=float)
    total = 1
    for d, axis in enumerate(grid.axes):
        lo, hi = region.lower[d], region.upper[d]
        moved = axis + shift[d]
        total *= int(np.sum((axis > lo) & (axis < hi) & (moved > lo) & (moved < hi)))
    return total


def ball_pairs(ball: Ball, grid: Grid, eps: float, xi: np.ndarray) -> int:
    """Pairs of one direction inside a ball, over the cells of its bounding
    box (the cells ``family_energy`` sums over)."""
    in_bbox = np.all(np.abs(grid.centers - ball.center) < ball.radius, axis=1)
    centers = grid.centers[in_bbox]
    return int(np.sum(ball.contains(centers) & ball.contains(centers + eps * xi)))


def support_box(region, eps: float) -> BoxDomain:
    """Box of directions that can still produce a pair in the region: the
    scaled difference body of a box, the box of half-width 2r/eps around a
    ball."""
    if isinstance(region, BoxDomain):
        return difference_body(region, eps)
    half = np.full(region.dim, 2.0 * region.radius / eps)
    return BoxDomain(-half, half)


def kept_nodes(rule, support: BoxDomain) -> np.ndarray:
    return np.nonzero(support.contains(rule.nodes))[0]


def _pairs(region, grid: Grid, eps: float, xi) -> int:
    if isinstance(region, Ball):
        return ball_pairs(region, grid, eps, xi)
    return box_pairs(region, grid, eps, xi)


def _grid_of(args) -> Grid:
    u = args["u"]
    return u.grid if hasattr(u, "grid") else args["grid"]


def energy_call_counts(name: str, args: dict) -> tuple[int, int]:
    """``(kept_nodes, pairs)`` of one recorded energy call."""
    grid, eps = _grid_of(args), args["eps"]
    if name == "directional_energy":
        n = _pairs(args["region"], grid, eps, np.asarray(args["xi"], dtype=float))
        return 0, n
    rule = args["rule"]
    if name == "averaged_energy":
        region = args["region"]
        support = args["support"] if args["support"] is not None else support_box(region, eps)
        keep = kept_nodes(rule, support)
        n = sum(_pairs(region, grid, eps, rule.nodes[i]) for i in keep)
        return int(keep.size), n
    # family_energy
    domain_support = support_box(args["domain"], eps)
    kept = pairs = 0
    for ball in args["family"].balls:
        support = support_box(ball, eps) if args["per_ball_support"] else domain_support
        keep = kept_nodes(rule, support)
        kept += int(keep.size)
        pairs += sum(ball_pairs(ball, grid, eps, rule.nodes[i]) for i in keep)
    return kept, pairs


def kernel_pairs(region: BoxDomain, grid: Grid, eps: float, rule) -> int:
    """Pairs one ``DescentKernel`` energy evaluation visits."""
    return sum(box_pairs(region, grid, eps, xi) for xi in rule.nodes)
