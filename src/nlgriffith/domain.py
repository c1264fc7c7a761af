"""Computational domains, grids, and deformation fields.

The geometry is deliberately restricted: domains are open axis-aligned
boxes, optionally with planar precrack segments removed, and deformation
fields are either closed-form (affine / plane jump / sums thereof) or
nodal values on a regular cell-centered grid.  Closed-form fields carry
their exact symmetric gradient and jump-set geometry, so they serve as
the ground-truth side of every numerical check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BoxDomain",
    "PlaneSegment",
    "Ball",
    "Grid",
    "AnalyticField",
    "Affine",
    "PlaneJump",
    "SumField",
    "SampledField",
    "HyperplaneEvalError",
    "difference_body",
    "eval_nudged",
    "sample",
    "domain_from_config",
    "field_from_config",
    "load_problem",
]

_TOL = 1e-12


def _require_finite(name: str, value) -> None:
    """Refuse nan or inf geometry, which would make membership silently empty."""
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {np.asarray(value).tolist()}")


class HyperplaneEvalError(ValueError):
    """Raised when a field is evaluated exactly on a jump hyperplane.

    The jump set is a null set; callers are expected to perturb the
    query point instead of assigning a side convention.
    """

    def __init__(self, normal: np.ndarray, offset: float):
        self.normal = np.asarray(normal, dtype=float)
        self.offset = float(offset)
        super().__init__(self.normal, self.offset)

    def __str__(self) -> str:
        # formatted on demand: eval_nudged catches most raises unread
        return f"evaluation point lies on the jump hyperplane x·{self.normal} = {self.offset}"


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneSegment:
    """Axis-normal planar segment removed from a box domain (a precrack slit).

    Represented as a degenerate axis-aligned box: ``lower[axis] == upper[axis]``
    for exactly one axis, which is the slit normal.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("segment bounds must be matching 1-d vectors")
        _require_finite("segment lower", lo)
        _require_finite("segment upper", hi)
        degenerate = np.isclose(hi - lo, 0.0, atol=_TOL)
        if degenerate.sum() != 1 or np.any(hi - lo < -_TOL):
            raise ValueError("segment must be degenerate along exactly one axis")
        object.__setattr__(self, "axis", int(np.argmax(degenerate)))

    @property
    def offset(self) -> float:
        return float(self.lower[self.axis])

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from each point to the closed segment."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        excess = np.maximum(self.lower - pts, 0.0) + np.maximum(pts - self.upper, 0.0)
        return np.linalg.norm(excess, axis=1)


@dataclass(frozen=True)
class BoxDomain:
    """Open axis-aligned box, optionally minus planar precrack slits.

    The precrack is removed from the domain in membership tests only; it
    does not alter the bounding box or the scaled difference body.
    """

    lower: np.ndarray
    upper: np.ndarray
    precrack: tuple[PlaneSegment, ...] = ()

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "precrack", tuple(self.precrack))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be matching 1-d vectors")
        _require_finite("box lower", lo)
        _require_finite("box upper", hi)
        if not np.all(lo < hi):
            raise ValueError("box requires lower[i] < upper[i] for every axis")
        for seg in self.precrack:
            if np.any(seg.lower < lo - _TOL) or np.any(seg.upper > hi + _TOL):
                raise ValueError("precrack segment must lie inside the closed box")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def sides(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Strict-interior membership, with precrack slits removed."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside = np.all(pts > self.lower, axis=1) & np.all(pts < self.upper, axis=1)
        for seg in self.precrack:
            inside &= seg.distance(pts) > 0.0
        return inside

    def contains_ball(self, ball: "Ball") -> bool:
        """Whether the open ball lies inside the domain, clear of any slit."""
        c, r = ball.center, ball.radius
        if np.any(c - r < self.lower - _TOL) or np.any(c + r > self.upper + _TOL):
            return False
        for seg in self.precrack:
            if seg.distance(c[None, :])[0] < r - _TOL:
                return False
        return True


@dataclass(frozen=True)
class Ball:
    """Open ball, the building block of the families fed to the supremum."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "radius", float(self.radius))
        _require_finite("ball center", self.center)
        _require_finite("ball radius", self.radius)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.sum((pts - self.center) ** 2, axis=1) < self.radius**2


def difference_body(domain: BoxDomain, eps: float) -> BoxDomain:
    """Scaled difference body ``(E - E) / eps`` of a box.

    For a box with side lengths ``s`` this is the centered open box with
    half-widths ``s / eps``; direction nodes outside it cannot produce an
    interacting pair and are discarded by the quadrature.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    half = domain.sides / eps
    return BoxDomain(lower=-half, upper=half)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Regular cell-centered grid tiling the bounding box of a domain.

    Cell centers are ordered lexicographically (C order over the axis
    indices), which fixes every reduction order downstream.
    """

    domain: BoxDomain
    h: float

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.h))
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError(f"grid spacing must be positive and finite, got {self.h}")
        sides = self.domain.sides
        counts = np.round(sides / self.h).astype(int)
        if np.any(counts < 1) or np.any(np.abs(counts * self.h - sides) > 1e-9 * np.max(sides)):
            raise ValueError(
                f"grid spacing h={self.h} does not tile the bounding box with sides "
                f"{sides.tolist()}: each side divided by h must be a whole number"
            )
        object.__setattr__(self, "shape", tuple(int(c) for c in counts))
        axes = tuple(
            self.domain.lower[i] + (np.arange(counts[i]) + 0.5) * self.h
            for i in range(self.domain.dim)
        )
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "centers", _mesh(axes))

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def n_cells(self) -> int:
        return self.centers.shape[0]

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    def interp_weights(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Multilinear interpolation stencils for arbitrary query points.

        Returns ``(indices, weights)`` of shape ``(m, 2**dim)``: flat cell
        indices and affine weights summing to one.  Points beyond the
        outermost centers extrapolate linearly from the edge cells, so
        linear fields are reproduced exactly on the whole box.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.zeros((pts.shape[0], 1), dtype=np.int64)
        wts = np.ones((pts.shape[0], 1))
        # corner bit d selects the upper cell along axis d
        for d, n in enumerate(self.shape):
            base, top, frac = _interp_row(self.axes[d], self.h, pts[:, d])
            idx = np.concatenate([idx * n + base[:, None], idx * n + top[:, None]], axis=1)
            wts = np.concatenate([wts * (1.0 - frac)[:, None], wts * frac[:, None]], axis=1)
        return idx, wts


def _mesh(coords) -> np.ndarray:
    """Points of the product of per-axis coordinates, in C order."""
    return np.stack([m.reshape(-1) for m in np.meshgrid(*coords, indexing="ij")], axis=1)


def _interp_row(axis: np.ndarray, h: float, x: np.ndarray):
    """Lower cell, upper cell and fraction of coordinates ``x`` on one grid
    axis, clipped to the edge pair (so the edge cells extrapolate linearly)."""
    g = (x - axis[0]) / h if axis.size > 1 else np.zeros_like(x)
    base = np.clip(np.floor(g).astype(np.int64), 0, max(axis.size - 2, 0))
    return base, np.minimum(base + 1, axis.size - 1), g - base


# ---------------------------------------------------------------------------
# Closed-form fields
# ---------------------------------------------------------------------------


class AnalyticField:
    """Base class for closed-form deformations.

    Subclasses expose exact evaluation away from their jump hyperplanes,
    the combined affine part, and the list of jump planes.
    """

    def eval(self, x: np.ndarray) -> np.ndarray:
        """Pointwise value at a single point (raises on a jump hyperplane)."""
        return self.eval_many(np.asarray(x, dtype=float)[None, :])[0]

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def affine_part(self) -> tuple[np.ndarray, np.ndarray]:
        """Summed ``(A, b)`` of all affine contributions."""
        raise NotImplementedError

    def jump_planes(self) -> list["PlaneJump"]:
        return []

    @property
    def dim(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Affine(AnalyticField):
    """x -> A x + b.  Skew-symmetric ``A`` with any ``b`` is a rigid motion."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.offset, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or b.shape != (A.shape[0],):
            raise ValueError("affine field requires an n x n matrix and an n-vector")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "offset", b)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.matrix.T + self.offset

    def affine_part(self):
        return self.matrix, self.offset


@dataclass(frozen=True)
class PlaneJump(AnalyticField):
    """Piecewise-constant field jumping across the hyperplane ``x·normal = offset``.

    ``value_minus`` holds on the side ``x·normal < offset`` and
    ``value_plus`` on the other; the jump vector is their difference.
    """

    normal: np.ndarray
    offset: float
    value_minus: np.ndarray
    value_plus: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.normal, dtype=float)
        vm = np.asarray(self.value_minus, dtype=float) + np.zeros(nu.size)
        vp = np.asarray(self.value_plus, dtype=float) + np.zeros(nu.size)
        if abs(np.linalg.norm(nu) - 1.0) > 1e-9:
            raise ValueError("jump normal must be a unit vector")
        object.__setattr__(self, "normal", nu)
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "value_minus", vm)
        object.__setattr__(self, "value_plus", vp)

    @property
    def dim(self) -> int:
        return self.normal.size

    @property
    def jump(self) -> np.ndarray:
        return self.value_plus - self.value_minus

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        side = pts @ self.normal - self.offset
        if np.any(side == 0.0):
            raise HyperplaneEvalError(self.normal, self.offset)
        return np.where((side > 0)[:, None], self.value_plus, self.value_minus)

    def affine_part(self):
        n = self.dim
        return np.zeros((n, n)), np.zeros(n)

    def jump_planes(self):
        return [self]


@dataclass(frozen=True)
class SumField(AnalyticField):
    """Componentwise sum of closed-form fields."""

    parts: tuple[AnalyticField, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("sum field needs at least one part")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise ValueError("all parts must share the same dimension")
        object.__setattr__(self, "parts", parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros_like(pts)
        for p in self.parts:
            out = out + p.eval_many(pts)
        return out

    def affine_part(self):
        A = np.zeros((self.dim, self.dim))
        b = np.zeros(self.dim)
        for p in self.parts:
            Ap, bp = p.affine_part()
            A = A + Ap
            b = b + bp
        return A, b

    def jump_planes(self):
        planes = []
        for p in self.parts:
            planes.extend(p.jump_planes())
        return planes


# ---------------------------------------------------------------------------
# Sampled fields
# ---------------------------------------------------------------------------


@dataclass
class SampledField:
    """Nodal vector values on a grid; the optimization unknown.

    ``values`` has one row per cell.  Cells flagged in ``dirichlet_mask``
    are frozen: no optimizer step may change them.
    """

    grid: Grid
    values: np.ndarray
    dirichlet_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_cells, self.grid.dim):
            raise ValueError("values must have shape (n_cells, dim)")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sampled values must be finite")
        self.values = vals
        if self.dirichlet_mask is None:
            self.dirichlet_mask = np.zeros(self.grid.n_cells, dtype=bool)
        else:
            self.dirichlet_mask = np.asarray(self.dirichlet_mask, dtype=bool)
            if self.dirichlet_mask.shape != (self.grid.n_cells,):
                raise ValueError("dirichlet mask must have one entry per cell")

    @property
    def dim(self) -> int:
        return self.grid.dim

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Multilinear interpolation of the nodal values."""
        idx, wts = self.grid.interp_weights(points)
        return np.einsum("mc,mcd->md", wts, self.values[idx])


def eval_nudged(field_: AnalyticField, points: np.ndarray, nudge: float) -> np.ndarray:
    """Evaluate a closed-form field, nudging points off jump hyperplanes.

    Query points that land exactly on a jump hyperplane are moved by
    ``nudge`` along the offending normal (repeatedly if several planes
    are hit), so the result never depends on a side convention.  Only
    exact hits move, so each point's value is independent of the batch.
    """
    pts = np.array(points, dtype=float, ndmin=2)
    for _ in range(7):
        try:
            return field_.eval_many(pts)
        except HyperplaneEvalError as err:
            hit = pts @ err.normal - err.offset == 0.0
            pts[hit] += nudge * err.normal
    return field_.eval_many(pts)


def sample(field_: AnalyticField, grid: Grid) -> SampledField:
    """Evaluate a closed-form field at the cell centers.

    Centers on a jump hyperplane are nudged by h/7 along the offending
    normal before evaluation.
    """
    return SampledField(grid, eval_nudged(field_, grid.centers, grid.h / 7.0))


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------


def domain_from_config(cfg: dict) -> BoxDomain:
    precrack = tuple(
        PlaneSegment(np.asarray(seg["lower"], float), np.asarray(seg["upper"], float))
        for seg in cfg.get("precrack", [])
    )
    return BoxDomain(np.asarray(cfg["lower"], float), np.asarray(cfg["upper"], float), precrack)


def field_from_config(cfg: dict) -> AnalyticField:
    kind = cfg["kind"]
    if kind == "affine":
        return Affine(np.asarray(cfg["matrix"], float), np.asarray(cfg["offset"], float))
    if kind == "plane_jump":
        return PlaneJump(
            np.asarray(cfg["normal"], float),
            float(cfg["offset"]),
            np.asarray(cfg["value_minus"], float),
            np.asarray(cfg["value_plus"], float),
        )
    if kind == "sum":
        return SumField(tuple(field_from_config(part) for part in cfg["parts"]))
    raise ValueError(f"unknown field kind {kind!r}")


def load_problem(source) -> tuple[BoxDomain, AnalyticField, dict]:
    """Read a ``{"domain": ..., "field": ..., "quad": ...}`` JSON document.

    ``source`` may be a path or an already-parsed dict.  The quadrature
    block is returned verbatim (it may be empty).
    """
    if isinstance(source, dict):
        cfg = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    return domain_from_config(cfg["domain"]), field_from_config(cfg["field"]), cfg.get("quad", {})
