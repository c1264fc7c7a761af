"""Limit densities of the nonlocal energies and Griffith values of fields.

The small-eps limit of the direction-averaged energy has a bulk density
(a Gaussian direction integral of ``|A xi . xi|^(2p)``) and a surface
constant (a Gaussian direction integral of ``|normal . xi|^p`` times
pi/2).  Two normalization conventions are carried side by side and
reported together:

``calibrated``
    No extra ``|xi|^p`` factor.  For p = 1 this closes exactly against
    the direct small-eps extrapolation of the energies and against the
    closed forms ``(pi^(n/2)/2) (|sym A|^2 + tr(A)^2 / 2)`` for the bulk
    and ``pi^((n+1)/2)/2`` for the surface.

``xi-weighted``
    An additional ``|xi|^p`` factor under the integral, as appears when
    the densities are written through hyperplane-parametrized slices
    (the factor is the slicing Jacobian).  At n = 1, p = 1 the surface
    constant becomes ``pi^(3/2)/4`` instead of ``pi/2``.

Whether the printed slice-parametrized formulas intend the Jacobian to
be folded in is resolved operationally here: the 1D extrapolation
experiment selects the calibrated values, so acceptance pins those, and
both are computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import AnalyticField, BoxDomain, InputError
from .quad import DirectionRule, integrate

__all__ = [
    "CONVENTIONS",
    "GriffithValue",
    "bulk_density",
    "surface_constant",
    "closed_form_bulk_p1",
    "closed_form_surface_p1",
    "plane_area_in_box",
    "griffith_energy",
    "bar_load_threshold",
]

CONVENTIONS = ("calibrated", "xi-weighted")


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise InputError(f"convention must be one of {CONVENTIONS}")


@dataclass(frozen=True)
class GriffithValue:
    """Bulk + surface split of a limiting fracture energy."""

    bulk: float
    surface: float
    convention: str

    @property
    def total(self) -> float:
        return self.bulk + self.surface


def bulk_density(
    A: np.ndarray, p: float, rule: DirectionRule, convention: str = "calibrated"
) -> float:
    """Limiting bulk energy density of a displacement gradient ``A``.

    Computes ``(int |sym(A) xi . xi|^(2p) [|xi|^p] dGauss)^(1/p)``; only
    the symmetric part of ``A`` enters, so skew gradients cost nothing.
    """
    _check_convention(convention)
    if not (np.isfinite(p) and p >= 1):
        raise InputError(f"p must be finite and at least 1, got {p}")
    A = np.asarray(A, dtype=float)
    S = 0.5 * (A + A.T)
    weighted = convention == "xi-weighted"

    def f(xi):
        q = abs(float((S @ xi) @ xi))
        val = q ** (2.0 * p)
        if weighted:
            val *= float(np.linalg.norm(xi)) ** p
        return val

    return integrate(rule, f) ** (1.0 / p)


def surface_constant(
    p: float,
    dimension: int,
    rule: DirectionRule,
    convention: str = "calibrated",
    normal: np.ndarray | None = None,
) -> float:
    """Limiting surface energy per unit jump area.

    ``(pi/2) * (int |normal . xi|^p [|xi|^p] dGauss)^(1/p)``; independent
    of the unit normal by rotation invariance of the Gaussian weight.
    """
    _check_convention(convention)
    if not (np.isfinite(p) and p >= 1):
        raise InputError(f"p must be finite and at least 1, got {p}")
    if rule.dimension != dimension:
        raise InputError("rule dimension mismatch")
    if normal is None:
        normal = np.zeros(dimension)
        normal[0] = 1.0
    nu = np.asarray(normal, dtype=float)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-9:
        raise InputError("normal must be a unit vector")
    weighted = convention == "xi-weighted"

    def f(xi):
        val = abs(float(nu @ xi)) ** p
        if weighted:
            val *= float(np.linalg.norm(xi)) ** p
        return val

    return 0.5 * np.pi * integrate(rule, f) ** (1.0 / p)


def closed_form_bulk_p1(A: np.ndarray) -> float:
    """Exact p = 1 bulk density ``(pi^(n/2)/2) (|sym A|^2 + tr(A)^2 / 2)``.

    This equals the Gaussian integral of ``(A xi . xi)^2`` for every
    matrix, which the quadrature cross-checks to 1e-6.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    S = 0.5 * (A + A.T)
    return float(
        0.5 * np.pi ** (n / 2.0) * (np.sum(S * S) + 0.5 * np.trace(A) ** 2)
    )


def closed_form_surface_p1(dimension: int) -> float:
    """Exact p = 1 surface constant ``pi^((n+1)/2) / 2``."""
    return float(0.5 * np.pi ** ((dimension + 1) / 2.0))


# ---------------------------------------------------------------------------
# jump-plane geometry
# ---------------------------------------------------------------------------


def plane_area_in_box(normal: np.ndarray, offset: float, box: BoxDomain) -> float:
    """Area of ``{x . normal = offset}`` inside an axis-aligned box."""
    nu = np.asarray(normal, dtype=float)
    n = box.dim
    if n == 1:
        return 1.0 if box.lower[0] < offset / nu[0] < box.upper[0] else 0.0
    corners = np.stack(
        [
            np.where(np.array(bits), box.upper, box.lower)
            for bits in np.ndindex(*(2,) * n)
        ]
    )
    side = corners @ nu - offset
    if np.all(side > 0) or np.all(side < 0):
        return 0.0
    # intersection points of the plane with the box edges
    pts = []
    for i in range(corners.shape[0]):
        for j in range(i + 1, corners.shape[0]):
            diff = np.abs(corners[i] - corners[j])
            if np.count_nonzero(diff > 0) != 1:
                continue  # not an edge
            si, sj = side[i], side[j]
            if si == 0.0:
                pts.append(corners[i])
            if si * sj < 0:
                lam = si / (si - sj)
                pts.append(corners[i] + lam * (corners[j] - corners[i]))
    if not pts:
        return 0.0
    pts = np.unique(np.round(np.asarray(pts), 12), axis=0)
    if n == 2:
        if pts.shape[0] < 2:
            return 0.0
        dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        return float(dists.max())
    # n == 3: order the polygon vertices by angle in an in-plane basis
    if pts.shape[0] < 3:
        return 0.0
    centroid = pts.mean(axis=0)
    e1 = pts[0] - centroid
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(nu / np.linalg.norm(nu), e1)
    rel = pts - centroid
    ang = np.arctan2(rel @ e2, rel @ e1)
    order = np.argsort(ang)
    poly = rel[order]
    area = 0.0
    for k in range(poly.shape[0]):
        area += 0.5 * np.linalg.norm(np.cross(poly[k], poly[(k + 1) % poly.shape[0]]))
    return float(area)


def griffith_energy(
    u: AnalyticField,
    domain: BoxDomain,
    p: float,
    rule: DirectionRule,
    convention: str = "calibrated",
) -> GriffithValue:
    """Limiting energy of a closed-form field: bulk density times volume
    plus the surface constant times the jump area inside the domain.

    Jump planes with a zero jump vector carry no surface energy.  The
    surface term uses the geometric plane area; the implemented test
    fields always open along their normal, where the density is
    isotropic, so no directional visibility weighting is applied.
    """
    A, _ = u.affine_part()
    bulk = bulk_density(A, p, rule, convention) * domain.volume
    beta = surface_constant(p, domain.dim, rule, convention)
    area = 0.0
    for plane in u.jump_planes():
        if np.linalg.norm(plane.jump) == 0.0:
            continue
        area += plane_area_in_box(plane.normal, plane.offset, domain)
    return GriffithValue(bulk=float(bulk), surface=float(beta * area), convention=convention)


def bar_load_threshold(rule: DirectionRule, convention: str = "calibrated") -> float:
    """Load where the elastic and cracked branch energies of the unit bar
    cross: ``sqrt(surface / bulk_density(1))``.

    Below this load a uniform stretch is cheaper than a single crack;
    above it the crack wins.
    """
    phi = bulk_density(np.array([[1.0]]), 1.0, rule, convention)
    beta = surface_constant(1.0, 1, rule, convention)
    return float(np.sqrt(beta / phi))
