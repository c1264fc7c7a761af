"""Quadrature for Gaussian-weighted direction integrals.

Every energy and limit-density integral in this package has the form
``int f(xi) exp(-|xi|^2) dxi`` over directions ``xi`` in R^n.  This module
builds truncated product rules for that measure (radial Gauss-Legendre
times an equal-weight angular rule), provides exact Gamma-function
moment oracles for validation, and sums an integrand over the nodes.

Rules are validated at build time: the total weight must match the
Gaussian normalization ``pi^(n/2)``, and all polynomial moments up to the
requested radial order must agree with the closed-form oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .domain import InputError

__all__ = [
    "DirectionRule",
    "RuleQualityError",
    "NodeEvaluationError",
    "build_direction_rule",
    "build_sphere_rule",
    "gaussian_moment",
    "integrate",
]

_NORMALIZATION_RTOL = 1e-6
_MOMENT_RTOL = 1e-8
_SPHERE_LEAST_ORDER = {2: 4, 3: 6}  # build_sphere_rule's floor per dimension


class RuleQualityError(RuntimeError):
    """A freshly built rule failed its normalization or moment checks."""


class NodeEvaluationError(RuntimeError):
    """The integrand returned a non-finite value at a quadrature node."""

    def __init__(self, node_index: int, node: np.ndarray, value: float):
        self.node_index = node_index
        self.node = node
        super().__init__(
            f"integrand is not finite at node {node_index} (xi={node}, value={value})"
        )


@dataclass(frozen=True)
class DirectionRule:
    """Nodes and weights approximating ``int f(xi) exp(-|xi|^2) dxi``.

    The Gaussian weight is folded into ``weights``; integrands are
    evaluated plain.  Node order is fixed (radial-major, then angular),
    which makes every downstream reduction bitwise reproducible.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray
    truncation_radius: float
    radial_order: int
    angular_order: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 2 or nodes.shape[0] < 1 or nodes.shape[1] != self.dimension:
            raise InputError("nodes must have shape (m, dimension) with m >= 1")
        if weights.shape != (nodes.shape[0],):
            raise InputError("weights must match the node count")
        # written to fail closed: a nan node, weight or radius fails its check
        if not np.all(np.isfinite(nodes)):
            raise InputError("nodes must be finite")
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise InputError("weights must be finite and positive")
        if not np.all(np.linalg.norm(nodes, axis=1) <= self.truncation_radius + 1e-12):
            raise InputError("all nodes must lie within the truncation radius")

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


# ---------------------------------------------------------------------------
# Moment oracle
# ---------------------------------------------------------------------------


def _gamma(x: float) -> float:
    """Gamma function: the exact product ``(n-1)!`` or
    ``sqrt(pi) * prod_j (j + 1/2)`` at positive integers and
    half-integers, ``math.gamma`` elsewhere."""
    x = float(x)
    if x > 0 and (2.0 * x).is_integer():
        if x.is_integer():
            return float(math.factorial(int(x) - 1))
        out = math.sqrt(math.pi)
        for j in range(int(x)):
            out *= j + 0.5
        return out
    return math.gamma(x)


def _gammainc(s: float, x: float) -> float:
    """Regularized lower incomplete gamma ``P(s, x)`` at an integer or
    half-integer ``s > 0`` and ``x > 0``.

    The complement starts from ``Q(1, x) = exp(-x)`` or
    ``Q(1/2, x) = erfc(sqrt(x))`` and climbs by
    ``Q(j + 1, x) = Q(j, x) + x^j exp(-x) / Gamma(j + 1)``.  Every term is
    positive, so ``1 - Q`` is accurate unless ``Q`` is close to 1, which
    the rules' truncation radii (``x = r_max^2 >= 9``) keep away from.
    """
    j, q = (1.0, math.exp(-x)) if float(s).is_integer() else (0.5, math.erfc(math.sqrt(x)))
    while j < s:
        q += math.exp(j * math.log(x) - x - math.lgamma(j + 1.0))
        j += 1.0
    return 1.0 - q


def _sphere_surface(n: int) -> float:
    return 2.0 * np.pi ** (n / 2.0) / _gamma(n / 2.0)


def _gauss_1d_moment(m: int) -> float:
    # int t^m exp(-t^2) dt over R
    if m % 2 == 1:
        return 0.0
    return _gamma((m + 1) / 2.0)


def gaussian_moment(dimension: int, exponent) -> float:
    """Closed-form Gaussian moments via the Gamma function.

    ``exponent`` is either a real ``k >= 0`` for the radial moment
    ``int |xi|^k exp(-|xi|^2) dxi`` or a sequence of nonnegative integers
    for the tensor moment ``int xi^alpha exp(-|xi|^2) dxi`` (zero whenever
    any entry is odd).
    """
    if np.isscalar(exponent):
        k = float(exponent)
        if k < 0:
            raise InputError("radial exponent must be nonnegative")
        return _sphere_surface(dimension) * _gamma((k + dimension) / 2.0) / 2.0
    alpha = tuple(int(a) for a in exponent)
    if len(alpha) != dimension:
        raise InputError("tensor exponent must have one entry per dimension")
    if any(a < 0 for a in alpha):
        raise InputError("tensor exponents must be nonnegative integers")
    out = 1.0
    for a in alpha:
        out *= _gauss_1d_moment(a)
    return out


def _truncated_tensor_moment(dimension: int, alpha, r_max: float) -> float:
    """Tensor moment restricted to the ball ``|xi| <= r_max``.

    In polar form the radial and spherical factors separate, so the
    truncation is a single regularized lower incomplete gamma factor.
    """
    full = gaussian_moment(dimension, tuple(alpha))
    if full == 0.0:
        return 0.0
    s = (sum(alpha) + dimension) / 2.0
    return full * _gammainc(s, r_max**2)


# ---------------------------------------------------------------------------
# Rule construction
# ---------------------------------------------------------------------------


def _radial_panels(panels: list[tuple[float, float, int]]) -> tuple[np.ndarray, np.ndarray]:
    rs, ws = [], []
    for a, b, m in panels:
        x, w = leggauss(m)
        rs.append(a + 0.5 * (b - a) * (x + 1.0))
        ws.append(0.5 * (b - a) * w)
    return np.concatenate(rs), np.concatenate(ws)


def build_sphere_rule(dimension: int, angular_order: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-total-weight rule on the unit sphere S^(n-1).

    Dimension 1 returns the two-point counting measure on {-1, +1};
    dimension 2 uses equally spaced angles (exact for trigonometric
    polynomials of degree below the node count); dimension 3 uses a
    Gauss-Legendre x uniform-azimuth product in (cos theta, phi).
    The angular order (node count in 2D, azimuthal count in 3D) has a
    floor, 4 in 2D and 6 in 3D: a lower order builds the floor's rule,
    which ``build_direction_rule`` relies on.
    """
    if dimension == 1:
        return np.array([[-1.0], [1.0]]), np.array([1.0, 1.0])
    if dimension == 2:
        m = max(int(angular_order), _SPHERE_LEAST_ORDER[2])
        theta = 2.0 * np.pi * np.arange(m) / m
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return nodes, np.full(m, 2.0 * np.pi / m)
    if dimension == 3:
        m_phi = max(int(angular_order), _SPHERE_LEAST_ORDER[3])
        m_cos = max(int(np.ceil(angular_order / 2)) + 1, 4)
        c, wc = leggauss(m_cos)
        phi = 2.0 * np.pi * np.arange(m_phi) / m_phi
        nodes = []
        weights = []
        for ci, wi in zip(c, wc):
            st = np.sqrt(max(1.0 - ci * ci, 0.0))
            for p in phi:
                nodes.append([st * np.cos(p), st * np.sin(p), ci])
                weights.append(wi * 2.0 * np.pi / m_phi)
        return np.asarray(nodes), np.asarray(weights)
    raise InputError("only dimensions 1, 2, 3 are supported")


def build_direction_rule(
    dimension: int,
    radial_order: int = 12,
    angular_order: int = 24,
    r_max: float = 6.0,
) -> DirectionRule:
    """Truncated product rule for the Gaussian direction measure.

    Parameters
    ----------
    dimension : int
        Ambient dimension, one of {1, 2, 3}.
    radial_order : int
        Largest total polynomial degree whose moments must match the
        closed-form oracle to relative 1e-8 (verified at build time).
    angular_order : int
        Angular resolution on the sphere; raised automatically if the
        radial order demands more.
    r_max : float
        Truncation radius.  The default 6 makes the discarded tail
        irrelevant for every integrand with polynomial growth occurring
        in the limit densities.

    Raises
    ------
    RuleQualityError
        If the total weight misses ``pi^(n/2)`` by more than relative
        1e-6, or a verified moment misses the oracle.
    """
    if dimension not in (1, 2, 3):
        raise InputError("dimension must be 1, 2, or 3")
    if radial_order < 2 or angular_order < 2:
        raise InputError("orders must be at least 2")
    if not (np.isfinite(r_max) and r_max >= 3):
        raise InputError(f"truncation radius must be finite and at least 3, got {r_max}")

    n_radial = max(radial_order + 12, 20)
    if dimension == 1:
        # Grid-discretized integrands carry a small-radius staircase (the
        # straddling-cell count is quantized); with no angular averaging to
        # smooth it, a dense inner panel keeps the node sum from aliasing.
        split = min(2.0, r_max / 3.0)
        r, wr = _radial_panels(
            [(0.0, split, max(4 * radial_order, 16)), (split, r_max, n_radial)]
        )
        radial_weights = wr * np.exp(-(r**2))
        nodes = np.concatenate([-r[::-1], r])[:, None]
        weights = np.concatenate([radial_weights[::-1], radial_weights])
    else:
        r, wr = _radial_panels([(0.0, r_max, n_radial)])
        sphere_nodes, sphere_weights = build_sphere_rule(
            dimension, max(angular_order, radial_order + 2)
        )
        radial_weights = wr * r ** (dimension - 1) * np.exp(-(r**2))
        nodes = (r[:, None, None] * sphere_nodes[None, :, :]).reshape(-1, dimension)
        weights = (radial_weights[:, None] * sphere_weights[None, :]).reshape(-1)

    rule = DirectionRule(dimension, nodes, weights, float(r_max), radial_order, angular_order)
    _verify_rule(rule)
    return rule


def _verify_rule(rule: DirectionRule) -> None:
    norm = np.pi ** (rule.dimension / 2.0)
    # written to fail closed: a nan weight or moment fails every check
    if not abs(rule.total_weight - norm) <= _NORMALIZATION_RTOL * norm:
        raise RuleQualityError(
            f"total weight {rule.total_weight} misses the Gaussian normalization {norm}"
        )
    moments = _tensor_moments(rule, rule.radial_order)
    for alpha in _monomials(rule.dimension, rule.radial_order):
        approx = float(moments[tuple(alpha)])
        exact = _truncated_tensor_moment(rule.dimension, alpha, rule.truncation_radius)
        if not abs(approx - exact) <= _MOMENT_RTOL * (1.0 + abs(exact)):
            raise RuleQualityError(
                f"moment xi^{alpha} = {approx} misses the oracle value {exact}"
            )


def _tensor_moments(rule: DirectionRule, order: int) -> np.ndarray:
    """The rule's tensor moments ``sum_i w_i prod_d xi_{i,d}^{alpha_d}``
    for every ``alpha`` with entries at most ``order``, indexed by
    ``alpha``: a per-axis power table, its leading axes multiplied into the
    weights and the last contracted in one matrix product."""
    powers = rule.nodes.T[:, None, :] ** np.arange(order + 1)[:, None]
    weighted = rule.weights
    for table in powers[:-1]:
        weighted = weighted[..., None, :] * table
    return weighted @ powers[-1].T


def _monomials(dimension: int, max_degree: int):
    rng = range(max_degree + 1)
    for alpha in product(rng, repeat=dimension):
        if sum(alpha) <= max_degree:
            yield np.array(alpha)


# ---------------------------------------------------------------------------
# Node sums
# ---------------------------------------------------------------------------


def integrate(rule: DirectionRule, f: Callable[[np.ndarray], float]) -> float:
    """Node sum ``sum_i w_i f(xi_i)``.

    Summation runs in ascending node order for bitwise reproducibility.
    """
    total = 0.0
    for i in range(rule.n_nodes):
        value = float(f(rule.nodes[i]))
        if not np.isfinite(value):
            raise NodeEvaluationError(i, rule.nodes[i], value)
        total += rule.weights[i] * value
    return total
