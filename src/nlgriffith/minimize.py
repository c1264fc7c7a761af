"""Dirichlet-constrained descent on the direction-averaged energy.

The boundary condition is relaxed: the field is frozen to the datum on a
padding layer (the outer box minus the inner one), and pairs reaching
across the inner boundary price any mismatch.  Minimization targets the
p = 1 direction-averaged energy, which is smooth in the nodal values;
the ball-supremum functional can be evaluated on the result afterwards.

Each descent is limited-memory BFGS (Liu & Nocedal 1989) on the free
cells: the two-loop recursion over the last few accepted ``(s, y)``
pairs gives the direction, and Armijo backtracking along it accepts only
energy decreases.  Frozen cells never move, and the arithmetic has a
fixed order, so reruns are bit-identical.

Every energy and gradient evaluation runs on one ``DescentKernel``: a
sparse matrix with one row per interacting pair, assembled once from the
kept pairs and interpolation rows of the energies' chunk tables, and its
transpose, stored once next to it.  An evaluation is two sparse products
(the slopes, then the gradient through the stored transpose) and a few
in-place vector operations.  One kernel is built per eps level, and the
last one, at the problem's eps, also prices the candidates.

The energy landscape has an elastic and a fractured branch.  Descent
from the sampled datum stays on the elastic branch, so the minimizer
restarts from the best of a finite candidate set (the elastic interpolant
and single-crack fields at interior grid planes) whenever a candidate
undercuts the current iterate.  The same candidate set defines
the reported optimality gap; it is an upper bound for the gap relative
to that set, not to the unknown global infimum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domain import (
    Affine, AnalyticField, BoxDomain, Grid, InputError, SampledField, _corner_product, _require_seed, sample
)
from .energy import _chunks, _kept_pairs, _resolve_grid, check_resolution
from .quad import DirectionRule, build_direction_rule

__all__ = [
    "DirichletProblem",
    "MinimizeOptions",
    "DescentTrace",
    "DescentKernel",
    "energy_gradient",
    "dirichlet_candidates",
    "minimize_dirichlet",
    "optimality_gap",
    "band_opening",
]

_HISTORY = 10  # (s, y) pairs kept by the L-BFGS two-loop recursion
_ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
_MAX_BACKTRACKS = 40  # step halvings before the line search gives up
_CANDIDATE_MARGIN = 0.25  # crack planes keep this share of the inner span from its faces


@dataclass(frozen=True)
class DirichletProblem:
    """Relaxed Dirichlet problem: minimize the p = 1 direction-averaged
    energy over fields frozen to the datum outside the inner domain."""

    outer: BoxDomain
    inner: BoxDomain
    datum: AnalyticField
    eps: float
    grid: Grid

    def __post_init__(self):
        if not (
            np.all(self.inner.lower >= self.outer.lower)
            and np.all(self.inner.upper <= self.outer.upper)
            and (
                np.any(self.inner.lower > self.outer.lower)
                or np.any(self.inner.upper < self.outer.upper)
            )
        ):
            raise InputError("inner domain must sit strictly inside the outer one")
        if not all(np.all(np.isfinite(part)) for part in self.datum.affine_part()):
            raise InputError("the datum's affine part must be finite")
        check_resolution(self.grid.h, self.eps)

    @property
    def dirichlet_mask(self) -> np.ndarray:
        return ~self.inner.contains(self.grid.centers)

    def sampled_datum(self) -> SampledField:
        out = sample(self.datum, self.grid)
        out.dirichlet_mask = self.dirichlet_mask
        return out

    @classmethod
    def bar(cls, load: float, eps: float, h: float) -> "DirichletProblem":
        """Uniaxial bar: inner domain (0, 1), datum ``load * x``.

        The padding layer is 1.5 eps per side (rounded to whole cells):
        wide enough that slipping at the boundary costs nearly a full
        crack, narrow enough that the padding's own elastic energy stays
        a few percent of the bar's.
        """
        if not np.isfinite(load):
            raise InputError(f"load must be finite, got {load}")
        check_resolution(h, eps)
        pad = max(1, int(round(1.5 * eps / h))) * h
        outer = BoxDomain(np.array([-pad]), np.array([1.0 + pad]))
        inner = BoxDomain(np.array([0.0]), np.array([1.0]))
        grid = Grid(outer, h)
        datum = Affine(np.array([[load]]), np.array([0.0]))
        return cls(outer=outer, inner=inner, datum=datum, eps=eps, grid=grid)


@dataclass
class MinimizeOptions:
    """Descent controls.

    Each descent stops once the gradient norm is at most ``gtol``
    (``converged``), after ``max_iter`` accepted steps, or when 40
    halvings of the trial step all fail the Armijo test with constant
    1e-4.  ``eps_schedule`` runs coarse-to-fine continuation with warm
    starts and must end at the problem's eps.  ``nucleation_amplitude``
    adds a seeded uniform perturbation to the free cells of the initial
    iterate.  The line-search constants are fixed, and so is the
    candidate restart: every run ends by re-descending from the best
    candidate of ``dirichlet_candidates`` if it undercuts the iterate.
    """

    max_iter: int = 600
    gtol: float = 1e-6
    eps_schedule: Sequence[float] | None = None
    nucleation_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.gtol) and self.gtol >= 0):
            raise InputError(f"gtol must be finite and non-negative, got {self.gtol}")
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 0):
            raise InputError(f"max_iter must be a non-negative integer, got {self.max_iter}")
        if not (np.isfinite(self.nucleation_amplitude) and self.nucleation_amplitude >= 0):
            raise InputError(
                f"nucleation_amplitude must be finite and non-negative, got {self.nucleation_amplitude}"
            )
        _require_seed(self.seed)


@dataclass
class DescentTrace:
    """Per-iteration record of one minimization run.

    The energy sequence is non-increasing: backtracking only accepts
    decreasing steps, and a candidate restart only happens from a state
    with lower energy than the current one.  ``step_sizes`` holds 0.0 at
    the start of each descent and otherwise the accepted multiple of the
    search direction: 1.0 is the full L-BFGS step, and a step taken
    without curvature pairs starts from ``min(1, 1/|g|)`` instead.
    """

    iterates: list[float] = field(default_factory=list)
    grad_norms: list[float] = field(default_factory=list)
    step_sizes: list[float] = field(default_factory=list)
    final: SampledField | None = None
    converged: bool = False
    stop_reason: str = ""
    restarted: bool = False


# ---------------------------------------------------------------------------
# pair kernel
# ---------------------------------------------------------------------------


class DescentKernel:
    """The discrete direction-averaged energy of one (grid, region, eps,
    rule) as one sparse operator, assembled once per kernel.

    ``D`` has one CSR row per interacting pair ``(x, x + eps xi)`` of each
    rule node ``xi``, ordered by node and then by cell, as the energies'
    runs keep them (``energy._kept_pairs``, one chunk of nodes at a time),
    so the energies' pair rule decides which pairs interact.  A row holds
    ``-xi`` at the center cell and ``xi`` times the multilinear
    interpolation weights of the shifted endpoint at its 2^n corner cells,
    from the partner's per-axis interpolation rows, so the slopes
    ``(v(x + eps xi) - v(x)).xi`` of nodal values ``v`` (flat, C order) are
    ``s = D @ v``.  ``W`` holds each row's ``w_i h^n / eps`` for its rule
    weight ``w_i``.  Then ``E = W . arctan(s^2/eps)`` and the gradient is
    ``D^T (W phi'(s))`` with ``phi'(s) = (2 s/eps) / (1 + s^4/eps^2)``.

    The float operations are fixed by the code.  ``D^T`` is stored once as
    its own CSR matrix, whose rows list their entries by ascending row of
    ``D``, so each gradient component adds its terms in pair order.  With
    ``q = (s s)/eps``, an evaluation forms ``arctan(q) W`` and its sum, then
    ``(((2/eps) W) s) / (q q + 1)``, each step in place in a fixed order.
    Runs with identical inputs are therefore bit-reproducible.
    """

    def __init__(self, grid: Grid, region: BoxDomain, eps: float, rule: DirectionRule):
        # imported here, its only use, so that importing the library loads no scipy
        from scipy import sparse

        _resolve_grid(None, grid, eps, (region,), rule)
        self.eps = eps
        dim = grid.dim
        parts = []
        for chunk, (cols,) in _chunks(grid, (region,), rule.nodes, eps):
            dirs, centers, rows = _kept_pairs(cols)
            parts.append((chunk.start + dirs, centers, *_corner_product(grid.shape, rows)))
        node, cell, corners, weights = map(np.concatenate, zip(*parts))
        del parts, cols, rows  # not held through the assembly below
        cells = np.column_stack([cell, corners])
        weights = np.column_stack([np.full(node.size, -1.0), weights])
        # column c * dim + k is component k of cell c
        cols = (cells[:, :, None] * dim + np.arange(dim)).reshape(-1)
        vals = (weights[:, :, None] * rule.nodes[node, None, :]).reshape(-1)
        self.D = sparse.csr_matrix(
            (vals, cols, np.arange(0, cols.size + 1, cells.shape[1] * dim)),
            shape=(node.size, grid.n_cells * dim),
        )
        self.D.sum_duplicates()
        self.D.eliminate_zeros()
        # a CSR copy adds each component's terms in pair order, as a product
        # with the CSC view D.T does, without rebuilding the view per call
        self._DT = self.D.T.tocsr()
        self.W = (grid.cell_volume / eps * rule.weights)[node]
        self._grad_W = (2.0 / eps) * self.W

    def _arctan_sum(self, s: np.ndarray) -> tuple[float, np.ndarray]:
        """``W . arctan(s^2/eps)`` and ``q = s^2/eps``, formed in place."""
        q = s * s
        q /= self.eps
        terms = np.arctan(q)
        terms *= self.W
        return float(terms.sum()), q

    def energy(self, values: np.ndarray) -> float:
        return self._arctan_sum(self.D @ values.reshape(-1))[0]

    def energy_and_grad(
        self, values: np.ndarray, frozen: np.ndarray
    ) -> tuple[float, np.ndarray]:
        s = self.D @ values.reshape(-1)
        total, q = self._arctan_sum(s)
        # W phi'(s) = ((2/eps) W) s / (1 + q^2), overwriting s and q
        q *= q
        q += 1.0
        s *= self._grad_W
        s /= q
        grad = (self._DT @ s).reshape(values.shape)
        grad[frozen] = 0.0
        return total, grad


def energy_gradient(
    u: SampledField, eps: float, rule: DirectionRule, region: BoxDomain | None = None
) -> np.ndarray:
    """Exact gradient of the discrete direction-averaged energy.

    Each interacting pair contributes ``w * h^n/eps * (2 s / eps) /
    (1 + s^4/eps^2)`` times its row of the ``DescentKernel`` operator:
    the direction vector, at the center cell with sign -1 and spread over
    the shifted endpoint's cells by its interpolation weights.  Frozen
    cells receive zero.
    """
    if region is None:
        region = u.grid.domain
    kernel = DescentKernel(u.grid, region, eps, rule)
    _, grad = kernel.energy_and_grad(u.values, u.dirichlet_mask)
    return grad


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------


def dirichlet_candidates(prob: DirichletProblem) -> list[tuple[str, SampledField]]:
    """Finite comparison set: the elastic interpolant of the datum plus
    single-crack fields at interior grid planes.

    Along each axis the planes lie at least a quarter of the inner span
    from both inner faces, thinned to every ``max(1, m // 32)``-th of the
    m such planes.

    A crack candidate across the plane ``x_d = c`` releases the datum's
    symmetric strain along axis d on each side, anchoring each side at
    the middle of its padding layer.  Built from the symmetric part only,
    the construction commutes with adding a rigid motion to the datum.
    """
    grid = prob.grid
    frozen = prob.dirichlet_mask
    elastic = prob.sampled_datum()
    out: list[tuple[str, SampledField]] = [("elastic", elastic)]
    A, _ = prob.datum.affine_part()
    S = 0.5 * (A + A.T)
    for d in range(grid.dim):
        span = prob.inner.upper[d] - prob.inner.lower[d]
        lo = prob.inner.lower[d] + _CANDIDATE_MARGIN * span
        hi = prob.inner.upper[d] - _CANDIDATE_MARGIN * span
        k_vals = [
            k
            for k in range(1, grid.shape[d])
            if lo <= grid.domain.lower[d] + k * grid.h <= hi
        ]
        if not k_vals:
            continue
        step = max(1, len(k_vals) // 32)
        anchor_lo = 0.5 * (prob.outer.lower[d] + prob.inner.lower[d])
        anchor_hi = 0.5 * (prob.outer.upper[d] + prob.inner.upper[d])
        for k in k_vals[::step]:
            c = grid.domain.lower[d] + k * grid.h
            values = elastic.values.copy()
            xd = grid.centers[:, d]
            anchor = np.where(xd < c, anchor_lo, anchor_hi)
            release = (xd - anchor)[:, None] * S[:, d][None, :]
            free = ~frozen
            values[free] -= release[free]
            out.append((f"crack[{d}]@{c:.6g}", SampledField(grid, values, frozen)))
    return out


def optimality_gap(u: SampledField, prob: DirichletProblem, rule: DirectionRule) -> float:
    """Energy excess of ``u`` over the best comparison candidate, clamped
    at zero.  A certified bound relative to the candidate set only."""
    kernel = DescentKernel(prob.grid, prob.outer, prob.eps, rule)
    e_u = kernel.energy(u.values)
    e_best = min(kernel.energy(c.values) for _, c in dirichlet_candidates(prob))
    return max(0.0, e_u - e_best)


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------


def _lbfgs_direction(
    grad: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray, float]]
) -> np.ndarray:
    """Two-loop recursion: ``-H grad`` for the inverse-Hessian estimate
    built from the stored ``(s, y, 1/s.y)`` pairs, oldest first, with the
    initial scaling ``s.y / y.y`` of the newest pair."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * float((s * q).sum())
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * float((y * y).sum()))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * float((y * q).sum())
        q += (a - b) * s
    return -q


def _descend(
    kernel: DescentKernel,
    values: np.ndarray,
    frozen: np.ndarray,
    opts: MinimizeOptions,
    trace: DescentTrace,
) -> tuple[np.ndarray, float, str]:
    energy, grad = kernel.energy_and_grad(values, frozen)
    gnorm = float(np.linalg.norm(grad))
    trace.iterates.append(energy)
    trace.grad_norms.append(gnorm)
    trace.step_sizes.append(0.0)
    pairs: deque = deque(maxlen=_HISTORY)
    reason = "max_iter"
    for _ in range(opts.max_iter):
        if gnorm <= opts.gtol:
            reason = "gtol"
            break
        direction = _lbfgs_direction(grad, pairs)
        direction[frozen] = 0.0
        slope = float((grad * direction).sum())
        if not slope < 0.0:
            # not a descent direction: forget the curvature, go downhill
            pairs.clear()
            direction, slope = -grad, -gnorm * gnorm
        # without curvature pairs the first trial moves at most a unit distance
        step = 1.0 if pairs else min(1.0, 1.0 / gnorm)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            trial = values + step * direction
            e_trial, g_trial = kernel.energy_and_grad(trial, frozen)
            if e_trial <= energy + _ARMIJO_C * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            reason = "line_search_failed"
            break
        s = step * direction
        y = g_trial - grad
        sy = float((s * y).sum())
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        values, energy, grad = trial, e_trial, g_trial
        gnorm = float(np.linalg.norm(grad))
        trace.iterates.append(energy)
        trace.grad_norms.append(gnorm)
        trace.step_sizes.append(step)
    return values, energy, reason


def minimize_dirichlet(
    prob: DirichletProblem,
    opts: MinimizeOptions | None = None,
    rule: DirectionRule | None = None,
) -> DescentTrace:
    """L-BFGS descent with Armijo backtracking on the free cells.

    Starts from the sampled datum (optionally perturbed), optionally runs
    an eps-continuation with warm starts, then compares against the
    candidate set and re-descends from the best candidate if it undercuts
    the result.  The trace keeps energies from all phases in order; the
    sequence never increases.
    """
    opts = opts or MinimizeOptions()
    if rule is None:
        rule = build_direction_rule(prob.grid.dim)
    start = prob.sampled_datum()
    values = start.values.copy()
    frozen = start.dirichlet_mask
    if opts.nucleation_amplitude > 0.0:
        rng = np.random.default_rng(opts.seed)
        noise = opts.nucleation_amplitude * rng.uniform(-1, 1, size=values.shape)
        values[~frozen] += noise[~frozen]

    schedule = list(opts.eps_schedule) if opts.eps_schedule else [prob.eps]
    if abs(schedule[-1] - prob.eps) > 1e-12:
        raise InputError("eps schedule must end at the problem's eps")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise InputError("eps schedule must be strictly decreasing")
    schedule[-1] = prob.eps

    trace = DescentTrace()
    for eps in schedule:
        kernel = DescentKernel(prob.grid, prob.outer, eps, rule)
        values, energy, reason = _descend(kernel, values, frozen, opts, trace)

    # the last level's kernel, at prob.eps, scans the candidates and restarts
    best_c = None
    best_e = energy
    for _, cand in dirichlet_candidates(prob):
        e_c = kernel.energy(cand.values)
        if e_c < best_e - 1e-12 * (1 + abs(best_e)):
            best_e = e_c
            best_c = cand
    if best_c is not None:
        trace.restarted = True
        values2, energy2, reason2 = _descend(kernel, best_c.values.copy(), frozen, opts, trace)
        if energy2 <= energy:
            values, energy, reason = values2, energy2, reason2

    trace.final = SampledField(prob.grid, values, frozen)
    trace.converged = reason == "gtol"
    trace.stop_reason = reason
    return trace


def band_opening(u: SampledField, eps: float, axis: int = 0) -> np.ndarray:
    """Per-cell magnitude of the value difference across one eps band.

    The maximum of this profile distinguishes the branches: a uniform
    stretch of size t gives about ``t * eps``, a crack gives the full
    jump amplitude.
    """
    k = max(1, int(round(eps / u.grid.h)))
    vals = u.values.reshape(u.grid.shape + (u.grid.dim,))
    sl_lo = [slice(None)] * u.grid.dim
    sl_hi = [slice(None)] * u.grid.dim
    sl_lo[axis] = slice(0, u.grid.shape[axis] - k)
    sl_hi[axis] = slice(k, u.grid.shape[axis])
    diff = vals[tuple(sl_hi)] - vals[tuple(sl_lo)]
    return np.linalg.norm(diff, axis=-1).reshape(-1)
