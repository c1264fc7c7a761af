"""Experiment orchestration: eps sweeps, extrapolation, inequality audits.

Sweeps evaluate an energy over a descending eps ladder with the grid
spacing locked to eps, Richardson-extrapolate the limit assuming a
first-order error term, and compare against the closed-form limit of the
same field.  The raw smallest-eps value is always reported next to the
extrapolation, so downstream checks never depend on the extrapolation
model alone.

The audit evaluates both sides of four standing inequalities (endpoint
lower bound, translation estimate, multi-step monotonicity, saturation
upper bound) on seeded random fields and reports signed margins.

All CSV output is written with full-precision floats and fixed row
order: identical specs produce bit-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .domain import (
    AnalyticField,
    Affine,
    BoxDomain,
    Grid,
    InputError,
    PlaneJump,
    SumField,
    _dot_rows,
    _is_integer,
    _require_p,
    _require_seed,
    eval_nudged,
    load_problem,
    sample,
)
from .energy import (
    BallStrategy,
    GridCapabilityError,
    averaged_energy,
    ball_supremum_energy,
)
from .limits import (
    _jump_area,
    closed_form_bulk_p1,
    closed_form_surface_p1,
    griffith_energy,
)
from .quad import DirectionRule, _rule_from_blocks, build_direction_rule
from .slicing import (
    Section1D,
    endpoint_lower_bound,
    mumford_shah_1d,
    nonlocal_energy_1d,
)

__all__ = [
    "SweepSpec",
    "ExtrapolationResult",
    "AuditCheck",
    "AuditReport",
    "richardson",
    "griffith_target",
    "run_sweep",
    "audit_inequalities",
    "random_section",
    "random_field",
    "write_csv",
]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepSpec:
    """One eps-sweep: which field, which ladder, which energy."""

    field_config: dict | str
    eps_list: Sequence[float]
    h_over: int = 8
    p: float = 1.0
    strategy: BallStrategy | None = None
    quad: dict = field(default_factory=dict)
    out_path: str | None = None
    sampled: bool = False

    def __post_init__(self):
        eps = list(self.eps_list)
        if not eps:
            raise InputError("eps_list must not be empty")
        if not all(np.isfinite(e) and e > 0 for e in eps):
            raise InputError(f"every eps must be finite and positive, got {eps}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise InputError("eps_list must be strictly decreasing")
        _require_p(self.p)
        if not (np.isfinite(self.h_over) and self.h_over >= 4):
            raise InputError(f"the grid must resolve eps: need a finite h_over >= 4, got {self.h_over}")


@dataclass
class ExtrapolationResult:
    eps_list: list[float]
    values: list[float]
    extrapolated: float
    target: float

    @property
    def relative_error(self) -> float:
        return abs(self.extrapolated - self.target) / (1.0 + abs(self.target))

    @property
    def values_monotone(self) -> bool:
        """Diagnostic only: whether the ladder values are monotone in eps.

        Expected for bulk-dominated fields, but quadrature noise can break
        it, so it is flagged rather than asserted.
        """
        diffs = np.diff(self.values)
        return bool(np.all(diffs >= 0) or np.all(diffs <= 0))


def richardson(eps_list: Sequence[float], values: Sequence[float]) -> float:
    """First-order extrapolation to eps = 0 from the two smallest levels."""
    if len(eps_list) < 2:
        return float(values[-1])
    e1, e2 = eps_list[-2], eps_list[-1]
    v1, v2 = values[-2], values[-1]
    return float((e1 * v2 - e2 * v1) / (e1 - e2))


def griffith_target(
    u: AnalyticField, domain: BoxDomain, p: float, rule: DirectionRule
) -> float:
    """Limit value the sweep should approach.

    For p = 1 the closed forms are exact (Gamma-function constants); for
    p > 1 the rule-based densities are used.
    """
    if p == 1.0:
        A, _ = u.affine_part()
        bulk = closed_form_bulk_p1(A) * domain.volume
        return bulk + closed_form_surface_p1(domain.dim) * _jump_area(u, domain)
    return griffith_energy(u, domain, p, rule).total


def run_sweep(spec: SweepSpec) -> ExtrapolationResult:
    """Evaluate the energy along the eps ladder and extrapolate.

    Raises a grid-capability error with a diagnostic if any ladder level
    cannot be tiled at the requested spacing.
    """
    domain, field_, quad_cfg = load_problem(spec.field_config)
    rule = _rule_from_blocks(domain.dim, quad_cfg, spec.quad)
    values = []
    for eps in spec.eps_list:
        h = eps / spec.h_over
        try:
            grid = Grid(domain, h)
        except InputError as err:
            raise GridCapabilityError(
                f"eps={eps} with h=eps/{spec.h_over} cannot tile the domain: {err}"
            ) from None
        u = sample(field_, grid) if spec.sampled else field_
        if spec.strategy is None:
            value = averaged_energy(u, domain, eps, rule, grid=grid).total
        else:
            value = ball_supremum_energy(
                u, domain, eps, spec.p, spec.strategy, rule, grid=grid
            ).total
        values.append(value)
    target = griffith_target(field_, domain, spec.p, rule)
    extrapolated = richardson(list(spec.eps_list), values)
    result = ExtrapolationResult(
        eps_list=list(spec.eps_list),
        values=values,
        extrapolated=extrapolated,
        target=target,
    )
    if spec.out_path:
        rows = [
            {
                "eps": eps,
                "h": eps / spec.h_over,
                "p": spec.p,
                "value": value,
                "extrapolated": result.extrapolated,
                "target": result.target,
                "relative_error": result.relative_error,
            }
            for eps, value in zip(result.eps_list, result.values)
        ]
        write_csv(spec.out_path, rows)
    return result


# ---------------------------------------------------------------------------
# randomized fields
# ---------------------------------------------------------------------------


def random_section(rng: np.random.Generator, n_pieces: int = 4) -> Section1D:
    """Seeded piecewise-affine section on (0, 1) with separated breakpoints."""
    while True:
        knots = np.sort(rng.uniform(0.0, 1.0, size=n_pieces - 1))
        knots = np.concatenate([[0.0], knots, [1.0]])
        if np.all(np.diff(knots) >= 0.03):
            break
    slopes = rng.uniform(-3.0, 3.0, size=n_pieces)
    left_values = np.empty(n_pieces)
    left_values[0] = rng.normal()
    for i in range(1, n_pieces):
        prev_end = left_values[i - 1] + slopes[i - 1] * (knots[i] - knots[i - 1])
        left_values[i] = prev_end + rng.uniform(-3.0, 3.0)
    return Section1D.piecewise(knots, left_values, slopes)


def random_field(rng: np.random.Generator, dim: int) -> AnalyticField:
    """Seeded affine-plus-jumps field on the unit box."""
    A = rng.uniform(-2.0, 2.0, size=(dim, dim))
    parts: list[AnalyticField] = [Affine(A, rng.normal(size=dim))]
    for _ in range(int(rng.integers(1, 3))):
        nu = rng.normal(size=dim)
        nu = nu / np.linalg.norm(nu)
        amp = rng.uniform(-3.0, 3.0, size=dim)
        parts.append(PlaneJump(nu, float(rng.uniform(0.35, 0.65)), np.zeros(dim), amp))
    return SumField(tuple(parts))


def _reference_field(dim: int) -> AnalyticField:
    """Envelope field (maximal generator slopes and jumps) used to calibrate
    the translation-estimate constant once; the audit reuses it."""
    A = 2.0 * np.eye(dim)
    nu = np.ones(dim) / np.sqrt(dim)
    amp = 3.0 * np.ones(dim)
    return SumField((Affine(A, np.zeros(dim)), PlaneJump(nu, 0.5, np.zeros(dim), amp)))


# ---------------------------------------------------------------------------
# inequality audit
# ---------------------------------------------------------------------------


@dataclass
class AuditCheck:
    name: str
    field_id: str
    params: str
    lhs: float
    rhs: float
    margin: float

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


@dataclass
class AuditReport:
    checks: list[AuditCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_rows(self) -> list[dict]:
        return [
            {
                "name": c.name,
                "field": c.field_id,
                "params": c.params,
                "lhs": c.lhs,
                "rhs": c.rhs,
                "margin": c.margin,
                "passed": int(c.passed),
            }
            for c in self.checks
        ]


def _translation_discrepancy(
    u: AnalyticField, E: BoxDomain, delta: float, xis: np.ndarray, grid: Grid
) -> list[float]:
    """Cell sums over E of |arctan(u(x + delta xi) . xi) - arctan(u(x) . xi)|,
    one per row of ``xis``: ``u`` is evaluated at E's centers once, and at
    each direction's shifted centers in a call of their own."""
    pts = grid.centers[E.contains(grid.centers)]
    nudge = grid.h / 7.0
    here = eval_nudged(u, pts, nudge)
    sums = []
    for xi in xis:
        there = eval_nudged(u, pts + delta * xi, nudge)
        lhs = np.abs(np.arctan(_dot_rows(there, xi)) - np.arctan(_dot_rows(here, xi)))
        sums.append(float(grid.cell_volume * np.sum(lhs)))
    return sums


def audit_inequalities(
    seed: int = 0,
    n_fields: int = 10,
    out_path: str | None = None,
) -> AuditReport:
    """Evaluate both sides of the four standing inequalities on seeded
    random fields; a negative margin anywhere fails the report.

    Tolerances are quadrature budgets, stated per check: the endpoint
    bound is a small-eps statement audited at eps = 1e-3 with an O(eps)
    allowance; the multi-step comparison allows 1% of the right side; the
    other two hold with an O(1e-9) roundoff allowance only.

    The translation estimate's constant is calibrated on one envelope
    field per dimension.  Both it and the checks take each (field, shift)
    once: one ``averaged_energy`` call with every direction as a node of
    weight 1 gives each direction's energy, and one
    ``_translation_discrepancy`` call evaluates the field at E's centers.
    """
    _require_seed(seed)
    if not (_is_integer(n_fields) and n_fields >= 2):
        raise InputError(
            f"n_fields must be at least 2 (the last two fields are 2D) and an integer, got {n_fields!r}"
        )
    rng = np.random.default_rng(seed)
    checks: list[AuditCheck] = []

    sections = [random_section(rng) for _ in range(n_fields)]
    # alternate dimensions for the vector-field checks, mostly 1D for speed
    dims = [1] * (n_fields - 2) + [2, 2]
    fields = [random_field(rng, d) for d in dims]

    # --- endpoint lower bound (small-eps audit) ---
    eps_lb = 1e-3
    for fid, v in enumerate(sections):
        a, b = 0.0113, 0.9719
        bound = endpoint_lower_bound(v, a, b)
        val = nonlocal_energy_1d(v, (a, b), eps_lb)
        tol = 0.02 * (1.0 + bound) + 5.0 * eps_lb * (1.0 + 9.0)
        checks.append(
            AuditCheck(
                name="endpoint-lower-bound",
                field_id=f"section-{fid:02d}",
                params=f"eps={eps_lb}",
                lhs=val,
                rhs=bound,
                margin=val - (bound - tol),
            )
        )

    # --- saturation upper bound ---
    for fid, v in enumerate(sections):
        for eps in (0.1, 0.01):
            lhs = nonlocal_energy_1d(v, (0.0, 1.0 - eps), eps)
            rhs = 0.5 * np.pi * mumford_shah_1d(v, (0.0, 1.0), 2.0 / np.pi)
            checks.append(
                AuditCheck(
                    name="saturation-upper-bound",
                    field_id=f"section-{fid:02d}",
                    params=f"eps={eps}",
                    lhs=lhs,
                    rhs=rhs,
                    margin=rhs - lhs + 1e-9 * (1.0 + rhs),
                )
            )

    # --- translation estimate, constant calibrated once per dimension ---
    deltas = (0.05, 0.1)
    dirs_by_dim = {
        1: [np.array([1.0]), np.array([-0.7])],
        2: [np.array([1.0, 0.0]), np.array([0.6, -0.8]), np.array([-0.5, 0.5])],
    }
    c_ref: dict[int, float] = {}
    grids: dict[tuple[int, float], Grid] = {}

    def _grid_for(dim: int, delta: float) -> Grid:
        key = (dim, delta)
        if key not in grids:
            box = BoxDomain(np.zeros(dim), np.ones(dim))
            grids[key] = Grid(box, delta / 8.0)
        return grids[key]

    def _sides(u: AnalyticField, dim: int, delta: float) -> list[tuple[float, float]]:
        # every direction's F_dir is its directional_energy bit for bit
        E = BoxDomain(np.full(dim, 0.15), np.full(dim, 0.85))
        grid = _grid_for(dim, delta)
        xis = np.array(dirs_by_dim[dim])
        rule = DirectionRule(dim, xis, np.ones(len(xis)), float(np.max(np.linalg.norm(xis, axis=1))), 0, 0)
        f_dir = averaged_energy(u, E, delta, rule, grid=grid).per_direction
        lhs = _translation_discrepancy(u, E, delta, xis, grid)
        return [(lhs[i], delta * (1.0 + f_dir[i])) for i in range(len(xis))]

    for dim in sorted(set(dims)):
        ratios = [lhs / base for delta in deltas for lhs, base in _sides(_reference_field(dim), dim, delta)]
        c_ref[dim] = 2.0 * max(ratios)

    for fid, (dim, u) in enumerate(zip(dims, fields)):
        for delta in deltas:
            for xi, (lhs, base) in zip(dirs_by_dim[dim], _sides(u, dim, delta)):
                rhs = c_ref[dim] * base
                checks.append(
                    AuditCheck(
                        name="translation-estimate",
                        field_id=f"field-{fid:02d}",
                        params=f"dim={dim} delta={delta} xi={np.array2string(xi)}",
                        lhs=lhs,
                        rhs=rhs,
                        margin=rhs - lhs,
                    )
                )

    # --- multi-step monotonicity ---
    # Gaussian-weighted sums over the nodes with |xi| <= cap: both sides use
    # the same nodes and weights, so any positive weighting preserves the
    # comparison, and no node leaves a difference body (half-widths >= 4)
    radius_cap = 2.0
    capped: dict[int, DirectionRule] = {}
    for dim in sorted(set(dims)):
        rule = build_direction_rule(dim, radial_order=6, angular_order=16)
        near = [float(np.linalg.norm(xi)) <= radius_cap for xi in rule.nodes]
        capped[dim] = DirectionRule(
            dim, rule.nodes[near], rule.weights[near], radius_cap, rule.radial_order, rule.angular_order
        )
    for fid, (dim, u) in enumerate(zip(dims, fields)):
        box = BoxDomain(np.zeros(dim), np.ones(dim))
        E = BoxDomain(np.full(dim, 0.3), np.full(dim, 0.7))
        eps = 0.01 if dim == 1 else 0.02
        grid = Grid(box, eps / 8.0 if dim == 1 else eps / 4.0)
        rhs = averaged_energy(u, box, eps, capped[dim], grid=grid).total
        for m in (2, 3, 5):
            # every shifted copy of E must stay inside the box
            assert m * eps * radius_cap < 0.3
            lhs = averaged_energy(u, E, m * eps, capped[dim], grid=grid).total
            checks.append(
                AuditCheck(
                    name="m-step-monotonicity",
                    field_id=f"field-{fid:02d}",
                    params=f"dim={dim} eps={eps} m={m}",
                    lhs=lhs,
                    rhs=rhs,
                    margin=rhs - lhs + 0.01 * rhs,
                )
            )

    report = AuditReport(checks)
    if out_path:
        write_csv(out_path, report.to_rows())
    return report


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def write_csv(path: str, rows: list[dict]) -> None:
    """Write rows with repr-precision floats; field order is the first
    row's key order, so identical inputs give bit-identical files."""
    if not rows:
        raise InputError("refusing to write an empty CSV")
    fieldnames = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {k: (repr(float(v)) if isinstance(v, float) else v) for k, v in row.items()}
            )
