"""Command-line front end.

Subcommands
-----------
energy         evaluate the direction-averaged or ball-supremum energy once
p1-explore     per-direction slice measures and their aggregates per ball
density-table  bulk densities and surface constants, both conventions
minimize       descend the 1D bar problem and write the trace and field
gamma-study    eps sweep with Richardson extrapolation against the limit
audit          evaluate the four standing inequalities; exit 0 iff all pass

All outputs are CSV with full-precision floats; identical configurations
produce bit-identical files (the one exception is the wall-time column of
``energy``, which is informational).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

import numpy as np

from .domain import Grid, InputError, _require_keys, _require_p, _require_seed, load_problem, sample
from .energy import (
    BallStrategy,
    averaged_energy,
    ball_candidates,
    ball_supremum_energy,
)
from .harness import SweepSpec, audit_inequalities, run_sweep, write_csv
from .limits import CONVENTIONS, bulk_density, surface_constant
from .minimize import DirichletProblem, MinimizeOptions, minimize_dirichlet
from .quad import _SPHERE_LEAST_ORDER, _rule_from_blocks, build_direction_rule, build_sphere_rule
from .slicing import _slice_search

__all__ = ["main"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_energy(args) -> int:
    # the averaged energy takes no p, but the CSV row records it
    _require_p(args.p)
    domain, field_, quad_cfg = load_problem(args.field)
    rule = _rule_from_blocks(domain.dim, quad_cfg)
    grid = Grid(domain, args.h)
    u = sample(field_, grid) if args.sampled else field_
    t0 = time.perf_counter()
    if args.strategy:
        report = ball_supremum_energy(u, domain, args.eps, args.p, BallStrategy.parse(args.strategy), rule, grid=grid)
        n_balls = len(report.family) if report.family else 0
    else:
        report = averaged_energy(u, domain, args.eps, rule, grid=grid)
        n_balls = 0
    wall_ms = 1000.0 * (time.perf_counter() - t0)
    row = {
        "eps": args.eps,
        "p": args.p,
        "h": args.h,
        "strategy": args.strategy or "none",
        "total": report.total,
        "n_balls": n_balls,
        "n_directions": rule.n_nodes,
        "wall_ms": wall_ms,
    }
    write_csv(args.out, [row])
    print(f"total={float(report.total)!r} ({args.out})")
    return 0


def _cmd_p1_explore(args) -> int:
    domain, field_, _ = load_problem(args.field)
    least = _SPHERE_LEAST_ORDER.get(domain.dim, 1)
    if args.angular < least:
        raise InputError(f"angular must be at least {least} in dimension {domain.dim}, got {args.angular}")
    sphere = build_sphere_rule(domain.dim, args.angular)
    families = ball_candidates(domain, BallStrategy.parse(args.strategy))
    tables, (results, best) = _slice_search(field_, families, args.p, sphere)
    norms = results[-1][1]
    rows = []
    for bi, (measures, jump) in enumerate(tables[-1]):
        i_u1 = float(sphere[1] @ jump)  # averaged_jump_measure of the ball, from the search's jump part
        for k, mu_xi in enumerate(measures.tolist()):
            rows.append({"ball_index": bi, "xi_index": k, "mu_xi": mu_xi, "mu_hat_p_ball": norms[bi], "i_u1": i_u1})
    write_csv(args.out, rows)
    print(f"{len(rows)} rows ({args.out}); family supremum lower bound {float(results[best][0])!r}")
    return 0


def _cmd_density_table(args) -> int:
    _require_seed(args.seed)
    if args.n_matrices < 1:
        raise InputError(f"n-matrices must be at least 1, got {args.n_matrices}")
    rng = np.random.default_rng(args.seed)
    rule = build_direction_rule(args.dim, angular_order=32)
    rows = []
    mats = [np.eye(args.dim)]
    for _ in range(args.n_matrices - 1):
        A = rng.normal(size=(args.dim, args.dim))
        mats.append(0.5 * (A + A.T))
    for mi, A in enumerate(mats):
        for p in args.p_list:
            for convention in CONVENTIONS:
                rows.append(
                    {
                        "matrix_id": mi,
                        "dim": args.dim,
                        "p": p,
                        "convention": convention,
                        "phi": bulk_density(A, p, rule, convention),
                        "beta": surface_constant(p, args.dim, rule, convention),
                    }
                )
    write_csv(args.out, rows)
    print(f"{len(rows)} rows ({args.out})")
    return 0


def _cmd_minimize(args) -> int:
    prob = DirichletProblem.bar(args.load, args.eps, args.h)
    if args.continuation < 0:
        raise InputError(f"continuation must be at least 0, got {args.continuation}")
    schedule = None
    if args.continuation > 0:
        schedule = [args.eps * 2**k for k in range(args.continuation, -1, -1)]
    opts = MinimizeOptions(
        max_iter=args.max_iter,
        eps_schedule=schedule,
        nucleation_amplitude=args.nucleation,
        seed=args.seed,
    )
    trace = minimize_dirichlet(prob, opts)
    steps = zip(trace.iterates, trace.grad_norms, trace.step_sizes)
    rows = [{"iter": i, "energy": e, "grad_norm": g, "step_size": s} for i, (e, g, s) in enumerate(steps)]
    write_csv(args.out, rows)
    field_rows = []
    for idx in range(prob.grid.n_cells):
        row = {"cell": idx}
        for d in range(prob.grid.dim):
            row[f"x{d}"] = float(prob.grid.centers[idx, d])
        for d in range(prob.grid.dim):
            row[f"u{d}"] = float(trace.final.values[idx, d])
        field_rows.append(row)
    write_csv(args.field_out, field_rows)
    print(
        f"energy={float(trace.iterates[-1])!r} stop={trace.stop_reason} "
        f"restarted={trace.restarted} ({args.out}, {args.field_out})"
    )
    return 0


def _pop_out_path(doc: dict):
    """Pop the spec's output path, keyed ``out`` (the CLI name) or ``out_path``."""
    if not isinstance(doc, dict):
        raise InputError(f"the spec must be a JSON object, got {doc!r}")
    if "out" in doc and "out_path" in doc:
        raise InputError("the spec gives both 'out' and 'out_path'; give one")
    return doc.pop("out", doc.pop("out_path", None))


def _cmd_gamma_study(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out_path, strategy = _pop_out_path(doc), doc.pop("strategy", None)
    _require_keys("spec", doc, SweepSpec, given=("strategy", "out_path"))
    spec = SweepSpec(
        **doc,
        strategy=BallStrategy.parse(strategy) if strategy else None,
        out_path=out_path,
    )
    res = run_sweep(spec)
    print(
        f"extrapolated={float(res.extrapolated)!r} target={float(res.target)!r} "
        f"relative_error={float(res.relative_error)!r} "
        f"monotone_in_eps={res.values_monotone}"
    )
    return 0


def _cmd_audit(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    out_path = _pop_out_path(doc)
    _require_keys("spec", doc, audit_inequalities, given=("out_path",))
    report = audit_inequalities(**doc, out_path=out_path)
    by_name: dict[str, list] = {}
    for c in report.checks:
        by_name.setdefault(c.name, []).append(c)
    for name, checks in by_name.items():
        worst = min(c.margin for c in checks)
        status = "PASS" if all(c.passed for c in checks) else "FAIL"
        print(f"{status} {name}: {len(checks)} checks, worst margin {worst:.3e}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nlgriffith", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="evaluate one energy")
    p.add_argument("--field", required=True, help="domain/field JSON document")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--strategy", default="", help="dyadic:L or greedy:K (empty: averaged)")
    p.add_argument("--sampled", action="store_true", help="sample the field first")
    p.add_argument("--out", default="report.csv")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("p1-explore", help="slice measures per direction and ball")
    p.add_argument("--field", required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--strategy", default="dyadic:1")
    p.add_argument("--angular", type=int, default=16)
    p.add_argument("--resolution", type=float, default=0.01, help="ignored: slice measures are exact (Cauchy-Crofton)")
    p.add_argument("--out", default="p1_explore.csv")
    p.set_defaults(func=_cmd_p1_explore)

    p = sub.add_parser("density-table", help="bulk/surface densities, both conventions")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--p-list", type=float, nargs="+", default=[1.0, 1.5, 2.0])
    p.add_argument("--n-matrices", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="densities.csv")
    p.set_defaults(func=_cmd_density_table)

    p = sub.add_parser("minimize", help="descend the 1D bar problem")
    p.add_argument("--load", type=float, required=True)
    p.add_argument("--eps", type=float, default=0.02)
    p.add_argument("--h", type=float, default=0.0025)
    p.add_argument("--continuation", type=int, default=0, help="halving levels above eps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nucleation", type=float, default=0.0)
    p.add_argument("--max-iter", type=int, default=600)
    p.add_argument("--out", default="trace.csv")
    p.add_argument("--field-out", default="final_field.csv")
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("gamma-study", help="eps sweep vs the limiting energy")
    p.add_argument("--spec", required=True, help="sweep JSON document")
    p.set_defaults(func=_cmd_gamma_study)

    p = sub.add_parser("audit", help="inequality audit; exit 0 iff all pass")
    p.add_argument("--spec", required=True, help="audit JSON document")
    p.set_defaults(func=_cmd_audit)

    for p in sub.choices.values():
        p.set_defaults(error=p.error)
    return parser


def main(argv=None) -> int:
    """Run one subcommand.  An input that a check of the library refuses
    (an ``InputError``) ends as a usage error of that subcommand: its usage
    line and the message on standard error, exit status 2.  Any other
    error keeps its traceback.  argparse takes a word that starts with '-'
    for an option unless it is a plain decimal, so a signed value such as
    -inf or -1e3 is joined to the option before it (``--load=-inf``)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    signed = re.compile(r"-(inf(inity)?|nan|(\d+\.?\d*|\.\d+)(e[+-]?\d+)?)", re.IGNORECASE)
    for i in reversed(range(1, len(argv))):
        if argv[i - 1].startswith("--") and "=" not in argv[i - 1] and signed.fullmatch(argv[i]):
            argv[i - 1 : i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        args.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
