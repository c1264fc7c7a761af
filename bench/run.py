"""Run one workload of the nlgriffith benchmark and print its metrics.

    python3 bench/run.py --workload sweep-2d --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, and nothing needs to be installed.  The
workload runs as a closed loop in this one process: the next task starts
when the previous one has returned and been checked, until the next task
would end past ``--seconds`` (some workloads need two tasks to compare
their CSV output).

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median wall
time of the tasks that passed their checks; ``setup_s``, importing
``nlgriffith`` plus the median time to build the workload's inputs; and
``peak_rss_mb``, the process's resident-memory high-water mark.
``--trace 1`` runs the same loop, then sets up and runs one more task
with every public layer function wrapped (see ``tracing.py``), and
reports the per-layer metrics of that traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record,
with the machine block and, when traced, the spans, goes to
``.bench_out/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("sweep-2d", "bar-fracture", "audit", "balls-2d")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_library() -> float:
    """Import nlgriffith from this checkout's ``src`` and return the time."""
    src = ROOT / "src"
    if not (src / "nlgriffith" / "__init__.py").is_file():
        raise SystemExit(f"error: no nlgriffith sources at {src / 'nlgriffith'}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import nlgriffith

    elapsed = time.perf_counter() - t0
    if Path(nlgriffith.__file__).resolve().parent != (src / "nlgriffith").resolve():
        raise SystemExit(f"error: imported nlgriffith from {nlgriffith.__file__}, not {src}")
    return elapsed


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
            out[f"L{fields['level']}{kind}"] = fields["size"]
    except OSError:
        return {"unknown": "cache sizes are not readable"}
    return out


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}; {blas.get('openblas configuration', '')}"
    except (AttributeError, KeyError, TypeError):
        blas_text = "unknown"
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text.strip(),
        "blas_threads": {v: os.environ.get(v, "unset (library default)") for v in thread_vars},
        "caches": _caches(),
        "platform": platform.platform(),
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def checked(wl, run, output, first_csv: bytes | None) -> tuple[list[str], bytes | None]:
    """The task's failed checks, and the CSV it wrote (None if none)."""
    path = wl.csv_path(run)
    csv_bytes = None
    if path is not None:
        with open(path, "rb") as fh:
            csv_bytes = fh.read()
    failures = wl.check(run, output, csv_bytes)
    if first_csv is not None and csv_bytes != first_csv:
        failures.append(f"{os.path.basename(path)} differs from the first task's")
    return failures, csv_bytes


def run_loop(wl, run, seconds: float) -> tuple[list[dict], bytes | None]:
    """Closed loop of checked tasks; returns the task records and the first
    task's CSV, the reference for every later task."""
    tasks: list[dict] = []
    first_csv = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            output = wl.task(run)
            wall = time.perf_counter() - t0
            failures, csv_bytes = checked(wl, run, output, first_csv)
            first_csv = csv_bytes if first_csv is None else first_csv
        except Exception:
            wall = time.perf_counter() - t0
            failures = ["raised: " + traceback.format_exc()]
        tasks.append({"wall_s": wall, "failures": failures})
        print(f"task {len(tasks)}: {wall:.3f} s {'ok' if not failures else 'FAILED'}", flush=True)
        for failure in failures:
            print(f"  check failed: {failure}", flush=True)
        elapsed = time.perf_counter() - start
        typical = _median([t["wall_s"] for t in tasks])
        if len(tasks) >= wl.min_tasks and elapsed + typical > seconds:
            return tasks, first_csv


def traced_pass(wl, seed: int, out_dir: str, first_csv: bytes | None):
    """Set up and run one task with the tracer installed."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install(sys.modules[type(wl).__module__])
    try:
        with tracer.span("setup", "bench"):
            run = wl.setup(seed, out_dir)
        t0 = time.perf_counter()
        with tracer.span("task", "bench"):
            output = wl.task(run)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    failures, _ = checked(wl, run, output, first_csv)
    return tracer, run, output, wall, failures


def layer_metrics(tracer, wl, run, output, traced_wall: float, untraced_wall: float):
    """Per-layer metrics of the traced pass, plus count-check failures."""
    import geometry
    from tracing import GEOMETRY_CALLS, TARGETS

    T = tracer
    metrics: dict[str, dict] = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    # interacting pairs, counted from the recorded call geometry
    kept = pairs = 0
    kept_levels, pair_levels = [], []
    kernel_pairs = {}
    for name, args in T.calls:
        if name == "DescentKernel.__init__":
            kernel_pairs[id(args["self"])] = geometry.kernel_pairs(
                args["region"], args["grid"], args["eps"], args["rule"]
            )
            continue
        k, p = geometry.energy_call_counts(name, args)
        kept += k
        pairs += p
        kept_levels.append(k)
        pair_levels.append(p)
    failures = wl.check_counts(kept_levels, pair_levels)

    put("quad.rule_s", T.inclusive_s("build_direction_rule", "build_sphere_rule"), "s")
    put("quad.nodes_kept", kept, "count")

    put("domain.grid_s", T.inclusive_s("Grid.__init__"), "s")
    put("domain.grid_cells", T.info_sum("Grid.__init__"), "count")
    put("domain.eval_s", T.inclusive_s("eval_nudged", "sample"), "s")
    put("domain.eval_points", T.info_sum("eval_nudged"), "count")
    put("domain.nudges", T.nudges, "count")
    put("domain.contains_s", T.inclusive_s("BoxDomain.contains", "Ball.contains"), "s")
    put("domain.contains_points", T.info_sum("BoxDomain.contains", "Ball.contains"), "count")
    put("domain.interp_s", T.inclusive_s("SampledField.eval_many", "Grid.interp_weights"), "s")
    put("domain.interp_points", T.info_sum("Grid.interp_weights"), "count")

    for short in ("averaged", "directional", "family"):
        put(f"energy.{short}_s", T.inclusive_s(f"{short}_energy"), "s")
        put(f"energy.{short}_calls", T.count(f"{short}_energy"), "count")
    energy_s = T.inclusive_s(*(n for n in GEOMETRY_CALLS if n.endswith("_energy")))
    put("energy.pairs", pairs, "count")
    put("energy.ns_per_pair", 1e9 * energy_s / pairs if pairs else 0.0, "ns")

    put(
        "slicing.measure_s",
        T.inclusive_s("directional_slice_measure", "averaged_jump_measure", "ball_sup_slice_measure"),
        "s",
    )
    put("slicing.sections", T.count("section"), "count")
    put("slicing.section_s", T.inclusive_s("section"), "s")
    put("slicing.energy_1d_s", T.inclusive_s("nonlocal_energy_1d"), "s")
    put("slicing.energy_1d_calls", T.count("nonlocal_energy_1d"), "count")

    put("limits.s", T.inclusive_s(*TARGETS["limits"]), "s")

    facts = wl.facts(run, output)
    evals = [s for s in T.spans if s[0] == "DescentKernel.energy_and_grad"]
    eval_s = T.inclusive_s("DescentKernel.energy_and_grad")
    visited = sum(kernel_pairs[id(s[5])] for s in evals)
    trials = len(evals) - facts.get("descents", 0)
    put("minimize.kernel_s", T.inclusive_s("DescentKernel.__init__"), "s")
    put("minimize.kernels", T.count("DescentKernel.__init__"), "count")
    put("minimize.eval_s", eval_s, "s")
    put("minimize.evals", len(evals), "count")
    put("minimize.pairs_per_eval", visited / len(evals) if evals else 0.0, "count")
    put("minimize.ns_per_pair_eval", 1e9 * eval_s / visited if visited else 0.0, "ns")
    put("minimize.iterations", facts.get("iterations", 0), "count")
    put("minimize.accept_ratio", facts.get("accepted", 0) / trials if trials > 0 else 0.0, "ratio")
    put("minimize.candidates", T.info_sum("dirichlet_candidates"), "count")
    put("minimize.candidate_s", T.inclusive_s("dirichlet_candidates", "DescentKernel.energy"), "s")
    put("minimize.restarts", facts.get("restarts", 0), "count")
    put("minimize.final_grad_norm", facts.get("final_grad_norm", 0.0), "norm")
    put("minimize.converged", facts.get("converged", 0), "flag")

    put("harness.sweep_s", T.self_s("run_sweep"), "s")
    put("harness.audit_s", T.self_s("audit_inequalities"), "s")
    put("harness.csv_s", T.inclusive_s("write_csv"), "s")
    put("harness.csv_bytes", T.info_sum("write_csv"), "B")
    put("harness.audit_checks", facts.get("audit_checks", 0), "count")
    put("harness.audit_failed", facts.get("audit_failed", 0), "count")

    put("cli.s", T.self_s("main"), "s")

    for layer, seconds in T.layer_self_s().items():
        put(f"{layer}.self_s", seconds, "s")
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("trace.spans", len(T.spans), "count")
    return metrics, facts, failures


def main(argv=None) -> int:
    args = _parse(argv)
    import_s = _import_library()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)

    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        run = wl.setup(args.seed, str(out_dir))
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)

    record_machine = machine()
    print("machine " + json.dumps(record_machine), flush=True)
    tasks, first_csv = run_loop(wl, run, args.seconds)
    passed = [t["wall_s"] for t in tasks if not t["failures"]]
    wall_s = _median(passed or [t["wall_s"] for t in tasks])
    attempted, failed = len(tasks), sum(1 for t in tasks if t["failures"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": record_machine,
        "import_s": import_s,
        "setup_builds_s": builds,
        "tasks": tasks,
    }

    if args.trace:
        tracer, trun, toutput, twall, tfailures = traced_pass(wl, args.seed, str(out_dir), first_csv)
        metrics, facts, count_failures = layer_metrics(tracer, wl, trun, toutput, twall, wall_s)
        tfailures += count_failures
        attempted += 1
        failed += bool(tfailures)
        tracer.dump(str(out_dir / "spans.jsonl"))
        print(f"traced task: {twall:.3f} s {'ok' if not tfailures else 'FAILED'}")
        for failure in tfailures:
            print(f"  check failed: {failure}")
        print("layer     self_s  share of traced setup+task")
        total = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracer.layer_self_s())
        for layer in tracer.layer_self_s():
            value = metrics[f"{layer}.self_s"]["value"]
            print(f"{layer:<9} {value:8.3f}  {100 * value / total:5.1f}%")
        if facts.get("stop_reason"):
            print(f"minimize stop reason: {facts['stop_reason']}")
        for line in facts.get("audit_failures", []):
            print(f"audit verdict: failed {line}")
        record["traced_failures"] = tfailures
        record["facts"] = facts
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    with open(out_dir / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
