"""Run every workload, each in its own process, and print a summary table.

    python3 bench/run_all.py --seed 0 --seconds 20            # end-to-end metrics
    python3 bench/run_all.py --seed 0 --seconds 20 --trace 1  # per-module self time

The workloads run one after the other, so each process reports its own
import time and peak memory.  With ``--trace 1`` the table gives each
module's share of the traced pass's self time and the tracing overhead.
Exits with 1 if any workload fails a check or does not finish.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
MODULES = LAYERS + ("bench",)
ECHO = ("task", "traced task", "  check failed", "audit verdict", "minimize stop reason")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ok = True
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]  # fmt: skip
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        for line in lines:
            if line.startswith(ECHO):
                print(line)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        results[name] = result = json.loads(lines[-1])
        ok &= result["correct"]

    print()
    if args.trace:
        print("| workload | traced wall s | overhead s | " + " | ".join(MODULES) + " |")
        print("|---" * (len(MODULES) + 3) + "|")
        for name, result in results.items():
            m = {k: v["value"] for k, v in result["metrics"].items()}
            total = sum(m[f"{mod}.self_s"] for mod in MODULES)
            shares = " | ".join(f"{100 * m[f'{mod}.self_s'] / total:.1f}%" for mod in MODULES)
            print(f"| {name} | {m['trace.wall_s']:.2f} | {m['trace.overhead_s']:+.2f} | {shares} |")
    else:
        print("| workload | wall_s (s) | setup_s (s) | peak_rss_mb (MB) | attempted | failed |")
        print("|---|---|---|---|---|---|")
        for name, result in results.items():
            m = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"| {name} | {m['wall_s']:.3f} | {m['setup_s']:.3f} | {m['peak_rss_mb']:.1f} "
                  f"| {result['attempted']} | {result['failed']} |")  # fmt: skip
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
