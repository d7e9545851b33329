"""Steadiness self-check: run workloads repeatedly, each run on another
seed, and print each end-to-end metric's spread against its bound.

    python3 perfbench/steady.py --runs 10 [--workloads query ...] [--sets 2]

The spread is (Q3 - Q1) / median over the runs' values, quartiles as
``statistics.quantiles(values, n=4)`` gives them.  A spread within a
third of its bound reads ``ok``, within the bound ``marginal``, beyond it
``NOISY``, a failure for every metric, ``setup_s`` included.  With
``--sets 2`` the two sets' medians must also agree within the bound, in
either direction.  ``--traced`` also makes one traced
run per workload and prints the design checks of WORKLOADS.md.
Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import common

RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        timeout=900,
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output: {lines[-2]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def design_checks(workload: str, layers: Dict[str, float]) -> List[str]:
    """The traced run's confirmations of the workload design (text lines,
    'FAIL' marking a miss)."""
    checks = [("named spans cover >= 95% of the traced wall", layers["trace.coverage"] >= 0.95)]
    share = layers["trace.seal_share"]
    if workload == "save-churn":
        checks.append((f"transfers.seal is >= half of wall ({share:.2f})", share >= 0.5))
    elif workload == "stream-dense":
        checks.append((f"transfers.seal is < a fifth of wall ({share:.2f})", share < 0.2))
    else:
        checks.append((
            "the server runs no campaign round and validates no zone content",
            layers["transfers.contents"] == 0 and layers["vantage.rounds"] == 0,
        ))
    return [f"  {'ok  ' if ok else 'FAIL'} {text}" for text, ok in checks]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(common.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()

    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        sets: List[Dict[str, List[float]]] = []
        for s in range(args.sets):
            values: Dict[str, List[float]] = {name: [] for name in bounds}
            for r in range(args.runs):
                seed = args.first_seed + s * args.runs + r
                metrics = one_run(workload, seed, spec["run_seconds"], 0)
                for name in bounds:
                    values[name].append(metrics[name])
                print(f"{workload} seed {seed}: "
                      + " ".join(f"{n}={metrics[n]:.4g}" for n in bounds), flush=True)
            sets.append(values)
        print(f"== {workload}")
        for name, bound in bounds.items():
            line = f"  {name:<14s}"
            for values in sets:
                spread = common.iqr_share(values[name])
                verdict = ("ok" if spread <= bound / 3
                           else "marginal" if spread <= bound else "NOISY")
                ok &= verdict != "NOISY"
                line += (f" median {statistics.median(values[name]):.5g}"
                         f" spread {spread:6.1%} (bound {bound:.0%}) {verdict}")
            if len(sets) == 2:
                first, second = (statistics.median(v[name]) for v in sets)
                agree = abs(second / first - 1) <= bound
                ok &= agree
                line += f" shift {second / first - 1:+.1%} {'ok' if agree else 'FAIL'}"
            print(line, flush=True)
        if args.traced:
            layers = one_run(workload, args.first_seed, spec["run_seconds"], 1)
            lines = design_checks(workload, layers)
            ok &= not any("FAIL" in line for line in lines)
            print("\n".join(lines), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
