#!/usr/bin/env python3
"""Steadiness report: run one workload over several seeds, print spreads.

Usage (from the root of a checkout)::

    python3 servebench/steady.py --workload fleet-trickle --seeds 1 2 3 4 5

For every end-to-end metric it prints the median of the runs and the
spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from ``BENCHMARK.json``. A spread at or above a
third of the bound is marked; ``setup_s`` is exempt from the bound but
shown. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    seconds = args.seconds or contract["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "servebench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            print(lines[-2] if len(lines) > 1 else "")
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)
    worst = 0.0
    for metric in contract["end_to_end"]:
        series = values[metric["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = "" if spread < metric["bound"] / 3 else "  <-- >= bound/3"
        if metric["name"] != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print(f"{metric['name']:>16}: median {median:.4g} {metric['unit']}, "
              f"spread {spread:.3f} (bound {metric['bound']}){flag}")
    print(f"worst spread / bound (setup_s exempt): {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
