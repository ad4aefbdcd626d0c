"""Run a workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload read-steady --runs 10

The spread is the interquartile range of the runs' values as a share of
their median (``statistics.quantiles(values, n=4)``), the figure the
bounds in ``BENCHMARK.json`` are set against.  Runs are sequential, one
process each, exactly as ``run.py`` is invoked.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    results = []
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, benchmark["run_seconds"])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
    print(f"{'metric':34} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        print(f"{name:34} {statistics.median(values):14.4f} {spread(values):8.4f} "
              f"{bounds[name]:>6}")
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
