"""A/B the benchmark between two source trees, alternating run order.

    python3 tools/perf_ab.py PARENT_DIR CHANGE_DIR --workload write-mixed --seed 5 --pairs 10

Runs ``perfbench/run.py --seconds 20 --trace 0`` once in each tree per
pair; the tree that runs first alternates from pair to pair, so drift in
the machine's speed falls on both sides.  For each wall-clock metric
(``setup_s``, ``cpu_us_per_req``, ``peak_rss_mb``; lower is better) it
prints both sides' median and quartiles, the pairs the change won (ties
count for neither side) and the parent's interquartile range, the figures
a claimed gain is judged by.

Every other metric is fixed by the workload seed.  The script exits 1 if
one of them, or a run's ``correct``/``attempted``/``failed`` fields,
differs between the two runs of a pair, and 2 if a run fails.  Stdlib
only; each run is one sequential subprocess.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

#: Metrics measured on the host's clock; the rest are simulated.
WALL_CLOCK = ("setup_s", "cpu_us_per_req", "peak_rss_mb")
SECONDS = 20


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``tree``; its final JSON line."""
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if completed.returncode != 0:
        raise RuntimeError(
            f"{tree}: run.py exited {completed.returncode}\n{completed.stderr}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def simulated_differences(parent: dict, change: dict) -> List[str]:
    """Seed-determined fields on which the two runs of a pair disagree."""
    differences = [
        f"{field}: {parent[field]} != {change[field]}"
        for field in ("correct", "attempted", "failed")
        if parent[field] != change[field]
    ]
    for name, metric in parent["metrics"].items():
        if name in WALL_CLOCK:
            continue
        other = change["metrics"].get(name, {}).get("value")
        if metric["value"] != other:
            differences.append(f"{name}: {metric['value']} != {other}")
    return differences


def quartiles(values: List[float]) -> List[float]:
    """``[Q1, median, Q3]``, the method ``perfbench/spread.py`` uses."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _summary(quartile: List[float]) -> str:
    first, median, third = quartile
    return f"{median:.4g} [{first:.4g}, {third:.4g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    values: Dict[str, Dict[str, List[float]]] = {
        side: {name: [] for name in WALL_CLOCK} for side in sides
    }
    wins = {name: 0 for name in WALL_CLOCK}
    mismatches = 0
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        try:
            results = {
                side: run_once(sides[side], args.workload, args.seed) for side in order
            }
        except RuntimeError as error:
            print(error, file=sys.stderr)
            return 2
        for side, result in results.items():
            for name in WALL_CLOCK:
                values[side][name].append(result["metrics"][name]["value"])
        for name in WALL_CLOCK:
            if values["change"][name][-1] < values["parent"][name][-1]:
                wins[name] += 1
        differences = simulated_differences(results["parent"], results["change"])
        mismatches += bool(differences)
        cpu = {side: values[side]["cpu_us_per_req"][-1] for side in sides}
        print(
            f"pair {pair + 1}/{args.pairs} ({order[0]} first): cpu_us_per_req "
            f"parent {cpu['parent']:.1f} change {cpu['change']:.1f}"
            + ("" if not differences else "  SIMULATED METRICS DIFFER"),
            file=sys.stderr,
        )
        for difference in differences:
            print(f"  {difference}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs, --seconds {SECONDS}")
    print(
        f"{'metric':16} {'parent median [Q1, Q3]':>30} {'change median [Q1, Q3]':>30}"
        f" {'change':>7} {'won':>6} {'parent IQR':>10}"
    )
    for name in WALL_CLOCK:
        parent, change = (quartiles(values[side][name]) for side in sides)
        delta = (change[1] - parent[1]) / parent[1] if parent[1] else 0.0
        print(
            f"{name:16} {_summary(parent):>30} {_summary(change):>30}"
            f" {delta:+7.1%} {f'{wins[name]}/{args.pairs}':>6}"
            f" {parent[2] - parent[0]:10.4g}"
        )
    if mismatches:
        print(f"simulated metrics differ in {mismatches} of {args.pairs} pairs")
        return 1
    print("simulated metrics identical in every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
