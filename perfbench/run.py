"""Run one workload of the Whisper benchmark and print its metrics.

    python3 perfbench/run.py --workload read-steady --seed 1 --seconds 20 --trace 0

Every metric is printed as a table, then the last stdout line is a JSON
object with them: with ``--trace 0`` every end-to-end metric, with
``--trace 1`` the per-layer ledger and the tracing overhead instead.  Run from the repository root: the program under
test is imported from ``src/``.  A fuller record of the run (per-window CPU,
per-rung overload results, the simulated metrics of both runs, a sample of
raw spans) goes to ``perfbench/out/``.  The exit code is non-zero when any
reply or audit is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import ledger as ledger_module  # noqa: E402
from calibrate import NOMINAL_UNIT_S, Calibration  # noqa: E402
from workloads import LATENCY_RUNG, P99_LIMIT, WORKLOADS, Harness, Samples, quantile  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_us_per_req": "us",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "msgs_per_req": "count",
    "bytes_per_req": "bytes",
    "recovery_p50_ms": "ms",
    "goodput_rps": "1/s",
    "capacity_rps": "1/s",
}

#: The metrics that come from the simulation alone: a seed fixes them.
SIMULATED = tuple(END_TO_END_UNITS)[3:]  # all but setup_s, cpu_us_per_req, peak_rss_mb


@dataclass
class Window:
    """One measured window: its samples plus what it cost."""

    cpu_s: float
    wall_s: float
    sim_s: float
    msgs: int
    bytes: int
    samples: Samples

    @property
    def cpu_us_per_req(self) -> float:
        return self.cpu_s / max(1, self.samples.attempted) * 1e6


def build(workload: str, seed: int, setups: int = 1, calibration: Optional[Calibration] = None):
    """Build ``setups`` times; returns the last harness and every set-up time.

    With a ``calibration``, each time is rescaled to the nominal machine by
    the reference unit run right after it.
    """
    times, harness = [], None
    for _ in range(setups):
        harness = None
        gc.collect()
        started = time.perf_counter()
        harness = WORKLOADS[workload](seed)
        harness.build()
        elapsed = time.perf_counter() - started
        if calibration is not None:
            elapsed *= NOMINAL_UNIT_S / calibration.unit()
        times.append(elapsed)
    return harness, times


def measure(harness: Harness, calibration: Calibration) -> Window:
    """Advance one window, then run the reference slice that follows it."""
    system = harness.system
    trace, env = system.trace, system.env
    msgs, sent_bytes, sim_start = trace.sent_total, trace.bytes_total, env.now
    cpu, wall = time.process_time(), time.perf_counter()
    harness.advance()
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    calibration.after(cpu)
    return Window(
        cpu_s=cpu,
        wall_s=wall,
        sim_s=env.now - sim_start,
        msgs=trace.sent_total - msgs,
        bytes=trace.bytes_total - sent_bytes,
        samples=harness.recorder.take(),
    )


def cpu_us_per_req(windows: List[Window]) -> float:
    """Process CPU per attempted request over all of ``windows`` (raw)."""
    attempted = sum(window.samples.attempted for window in windows)
    return sum(window.cpu_s for window in windows) / attempted * 1e6


def simulated_metrics(harness: Harness, windows: List[Window]) -> Dict[str, float]:
    """The metrics the simulation alone determines: a seed fixes them."""
    attempted = sum(window.samples.attempted for window in windows)
    metrics = {
        "msgs_per_req": sum(window.msgs for window in windows) / attempted,
        "bytes_per_req": sum(window.bytes for window in windows) / attempted,
    }
    latencies = [latency for window in windows for latency in window.samples.latencies]
    metrics["success_ratio"] = len(latencies) / attempted
    ladder = rung_table(windows)
    if ladder:
        passing = [rung["rate_rps"] for rung in ladder if rung["within_limit"] >= 0.99]
        metrics["capacity_rps"] = max(passing, default=0.0)
        # Goodput at the overload point, the ladder's top rung.
        metrics["goodput_rps"] = ladder[-1]["successes"] / ladder[-1]["seconds"]
        latency_rate = harness.knee * LATENCY_RUNG
        latencies = next(rung for rung in ladder if rung["rate_rps"] == latency_rate)["latencies"]
    else:
        metrics["goodput_rps"] = len(latencies) / sum(window.sim_s for window in windows)
        # A closed loop offers exactly what it completes.
        metrics["capacity_rps"] = metrics["goodput_rps"]
    metrics["latency_p50_ms"] = quantile(latencies, 0.50) * 1e3
    metrics["latency_p99_ms"] = quantile(latencies, 0.99) * 1e3
    recovery = [latency for window in windows for latency in window.samples.recovery]
    if harness.injects_crashes:
        metrics["recovery_p50_ms"] = quantile(recovery, 0.50) * 1e3
    else:
        # Nothing crashed, so nothing needed recovering: the plain median.
        metrics["recovery_p50_ms"] = metrics["latency_p50_ms"]
    return metrics


def wrong_replies(windows: List[Window]) -> List[str]:
    return [line for window in windows for line in window.samples.wrong]


def run_untraced(workload: str, seed: int, seconds: float):
    calibration = Calibration()
    harness, setup_times = build(workload, seed, SETUPS, Calibration())
    gc.collect()
    windows = [measure(harness, calibration) for _ in range(harness.windows_for(seconds))]
    problems = wrong_replies(windows) + harness.finish()
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cpu_us_per_req": cpu_us_per_req(windows) * calibration.scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **simulated_metrics(harness, windows),
    }
    record = {
        "setup_s": setup_times,
        "cpu_scale": calibration.scale,
        "cpu_us_per_req_raw": cpu_us_per_req(windows),
        "window_cpu_us_per_req": [window.cpu_us_per_req for window in windows],
        "window_wall_s": [window.wall_s for window in windows],
        "rungs": [
            {key: value for key, value in rung.items() if key != "latencies"}
            for rung in rung_table(windows)
        ],
    }
    return metrics, windows, problems, record


def run_traced(workload: str, seed: int, seconds: float):
    """Untraced system A and traced system B, same seed, windows interleaved.

    B must reproduce A's simulated metrics exactly (wrapping the layers may
    not change the simulated program); the tracing overhead is the
    difference of their CPU per request.
    """
    calibration = Calibration()
    untraced, _ = build(workload, seed)
    tracer = ledger_module.Tracer(ledger_module.Ledger())
    tracer.install()
    try:
        traced, _ = build(workload, seed)
    finally:
        tracer.uninstall()
    ledger_module.watch_elections(tracer.ledger, traced)
    gc.collect()
    tracer.ledger.reset()
    before = ledger_module.system_counters(traced)
    sim_start = traced.system.env.now
    plain: List[Window] = []
    wrapped: List[Window] = []
    for _ in range(untraced.windows_for(seconds)):
        plain.append(measure(untraced, calibration))
        tracer.install()
        try:
            wrapped.append(measure(traced, calibration))
        finally:
            tracer.uninstall()
    crashes = [at for at, _host in traced.system.failures.crash_times() if at >= sim_start]
    metrics = ledger_module.layer_metrics(
        tracer.ledger,
        before,
        ledger_module.system_counters(traced),
        crashes,
        sum(window.samples.attempted for window in wrapped),
        sum(window.wall_s for window in wrapped),
    )
    problems = wrong_replies(plain + wrapped) + untraced.finish() + traced.finish()
    expected = simulated_metrics(untraced, plain)
    observed = simulated_metrics(traced, wrapped)
    if expected != observed:
        problems.append(f"wrong: tracing changed the simulation: {expected} != {observed}")
    baseline = cpu_us_per_req(plain)
    overhead = cpu_us_per_req(wrapped) - baseline
    metrics["trace.overhead_us_per_req"] = overhead
    metrics["trace.overhead_ratio"] = overhead / baseline
    # Times in the same nominal-machine microseconds as cpu_us_per_req.
    for name, unit in ledger_module.PER_LAYER_UNITS.items():
        if unit == "us":
            metrics[name] *= calibration.scale
    record = {
        "untraced_cpu_us_per_req_raw": baseline,
        "cpu_scale": calibration.scale,
        "simulated_untraced": expected,
        "simulated_traced": observed,
        "spans": tracer.ledger.spans,
    }
    return metrics, plain + wrapped, problems, record


def rung_table(windows: List[Window]) -> List[Dict]:
    """overload-open: each offered rate's samples, pooled, lowest rate first."""
    table = []
    for rate in sorted({window.samples.rate for window in windows if window.samples.rate}):
        rungs = [window.samples for window in windows if window.samples.rate == rate]
        offered = sum(rung.attempted for rung in rungs)
        latencies = [latency for rung in rungs for latency in rung.latencies]
        table.append(
            {
                "rate_rps": rate,
                "seconds": sum(rung.arrival_s for rung in rungs),
                "offered": offered,
                "successes": len(latencies),
                "success_ratio": len(latencies) / offered,
                "within_limit": sum(1 for x in latencies if x <= P99_LIMIT) / offered,
                "p50_ms": quantile(latencies, 0.5) * 1e3,
                "p99_ms": quantile(latencies, 0.99) * 1e3,
                "latencies": latencies,
            }
        )
    return table


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns ``(result, record)``."""
    runner = run_traced if trace else run_untraced
    metrics, windows, problems, record = runner(workload, seed, seconds)
    units = ledger_module.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": sum(window.samples.attempted for window in windows),
        "failed": sum(window.samples.failed for window in windows),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(workload=workload, seed=seed, trace=trace, problems=problems[:20], result=result)
    return result, record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out, name), "w") as handle:
        json.dump(record, handle, indent=1)
    for problem in record["problems"]:
        print(problem, file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:34} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
