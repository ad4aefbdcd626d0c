"""Simulator throughput record: the ``make perf`` harness.

Measures the simulation core on six scenarios — four kernel
microbenchmarks (timer-dense, ready-chain, store-pingpong, cancel-storm)
and two full-stack deployments (discovery-flood, whisper-loop) — in two
modes on the same machine in the same run:

* **baseline** — the seed's behaviour, reconstructed: the ``"heap"``
  scheduler (every event through one heapq), eager advertisement XML
  rendering (``CACHE_XML = False``), remove-based O(n) store-waiter
  cancellation, and full (unsampled) request tracing.
* **current** — the shipped defaults: the batched scheduler, cached XML,
  tombstone cancellation, and sampled tracing for the high-throughput
  deployment scenario.

Each mode runs in its own subprocess so peak RSS and module globals are
clean per mode; ``--in-process`` falls back to one process (globals are
saved/restored).  The record lands in ``BENCH_simnet.json``: per-scenario
events/sec and messages/sec for both modes, aggregate totals, peak RSS,
and the headline speedup.  The headline scenario is **cancel-storm**
(crash-heavy campaigns interrupting deep inboxes), where the seed's
``deque.remove`` cancellation is quadratic — the bug class this PR fixes —
so that is where the order-of-magnitude shows up; the uniform kernel
scenarios gain the scheduler's 1.1–1.5×.

``--check RECORD`` is the CI regression gate: it compares *speedup
ratios* (current vs baseline measured in the same run, so the comparison
is machine- and scale-independent) against the committed record and fails
on a >``tolerance`` regression.

One caveat, recorded here rather than hidden: baseline mode cannot undo
the ``__slots__`` layout of :class:`~repro.simnet.message.Message` and
the store waiter events, so the baseline slightly *over*-states the
seed's true speed and the recorded speedups are conservative.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

try:  # POSIX only; the record degrades gracefully elsewhere.
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

from ..simnet import environment as environment_module
from ..simnet.environment import Environment
from ..simnet.events import Interrupt
from ..simnet.network import Network
from ..simnet.queues import Store, StoreGet
from ..simnet.rng import RngRegistry
from ..simnet.trace import MessageTrace
from ..p2p import advertisement as advertisement_module
from ..p2p import Peer, PeerGroupId, SemanticAdvertisement

__all__ = [
    "SCALES",
    "MODES",
    "HEADLINE_SCENARIO",
    "run_mode",
    "run_perf",
    "check_record",
]

MODES = ("baseline", "current")

#: The scenario the acceptance headline is measured on (see module doc).
HEADLINE_SCENARIO = "cancel-storm"

#: Workload sizes per scale.  ``smoke`` is the CI tier: seconds, not
#: minutes, and small enough that the quadratic baseline stays cheap.
#: ``repeats`` is best-of-N per scenario — simulations are deterministic,
#: so repeats only filter out wall-clock noise from shared CI boxes.
SCALES: Dict[str, Dict[str, int]] = {
    "smoke": dict(
        timer_procs=40, timer_events=400,
        chain_procs=8, chain_events=2500,
        pingpong_pairs=8, pingpong_rounds=500,
        cancel_waiters=4000, cancel_rounds=2,
        discovery_ads=40, discovery_queries=10,
        whisper_clients=4, whisper_requests=15,
        repeats=3,
    ),
    "full": dict(
        timer_procs=100, timer_events=2000,
        chain_procs=10, chain_events=20000,
        pingpong_pairs=32, pingpong_rounds=1500,
        cancel_waiters=16000, cancel_rounds=2,
        discovery_ads=200, discovery_queries=50,
        whisper_clients=8, whisper_requests=50,
        repeats=2,
    ),
}

#: Request-trace sampling rate the ``current`` whisper-loop runs at (the
#: knob this PR adds); baseline traces everything, as the seed did.
CURRENT_SAMPLE_RATE = 0.1


# -- seed-behaviour shims for baseline mode ----------------------------------------


class _LegacyStoreGet(StoreGet):
    """The seed's remove-based cancellation (O(n) per cancel)."""

    __slots__ = ("_store",)

    def __init__(self, store: Store):
        self._store = store
        super().__init__(store)

    def cancel(self) -> None:
        if not self.triggered:
            try:
                self._store._get_waiters.remove(self)
            except ValueError:
                pass


class _LegacyStore(Store):
    """A store whose getters cancel the way the seed did."""

    def get(self) -> StoreGet:
        return _LegacyStoreGet(self)


# -- scenarios ---------------------------------------------------------------------
#
# Each scenario returns ``(environment, message_trace_or_None, extras)``;
# the driver times the call and reads ``environment.events_processed``.


def _scenario_timer_dense(scale: Dict[str, int], seed: int, mode: str):
    """Many processes sleeping on spread (non-zero) delays: heap-bound."""
    env = Environment()

    def ticker(index: int):
        delay = 0.001 + (index % 17) * 0.0007
        for _ in range(scale["timer_events"]):
            yield env.timeout(delay)

    processes = [env.process(ticker(i)) for i in range(scale["timer_procs"])]
    for process in processes:
        env.run(until=process)
    return env, None, {"timeouts": scale["timer_procs"] * scale["timer_events"]}


def _scenario_ready_chain(scale: Dict[str, int], seed: int, mode: str):
    """Long chains of zero-delay events: the batched fast path's home turf."""
    env = Environment()

    def chain():
        for _ in range(scale["chain_events"]):
            yield env.timeout(0.0)

    processes = [env.process(chain()) for _ in range(scale["chain_procs"])]
    for process in processes:
        env.run(until=process)
    return env, None, {"links": scale["chain_procs"] * scale["chain_events"]}


def _scenario_store_pingpong(scale: Dict[str, int], seed: int, mode: str):
    """Producer/consumer pairs handshaking through two stores."""
    env = Environment()
    rounds = scale["pingpong_rounds"]

    def producer(request_store: Store, response_store: Store):
        for index in range(rounds):
            request_store.put(index)
            yield response_store.get()

    def consumer(request_store: Store, response_store: Store):
        for _ in range(rounds):
            item = yield request_store.get()
            response_store.put(item)

    processes = []
    for _ in range(scale["pingpong_pairs"]):
        request_store, response_store = Store(env), Store(env)
        processes.append(env.process(producer(request_store, response_store)))
        processes.append(env.process(consumer(request_store, response_store)))
    for process in processes:
        env.run(until=process)
    return env, None, {"rounds": scale["pingpong_pairs"] * rounds}


def _scenario_cancel_storm(scale: Dict[str, int], seed: int, mode: str):
    """Crash-heavy cancellation: park waiters, interrupt in reverse order.

    Reverse order matters: FIFO-order interrupts remove from the deque
    *front*, which is O(1) even for ``deque.remove`` and hides the seed's
    quadratic.  A crashing host interrupts its waiters in whatever order
    its process table holds them, so the adversarial order is fair game.
    """
    env = Environment()
    store: Store = _LegacyStore(env) if mode == "baseline" else Store(env)
    waiters, rounds = scale["cancel_waiters"], scale["cancel_rounds"]

    def waiter():
        try:
            yield store.get()
        except Interrupt:
            pass

    def driver():
        for _ in range(rounds):
            processes = [env.process(waiter()) for _ in range(waiters)]
            yield env.timeout(0.01)
            for process in reversed(processes):
                process.interrupt("storm")
            yield env.timeout(0.01)

    env.run(until=env.process(driver()))
    return env, None, {"cancels": waiters * rounds}


def _scenario_discovery_flood(scale: Dict[str, int], seed: int, mode: str):
    """Repeated remote discovery over published semantic advertisements.

    The server side re-serialises every matching advertisement per query;
    with ``CACHE_XML`` (current mode) each document renders once.  The
    client still parses every response, so this scenario's speedup is
    bounded by the parse half of the exchange — recorded as-is.
    """
    env = Environment()
    network = Network(env, trace=MessageTrace(), rng=RngRegistry(seed))
    rendezvous = Peer(network.add_host("rdv"), is_rendezvous=True)
    rendezvous.publish_self(remote=False)

    def edge(name: str) -> Peer:
        peer = Peer(network.add_host(name))
        peer.attach_to(rendezvous)
        peer.publish_self(remote=True)
        return peer

    publisher, client = edge("publisher"), edge("client")
    env.run(until=1.0)

    advertisement_count = scale["discovery_ads"]
    for index in range(advertisement_count):
        publisher.discovery.publish(
            SemanticAdvertisement(
                group_id=PeerGroupId.from_name(f"perf-group-{index}"),
                name=f"perf-group-{index}",
                action="http://example.org/onto#ManageStudents",
                inputs=("http://example.org/onto#StudentID",),
                outputs=("http://example.org/onto#StudentRecord",),
                ontology_uri="http://example.org/onto",
            )
        )

    matched = 0

    def query_loop():
        nonlocal matched
        for _ in range(scale["discovery_queries"]):
            advertisements = yield from client.discovery.get_remote_advertisements(
                SemanticAdvertisement,
                timeout=5.0,
                threshold=advertisement_count + 8,
            )
            matched += len(advertisements)
            yield env.timeout(0.05)

    env.run(until=env.process(query_loop()))
    return env, network.trace, {
        "advertisements": advertisement_count,
        "queries": scale["discovery_queries"],
        "matched": matched,
    }


def _scenario_whisper_loop(scale: Dict[str, int], seed: int, mode: str):
    """The full stack: deploy the student service, drive a closed loop."""
    # Imported here: the core stack pulls in most of the package, and the
    # kernel scenarios should stay runnable without it.
    from ..core.config import ScenarioConfig
    from ..core.system import WhisperSystem
    from .workload import ClosedLoopWorkload, student_arguments

    sample_rate = 1.0 if mode == "baseline" else CURRENT_SAMPLE_RATE
    students = 64
    config = ScenarioConfig(
        seed=seed, replicas=2, students=students, obs_sample_rate=sample_rate
    )
    system = WhisperSystem(config)
    service = system.deploy_student_service()
    system.settle()
    workload = ClosedLoopWorkload(
        system,
        service.address,
        service.path,
        "StudentInformation",
        clients=scale["whisper_clients"],
        think_time=0.02,
        requests_per_client=scale["whisper_requests"],
        arguments=student_arguments(students),
    )
    result = workload.run()
    if result.successes != result.requests:
        # Failed calls end early, so the scenario would time fault paths.
        raise RuntimeError(
            f"whisper-loop: {result.successes} of {result.requests} requests "
            "succeeded"
        )
    return system.env, system.trace, {
        "requests": result.requests,
        "successes": result.successes,
        "obs_sample_rate": sample_rate,
    }


Scenario = Callable[[Dict[str, int], int, str], Tuple[Environment, Any, Dict[str, Any]]]

_SCENARIOS: List[Tuple[str, Scenario]] = [
    ("timer-dense", _scenario_timer_dense),
    ("ready-chain", _scenario_ready_chain),
    ("store-pingpong", _scenario_store_pingpong),
    ("cancel-storm", _scenario_cancel_storm),
    ("discovery-flood", _scenario_discovery_flood),
    ("whisper-loop", _scenario_whisper_loop),
]


# -- mode execution ----------------------------------------------------------------


def _peak_rss_kb() -> Optional[int]:
    """Process-lifetime peak RSS in KiB (None where unsupported)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        peak //= 1024
    return int(peak)


def run_mode(mode: str, scale_name: str, seed: int = 42) -> Dict[str, Any]:
    """Run every scenario once under ``mode`` and return its record.

    Flips the deployment-wide globals (scheduler default, XML caching)
    for the duration; run this in a subprocess (the default path) for a
    per-mode peak RSS and zero global leakage.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r} (use one of {MODES})")
    scale = SCALES[scale_name]
    saved = (environment_module.DEFAULT_SCHEDULER, advertisement_module.CACHE_XML)
    environment_module.DEFAULT_SCHEDULER = "heap" if mode == "baseline" else "batched"
    advertisement_module.CACHE_XML = mode != "baseline"
    repeats = scale.get("repeats", 1)
    scenarios: List[Dict[str, Any]] = []
    try:
        for name, scenario in _SCENARIOS:
            best: Optional[Dict[str, Any]] = None
            for _ in range(repeats):
                started = time.perf_counter()
                env, trace, extras = scenario(scale, seed, mode)
                wall = time.perf_counter() - started
                events = env.events_processed
                messages = trace.sent_total if trace is not None else 0
                attempt = {
                    "name": name,
                    "wall_s": round(wall, 6),
                    "events": events,
                    "messages": messages,
                    "events_per_sec": round(events / wall, 1),
                    "messages_per_sec": round(messages / wall, 1),
                    **extras,
                }
                if best is None or attempt["events_per_sec"] > best["events_per_sec"]:
                    best = attempt
            scenarios.append(best)
    finally:
        environment_module.DEFAULT_SCHEDULER, advertisement_module.CACHE_XML = saved
    total_wall = sum(s["wall_s"] for s in scenarios)
    total_events = sum(s["events"] for s in scenarios)
    total_messages = sum(s["messages"] for s in scenarios)
    return {
        "mode": mode,
        "scale": scale_name,
        "seed": seed,
        "config": {
            "scheduler": "heap" if mode == "baseline" else "batched",
            "cache_xml": mode != "baseline",
            "legacy_store_cancel": mode == "baseline",
            "whisper_obs_sample_rate": 1.0 if mode == "baseline" else CURRENT_SAMPLE_RATE,
            "repeats_best_of": repeats,
        },
        "scenarios": scenarios,
        "totals": {
            "wall_s": round(total_wall, 6),
            "events": total_events,
            "messages": total_messages,
            "events_per_sec": round(total_events / total_wall, 1),
            "messages_per_sec": round(total_messages / total_wall, 1),
        },
        "peak_rss_kb": _peak_rss_kb(),
    }


def _run_mode_subprocess(mode: str, scale_name: str, seed: int) -> Dict[str, Any]:
    """Run one mode in a fresh interpreter; returns its parsed record."""
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src_dir = os.path.dirname(package_dir)
    child_env = dict(os.environ)
    existing = child_env.get("PYTHONPATH")
    child_env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    command = [
        sys.executable, "-m", "repro", "perf",
        "--worker", mode, "--worker-scale", scale_name, "--seed", str(seed),
    ]
    completed = subprocess.run(
        command, env=child_env, capture_output=True, text=True, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"perf worker ({mode}/{scale_name}) failed "
            f"rc={completed.returncode}:\n{completed.stderr}"
        )
    lines = [line for line in completed.stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(f"perf worker ({mode}/{scale_name}) produced no output")
    return json.loads(lines[-1])


# -- the record --------------------------------------------------------------------


def _scale_summary(modes: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Speedups (current over baseline) for one scale's pair of modes."""
    baseline, current = modes["baseline"], modes["current"]
    per_scenario: Dict[str, Dict[str, Any]] = {}
    current_by_name = {s["name"]: s for s in current["scenarios"]}
    for base_scenario in baseline["scenarios"]:
        name = base_scenario["name"]
        current_scenario = current_by_name.get(name)
        if current_scenario is None:
            continue
        per_scenario[name] = {
            "baseline_events_per_sec": base_scenario["events_per_sec"],
            "current_events_per_sec": current_scenario["events_per_sec"],
            "speedup": round(
                current_scenario["events_per_sec"]
                / base_scenario["events_per_sec"], 2
            ),
        }
    speedup = {
        "events_per_sec": round(
            current["totals"]["events_per_sec"]
            / baseline["totals"]["events_per_sec"], 2
        ),
        "messages_per_sec": round(
            current["totals"]["messages_per_sec"]
            / baseline["totals"]["messages_per_sec"], 2
        ) if baseline["totals"]["messages_per_sec"] else None,
        "per_scenario": per_scenario,
    }
    headline = dict(per_scenario.get(HEADLINE_SCENARIO, {}))
    headline["scenario"] = HEADLINE_SCENARIO
    return {"speedup": speedup, "headline": headline}


def run_perf(
    scale_names: List[str],
    seed: int = 42,
    isolate: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the full two-mode measurement and return the record dict."""
    runs: Dict[str, Any] = {}
    for scale_name in scale_names:
        modes: Dict[str, Dict[str, Any]] = {}
        for mode in MODES:
            if progress is not None:
                progress(f"running {scale_name}/{mode} ...")
            if isolate:
                modes[mode] = _run_mode_subprocess(mode, scale_name, seed)
            else:
                modes[mode] = run_mode(mode, scale_name, seed)
        runs[scale_name] = {"modes": modes, **_scale_summary(modes)}
    return {
        "schema": "repro-perf/1",
        "generated_by": "python -m repro perf",
        "seed": seed,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "process_isolation": isolate,
        "runs": runs,
    }


def check_record(
    new: Dict[str, Any], record: Dict[str, Any], tolerance: float = 0.25
) -> List[str]:
    """Regression gate: compare speedup ratios against a committed record.

    Ratios (current/baseline within one run) are machine-independent, so
    a CI box slower than the dev box that produced the record does not
    trip the gate — only an actual loss of the optimisations does.
    Returns a list of human-readable failures (empty = pass).
    """
    failures: List[str] = []
    for scale_name, new_run in new.get("runs", {}).items():
        recorded = record.get("runs", {}).get(scale_name)
        if recorded is None:
            continue
        pairs = [
            ("aggregate events/sec speedup",
             new_run["speedup"]["events_per_sec"],
             recorded["speedup"]["events_per_sec"]),
            (f"headline ({HEADLINE_SCENARIO}) speedup",
             new_run["headline"].get("speedup"),
             recorded["headline"].get("speedup")),
        ]
        for label, new_value, recorded_value in pairs:
            if new_value is None or recorded_value is None:
                continue
            floor = recorded_value * (1.0 - tolerance)
            if new_value < floor:
                failures.append(
                    f"{scale_name}: {label} regressed: {new_value:.2f}x "
                    f"< {floor:.2f}x (record {recorded_value:.2f}x "
                    f"- {tolerance:.0%})"
                )
        if new_run["speedup"]["events_per_sec"] < 1.0:
            failures.append(
                f"{scale_name}: current mode is slower than the seed baseline "
                f"({new_run['speedup']['events_per_sec']:.2f}x)"
            )
    return failures


def format_record(record: Dict[str, Any]) -> str:
    """Human-readable table of one record (per scale, per scenario)."""
    lines: List[str] = []
    for scale_name, run in record["runs"].items():
        lines.append(f"== scale: {scale_name} ==")
        lines.append(
            f"{'scenario':<16} {'base ev/s':>12} {'curr ev/s':>12} {'speedup':>8}"
        )
        for name, row in run["speedup"]["per_scenario"].items():
            lines.append(
                f"{name:<16} {row['baseline_events_per_sec']:>12,.0f} "
                f"{row['current_events_per_sec']:>12,.0f} "
                f"{row['speedup']:>7.2f}x"
            )
        totals = run["speedup"]
        lines.append(
            f"{'TOTAL':<16} "
            f"{run['modes']['baseline']['totals']['events_per_sec']:>12,.0f} "
            f"{run['modes']['current']['totals']['events_per_sec']:>12,.0f} "
            f"{totals['events_per_sec']:>7.2f}x"
        )
        headline = run["headline"]
        if "speedup" in headline:
            lines.append(
                f"headline [{headline['scenario']}]: "
                f"{headline['baseline_events_per_sec']:,.0f} -> "
                f"{headline['current_events_per_sec']:,.0f} ev/s "
                f"({headline['speedup']:.2f}x)"
            )
        for mode in MODES:
            rss = run["modes"][mode].get("peak_rss_kb")
            if rss is not None:
                lines.append(f"peak RSS ({mode}): {rss:,} KiB")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
