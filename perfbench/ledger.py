"""The traced run's per-layer ledger.

Spans are recorded from the benchmark's own files: :meth:`Tracer.install`
wraps each layer's entry points (class attributes of the shipped modules)
in timing wrappers, and :meth:`Tracer.uninstall` puts the originals back.
Nothing under ``src/`` changes.

A wrapper times every *step* of the code it wraps: a plain call once, a
generator (a simulated process body) on every resume, so CPU spent
between simulated events lands on the layer that spent it.  Spans nest on
one stack; a layer's self time is its spans' time minus the child spans
inside them.  Simulated-time spans (discovery, binding, elections) use the
simulation clock instead.  Wall time comes from ``time.perf_counter``; the
process is single-threaded, so it tracks CPU time closely.

Callbacks the program registers at construction (message listeners) bind
whatever the class attribute was *then*, so the tracer must be installed
while the traced system is built.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.backend.services import ServiceImplementation
from repro.core.bpeer import BPeer
from repro.core.proxy import SwsProxy
from repro.election.bully import BullyElector
from repro.obs.observability import Observability
from repro.ontology.match import ConceptMatcher
from repro.ontology.reasoner import Reasoner
from repro.p2p.discovery import DiscoveryService
from repro.p2p.resolver import ResolverService
from repro.soap.client import SoapClient
from repro.soap.envelope import Envelope
from repro.soap.http import HttpServer
from repro.wsdl.schema import Schema

#: Raw spans kept for the record file (the counters cover every span).
SPAN_SAMPLE = 2000

clock = time.perf_counter


class Ledger:
    """Span stack plus per-entry-point counters for the current window."""

    def __init__(self):
        self.stack: List[list] = []
        #: ``(env, simulated time)`` each request's arguments reached a b-peer.
        self.arrivals: Dict[int, Tuple[Any, float]] = {}
        self.reset()

    def reset(self) -> None:
        #: ``(key, start, duration, parent index)`` of the first spans.
        self.spans: List[Tuple[str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.covered = 0.0
        #: Simulated seconds spent inside a generator entry point, per key.
        self.sim_time: Dict[str, float] = defaultdict(float)
        #: Outcome counters: envelope bytes, attempts, successful matches, ...
        self.counts: Counter = Counter()
        self.queue_waits: List[float] = []
        self.election_starts: List[float] = []
        self.elected: List[float] = []

    def enter(self, key: str) -> None:
        self.stack.append([key, clock(), 0.0])

    def exit(self) -> None:
        key, start, children = self.stack.pop()
        elapsed = clock() - start
        self.inclusive[key] += elapsed
        self.self_time[key] += elapsed - children
        if self.stack:
            self.stack[-1][2] += elapsed
            parent = len(self.stack) - 1
        else:
            self.covered += elapsed
            parent = -1
        if len(self.spans) < SPAN_SAMPLE:
            self.spans.append((key, start, elapsed, parent))

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(value for key, value in self.self_time.items() if key.startswith(prefix))


def _wrap_call(ledger: Ledger, key: str, function, before, after):
    def traced(*args, **kwargs):
        ledger.calls[key] += 1
        if before is not None:
            before(ledger, args)
        ledger.enter(key)
        try:
            result = function(*args, **kwargs)
        finally:
            ledger.exit()
        if after is not None:
            after(ledger, args, result)
        return result

    return traced


def _wrap_generator(ledger: Ledger, key: str, function, before, after, simulated):
    def traced(*args, **kwargs):
        ledger.calls[key] += 1
        if before is not None:
            before(ledger, args)
        return _steps(ledger, key, function(*args, **kwargs), args, after, simulated)

    return traced


def _steps(ledger: Ledger, key: str, generator, args, after, simulated):
    """Drive ``generator`` like ``yield from`` would, timing every step."""
    env = args[0].env if simulated else None
    started = env.now if simulated else 0.0
    value, error = None, None
    try:
        while True:
            ledger.enter(key)
            try:
                if error is None:
                    yielded = generator.send(value)
                else:
                    yielded = generator.throw(error)
            except StopIteration as stop:
                ledger.exit()
                if after is not None:
                    after(ledger, args, stop.value)
                return stop.value
            except BaseException:
                ledger.exit()
                raise
            ledger.exit()
            value, error = None, None
            try:
                value = yield yielded
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as thrown:  # forwarded into the wrapped code
                error = thrown
    finally:
        if simulated:
            ledger.sim_time[key] += env.now - started


# -- what each wrapper records besides time ----------------------------------------------


def _envelope_out(ledger, args, result):
    ledger.counts["soap.envelope_bytes"] += len(result)


def _invoke_result(ledger, args, result):
    ledger.counts["proxy.results"] += 1
    ledger.counts["proxy.attempts"] += result.attempts


def _match_result(ledger, args, result):
    if result.succeeded:
        ledger.counts["ontology.matched"] += 1


def _exec_arrival(ledger, args):
    bpeer, message = args
    ledger.arrivals[id(message.payload.arguments)] = (bpeer.env, bpeer.env.now)


def _queue_wait(ledger, args):
    implementation, arguments = args
    arrival = ledger.arrivals.pop(id(arguments), None)
    if arrival is not None:
        # invoke() runs once the simulated service time has elapsed.
        env, arrived = arrival
        ledger.queue_waits.append(env.now - arrived - implementation.service_time)


def _election_started(ledger, args):
    ledger.election_starts.append(args[0].env.now)


@dataclass(frozen=True)
class TracePoint:
    layer: str
    owner: type
    attribute: str
    #: ``before(ledger, args)`` / ``after(ledger, args, result)`` hooks.
    before: Optional[Callable] = None
    after: Optional[Callable] = None
    #: Also accumulate the simulated time the generator spans.
    simulated: bool = False

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.attribute.lstrip('_')}"


TRACE_POINTS = (
    TracePoint("soap", Envelope, "to_xml", after=_envelope_out),
    TracePoint("soap", Envelope, "from_xml"),
    TracePoint("soap", SoapClient, "call"),
    TracePoint("soap", HttpServer, "_serve"),
    TracePoint("wsdl", Schema, "validate_element"),
    TracePoint("p2p", DiscoveryService, "get_local_advertisements"),
    TracePoint("p2p", DiscoveryService, "get_remote_advertisements"),
    TracePoint("p2p", ResolverService, "send_query"),
    TracePoint("ontology", ConceptMatcher, "match_signature", after=_match_result),
    TracePoint("ontology", Reasoner, "is_subsumed_by"),
    TracePoint("proxy", SwsProxy, "invoke", after=_invoke_result),
    TracePoint("proxy", SwsProxy, "find_peer_group_adv", simulated=True),
    TracePoint("proxy", SwsProxy, "resolve_coordinator", simulated=True),
    TracePoint("proxy", SwsProxy, "_on_reply"),
    TracePoint("bpeer", BPeer, "_on_exec", before=_exec_arrival),
    TracePoint("bpeer", BPeer, "_work_loop"),
    TracePoint("bpeer", BPeer, "_on_delegate"),
    TracePoint("election", BullyElector, "_run_election", before=_election_started, simulated=True),
    TracePoint("election", BullyElector, "_on_message"),
    TracePoint("backend", ServiceImplementation, "invoke", before=_queue_wait),
    TracePoint("obs", Observability, "request_trace"),
    TracePoint("obs", Observability, "finish_request"),
)


class Tracer:
    """Installs and removes the wrappers around :data:`TRACE_POINTS`."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self._wrapped: List[Tuple[type, str, Any, Any]] = []
        for point in TRACE_POINTS:
            original = point.owner.__dict__[point.attribute]
            function = original.__func__ if isinstance(original, classmethod) else original
            if inspect.isgeneratorfunction(function):
                traced = _wrap_generator(
                    ledger, point.key, function, point.before, point.after, point.simulated
                )
            else:
                traced = _wrap_call(ledger, point.key, function, point.before, point.after)
            if isinstance(original, classmethod):
                traced = classmethod(traced)
            self._wrapped.append((point.owner, point.attribute, original, traced))

    def install(self) -> None:
        for owner, attribute, _original, traced in self._wrapped:
            setattr(owner, attribute, traced)

    def uninstall(self) -> None:
        for owner, attribute, original, _traced in self._wrapped:
            setattr(owner, attribute, original)


def watch_elections(ledger: Ledger, harness) -> None:
    """Record when each replica accepts a new coordinator (public listener)."""
    env = harness.system.env
    for peer in harness.service.all_peers():
        peer.coordinator_mgr.elector.on_coordinator_elected(
            lambda _coordinator: ledger.elected.append(env.now)
        )


def system_counters(harness) -> Dict[str, float]:
    """Counters the program already keeps, read before and after a window."""
    system, service = harness.system, harness.service
    peers = service.all_peers()
    backends = {id(backend): backend for backend in harness.backends()}.values()
    return {
        "events": system.env.events_processed,
        "rebinds": service.proxy.stats.rebinds,
        "executed": sum(peer.requests_executed for peer in peers),
        "delegated": sum(peer.requests_delegated for peer in peers),
        "shed": sum(peer.requests_shed for peer in peers),
        "journal_hits": sum(peer.journal.stats.hits for peer in peers),
        "election_msgs": system.trace.sent_by_category["election"],
        "effects": sum(len(backend.effect_log) for backend in backends),
        "writes": sum(backend.writes for backend in backends),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _first_after(times: List[float], start: float) -> Optional[float]:
    return next((time for time in sorted(times) if time >= start), None)


def layer_metrics(ledger: Ledger, before, after, crashes: List[float], attempted: int, wall_s: float):
    """One window's per-layer ledger, as ``{metric: value}``."""
    n = attempted
    calls, inclusive, counts = ledger.calls, ledger.inclusive, ledger.counts
    delta = {key: after[key] - before[key] for key in after}
    codec_calls = calls["soap.to_xml"] + calls["soap.from_xml"]
    detect, elect = [], []
    for crashed in crashes:
        started = _first_after(ledger.election_starts, crashed)
        if started is None:
            continue
        detect.append(started - crashed)
        elected = _first_after(ledger.elected, started)
        if elected is not None:
            elect.append(elected - started)
    us, ms = 1e6, 1e3
    return {
        "simnet.events_per_req": _ratio(delta["events"], n),
        "simnet.self_us_per_req": _ratio(wall_s - ledger.covered, n) * us,
        "soap.to_xml_per_req": _ratio(calls["soap.to_xml"], n),
        "soap.from_xml_per_req": _ratio(calls["soap.from_xml"], n),
        "soap.codec_us_per_call": _ratio(
            inclusive["soap.to_xml"] + inclusive["soap.from_xml"], codec_calls
        ) * us,
        "soap.envelope_bytes_per_req": _ratio(counts["soap.envelope_bytes"], n),
        "soap.self_us_per_req": _ratio(ledger.layer_self("soap"), n) * us,
        "wsdl.validate_us_per_req": _ratio(ledger.layer_self("wsdl"), n) * us,
        "p2p.local_adv_us_per_req": _ratio(inclusive["p2p.get_local_advertisements"], n) * us,
        "p2p.remote_adv_per_req": _ratio(calls["p2p.get_remote_advertisements"], n),
        "p2p.resolver_queries_per_req": _ratio(calls["p2p.send_query"], n),
        "p2p.self_us_per_req": _ratio(ledger.layer_self("p2p"), n) * us,
        "ontology.match_per_req": _ratio(calls["ontology.match_signature"], n),
        "ontology.match_us_per_call": _ratio(
            inclusive["ontology.match_signature"], calls["ontology.match_signature"]
        ) * us,
        "ontology.subsumption_per_req": _ratio(calls["ontology.is_subsumed_by"], n),
        "ontology.match_ratio": _ratio(counts["ontology.matched"], calls["ontology.match_signature"]),
        "ontology.self_us_per_req": _ratio(ledger.layer_self("ontology"), n) * us,
        "proxy.discover_ms": _ratio(
            ledger.sim_time["proxy.find_peer_group_adv"], calls["proxy.find_peer_group_adv"]
        ) * ms,
        "proxy.bind_ms": _ratio(
            ledger.sim_time["proxy.resolve_coordinator"], calls["proxy.resolve_coordinator"]
        ) * ms,
        "proxy.attempts_per_req": _ratio(counts["proxy.attempts"], counts["proxy.results"]),
        "proxy.req_per_attempt": _ratio(counts["proxy.results"], counts["proxy.attempts"]),
        "proxy.rebinds_per_req": _ratio(delta["rebinds"], n),
        "proxy.self_us_per_req": _ratio(ledger.layer_self("proxy"), n) * us,
        "bpeer.queue_wait_ms": _ratio(sum(ledger.queue_waits), len(ledger.queue_waits)) * ms,
        "bpeer.exec_per_req": _ratio(delta["executed"], n),
        "bpeer.delegations_per_req": _ratio(delta["delegated"], n),
        "bpeer.journal_hits_per_req": _ratio(delta["journal_hits"], n),
        "bpeer.shed_ratio": _ratio(delta["shed"], calls["bpeer.on_exec"]),
        "bpeer.self_us_per_req": _ratio(ledger.layer_self("bpeer"), n) * us,
        "election.starts_per_crash": _ratio(len(ledger.election_starts), len(crashes)),
        "election.msgs_per_crash": _ratio(delta["election_msgs"], len(crashes)),
        "election.detect_ms": statistics.median(detect) * ms if detect else 0.0,
        "election.elect_ms": statistics.median(elect) * ms if elect else 0.0,
        "election.self_us_per_req": _ratio(ledger.layer_self("election"), n) * us,
        "backend.invoke_us_per_call": _ratio(inclusive["backend.invoke"], calls["backend.invoke"]) * us,
        "backend.effects_per_write": _ratio(delta["effects"], delta["writes"]),
        "obs.us_per_req": _ratio(ledger.layer_self("obs"), n) * us,
    }


#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "simnet.events_per_req": "count",
    "simnet.self_us_per_req": "us",
    "soap.to_xml_per_req": "count",
    "soap.from_xml_per_req": "count",
    "soap.codec_us_per_call": "us",
    "soap.envelope_bytes_per_req": "bytes",
    "soap.self_us_per_req": "us",
    "wsdl.validate_us_per_req": "us",
    "p2p.local_adv_us_per_req": "us",
    "p2p.remote_adv_per_req": "count",
    "p2p.resolver_queries_per_req": "count",
    "p2p.self_us_per_req": "us",
    "ontology.match_per_req": "count",
    "ontology.match_us_per_call": "us",
    "ontology.subsumption_per_req": "count",
    "ontology.match_ratio": "ratio",
    "ontology.self_us_per_req": "us",
    "proxy.discover_ms": "ms",
    "proxy.bind_ms": "ms",
    "proxy.attempts_per_req": "count",
    "proxy.req_per_attempt": "ratio",
    "proxy.rebinds_per_req": "count",
    "proxy.self_us_per_req": "us",
    "bpeer.queue_wait_ms": "ms",
    "bpeer.exec_per_req": "count",
    "bpeer.delegations_per_req": "count",
    "bpeer.journal_hits_per_req": "count",
    "bpeer.shed_ratio": "ratio",
    "bpeer.self_us_per_req": "us",
    "election.starts_per_crash": "count",
    "election.msgs_per_crash": "count",
    "election.detect_ms": "ms",
    "election.elect_ms": "ms",
    "election.self_us_per_req": "us",
    "backend.invoke_us_per_call": "us",
    "backend.effects_per_write": "ratio",
    "obs.us_per_req": "us",
    "trace.overhead_us_per_req": "us",
    "trace.overhead_ratio": "ratio",
}
