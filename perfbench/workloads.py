"""The four paper-path workloads, driven from outside through the public API.

Each workload is a :class:`Harness`: ``build`` deploys a Whisper system
(client -> WSDL-S Web service -> SWS-proxy -> discovery -> Bully-elected
b-peer -> backend), settles it and warms it up; ``advance`` runs one
*window* of simulated work; ``finish`` drains in-flight requests and
returns the end-of-run audit.  Simulated clients are coroutines on
simulated hosts, so a whole workload runs in one single-threaded process.

Every reply is checked (``Recorder.end`` takes the check's verdict), and
inputs are drawn by a seeded generator from the deployed student range, so
no request is meant to fail.  Latencies are timed here, in simulated
seconds, and kept raw so quantiles are exact.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.backend.datasets import student_database
from repro.backend.services import student_enrollment, student_lookup_operational
from repro.bench.overload import build_overload_system
from repro.core.config import ScenarioConfig
from repro.core.errors import WhisperError
from repro.core.system import WhisperSystem
from repro.soap.fault import SoapFault
from repro.soap.http import RequestTimeout
from repro.wsdl.samples import student_admin_wsdl

#: Closed-loop population and think time (the repo's closed-loop default).
CLIENTS = 8
THINK_TIME = 0.05
#: Students deployed per backend; inputs are drawn from exactly this range.
STUDENTS = 200
#: Client-side SOAP timeout, far above the ~4 s failover tail, so a request
#: only fails when Whisper gives up, never because the client stopped waiting.
CALL_TIMEOUT = 30.0
#: Simulated seconds of traffic run after settling, before measuring.
WARMUP = 0.5

#: failover-churn: one coordinator crash per window, landing ``CRASH_OFFSET``
#: into the window on an in-flight request; the host restarts ``DOWNTIME``
#: later, after the ~4 s failover has completed.
CRASH_PERIOD = 6.0
CRASH_OFFSET = 0.5
DOWNTIME = 4.5

#: overload-open: offered rates as multiples of the knee (sum of 1/service
#: time over the replicas), simulated seconds of arrivals per rung, and the
#: p99 limit a rung must meet (failures count as over the limit).
LADDER = (0.5, 0.75, 1.0, 1.5)
RUNG_SECONDS = 2.0
P99_LIMIT = 0.200
#: The rung whose latency overload-open reports: loaded but below the knee,
#: where dispatch and queueing set the tail.  Above the knee the tail is set
#: by the retry-after schedule and flips between two values across seeds.
LATENCY_RUNG = 0.75


def student_ids(count: int = STUDENTS) -> List[str]:
    """The IDs ``student_database(count)`` deploys."""
    return [f"S{index:05d}" for index in range(1, count + 1)]


def quantile(values: List[float], q: float) -> float:
    """Exact nearest-rank quantile of raw samples (no buckets); 0.0 for none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


# -- per-request recording ------------------------------------------------------------


@dataclass
class Samples:
    """Raw outcomes of the requests that completed in one window."""

    attempted: int = 0
    failed: int = 0
    #: Simulated latency of every correct OK reply, seconds.
    latencies: List[float] = field(default_factory=list)
    #: Latency of every request that was in flight at an injected crash.
    recovery: List[float] = field(default_factory=list)
    #: One line per reply that failed its correctness check.
    wrong: List[str] = field(default_factory=list)
    #: overload-open only: the rung's offered rate and arrival seconds.
    rate: Optional[float] = None
    arrival_s: float = 0.0


class Recorder:
    """Times every request from when it was due until its reply."""

    def __init__(self, env):
        self.env = env
        self.samples = Samples()
        self.in_flight: Dict[int, float] = {}
        self.exposed: set = set()
        self._tokens = itertools.count()

    def begin(self) -> int:
        token = next(self._tokens)
        self.in_flight[token] = self.env.now
        return token

    def end(self, token: int, problem: Optional[str]) -> None:
        """Close a request; ``problem`` is None for a correct OK reply."""
        started = self.in_flight.pop(token)
        latency = self.env.now - started
        samples = self.samples
        samples.attempted += 1
        if problem is None:
            samples.latencies.append(latency)
        else:
            samples.failed += 1
            if problem.startswith("wrong"):
                samples.wrong.append(problem)
        if token in self.exposed:
            self.exposed.discard(token)
            samples.recovery.append(latency)

    def expose(self) -> None:
        """Mark every request now in flight as hit by a crash."""
        self.exposed.update(self.in_flight)

    def take(self) -> Samples:
        samples, self.samples = self.samples, Samples()
        return samples


def _failure(error: BaseException) -> str:
    return f"failed: {type(error).__name__}: {error}"


def check_student(value: Any, student_id: str) -> Optional[str]:
    if not isinstance(value, dict) or value.get("studentId") != student_id:
        return f"wrong: asked for {student_id}, got {value!r:.120}"
    return None


def check_enrollment(value: Any, student_id: str, course: str) -> Optional[str]:
    problem = check_student(value, student_id)
    if problem is None and course not in value.get("enrolledCourses", ()):
        problem = f"wrong: enroll {student_id} in {course}, reply lacks it"
    return problem


# -- harnesses ------------------------------------------------------------------------


class Harness:
    """One deployed system plus its load generator."""

    #: Simulated seconds per measurement window.
    window_seconds = 1.0
    #: Windows per second of ``--seconds``, calibrated so a run measures
    #: about that long on a 2-vCPU x86 VM.  The work is fixed rather than
    #: timed, so every commit measures exactly the same requests.  That
    #: matters because cost per request is not flat: a b-peer's dedup
    #: journal keeps 4096 entries and, once full, every insert pays for
    #: eviction, so a run's mix of before-full and after-full requests must
    #: not depend on how fast the machine or the commit is.
    windows_per_second = 3.5
    #: Whether the workload crashes coordinators (recovery_p50_ms applies).
    injects_crashes = False

    def __init__(self, seed: int):
        self.seed = seed
        self.system: WhisperSystem = None
        self.service = None
        self.recorder: Recorder = None
        self.stopping = False

    # subclasses: build() deploys and starts load; advance() runs a window.
    def build(self) -> None:
        raise NotImplementedError

    def advance(self) -> None:
        env = self.system.env
        self.system.run_until(env.now + self.window_seconds)

    def windows_for(self, seconds: float) -> int:
        return max(1, round(seconds * self.windows_per_second))

    def rng(self, name: str) -> random.Random:
        """The benchmark's own input generator, derived from the seed."""
        return random.Random(f"perfbench/{self.seed}/{name}")

    def finish(self, drain_limit: float = 60.0) -> List[str]:
        """Stop issuing requests, drain in-flight ones, audit; returns problems."""
        self.stopping = True
        env = self.system.env
        deadline = env.now + drain_limit
        while self.recorder.in_flight and env.now < deadline:
            self.system.run_until(env.now + 0.1)
        problems = []
        if self.recorder.in_flight:
            problems.append(f"{len(self.recorder.in_flight)} requests never completed")
        return problems + self.audit()

    def audit(self) -> List[str]:
        return []

    def backends(self):
        return [peer.implementation.backend for peer in self.service.all_peers()]


class ReadSteady(Harness):
    """8 closed-loop SOAP clients reading StudentInformation, 4 replicas,
    coordinator-only: the paper's common case."""

    def build(self) -> None:
        self.system = WhisperSystem(ScenarioConfig(seed=self.seed))
        self.service = self.system.deploy_student_service()
        self.system.settle()
        self.recorder = Recorder(self.system.env)
        ids = student_ids(self.system.config.students)
        for index in range(CLIENTS):
            node, soap = self.system.add_client(f"bench-client{index}", timeout=CALL_TIMEOUT)
            node.spawn(self._reader(soap, self.rng(f"reader{index}"), ids))
        self.system.run_until(self.system.env.now + WARMUP)

    def _reader(self, soap, rng: random.Random, ids: List[str]):
        env = self.system.env
        service = self.service
        while not self.stopping:
            student = ids[rng.randrange(len(ids))]
            token = self.recorder.begin()
            try:
                value = yield from soap.call(
                    service.address, service.path, "StudentInformation", {"ID": student}
                )
            except (SoapFault, RequestTimeout) as error:
                self.recorder.end(token, _failure(error))
            else:
                self.recorder.end(token, check_student(value, student))
            yield env.timeout(THINK_TIME)


class FailoverChurn(ReadSteady):
    """read-steady plus one coordinator crash per window on in-flight work."""

    window_seconds = CRASH_PERIOD
    windows_per_second = 2.0
    injects_crashes = True

    def advance(self) -> None:
        system, env = self.system, self.system.env
        start = env.now
        system.run_until(start + CRASH_OFFSET)
        while not self.recorder.in_flight:
            system.run_until(env.now + 0.001)
        coordinator = self.service.group.coordinator_peer()
        if coordinator is None:
            raise RuntimeError("no coordinator to crash: the group did not recover")
        self.recorder.expose()
        system.failures.crash_for(env.now, coordinator.node.name, DOWNTIME)
        system.run_until(start + self.window_seconds)


class WriteMixed(Harness):
    """8 closed-loop workflow callers on DeployedService.invoke, alternating
    EnrollStudent writes and StudentInformation reads (no SOAP codec)."""

    def build(self) -> None:
        self.system = WhisperSystem(ScenarioConfig(seed=self.seed))
        students, replicas = self.system.config.students, self.system.config.replicas
        self.service = self.system.deploy_service(
            student_admin_wsdl(),
            {
                "StudentInformation": [
                    student_lookup_operational(student_database(students))
                    for _ in range(replicas)
                ],
                "EnrollStudent": [
                    student_enrollment(student_database(students))
                    for _ in range(replicas)
                ],
            },
            web_host="web0",
        )
        self.system.settle()
        self.recorder = Recorder(self.system.env)
        #: Invocation ids of every enroll that returned a correct reply.
        self.enrolled: List[str] = []
        ids = student_ids(students)
        for index in range(CLIENTS):
            node = self.system.network.add_host(f"bench-caller{index}")
            node.spawn(self._caller(index, self.rng(f"caller{index}"), ids))
        self.system.run_until(self.system.env.now + WARMUP)

    def _caller(self, index: int, rng: random.Random, ids: List[str]):
        env = self.system.env
        for sequence in itertools.count():
            if self.stopping:
                return
            student = ids[rng.randrange(len(ids))]
            write = (sequence + index) % 2 == 0
            if write:
                course = f"B2B-{rng.randrange(1000):03d}"
                operation, arguments = "EnrollStudent", {"ID": student, "course": course}
            else:
                operation, arguments = "StudentInformation", {"ID": student}
            token = self.recorder.begin()
            try:
                result = yield from self.service.invoke(operation, arguments)
            except (SoapFault, WhisperError) as error:
                self.recorder.end(token, _failure(error))
            else:
                if write:
                    problem = check_enrollment(result.value, student, course)
                    if problem is None:
                        self.enrolled.append(result.invocation_id)
                else:
                    problem = check_student(result.value, student)
                self.recorder.end(token, problem)
            yield env.timeout(THINK_TIME)

    def audit(self) -> List[str]:
        """Exactly-once: one effect per enroll, no invocation applied twice."""
        effects: Counter = Counter()
        for backend in self.backends():
            effects.update(backend.effect_counts())
        problems = [
            f"wrong: invocation {invocation} applied {count} times"
            for invocation, count in effects.items()
            if count != 1
        ]
        missing = [invocation for invocation in self.enrolled if effects[invocation] != 1]
        if missing:
            problems.append(f"wrong: {len(missing)} enrolls without exactly one effect")
        return problems


class OverloadOpen(Harness):
    """Open-loop Poisson arrivals over a ladder of rates around the knee, on
    the heterogeneous load-sharing deployment of ``repro.bench.overload``."""

    windows_per_second = 1.0

    def build(self) -> None:
        config = ScenarioConfig(
            seed=self.seed,
            replicas=4,
            dispatch="least-outstanding",
            queue_bound=8,
            request_timeout=2.0,
            max_attempts=6,
            deadline_budget=2.0,
        )
        self.system, self.service, self.knee = build_overload_system(config)
        self.system.settle()
        self.recorder = Recorder(self.system.env)
        self.injector, self.soap = self.system.add_client("bench-injector", timeout=CALL_TIMEOUT)
        self.arrivals = self.rng("arrivals")
        self.ids = student_ids(self.system.config.students)
        self._offer(self.knee * LADDER[0], WARMUP)
        self.recorder.take()
        self._rung = 0

    def windows_for(self, seconds: float) -> int:
        """Whole ladders only: every rung is offered equally often."""
        ladders = max(1, round(seconds * self.windows_per_second / len(LADDER)))
        return ladders * len(LADDER)

    def advance(self) -> None:
        """Offer the next rung of the ladder (one window per rung)."""
        rate = self.knee * LADDER[self._rung % len(LADDER)]
        self._rung += 1
        self._offer(rate, RUNG_SECONDS)
        self.recorder.samples.rate = rate
        self.recorder.samples.arrival_s = RUNG_SECONDS

    def _offer(self, rate: float, seconds: float) -> None:
        """Poisson arrivals at ``rate`` for ``seconds``, then drain."""
        system, env = self.system, self.system.env
        process = self.injector.spawn(self._arrivals(rate, env.now + seconds))
        env.run(until=process)
        while self.recorder.in_flight:
            system.run_until(env.now + 0.05)

    def _arrivals(self, rate: float, end: float):
        env = self.system.env
        while True:
            due = env.now + self.arrivals.expovariate(rate)
            if due >= end:
                yield env.timeout(end - env.now)
                return
            yield env.timeout(due - env.now)
            student = self.ids[self.arrivals.randrange(len(self.ids))]
            self.injector.spawn(self._call(student))

    def _call(self, student: str):
        token = self.recorder.begin()
        service = self.service
        try:
            value = yield from self.soap.call(
                service.address, service.path, "StudentInformation", {"ID": student}
            )
        except (SoapFault, RequestTimeout) as error:
            self.recorder.end(token, _failure(error))
        else:
            self.recorder.end(token, check_student(value, student))


WORKLOADS: Dict[str, Callable[[int], Harness]] = {
    "read-steady": ReadSteady,
    "write-mixed": WriteMixed,
    "failover-churn": FailoverChurn,
    "overload-open": OverloadOpen,
}
