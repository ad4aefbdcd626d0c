"""Workload generators for the benchmark harness.

Two client models drive the Whisper front-end:

* **closed loop** — a fixed population of clients, each issuing the next
  request after the previous completes plus a think time (the usual B2B
  integration pattern: one in-flight request per partner);
* **open loop (Poisson)** — requests arrive at a target rate regardless of
  completions, which exposes saturation in the throughput/latency sweep.

Both record per-request latency and outcome into a :class:`WorkloadResult`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.system import WhisperSystem
from ..simnet.events import Interrupt
from ..soap.client import SoapClient
from ..soap.fault import SoapFault
from ..soap.http import RequestTimeout
from .stats import Summary, summarize

__all__ = [
    "WorkloadResult",
    "ClosedLoopWorkload",
    "PoissonWorkload",
    "student_arguments",
]

#: Process-wide counter for workload host names: ``id(self)``-derived
#: names collide when a freed workload's address is reused, which breaks
#: multi-phase benches that run one workload after another.
_workload_ids = itertools.count()


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    latencies: List[float] = field(default_factory=list)
    successes: int = 0
    faults: int = 0
    timeouts: int = 0
    #: Requests refused end-to-end by admission control (terminal
    #: ``Server.Busy`` faults) — counted separately from ``faults`` so
    #: overload sheds are distinguishable from application errors.
    shed: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def requests(self) -> int:
        return self.successes + self.faults + self.timeouts + self.shed

    @property
    def availability(self) -> float:
        """Fraction of requests answered successfully."""
        if self.requests == 0:
            return 1.0
        return self.successes / self.requests

    @property
    def accepted(self) -> int:
        """Requests the system admitted (everything it did not shed)."""
        return self.requests - self.shed

    @property
    def accepted_availability(self) -> float:
        """Fraction of *admitted* requests answered successfully.

        Under overload control this is the headline number: shedding is a
        deliberate refusal, so it should not drag down the success rate of
        the work the system agreed to do.
        """
        if self.accepted == 0:
            return 1.0
        return self.successes / self.accepted

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def throughput(self) -> float:
        """Successful requests per second of simulated time."""
        if self.duration <= 0:
            return 0.0
        return self.successes / self.duration

    def latency_summary(self) -> Summary:
        return summarize(self.latencies)


#: Builds the argument dict for request number ``i``.
ArgumentFactory = Callable[[int], Dict[str, Any]]


def student_arguments(students: int) -> ArgumentFactory:
    """Cycle request arguments over the IDs of a ``students``-row table."""

    def arguments(index: int) -> Dict[str, Any]:
        return {"ID": f"S{(index % students) + 1:05d}"}

    return arguments


_student_arguments = student_arguments(200)


class ClosedLoopWorkload:
    """A fixed population of think-time clients."""

    def __init__(
        self,
        system: WhisperSystem,
        address: Tuple[str, int],
        path: str,
        operation: str,
        clients: int = 1,
        think_time: float = 0.05,
        requests_per_client: int = 50,
        call_timeout: float = 30.0,
        arguments: Optional[ArgumentFactory] = None,
    ):
        self.system = system
        self.address = address
        self.path = path
        self.operation = operation
        self.clients = clients
        self.think_time = think_time
        self.requests_per_client = requests_per_client
        self.call_timeout = call_timeout
        self.arguments = arguments or _student_arguments
        self.result = WorkloadResult()
        self._workload_id = next(_workload_ids)

    def run(self) -> WorkloadResult:
        """Execute the workload to completion (advances the simulation)."""
        env = self.system.env
        self.result.started_at = env.now
        processes = []
        for client_index in range(self.clients):
            node = self.system.network.add_host(
                f"client-{client_index}-{self._workload_id}"
            )
            soap = SoapClient(node, default_timeout=self.call_timeout)
            processes.append(
                node.spawn(
                    self._client_loop(soap, client_index),
                    name=f"workload-client-{client_index}",
                )
            )
        for process in processes:
            env.run(until=process)
        self.result.finished_at = env.now
        return self.result

    def _client_loop(self, soap: SoapClient, client_index: int):
        env = self.system.env
        for request_index in range(self.requests_per_client):
            sequence = client_index * self.requests_per_client + request_index
            started = env.now
            try:
                yield from soap.call(
                    self.address,
                    self.path,
                    self.operation,
                    self.arguments(sequence),
                    timeout=self.call_timeout,
                )
            except SoapFault as fault:
                if fault.is_busy:
                    self.result.shed += 1
                else:
                    self.result.faults += 1
            except RequestTimeout:
                self.result.timeouts += 1
            except Interrupt:
                return
            else:
                self.result.successes += 1
                self.result.latencies.append(env.now - started)
            if self.think_time > 0:
                yield env.timeout(self.think_time)


class PoissonWorkload:
    """Open-loop arrivals at a fixed rate from one injector host."""

    def __init__(
        self,
        system: WhisperSystem,
        address: Tuple[str, int],
        path: str,
        operation: str,
        rate: float = 50.0,
        duration: float = 10.0,
        call_timeout: float = 30.0,
        arguments: Optional[ArgumentFactory] = None,
        rng_stream: str = "poisson-workload",
    ):
        if rate <= 0:
            raise ValueError("arrival rate must be positive")
        self.system = system
        self.address = address
        self.path = path
        self.operation = operation
        self.rate = rate
        self.duration = duration
        self.call_timeout = call_timeout
        self.arguments = arguments or _student_arguments
        self.rng = system.network.rng.stream(rng_stream)
        self.result = WorkloadResult()
        self._workload_id = next(_workload_ids)
        self._outstanding = 0
        self._drained = None

    def run(self) -> WorkloadResult:
        env = self.system.env
        node = self.system.network.add_host(f"injector-{self._workload_id}")
        self.result.started_at = env.now
        arrival_process = node.spawn(self._arrival_loop(node), name="poisson-arrivals")
        env.run(until=arrival_process)
        # Drain in-flight calls; re-arm the event in case it fired early.
        while self._outstanding > 0:
            self._drained = env.event()
            env.run(until=self._drained)
        self.result.finished_at = env.now
        return self.result

    def _arrival_loop(self, node):
        env = self.system.env
        deadline = env.now + self.duration
        sequence = 0
        while env.now < deadline:
            gap = self.rng.expovariate(self.rate)
            yield env.timeout(gap)
            if env.now >= deadline:
                break
            soap = SoapClient(node, default_timeout=self.call_timeout)
            self._outstanding += 1
            node.spawn(self._one_call(soap, sequence), name=f"poisson-call-{sequence}")
            sequence += 1

    def _one_call(self, soap: SoapClient, sequence: int):
        env = self.system.env
        started = env.now
        try:
            yield from soap.call(
                self.address,
                self.path,
                self.operation,
                self.arguments(sequence),
                timeout=self.call_timeout,
            )
        except SoapFault as fault:
            if fault.is_busy:
                self.result.shed += 1
            else:
                self.result.faults += 1
        except RequestTimeout:
            self.result.timeouts += 1
        except Interrupt:
            return
        else:
            self.result.successes += 1
            self.result.latencies.append(env.now - started)
        finally:
            self._outstanding -= 1
            if self._outstanding == 0 and self._drained is not None:
                if not self._drained.triggered:
                    self._drained.succeed()
