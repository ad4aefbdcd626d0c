"""A frozen reference workload that reads the machine's current speed.

On a shared VM the same work costs up to twice as much CPU from one minute
to the next (frequency changes, neighbours contending for caches and
memory).  That moves CPU per request with no change in the program, by
more than any bound worth gating on.  So the benchmark runs a slice of this
reference after every window and after every set-up, and rescales its
times to a nominal machine on which one reference unit takes
:data:`NOMINAL_UNIT_S`: ``time * NOMINAL_UNIT_S / unit_s``.

The reference imitates the program's mix without importing it, so no
change to the program can change it: generator processes on a heap-ordered
event loop exchanging SOAP-style envelopes (serialised and parsed with
ElementTree), plus pointer chasing through a shuffled pool of objects
larger than a core's private caches, since much of the program's
steady-state cost is memory-bound.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass

#: CPU seconds of one unit on the nominal machine (a quiet 2-vCPU x86 VM).
NOMINAL_UNIT_S = 0.012
#: Share of each window's CPU spent on the reference after it.
SHARE = 0.1

_NS = "http://schemas.xmlsoap.org/soap/envelope/"
_FIELDS = ("studentId", "name", "degree", "email", "enrolledCourses", "source")
_POOL_SIZE = 100_000
_HOPS = 20_000


def _envelope(index: int) -> str:
    root = ET.Element(f"{{{_NS}}}Envelope")
    body = ET.SubElement(ET.SubElement(root, f"{{{_NS}}}Body"), "StudentInformationResponse")
    for name in _FIELDS:
        ET.SubElement(body, name).text = f"{name}-{index:05d}"
    return ET.tostring(root, encoding="unicode")


def _process(mailbox, counter, ident: int, steps: int):
    for step in range(steps):
        yield 0.001 * ((ident * 7 + step) % 5 + 1)
        document = ET.fromstring(_envelope(ident * steps + step))
        mailbox[(ident + 1) % 8] = {child.tag: child.text for child in document.iter()}
        counter[0] += len(mailbox)


def _event_loop(processes: int = 8, steps: int = 12) -> int:
    queue, mailbox, counter = [], {}, [0]
    sequence = itertools.count()
    for ident in range(processes):
        heapq.heappush(queue, (0.0, next(sequence), _process(mailbox, counter, ident, steps)))
    while queue:
        now, _, generator = heapq.heappop(queue)
        try:
            delay = next(generator)
        except StopIteration:
            continue
        heapq.heappush(queue, (now + delay, next(sequence), generator))
    return counter[0]


class _Node:
    __slots__ = ("value", "next")


def _pool() -> _Node:
    """A cycle through ``_POOL_SIZE`` nodes in shuffled memory order."""
    nodes = [_Node() for _ in range(_POOL_SIZE)]
    order = list(range(_POOL_SIZE))
    random.Random(7).shuffle(order)
    for position, index in enumerate(order):
        nodes[index].value = position
        nodes[index].next = nodes[order[(position + 1) % _POOL_SIZE]]
    return nodes[0]


@dataclass
class Calibration:
    """Accumulates reference units run during one benchmark run."""

    cpu_s: float = 0.0
    units: int = 0

    def __post_init__(self):
        self._start = _pool()

    def unit(self) -> float:
        """Run one reference unit; returns its CPU seconds."""
        started = time.process_time()
        _event_loop()
        node, total = self._start, 0
        for _ in range(_HOPS):
            total += node.value
            node = node.next
        elapsed = time.process_time() - started
        self.cpu_s += elapsed
        self.units += 1
        return elapsed

    def after(self, cpu_s: float) -> None:
        """Run reference units worth about ``SHARE`` of ``cpu_s``."""
        for _ in range(max(1, round(cpu_s * SHARE / NOMINAL_UNIT_S))):
            self.unit()

    @property
    def scale(self) -> float:
        """Factor from this machine's current CPU seconds to nominal ones."""
        return NOMINAL_UNIT_S / (self.cpu_s / self.units)
