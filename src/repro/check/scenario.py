"""The scenario protocol: what the one exploration pipeline runs against.

:mod:`repro.check.explorer` shrinks, saves, loads, replays, explores and
self-tests through :class:`Scenario`'s members only, so a deployment
becomes checkable by subclassing it — as
:class:`~repro.check.explorer.CheckScenario` and
:class:`~repro.check.saga.SagaCheckScenario` do.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List

from .schedule import Schedule

__all__ = ["Scenario"]


class Scenario:
    """The fixed half of an explored run (the schedule is the other half).

    Subclasses are frozen dataclasses whose fields are everything a repro
    file needs to rebuild the deployment.  The result :meth:`run`
    returns carries ``violations``, ``violated_at``, ``decisions``,
    ``hosts`` (what a sampled fault may target), ``timeline``
    (``(sim_time, decisions)`` at every slice boundary), ``digest()``
    (the replay fingerprint) and ``REPRO_FIELDS`` (the result fields a
    repro file records next to the digest).
    """

    #: The ``format`` field of this scenario's repro files; the loader
    #: picks the scenario class by it.
    REPRO_FORMAT = ""

    def run(self, schedule: Schedule) -> Any:
        """Execute one (scenario, schedule) pair, auditing slice by slice."""
        raise NotImplementedError

    def seeded_defect(self) -> "Scenario":
        """This scenario with the protection its invariants guard switched
        off: the self-test's target, which *must* violate."""
        raise NotImplementedError

    def directed_schedules(self, baseline: Any) -> List[Schedule]:
        """The self-test's aimed schedules, in try order, built against a
        clean baseline run of :meth:`seeded_defect`."""
        raise NotImplementedError

    def sample_schedule(
        self, rng: random.Random, baseline: Any, max_ops: int, label: str
    ) -> Schedule:
        """One random schedule over what this scenario lets faults target."""
        raise NotImplementedError

    def replace(self, **changes: Any) -> "Scenario":
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Rebuild from a repro file; unknown keys are ignored and missing
        ones take their defaults, so older files keep loading."""
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})
