"""Model-based property test: dedup-journal eviction against its reference rule.

Random sequences of ``begin`` / ``complete`` / ``merge`` / ``abandon`` /
``drop_executing`` (plus resizing a live journal, the one way a single call
can see more than one entry of excess) run over a small key space at
capacities 1-8, on the journal and on a reference journal whose ``_evict``
is the original list-copy rule.  After every step both must hold the same
keys in the same order, in the same states, with the same counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DedupJournal, JournalEntry
from repro.core.journal import DONE

KEYS = [f"inv-{i}" for i in range(10)]


class ListCopyJournal(DedupJournal):
    """Reference: evicts by copying the whole key list on every call."""

    def _evict(self) -> None:
        """Evict oldest ``DONE`` entries past capacity (never in-flight)."""
        if len(self._entries) <= self.capacity:
            return
        for key in list(self._entries):
            if len(self._entries) <= self.capacity:
                break
            if self._entries[key].done:
                del self._entries[key]
                self.stats.evictions += 1


keys = st.sampled_from(KEYS)
capacities = st.integers(min_value=1, max_value=8)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("begin"), keys),
        st.tuples(st.just("complete"), keys),
        st.tuples(st.just("merge"), keys),
        st.tuples(st.just("abandon"), keys),
        st.tuples(st.just("drop_executing")),
        st.tuples(st.just("resize"), capacities),
    ),
    max_size=80,
)


def apply(journal, step, op):
    name = op[0]
    if name == "begin":
        return journal.begin(op[1], request=step, now=step).state
    if name == "complete":
        entry, first = journal.complete(op[1], reply=step, now=step)
        return entry.reply, first
    if name == "merge":
        remote = JournalEntry(invocation_id=op[1], state=DONE, reply=step)
        return journal.merge(remote, now=step)
    if name == "abandon":
        return journal.abandon(op[1])
    if name == "drop_executing":
        return journal.drop_executing()
    journal.capacity = op[1]
    return None


def snapshot(journal):
    return [
        (key, entry.state, entry.reply) for key, entry in journal._entries.items()
    ]


@settings(max_examples=300, deadline=None)
@given(capacity=capacities, ops=operations)
def test_eviction_matches_list_copy_reference(capacity, ops):
    journal, reference = DedupJournal(capacity), ListCopyJournal(capacity)
    for step, op in enumerate(ops):
        assert apply(journal, step, op) == apply(reference, step, op)
        assert snapshot(journal) == snapshot(reference)
        assert journal.stats == reference.stats
