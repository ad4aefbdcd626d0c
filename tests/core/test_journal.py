"""Unit tests for the dedup/result journal (exactly-once bookkeeping)."""

from collections import OrderedDict

import pytest

from repro.core import DedupJournal, JournalEntry
from repro.core.journal import DONE, EXECUTING


class _CountingEntries(OrderedDict):
    """A journal entry map that counts the entries every walk visits."""

    visits = 0

    def __iter__(self):
        for key in super().__iter__():
            self.visits += 1
            yield key

    def items(self):
        for item in super().items():
            self.visits += 1
            yield item


def _keys(journal):
    return list(journal._entries)


def _done_entry(invocation_id, reply="reply", epoch=None, recorded_at=0.0):
    return JournalEntry(
        invocation_id=invocation_id,
        state=DONE,
        reply=reply,
        epoch=epoch,
        recorded_at=recorded_at,
    )


class TestBegin:
    def test_begin_marks_executing(self):
        journal = DedupJournal()
        entry = journal.begin("inv-1", request="req", epoch="e1", now=3.0)
        assert entry.state == EXECUTING
        assert entry.request == "req"
        assert entry.recorded_at == 3.0
        assert "inv-1" in journal

    def test_begin_is_idempotent(self):
        journal = DedupJournal()
        first = journal.begin("inv-1", request="req-a")
        second = journal.begin("inv-1", request="req-b")
        assert second is first
        assert len(journal) == 1
        # The latest pending request wins (it is the one a late result
        # must answer).
        assert first.request == "req-b"

    def test_begin_never_demotes_done(self):
        journal = DedupJournal()
        journal.complete("inv-1", reply="result")
        entry = journal.begin("inv-1", request="retry")
        assert entry.done
        assert entry.reply == "result"
        assert entry.request is None


class TestComplete:
    def test_first_complete_wins(self):
        journal = DedupJournal()
        journal.begin("inv-1")
        entry, first = journal.complete("inv-1", reply="A", epoch="e1", now=5.0)
        assert first
        assert entry.done
        assert entry.reply == "A"
        assert entry.epoch == "e1"

    def test_duplicate_complete_suppressed(self):
        journal = DedupJournal()
        journal.complete("inv-1", reply="A")
        entry, first = journal.complete("inv-1", reply="B")
        assert not first
        assert entry.reply == "A"  # first result wins
        assert journal.stats.duplicates_suppressed == 1

    def test_complete_without_begin(self):
        journal = DedupJournal()
        entry, first = journal.complete("inv-1", reply="A")
        assert first and entry.done


class TestAbandon:
    def test_abandon_drops_executing(self):
        journal = DedupJournal()
        journal.begin("inv-1")
        journal.abandon("inv-1")
        assert "inv-1" not in journal

    def test_abandon_never_drops_done(self):
        journal = DedupJournal()
        journal.complete("inv-1", reply="A")
        journal.abandon("inv-1")
        assert journal.lookup("inv-1").reply == "A"

    def test_abandon_unknown_is_noop(self):
        DedupJournal().abandon("ghost")


class TestMerge:
    def test_merge_installs_remote_done(self):
        journal = DedupJournal()
        assert journal.merge(_done_entry("inv-1", reply="A"))
        assert journal.lookup("inv-1").reply == "A"
        assert journal.stats.merges == 1

    def test_merge_upgrades_executing_placeholder(self):
        journal = DedupJournal()
        journal.begin("inv-1", request="pending")
        assert journal.merge(_done_entry("inv-1", reply="A"), now=7.0)
        local = journal.lookup("inv-1")
        assert local.done and local.reply == "A"
        assert local.request is None

    def test_merge_local_done_wins(self):
        journal = DedupJournal()
        journal.complete("inv-1", reply="local")
        assert not journal.merge(_done_entry("inv-1", reply="remote"))
        assert journal.lookup("inv-1").reply == "local"

    def test_merge_rejects_executing_entries(self):
        journal = DedupJournal()
        assert not journal.merge(JournalEntry(invocation_id="inv-1"))
        assert "inv-1" not in journal


class TestCrashSemantics:
    def test_drop_executing_keeps_done(self):
        journal = DedupJournal()
        journal.begin("in-flight-1")
        journal.begin("in-flight-2")
        journal.complete("finished", reply="A")
        assert journal.drop_executing() == 2
        assert "finished" in journal
        assert "in-flight-1" not in journal

    def test_export_ships_only_done_without_transients(self):
        journal = DedupJournal()
        journal.begin("in-flight", request="pending")
        journal.complete("finished", reply="A")
        exported = journal.export()
        assert [entry.invocation_id for entry in exported] == ["finished"]
        assert all(entry.request is None for entry in exported)


class TestBounds:
    def test_capacity_evicts_oldest_done(self):
        journal = DedupJournal(capacity=2)
        journal.complete("old", reply="1")
        journal.complete("mid", reply="2")
        journal.complete("new", reply="3")
        assert len(journal) == 2
        assert "old" not in journal
        assert journal.stats.evictions == 1

    def test_eviction_spares_executing(self):
        journal = DedupJournal(capacity=2)
        journal.begin("in-flight-1")
        journal.begin("in-flight-2")
        journal.complete("done-1", reply="A")
        assert "in-flight-1" in journal
        assert "in-flight-2" in journal
        assert "done-1" not in journal  # only DONE entries are evictable

    def test_stale_executing_head_is_skipped(self):
        journal = DedupJournal(capacity=3)
        journal.begin("stale")
        journal.complete("a", reply="A")
        journal.complete("b", reply="B")
        journal.complete("c", reply="C")
        assert _keys(journal) == ["stale", "b", "c"]
        assert journal.stats.evictions == 1

    def test_all_in_flight_journal_grows_then_trims_back(self):
        journal = DedupJournal(capacity=2)
        for i in range(5):
            journal.begin(f"x{i}")
        assert len(journal) == 5  # in-flight work is never evicted
        assert journal.stats.evictions == 0
        # Each completion or merge makes one DONE entry, evicted at once
        # while the journal is over capacity.
        journal.complete("x0", reply="A")
        assert len(journal) == 4
        journal.merge(_done_entry("x1"))
        assert len(journal) == 3
        journal.complete("x2", reply="C")
        assert _keys(journal) == ["x3", "x4"]
        journal.complete("x3", reply="D")
        assert _keys(journal) == ["x4", "x3"]
        assert journal.stats.evictions == 3

    def test_multi_victim_eviction_counts_each_victim_once(self):
        journal = DedupJournal(capacity=6)
        for i in range(4):
            journal.complete(f"d{i}", reply=i)
        journal.begin("x0")
        journal.begin("x1")
        # Shrinking a live journal is what lets one call see an excess of
        # more than one entry.
        journal.capacity = 2
        assert journal.drop_executing() == 2
        assert journal.stats.evictions == 0
        pushed = [_done_entry(f"p{i}") for i in range(3)]
        journal.merge(pushed[0])
        assert _keys(journal) == ["d3", "p0"]
        assert journal.stats.evictions == 3
        for entry in pushed[1:]:
            journal.merge(entry)
        assert _keys(journal) == ["p1", "p2"]
        assert journal.stats.evictions == 5

    def test_full_journal_eviction_visits_only_inflight_head_and_excess(self):
        journal = DedupJournal(capacity=4096)
        journal._entries = entries = _CountingEntries()
        in_flight = 3
        for i in range(in_flight):
            journal.begin(f"stale-{i}")
        for i in range(journal.capacity - in_flight):
            journal.complete(f"fill-{i}", reply=i)
        assert journal.stats.evictions == 0
        for i in range(256):
            excess = len(journal) + 1 - journal.capacity
            entries.visits = 0
            journal.complete(f"extra-{i}", reply=i)
            assert entries.visits <= excess + in_flight
        assert journal.stats.evictions == 256
        assert len(journal) == journal.capacity

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DedupJournal(capacity=0)
