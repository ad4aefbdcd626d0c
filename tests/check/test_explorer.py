"""The explorer end to end: runs, injection, repro files, self-test.

These tests drive real (small) simulated deployments, so they are the
slowest in the package — each ``run_schedule`` is a full
settle/probe/cooldown scenario.  The scenarios stay at the
:class:`CheckScenario` defaults (3 replicas, 12s probe window) to keep
them cheap.
"""

import pathlib

import pytest

from repro.check import (
    CheckScenario,
    FaultOp,
    Schedule,
    ScheduleExplorer,
    load_repro,
    replay_repro,
    run_schedule,
    self_test,
)
from repro.check.explorer import save_repro

#: Repro files written by an earlier release (``check --self-test`` and
#: the saga self-test at seed 42): the loader must keep replaying both
#: formats, and re-saving must reproduce them byte for byte.
DATA = pathlib.Path(__file__).parent / "data"
COMMITTED_REPROS = ("self-test-repro.json", "saga-self-test-repro.json")


@pytest.fixture(scope="module")
def baseline():
    """One shared clean baseline run (module-scoped: it is pure)."""
    return run_schedule(CheckScenario(), Schedule(label="baseline"))


class TestRunSchedule:
    def test_baseline_is_clean_and_productive(self, baseline):
        assert baseline.violations == []
        assert baseline.probes_ok > 0
        assert baseline.probes_failed == 0
        assert baseline.decisions > 100  # enough room to aim faults
        assert baseline.effects_applied > 0
        assert baseline.hosts  # the watched replica hosts

    def test_runs_are_deterministic(self, baseline):
        again = run_schedule(CheckScenario(), Schedule(label="baseline"))
        assert again.digest() == baseline.digest()

    def test_injected_fault_fires_and_recovers(self, baseline):
        schedule = Schedule(
            ops=(
                FaultOp(
                    at_decision=baseline.decisions // 4,
                    action="crash-coordinator",
                    duration=3.0,
                ),
            ),
            label="one-crash",
        )
        result = run_schedule(CheckScenario(), schedule)
        assert len(result.fired) == 1
        assert result.fired[0]["victim"] in baseline.hosts
        assert result.violations == []  # fencing on: the crash is survivable

    def test_drop_op_fires_at_a_network_point(self, baseline):
        schedule = Schedule(
            ops=(
                FaultOp(
                    at_decision=baseline.decisions // 3,
                    action="drop",
                    point="pre-deliver",
                ),
            ),
            label="one-drop",
        )
        result = run_schedule(CheckScenario(), schedule)
        assert len(result.fired) == 1
        assert result.fired[0]["victim"] == "<message>"
        assert result.violations == []


class TestReproFiles:
    def test_save_load_replay_round_trip(self, tmp_path, baseline):
        path = str(tmp_path / "repro.json")
        schedule = Schedule(
            tiebreak={"kind": "shuffle", "seed": 17}, label="round-trip"
        )
        result = run_schedule(CheckScenario(), schedule)
        save_repro(path, CheckScenario(), schedule, result)
        loaded_scenario, loaded_schedule, expected = load_repro(path)
        assert loaded_scenario == CheckScenario()
        assert loaded_schedule == schedule
        assert expected["digest"] == result.digest()
        ok, replayed, _expected = replay_repro(path)
        assert ok
        assert replayed.digest() == result.digest()

    def test_replay_detects_scenario_drift(self, tmp_path, baseline):
        """A doctored repro file must *fail* replay, not silently pass."""
        path = str(tmp_path / "repro.json")
        schedule = Schedule(label="drift")
        result = run_schedule(CheckScenario(), schedule)
        save_repro(path, CheckScenario(), schedule, result)
        import json

        with open(path) as handle:
            data = json.load(handle)
        data["scenario"]["seed"] = CheckScenario().seed + 1
        with open(path, "w") as handle:
            json.dump(data, handle)
        ok, _replayed, _expected = replay_repro(path)
        assert not ok


class TestCommittedRepros:
    @pytest.mark.parametrize("name", COMMITTED_REPROS)
    def test_replays_and_resaves_byte_identically(self, tmp_path, name):
        path = DATA / name
        ok, replayed, expected = replay_repro(str(path))
        assert ok, (replayed.digest(), expected["digest"])
        assert replayed.violations == expected["violations"]
        scenario, schedule, _payload = load_repro(str(path))
        resaved = tmp_path / name
        save_repro(str(resaved), scenario, schedule, replayed)
        assert resaved.read_bytes() == path.read_bytes()


class TestExplorer:
    def test_small_exploration_is_clean(self):
        report = ScheduleExplorer(
            CheckScenario(), seeds=range(1), schedules_per_seed=2
        ).explore()
        assert report.clean
        assert report.runs == 3  # baseline + two schedules
        assert "all hold" in report.format()

    def test_wall_clock_budget_truncates(self):
        report = ScheduleExplorer(
            CheckScenario(),
            seeds=range(3),
            schedules_per_seed=50,
            time_budget=0.0,
        ).explore()
        assert report.truncated
        assert report.clean


class TestSelfTest:
    def test_fencing_off_violation_is_found_shrunk_and_replayed(self, tmp_path):
        """The checker's own teeth: disable epoch fencing and demand the
        harness produce a confirmed, minimal, replayable counterexample."""
        path = str(tmp_path / "self-test-repro.json")
        outcome = self_test(CheckScenario(seed=42), repro_path=path)
        assert outcome["ok"], outcome
        assert outcome["violations"]
        assert outcome["replay_ok"]
        # The shrunk schedule must still violate, and the repro file must
        # declare the fencing-off scenario it ran under.
        assert outcome["shrunk_violations"]
        scenario, schedule, _expected = load_repro(path)
        assert scenario.epoch_fencing is False
        assert schedule.ops  # a schedule-induced violation, not baseline
