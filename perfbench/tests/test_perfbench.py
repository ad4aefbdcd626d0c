"""Tests of the benchmark itself (not of the program it measures).

    python3 -m pytest perfbench/tests -q

Tiny runs (``seconds=0``) measure a single window, with the overload
ladder's rungs shortened, so every workload finishes in seconds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.backend.services import ServiceImplementation  # noqa: E402
from repro.backend.store import Database  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "RUNG_SECONDS", 0.25)


def test_benchmark_json_names_what_the_runner_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == ledger.PER_LAYER_UNITS
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in BENCHMARK["end_to_end"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tiny, workload, trace):
    result, record = run.run(workload, seed=1, seconds=0, trace=bool(trace))
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float) and math.isfinite(reported["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    json.dumps(result)


def test_traced_run_simulates_exactly_what_the_untraced_run_does(tiny):
    untraced, _ = run.run("failover-churn", seed=4, seconds=0, trace=False)
    again, _ = run.run("failover-churn", seed=4, seconds=0, trace=False)
    traced, record = run.run("failover-churn", seed=4, seconds=0, trace=True)
    assert traced["correct"], record["problems"]
    simulated = {name: untraced["metrics"][name]["value"] for name in run.SIMULATED}
    assert simulated == {name: again["metrics"][name]["value"] for name in run.SIMULATED}
    assert record["simulated_traced"] == record["simulated_untraced"] == simulated


def test_failover_crash_lands_on_in_flight_requests(tiny):
    result, _ = run.run("failover-churn", seed=2, seconds=0, trace=False)
    assert result["metrics"]["recovery_p50_ms"]["value"] > 1000.0
    assert result["metrics"]["success_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["read-steady", "write-mixed"])
def test_wrong_backend_reply_fails_the_run(tiny, monkeypatch, tmp_path, workload):
    original = ServiceImplementation.invoke

    def wrong_student(self, arguments):
        value = original(self, arguments)
        return dict(value, studentId="S99999")

    monkeypatch.setattr(ServiceImplementation, "invoke", wrong_student)
    result, record = run.run(workload, seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert record["problems"][0].startswith("wrong:")
    monkeypatch.setattr(run, "HERE", str(tmp_path))  # keep the record out of perfbench/out
    exit_code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0"])
    assert exit_code != 0
    assert (tmp_path / "out" / f"{workload}-seed1-trace0.json").exists()


def test_duplicate_effect_fails_the_exactly_once_audit(tiny, monkeypatch):
    original = Database.record_effect

    def applied_twice(self, invocation_id, applied_by):
        original(self, invocation_id, applied_by)
        original(self, invocation_id, applied_by)

    monkeypatch.setattr(Database, "record_effect", applied_twice)
    result, record = run.run("write-mixed", seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert any("applied 2 times" in problem for problem in record["problems"])


def test_inputs_come_from_the_deployed_students():
    harness = workloads.ReadSteady(seed=9)
    harness.build()
    table = harness.service.group.peers[0].implementation.backend.table("students")
    assert all(table.contains(student) for student in workloads.student_ids())
    assert len(workloads.student_ids()) == harness.system.config.students


def test_quantile_is_an_exact_sample():
    values = [float(value) for value in range(1, 101)]
    assert workloads.quantile(values, 0.5) == 50.0
    assert workloads.quantile(values, 0.99) == 99.0
    assert workloads.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert workloads.quantile([7.0], 0.99) == 7.0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
