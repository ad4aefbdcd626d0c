"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig4_defaults(self):
        args = build_parser().parse_args(["fig4"])
        assert args.max_peers == 16
        assert args.seed == 42

    def test_seed_flag_global(self):
        args = build_parser().parse_args(["--seed", "7", "rtt"])
        assert args.seed == 7

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quantum"])

    def test_check_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.seeds == 5
        assert args.schedules == 50
        assert args.max_ops == 4
        assert args.timeout is None
        assert args.replay is None
        assert not args.self_test

    @pytest.mark.parametrize(
        "flags",
        [["--shards", "3"], ["--regions", "2"], ["--capacity"]],
    )
    def test_check_saga_rejects_whisper_axes(self, capsys, flags):
        """--saga runs the loan fleet; a deployment axis it would silently
        ignore fails at argument validation instead."""
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--saga", *flags, "--seeds", "1", "--schedules", "2"])
        assert exit_info.value.code == 2
        assert "--saga does not combine with" in capsys.readouterr().err

    def test_check_self_test_and_replay_are_exclusive(self):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["check", "--self-test", "--replay", "x"])
        assert exit_info.value.code == 2


class TestCommands:
    def test_fig4_runs_small(self, capsys):
        assert main(["fig4", "--max-peers", "4"]) == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output
        assert "r²" in output or "r2" in output.lower()

    def test_rtt_runs_small(self, capsys):
        assert main(["rtt", "--samples", "20"]) == 0
        output = capsys.readouterr().out
        assert "RTT" in output
        assert "p95" in output

    def test_failover_runs(self, capsys):
        assert main(["failover", "--heartbeat", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "Coordinator crash" in output
        assert "re-binds" in output

    def test_availability_runs(self, capsys):
        assert main(["availability", "--replicas", "2"]) == 0
        output = capsys.readouterr().out
        assert "Availability under churn" in output
        assert "availability" in output

    def test_check_runs_small_and_clean(self, capsys, tmp_path):
        out = str(tmp_path / "repro.json")
        assert main(["check", "--seeds", "1", "--schedules", "2",
                     "--out", out]) == 0
        output = capsys.readouterr().out
        assert "schedule exploration" in output
        assert "all hold" in output

    def test_check_self_test_catches_unfenced_violation(self, capsys, tmp_path):
        out = str(tmp_path / "self-test.json")
        assert main(["check", "--self-test", "--out", out]) == 0
        output = capsys.readouterr().out
        assert "self-test" in output
        assert "OK" in output


#: Repro files of both formats, as an earlier release wrote them.
REPRO_DATA = pathlib.Path(__file__).parent.parent / "check" / "data"


class TestCheckReplay:
    @pytest.mark.parametrize(
        "name", ["self-test-repro.json", "saga-self-test-repro.json"]
    )
    def test_replay_reads_either_format(self, capsys, name):
        path = str(REPRO_DATA / name)
        assert main(["check", "--replay", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["match"] is True
        assert payload["violations"]

    @pytest.mark.parametrize("doctor", ["unknown", "missing"])
    def test_replay_of_unknown_format_exits_broken(self, capsys, tmp_path, doctor):
        """Exit 1 means "counterexample found"; a file the checker cannot
        read is a broken checker run (2), reported on one line."""
        data = json.loads((REPRO_DATA / "self-test-repro.json").read_text())
        if doctor == "unknown":
            data["format"] = "whisper-check/99"
        else:
            del data["format"]
        path = tmp_path / "doctored.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert "not a repro file" in captured.err
