"""Tests for the ``python -m repro`` command-line interface."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import _parse_params, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_crash_defaults(self):
        args = build_parser().parse_args(["crash"])
        assert args.n == 64 and args.f == 0

    def test_byzantine_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["byzantine", "--strategy", "nuke"])

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.scenario == "crash,gossip" and args.n == 16

    def test_param_scalars_are_json_decoded(self):
        params = _parse_params(["rate=0.5", "strategy=withholder"])
        assert params == {"rate": 0.5, "strategy": "withholder"}

    def test_param_structured_json_stays_text(self):
        # Engine params are JSON scalars; a structured value reaches the
        # driver as its JSON text (the faults driver's spec form).
        raw = '[{"kind": "omission", "p": 0.1}]'
        assert _parse_params([f"faults={raw}"]) == {"faults": raw}


class TestSpecFlags:
    """``sweep`` and ``fabric enqueue`` take one sweep spec the same way."""

    COMMANDS = [["sweep"], ["fabric", "enqueue"]]

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_help_lists_the_spec_flags_and_every_driver(self, command, capsys):
        from repro.engine.sweeps import driver_names

        with pytest.raises(SystemExit) as done:
            build_parser().parse_args([*command, "--help"])
        assert done.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag in ("--driver {", "--n N", "--seeds SEEDS", "--f F",
                     "--param KEY=VALUE"):
            assert flag in text
        listed = text.split("--driver {", 1)[1].split("}", 1)[0].split(",")
        assert sorted(listed) == driver_names()
        assert "named summary driver from repro.engine.sweeps" in text
        assert "extra driver keyword (JSON value); repeatable" in text

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_spec_defaults(self, command):
        args = build_parser().parse_args(command)
        assert (args.driver, args.n, args.seeds, args.f, args.param) == (
            "crash", "16,32,64", "0-4", "0", [])

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_bad_spec_is_one_error_line(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as done:
            main([*command, "--driver", "crash", "--n", "x"])
        assert done.value.code == (
            f"python -m repro {' '.join(command)}: error: "
            "invalid literal for int() with base 10: 'x'")
        assert list(tmp_path.iterdir()) == []


class TestCommands:
    def test_crash_success_exit_code(self, capsys):
        assert main(["crash", "--n", "12", "--f", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "crash-renaming" in out
        assert "yes" in out

    def test_crash_without_faults(self, capsys):
        assert main(["crash", "--n", "8"]) == 0

    def test_byzantine_run(self, capsys):
        code = main(["byzantine", "--n", "8", "--f", "1",
                     "--strategy", "silent", "--seed", "2"])
        assert code == 0
        assert "byzantine-renaming" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1", "--n", "10", "--f", "1"]) == 0
        out = capsys.readouterr().out
        assert "gossip" in out and "halving" in out

    def test_lowerbound(self, capsys):
        assert main(["lowerbound", "--n", "12", "--trials", "200"]) == 0
        out = capsys.readouterr().out
        assert "11 messages" in out

    def test_faults_custom_spec(self, capsys):
        code = main(["faults", "--scenario", "gossip", "--n", "8",
                     "--seed", "1", "--watchdog-rounds", "200",
                     "--faults", '[{"kind": "omission", "p": 0.1}]'])
        assert code == 0
        out = capsys.readouterr().out
        assert "SAFE_TERMINATED" in out and "custom" in out

    def test_faults_frontier_exit_zero_with_brittle_cells(self, capsys):
        # Brittle rungs are expected rows; only a failed fault-free
        # control rung is a harness-level failure.
        code = main(["faults", "--scenario", "crash", "--n", "12",
                     "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SAFETY_VIOLATED" in out and "first_unsafe_rung" in out


class TestBenchForwarding:
    """``perf`` / ``serve`` / ``chaos`` declare their flags once, in
    their harness: ``python -m repro`` hands the command line over."""

    @pytest.mark.parametrize("name, argv", [
        ("perf", ["--n", "10000", "--workloads", "broadcast,crash",
                  "--repeat", "1", "--out", "BENCH_perf_n10k.json"]),
        ("serve", ["--quick", "--events", "/tmp/serve-events.jsonl",
                   "--out", "BENCH_serve.json"]),
        ("chaos", ["--resilience", '{"max_retries": 2}', "--help"]),
    ])
    def test_harness_main_receives_the_argv_verbatim(self, monkeypatch,
                                                     name, argv):
        harness = importlib.import_module(f"benchmarks.{name}")
        received = []
        monkeypatch.setattr(
            harness, "main", lambda args: received.append(args) or 7)
        assert main([name, *argv]) == 7
        assert received == [argv]
        assert f"\n    {name} " in build_parser().format_help()


class TestStoreLocation:
    @pytest.mark.parametrize("command", [
        ["sweep", "--driver", "crash", "--n", "8", "--seeds", "0",
         "--store", "duckdb://x.duckdb"],
        ["fabric", "status", "--store", "postgres://x"],
    ], ids=["sweep-duckdb", "fabric-status-postgres"])
    def test_unknown_scheme_is_one_line_no_traceback(self, command, tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "repro", *command], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120)
        assert done.returncode != 0
        assert done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert line.startswith("python -m repro: unknown run-store scheme ")
        assert list(tmp_path.iterdir()) == []
