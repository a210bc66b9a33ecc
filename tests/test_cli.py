"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main, parse_param
from repro.analysis.tables import markdown_table, plain_table
from repro.engine import RunStore

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

    def test_byzantine_strategies_are_the_strategy_table(self):
        from repro.analysis.experiments import BYZANTINE_STRATEGIES

        for kind in BYZANTINE_STRATEGIES:
            args = build_parser().parse_args(["byzantine", "--strategy", kind])
            assert args.adversary == kind
        args = build_parser().parse_args(["byzantine"])
        assert (args.adversary, args.consensus_iterations) == ("withholder", 8)

    @pytest.mark.parametrize("name", ["perf", "serve", "chaos", "report"])
    def test_benchmarks_are_not_commands(self, name):
        # `perf` runs as `python -m benchmarks.perf`; the serve and
        # chaos tables are figures F16 / F17 of benchmarks/figures.py;
        # the figures' report is benchmarks/report.py, and a sweep's
        # progress is `runs`.
        with pytest.raises(SystemExit):
            build_parser().parse_args([name])

    def test_faults_defaults(self):
        # A string default goes through the flag's type= like a value.
        args = build_parser().parse_args(["faults"])
        assert args.scenario == ("crash", "gossip") and args.n == 16

    def test_param_scalars_are_json_decoded(self):
        assert parse_param("rate=0.5") == ("rate", 0.5)
        assert parse_param("strategy=withholder") == ("strategy",
                                                      "withholder")
        args = build_parser().parse_args(
            ["sweep", "--param", "rate=0.5", "--param", "slots=null"])
        assert dict(args.param) == {"rate": 0.5, "slots": None}

    def test_param_structured_json_stays_text(self):
        # Engine params are JSON scalars; a structured value reaches the
        # driver as its JSON text (the faults driver's spec form).
        raw = '[{"kind": "omission", "p": 0.1}]'
        assert parse_param(f"faults={raw}") == ("faults", raw)


#: Command path -> the first 16 hex digits of the sha256 of its
#: ``--help`` text at 80 columns, whitespace runs collapsed.  Recorded
#: before the eight ``--store`` declarations became one helper; the
#: top-level entry re-recorded when the work-queue command left the list,
#: and every entry with ``--store`` (and the top level's example) when
#: a store location became a file path only.
HELP_DIGESTS = {
    "": "33c4f39c38f3d957",
    "crash": "5c37620ade40bb6c",
    "byzantine": "7103b30e0cfa19aa",
    "table1": "1532c9d461fe9013",
    "lowerbound": "4bad012012c1f215",
    "sweep": "bcb5c73fab3cc0dc",
    "falsify": "84a64edbc19bcc60",
    "faults": "5804dc7270ed9d92",
    "obs": "47c45e35fe664507",
    "obs tail": "80f6c7611a72de62",
    "obs profile": "9cefdf76530c0ce1",
    "obs report": "2576524f15ff1eb4",
    "runs": "a15f9ea7222745a7",
    "runs export": "042451f77f0932e0",
}


def help_texts() -> dict[str, str]:
    """The ``--help`` text of the top level and every subcommand, by
    command path, whitespace runs collapsed."""
    texts = {}

    def walk(parser, path):
        texts[" ".join(path)] = " ".join(parser.format_help().split())
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    walk(child, [*path, name])

    walk(build_parser(), [])
    return texts


class TestHelpText:
    def test_every_commands_help_is_pinned(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        digests = {path: hashlib.sha256(text.encode()).hexdigest()[:16]
                   for path, text in help_texts().items()}
        assert digests == HELP_DIGESTS


class TestSpecFlags:
    """``sweep`` takes one sweep spec."""

    COMMANDS = [["sweep"]]

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
        # The string defaults of --n and --seeds go through their type=.
        args = build_parser().parse_args(command)
        assert (args.driver, args.n, args.seeds, args.f, args.param) == (
            "crash", [16, 32, 64], [0, 1, 2, 3, 4], "0", [])

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_bad_spec_is_one_error_line(self, command, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)
        prog = f"python -m repro {' '.join(command)}"
        # One flag's value: argparse's usage error.
        code, err = run_cli([*command, "--driver", "crash", "--n", "x"],
                            capsys)
        assert (code, err.splitlines()[-1]) == (2, (
            f"{prog}: error: argument --n: invalid literal for int() "
            "with base 10: 'x'"))
        # --f is checked at each n: one error line, exit 1.
        code, err = run_cli([*command, "--f", "bogus"], capsys)
        assert (code, err) == (1, (
            f"{prog}: error: bad fault-budget expression 'bogus': name "
            "'bogus' is not defined\n"))
        assert list(tmp_path.iterdir()) == []


class TestObsTail:
    def test_negative_last_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text('{"seq": 0, "ts": 0, "kind": "tick"}\n')
        code, err = run_cli(["obs", "tail", str(path), "--last", "-2"],
                            capsys)
        assert (code, err.splitlines()[-1]) == (2, (
            "python -m repro obs tail: error: argument --last: must be "
            ">= 0, got -2"))

    def test_every_family_is_checked(self, tmp_path, capsys):
        """Before one kind table, this stream read "4 events, 0 schema
        problems": only the envelope was checked here."""
        events = [
            ("serve.epoch.end", {"shard": 0, "epoch": 1}),
            ("serve.epoch.ended", {}),
            ("round.end", {"messages": 4}),
            ("fault.dorp", {"to": 1}),
        ]
        path = tmp_path / "events.jsonl"
        path.write_text("".join(
            json.dumps({"seq": seq, "ts": 0.0, "kind": kind, "data": data})
            + "\n" for seq, (kind, data) in enumerate(events)))
        assert main(["obs", "tail", str(path), "--last", "0"]) == 1
        err = capsys.readouterr().err.splitlines()
        missing = [
            f"INVALID event {index}: {kind} missing data field {field!r}"
            for index, kind, fields in [
                (0, "serve.epoch.end", "members renamed departed rounds "
                                       "messages bits wall_s"),
                (2, "round.end", "bits alive resumed parked finished")]
            for field in fields.split()]
        assert err == [
            *missing[:7],
            "INVALID event 1: unknown serve kind 'serve.epoch.ended'",
            *missing[7:],
            "INVALID event 3: unknown fault kind 'fault.dorp'",
            "",
            "4 events, 14 schema problems",
        ]


def run_cli(argv: list[str], capsys) -> tuple[int, str]:
    """``main(argv)`` in process: its exit code and stderr, a
    ``SystemExit`` message counted as the interpreter reports it."""
    try:
        code = main(argv)
    except SystemExit as done:
        code = done.code
    err = capsys.readouterr().err
    if isinstance(code, str):
        return 1, err + code + "\n"
    return code, err


SCENARIOS = ("balls, crash, crash-dup, gossip, gossip-dup, gossip-faults, "
             "obg, planted-duplicate")
#: What the falsify driver reads: its own params, then every scenario's.
FALSIFY_PARAMS = ("scenario, adversary, rate, watchdog_rounds, "
                  "assumed_faults, consensus_iterations, early_stopping, "
                  "election_constant, f_assumed, faults, slots")


class TestBadInput:
    """A bad flag is argparse's usage error (exit 2); what only flags
    together or a file can show is one error line (exit 1).  Either way
    nothing runs and nothing is written."""

    @pytest.fixture
    def no_run(self, tmp_path, monkeypatch):
        from repro.analysis import experiments
        from repro.engine import pool
        from repro.falsify import scenarios
        from repro.lowerbound.anonymous import SilentRenamingExperiment

        def run(*args, **kwargs):
            raise AssertionError("a run started")

        for owner, name in [(experiments, "execute"), (scenarios, "execute"),
                            (pool, "run_requests"),
                            (SilentRenamingExperiment, "run")]:
            monkeypatch.setattr(owner, name, run)
        monkeypatch.chdir(tmp_path)
        yield
        assert list(tmp_path.iterdir()) == []

    BAD = [
        (["falsify", "--scenario", "nope"], 2,
         f"argument --scenario: unknown scenario 'nope'; known: {SCENARIOS}"),
        (["falsify", "--adversary", "random,nope"], 2,
         "argument --adversary: unknown adversary 'nope'; known: hunter, "
         "none, partitioner, random"),
        (["falsify", "--n", "abc"], 2,
         "argument --n: invalid literal for int() with base 10: 'abc'"),
        (["falsify", "--param", "x"], 2,
         "argument --param: expected KEY=VALUE, got 'x'"),
        (["falsify", "--f", "bogus"], 1,
         "bad fault-budget expression 'bogus': name 'bogus' is not "
         "defined"),
        (["obs", "profile", "--scenario", "nope"], 2,
         f"argument --scenario: unknown scenario 'nope'; known: {SCENARIOS}"),
        (["faults", "--scenario", "nope"], 2,
         f"argument --scenario: unknown scenario 'nope'; known: {SCENARIOS}"),
        (["faults", "--adversary", "nope", "--f", "2"], 2,
         "argument --adversary: unknown adversary 'nope'; known: hunter, "
         "none, partitioner, random"),
        (["faults", "--faults", "notjson"], 2,
         "argument --faults: fault spec is not JSON: Expecting value: "
         "line 1 column 1 (char 0)"),
        (["faults", "--faults", '[{"kind": "nope"}]'], 2,
         "argument --faults: unknown fault kind 'nope'; known: corrupt, "
         "duplicate, none, omission, partition"),
        (["faults", "--faults", '{"kind": "partition", "left_frac": 2}'], 1,
         "left_frac must be in (0, 1), got 2.0"),
        (["sweep", "--n", "x"], 2,
         "argument --n: invalid literal for int() with base 10: 'x'"),
        (["sweep", "--driver", "crash", "--param", "strategy=x", "--n", "8",
          "--seeds", "0", "--no-store"], 1,
         "crash takes no param strategy; known: election_constant, "
         "early_stopping, adversary, namespace, include_rounds"),
        (["sweep", "--driver", "crash", "--param", "election_constant=abc",
          "--n", "8", "--seeds", "0", "--no-store"], 1,
         "election_constant must be a number, got 'abc'"),
        (["sweep", "--driver", "byzantine", "--n", "8", "--seeds", "0",
          "--f", "3", "--no-store"], 1,
         "max_byzantine=3 violates f < n/3 for n=8"),
        (["sweep", "--driver", "faults", "--param", "strategy=x", "--n", "8",
          "--seeds", "0", "--no-store"], 1,
         "faults takes no param strategy; known: scenario, adversary, "
         "faults, watchdog_rounds, include_rounds"),
        (["sweep", "--driver", "serve", "--param", "strategy=x", "--n", "8",
          "--seeds", "0", "--no-store"], 1,
         "serve takes no param strategy; known: requests, shards, "
         "max_batch, max_wait, arrival_rate, rename_weight, lookup_weight, "
         "release_weight, namespace, faults, fault_window, resilience, "
         "include_rounds"),
        (["crash", "--n", "0"], 2, "argument --n: must be >= 1, got 0"),
        (["byzantine", "--n", "0"], 2, "argument --n: must be >= 1, got 0"),
        (["table1", "--n", "0"], 2, "argument --n: must be >= 1, got 0"),
        (["lowerbound", "--n", "0"], 2, "argument --n: must be >= 2, got 0"),
        (["lowerbound", "--trials", "0"], 2,
         "argument --trials: must be >= 1, got 0"),
        (["faults", "--n", "0"], 2, "argument --n: must be >= 1, got 0"),
        (["byzantine", "--n", "3", "--f", "1"], 1,
         "max_byzantine=1 violates f < n/3 for n=3"),
        (["byzantine", "--n", "1"], 1,
         "max_byzantine=1 violates f < n/3 for n=1"),
        (["byzantine", "--n", "16", "--f", "6"], 1,
         "max_byzantine=6 violates f < n/3 for n=16"),
        (["table1", "--n", "2"], 1,
         "max_byzantine=1 violates f < n/3 for n=2"),
        (["table1", "--n", "8", "--f", "-1"], 1, "f=-1 must be non-negative"),
        (["byzantine", "--n", "8", "--f", "-1"], 1,
         "f=-1 must be non-negative"),
        (["crash", "--n", "8", "--f", "-1"], 1, "f=-1 must be non-negative"),
        (["sweep", "--no-store", "--driver", "crash", "--n", "8", "--f", "-1",
          "--seeds", "1"], 1, "f=-1 must be non-negative"),
        (["sweep", "--no-store", "--driver", "serve", "--n", "8", "--f", "0",
          "--seeds", "1", "--param", "shards=0"], 1,
         "shards must be >= 1, got 0"),
        (["sweep", "--no-store", "--driver", "serve", "--n", "8", "--f", "0",
          "--seeds", "1", "--param", "max_batch=0"], 1,
         "max_batch must be >= 1, got 0"),
        (["sweep", "--no-store", "--driver", "faults", "--n", "8", "--f", "0",
          "--seeds", "1", "--param", "faults=[["], 1,
         "fault spec is not JSON: Expecting value: line 1 column 3 (char 2)"),
        (["sweep", "--no-store", "--driver", "falsify", "--n", "8", "--f",
          "0", "--seeds", "1", "--param", "scenario=nope"], 1,
         f"unknown scenario 'nope'; known: {SCENARIOS}"),
        (["sweep", "--no-store", "--driver", "falsify", "--n", "8", "--f",
          "1", "--seeds", "1", "--param", "bogus=1"], 1,
         f"falsify takes no param bogus; known: {FALSIFY_PARAMS}"),
        (["falsify", "--no-store", "--n", "8", "--seeds", "0", "--param",
          "bogus=1"], 1,
         f"falsify takes no param bogus; known: {FALSIFY_PARAMS}"),
        (["sweep", "--no-store", "--driver", "falsify", "--n", "8", "--f",
          "1", "--seeds", "1", "--param", "rate=abc"], 1,
         "falsify param rate='abc' is not a number"),
    ]

    @pytest.mark.parametrize("argv, code, line", BAD,
                             ids=[" ".join(argv) for argv, _, _ in BAD])
    def test_nothing_runs(self, argv, code, line, no_run, capsys):
        done, err = run_cli(argv, capsys)
        assert "Traceback" not in err
        prog = " ".join(["python -m repro", *argv[:2 if argv[0] == "obs"
                                                   else 1]])
        assert (done, err.splitlines()[-1]) == (code, f"{prog}: error: {line}")

    def test_a_param_is_checked_by_its_run(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--driver", "byzantine", "--n", "8", "--seeds",
                     "0", "--param", "adversary=nope", "--no-store"]) == 1
        err = capsys.readouterr().err
        assert "1 runs: 0 executed, 0 cached, 1 failed" in err
        assert err.rstrip().splitlines()[-1] == (
            "ValueError: unknown strategy 'nope'; known: crash-sim, "
            "equivocator, silent, withholder")

    @pytest.mark.parametrize("below", ["", "x/y"], ids=["file", "under-file"])
    def test_export_into_a_file(self, below, no_run, tmp_path_factory,
                                capsys):
        # The file lies outside `tmp_path`, which `no_run` keeps empty:
        # no store is opened, no directory made.
        taken = tmp_path_factory.mktemp("taken") / "runs.jsonl"
        taken.write_text("")
        out = taken / below if below else taken
        done, err = run_cli(["runs", "export", "--out", str(out)], capsys)
        assert (done, err.splitlines()) == (1, [
            f"python -m repro runs export: error: --out: {taken} is not "
            "a directory"])
        assert taken.read_text() == ""

    @pytest.mark.parametrize("text, reason", [
        (None, "[Errno 2] No such file or directory: '{path}'"),
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ('{"kind": "sweep"}', "not a falsify repro artifact: "
                              "kind='sweep'"),
        ('{"kind": "repro.falsify/repro", "format": 1}', "missing field "
                                                  "'scenario'"),
        ('{"kind": "repro.falsify/repro", "format": 1, "scenario": "nope"}',
         f"unknown scenario 'nope'; known: {SCENARIOS}"),
    ], ids=["missing", "not-json", "wrong-kind", "no-scenario",
            "unknown-scenario"])
    def test_falsify_replay(self, text, reason, tmp_path):
        path = tmp_path / "repro.json"
        if text is not None:
            path.write_text(text)
        done = subprocess.run(
            [sys.executable, "-m", "repro", "falsify", "--replay", str(path)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            f"python -m repro falsify: error: cannot replay {path}: "
            + reason.format(path=path)]


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

    @pytest.mark.parametrize("argv, own", [
        (["crash", "--n", "12", "--f", "2", "--seed", "3"],
         "max_p p_spread ever_elected"),
        (["byzantine", "--n", "8", "--f", "1", "--strategy", "silent",
          "--seed", "2"], "segments_split"),
    ], ids=["crash", "byzantine"])
    def test_header_is_the_familys_summary_row(self, argv, own, capsys):
        assert main(argv) == 0
        header = capsys.readouterr().out.splitlines()[0].split()
        assert header == [
            "algorithm", "n", "f_budget", "f_actual", "rounds", "messages",
            "bits", "max_message_bits", *own.split(), "unique", "strong",
            "order_preserving"]

    def test_byzantine_prints_the_summary_with_its_flags(self, capsys):
        from repro.analysis.experiments import summary
        from repro.analysis.tables import plain_table

        assert main(["byzantine", "--n", "10", "--f", "1", "--seed", "1",
                     "--consensus-iterations", "6"]) == 0
        row = summary("byzantine", 10, 1, 1, adversary="withholder",
                      consensus_iterations=6)
        assert capsys.readouterr().out == plain_table([row]) + "\n"

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


class TestStoreLocation:
    @pytest.mark.parametrize("command, environ", [
        (["sweep", "--driver", "crash", "--n", "8", "--seeds", "0",
          "--store", "duckdb://x.duckdb"], {}),
        (["sweep", "--driver", "crash", "--n", "8", "--seeds", "0",
          "--store", "sqlite://x.sqlite"], {}),
        (["runs", "--store", "postgres://x"], {}),
        (["runs", "--store", ":memory:"], {}),
        (["runs"], {"REPRO_STORE": "duckdb://x"}),
        (["falsify", "--store", "duckdb://x.duckdb"], {}),
        (["obs", "report", "--store", "postgres://x"], {}),
        (["runs", "export", "--store", "postgres://x"], {}),
    ], ids=["sweep-duckdb", "sweep-sqlite-url", "runs-postgres",
            "runs-memory", "runs-env-duckdb", "falsify-duckdb",
            "obs-report-postgres", "runs-export-postgres"])
    def test_not_a_file_path_is_one_line_no_traceback(
            self, command, environ, tmp_path):
        done = subprocess.run(
            [sys.executable, "-m", "repro", *command], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC), **environ},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stdout == ""
        (line,) = done.stderr.splitlines()
        prog = " ".join(word for word in command[:2] if word[0] != "-")
        assert line.startswith(f"python -m repro {prog}: error: run store ")
        assert "is not a file path" in line
        assert list(tmp_path.iterdir()) == []


def _two_run_store(tmp_path) -> str:
    path = str(tmp_path / "runs.sqlite")
    with RunStore(path) as store:
        store.put("a" * 64, driver="crash", n=8, f=1, seed=0, params={},
                  version="v1", status="ok",
                  row={"rounds": 3, "messages": 40, "bits": 320})
        store.put("b" * 64, driver="gossip", n=8, f=1, seed=1, params={},
                  version="v1", status="failed", error="boom")
    return path


class TestRunsListing:
    @pytest.mark.parametrize("fmt", ["plain", "md", "json"])
    def test_format_renders_the_listing(self, fmt, tmp_path, capsys):
        path = _two_run_store(tmp_path)
        assert main(["runs", "--store", path, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(row["hash"], row["driver"], row["status"], row["messages"])
                for row in rows] == [("a" * 10, "crash", "ok", 40),
                                     ("b" * 10, "gossip", "failed", None)]

        assert main(["runs", "--store", path, "--format", fmt]) == 0
        out, err = capsys.readouterr()
        render = {"plain": plain_table, "md": markdown_table,
                  "json": lambda rows: json.dumps(rows, indent=2)}[fmt]
        assert out == render(rows) + "\n"
        assert "1 ok / 1 failed of 2 stored runs" in err

    def test_empty_store_prints_the_store_line(self, tmp_path, capsys):
        path = tmp_path / "runs.sqlite"
        assert main(["runs", "--store", str(path)]) == 0
        err = capsys.readouterr().err
        assert err == f"\n0 ok / 0 failed of 0 stored runs  [store: {path}]\n"
