"""The own-time sampler reads a run without changing it.

Run with ``pytest benchmarks/test_own_time.py``.
"""

import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from benchmarks.own_time import main, sampled
from repro.analysis.experiments import summary

ROOT = Path(__file__).resolve().parents[1]
RUNS = [("crash", {}), ("crash", {"adversary": "random"}),
        ("obg", {"adversary": "random"})]


@pytest.mark.parametrize("family,params", RUNS)
def test_counted_results_are_summarys(family, params):
    row, _, cpu_s = sampled(partial(summary, family, 64, 8, 1, **params))
    assert row == summary(family, 64, 8, 1, **params)
    assert cpu_s > 0


def repeated_runs(min_cpu_s: float) -> int:
    """Runs at n = 64 until ``min_cpu_s`` of CPU is spent: enough ticks
    for samples on any box."""
    started, runs = time.process_time(), 0
    while time.process_time() - started < min_cpu_s:
        summary("crash", 64, 8, runs)
        runs += 1
    return runs


def test_shares_sum_to_100_percent():
    _, profile, _ = sampled(partial(repeated_runs, 0.3))
    assert profile.samples > 0
    assert sum(profile.own.values()) == profile.samples
    assert sum(profile.by_caller.values()) == profile.samples
    # Every sample is inside the sampled call, which is on every stack.
    assert max(profile.cumulative.values()) == profile.samples
    label = next(key for key in profile.cumulative if "repeated_runs" in key)
    assert profile.cumulative[label] == profile.samples
    shares = [float(line.split("|")[2].strip(" %"))
              for line in profile.table("own", profile.own, len(profile.own))
              [2:]]
    assert sum(shares) == pytest.approx(100, abs=0.05 * len(shares))


def test_sampler_restores_the_handler_and_timer():
    before = signal.getsignal(signal.SIGPROF)
    with pytest.raises(ZeroDivisionError):
        sampled(lambda: 1 / 0)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_cli_prints_the_counted_row(capsys):
    main(["crash", "64", "8", "--param", "adversary=hunter", "--top", "3"])
    out = capsys.readouterr().out
    row = summary("crash", 64, 8, 1, adversary="hunter")
    assert f"rounds={row['rounds']}, messages={row['messages']}" in out
    assert "samples=" in out


def test_repeat_samples_k_identical_runs(capsys, monkeypatch):
    from benchmarks import own_time

    calls = []
    monkeypatch.setattr(own_time, "summary", lambda *args, **params: (
        calls.append(args) or summary(*args, **params)))
    main(["byzantine", "16", "1", "--repeat", "3", "--top", "2"])
    out = capsys.readouterr().out
    assert calls == [("byzantine", 16, 1, 1)] * 3
    row = summary("byzantine", 16, 1, 1)
    assert f"rounds={row['rounds']}, messages={row['messages']}" in out
    assert "repeat=3" in out


def test_repeat_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["crash", "16", "1", "--repeat", "0"])
    assert exit_.value.code == 2
    assert "--repeat must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["crash", "16", "1", "--param", "strategy=withholder"],
     "crash takes no param strategy; known: election_constant, "
     "early_stopping, adversary, namespace, include_rounds"),
    (["nosuch", "16", "1"], "unknown family 'nosuch'; known: "),
    ([], "give FAMILY N F, or --workload NAME"),
    (["--workload", "crash_paper", "crash", "16", "1"],
     "--workload takes no FAMILY N F and no --param"),
    (["--workload", "nosuch"], "unknown workload 'nosuch'; known: "
     "byz_withholder, crash_paper, f1_sweep"),
])
def test_bad_input_is_one_parser_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0], err


def test_workload_samples_the_e2e_rep_with_its_meter(capsys, monkeypatch):
    from benchmarks.e2e.batch import CrashPaper
    from benchmarks.e2e.passes import digest
    from benchmarks.e2e.spec import FULL
    from benchmarks.e2e.speed import SpeedMeter

    samples = []
    original = SpeedMeter.sample
    monkeypatch.setattr(SpeedMeter, "sample", lambda self, *signal_args: (
        samples.append(1), original(self)))
    main(["--workload", "crash_paper", "--seed", "3", "--repeat", "2",
          "--top", "2"])
    out = capsys.readouterr().out
    assert samples, "the workload's speed meter never sampled"
    with SpeedMeter() as meter:
        rep = CrashPaper(3, FULL, meter).rep()
    assert out.startswith("workload 'crash_paper', seed 3\n")
    assert (f"counted: counts_digest={digest(rep.counted)[:16]}, "
            f"messages={rep.messages}, runs=1\n") in out
    assert "repeat=2" in out


@pytest.mark.parametrize("name", ["byz_withholder", "f1_sweep"])
def test_every_batch_workload_is_sampled(name, capsys, monkeypatch):
    from benchmarks.e2e import spec

    monkeypatch.setattr(spec, "FULL", spec.QUICK)
    main(["--workload", name, "--top", "2"])
    out = capsys.readouterr().out
    assert out.startswith(f"workload {name!r}, seed 1\n")
    assert "counted: counts_digest=" in out and "samples=" in out


def test_a_family_run_does_not_import_the_e2e_harness():
    # The harness (sqlite store, engine pool) would add to the peak RSS
    # the table reports as the run's.
    code = ("import sys; from benchmarks.own_time import main; "
            "main(['crash', '16', '1', '--top', '1']); "
            "print(sorted(m for m in sys.modules if 'e2e' in m))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={
                             **os.environ, "PYTHONPATH": os.pathsep.join(
                                 [str(ROOT / "src"), str(ROOT)])}).stdout
    assert out.splitlines()[-1] == "[]"
