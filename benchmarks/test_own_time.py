"""The own-time sampler reads a run without changing it.

Run with ``pytest benchmarks/test_own_time.py``.
"""

import signal
import time
from functools import partial

import pytest

from benchmarks.own_time import main, sampled
from repro.analysis.experiments import summary

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
