"""Smoke tests for the ``python -m benchmarks.perf`` microbenchmark harness."""

import json

from benchmarks import perf


def test_run_perf_schema():
    results = perf.run_perf([16], repeat=1)
    assert set(results) == {"broadcast_n16", "crash_n16"}
    for stats in results.values():
        assert set(stats) == {"wall_s", "rounds", "messages", "msgs_per_s",
                              "phases"}
        assert stats["wall_s"] >= 0
        assert stats["rounds"] > 0
        assert stats["messages"] > 0
        assert stats["msgs_per_s"] > 0
        report = stats["phases"]
        assert report["schema"] == "repro.obs/profile@1"
        assert report["unit"] == "seconds"
        assert set(report["phases"]) == {"plan", "charge", "deliver",
                                         "advance"}
        for phase in report["phases"].values():
            assert phase["calls"] == stats["rounds"]
            assert phase["wall_s"] >= 0


def test_run_perf_workload_filter():
    results = perf.run_perf([16], repeat=1, workloads=["broadcast"])
    assert set(results) == {"broadcast_n16"}

    try:
        perf.run_perf([16], repeat=1, workloads=["broadcast", "typo"])
    except ValueError as error:
        assert "typo" in str(error)
    else:  # pragma: no cover
        raise AssertionError("unknown workload name was accepted")


def test_run_perf_records_phases_at_large_n():
    # The profiled execution runs the same round body as the timed one,
    # so it is affordable at any n (an object-per-envelope deliver made
    # this row cost over a minute, and the harness used to skip it).
    (stats,) = perf.run_perf([4096], workloads=["broadcast"]).values()
    phases = stats["phases"]["phases"]
    assert set(phases) == {"plan", "charge", "deliver", "advance"}
    assert all(row["calls"] == stats["rounds"] for row in phases.values())


def test_msgs_per_s_rounds_half_even(monkeypatch):
    # 7 msgs / 2 s = 3.5 msgs/s: floor-truncation said 3, half-even
    # rounding says 4.  Feed deterministic clock readings to pin it.
    walls = iter([0.0, 2.0])
    monkeypatch.setattr(perf.time, "perf_counter", lambda: next(walls))

    class _Metrics:
        total_messages = 7

    class _Result:
        metrics = _Metrics()
        rounds = 1

    stats = perf.time_execution(lambda: _Result(), repeat=1)
    assert stats["msgs_per_s"] == 4


def test_broadcast_heavy_counts():
    result = perf.run_broadcast_heavy(16, rounds=3)
    # Every node broadcasts to all n links each round until it returns.
    assert result.metrics.total_messages == 16 * 16 * 3
    assert result.crashed == set()
    assert sorted(result.results.values()) == list(range(1, 17))


def test_crash_heavy_crashes_somebody():
    result = perf.run_crash_heavy(32)
    assert 0 < len(result.crashed) <= 32 // 2
    assert sum(result.metrics.messages_per_round) == result.metrics.total_messages


def test_main_writes_json(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert perf.main(["--n", "8", "--repeat", "1", "--out", str(out)]) == 0
    results = json.loads(out.read_text())
    assert set(results) == {"broadcast_n8", "crash_n8"}
    stdout = capsys.readouterr().out
    assert "broadcast_n8" in stdout and str(out) in stdout


def test_main_workloads_flag(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert perf.main(["--n", "8", "--repeat", "1", "--out", str(out),
                      "--workloads", "broadcast"]) == 0
    assert set(json.loads(out.read_text())) == {"broadcast_n8"}
    capsys.readouterr()


def test_cli_entry_point(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[1]
    out = tmp_path / "bench_cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--n", "8", "--repeat",
         "1", "--out", str(out)],
        capture_output=True, text=True, cwd=repo,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(out.read_text())) == {"broadcast_n8", "crash_n8"}
