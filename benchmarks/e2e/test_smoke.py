"""Smoke test of the benchmark itself.

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly:
``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e.spec import HERE, ROOT, WORKLOADS, declared

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def report(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = run("--quick", "--out", str(out),
               "--trace-out", str(out.parent / "spans"))
    assert done.returncode == 0, done.stdout
    return json.loads(out.read_text(encoding="utf-8"))


def test_declaration_is_within_the_contract():
    spec = declared()
    assert len(spec["end_to_end"]) <= 16 and len(spec["per_layer"]) <= 128
    names = [metric["name"]
             for metric in spec["end_to_end"] + spec["per_layer"]]
    names += [workload["name"] for workload in spec["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert any(metric["name"] == "setup_s" for metric in spec["end_to_end"])


def test_emitted_metrics_are_the_declared_ones(report):
    spec = declared()
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    emitted = set()
    for name in WORKLOADS:
        entry = report["workloads"][name]
        assert set(entry["end_to_end"]) == end_to_end, name
        assert set(entry["per_layer"]) <= per_layer, name
        emitted |= set(entry["per_layer"])
    assert emitted == per_layer


def test_no_operation_failed_and_traced_counts_equal_untraced(report):
    # The worker counts a traced pass whose counted results differ
    # from the untraced ones as a failure.
    for name, entry in report["workloads"].items():
        assert entry["failed_share"] == 0 and not entry["errors"], name
        assert all(value != 0 for value, _ in entry["end_to_end"].values())


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_one_pass_ends_with_the_contract_line(trace, group, tmp_path):
    done = run("--workload", "crash_paper", "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--quick",
               "--trace-out", str(tmp_path))
    assert done.returncode == 0, done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {name: value["unit"] for name, value in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared()[group]}


def test_compare_flags_a_regression(report, tmp_path):
    worse = json.loads(json.dumps(report))
    worse["workloads"]["crash_paper"]["end_to_end"]["wall_s"][0] *= 2
    paths = []
    for label, content in (("a", report), ("b", worse)):
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(content), encoding="utf-8")
    assert run("compare", str(paths[0]), str(paths[0])).returncode == 0
    flagged = run("compare", str(paths[0]), str(paths[1]))
    assert flagged.returncode == 1 and "regressed" in flagged.stdout
