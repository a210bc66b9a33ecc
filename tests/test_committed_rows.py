"""Committed rows are re-run, not trusted.

``benchmarks/results/large/runs.jsonl`` is the store export that
EXPERIMENTS.md's F1 block is printed from without running anything.
Every ``ok`` row of it at n <= 1,024 -- 20 rows, a second or two of
CPU -- is run again through its driver with its committed params, and
must equal the committed row in every field.  Each row is a case of its
own, so every row that differs is reported, each by the first field
that differs.
"""

import json
from pathlib import Path

import pytest

from repro.engine.sweeps import resolve_driver

RUNS = (Path(__file__).resolve().parents[1]
        / "benchmarks" / "results" / "large" / "runs.jsonl")

MISSING = "<missing>"

STORED = [json.loads(line) for line in RUNS.read_text().splitlines()]
SMALL = [run for run in STORED if run["status"] == "ok" and run["n"] <= 1024]


def test_there_are_twenty_small_committed_rows():
    assert len(SMALL) == 20


@pytest.mark.parametrize("run", SMALL, ids=[
    f"{run['driver']}-n{run['n']}-f{run['f']}-s{run['seed']}"
    for run in SMALL])
def test_every_small_committed_row_is_what_its_driver_returns(run):
    committed = json.loads(run["row"])
    fresh = resolve_driver(run["driver"])(
        run["n"], run["f"], run["seed"], **json.loads(run["params"]))
    for field in [*committed, *(key for key in fresh
                                if key not in committed)]:
        was, now = committed.get(field, MISSING), fresh.get(field, MISSING)
        assert now == was, (
            f"{run['driver']} n={run['n']} f={run['f']} "
            f"seed={run['seed']} params={run['params']}: {field} is "
            f"{now!r}, committed {was!r}")
