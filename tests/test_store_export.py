"""Columnar export: flattened runs, frontier SQL, writer fallbacks.

The acceptance bar: a ``runs export`` dump of a crash-scenario fault
sweep must reproduce the frontier rows with a *single* SQL query — no
JSON extraction, no re-execution.  The jsonl path is exercised
unconditionally (stdlib only); the Parquet round trip runs when a
writer (pyarrow or duckdb) is importable and the clean error when not.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from repro.engine.export import export_store, parquet_writer_available
from repro.engine.pool import run_requests
from repro.engine.store import RunStore
from repro.engine.sweeps import RunRequest
from repro.__main__ import main as cli_main

FRONTIER_SQL = (
    "SELECT row_scenario AS scenario, row_faults AS faults,"
    " row_outcome AS outcome, row_messages AS messages"
    " FROM {runs}"
    " WHERE driver = 'faults' AND status = 'ok'"
    " ORDER BY created, hash"
)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def load_runs_into_sqlite(path: Path) -> sqlite3.Connection:
    """One table per jsonl export file, columns straight from records."""
    records = read_jsonl(path)
    columns = list(records[0])
    connection = sqlite3.connect(":memory:")
    ddl = ", ".join(f'"{column}"' for column in columns)
    connection.execute(f"CREATE TABLE runs ({ddl})")
    connection.executemany(
        f"INSERT INTO runs VALUES ({', '.join('?' for _ in columns)})",
        [tuple(record[column] for column in columns) for record in records],
    )
    return connection


@pytest.fixture()
def faults_store(tmp_path):
    """A store holding a small crash-scenario frontier sweep."""
    store = RunStore(f"sqlite://{tmp_path}/runs.sqlite")
    requests = [
        RunRequest.make("faults", 6, 1, seed, scenario="crash",
                        adversary="hunter", faults=spec)
        for seed in (0, 1)
        for spec in ("[]", '[{"kind": "omission", "p": 0.05, "budget": 4}]')
    ]
    results = run_requests(requests, store=store)
    assert all(result.ok for result in results)
    yield store
    store.close()


class TestJsonlExport:
    def test_frontier_rows_from_single_query(self, faults_store, tmp_path):
        out = tmp_path / "export"
        written = export_store(faults_store, out, formats=("jsonl",))
        assert [p.name for p in written["runs"]] == ["runs.jsonl"]

        expected = [
            (run.row["scenario"], run.row["faults"], run.row["outcome"],
             run.row["messages"])
            for run in faults_store.query(driver="faults", status="ok")
        ]
        assert len(expected) == 4

        connection = load_runs_into_sqlite(out / "runs.jsonl")
        frontier = connection.execute(
            FRONTIER_SQL.format(runs="runs")).fetchall()
        assert frontier == expected
        # The fault-free runs sit on the safe side of the frontier; the
        # injected-omission runs may degrade — the query surfaces both.
        assert all(outcome == "SAFE_TERMINATED"
                   for _, faults, outcome, _ in frontier if faults == "[]")

    def test_run_records_keep_identity_and_full_row(self, faults_store,
                                                    tmp_path):
        export_store(faults_store, tmp_path / "export")
        records = read_jsonl(tmp_path / "export" / "runs.jsonl")
        stored = {run.hash: run for run in faults_store.query()}
        assert {record["hash"] for record in records} == set(stored)
        for record in records:
            run = stored[record["hash"]]
            assert record["driver"] == "faults"
            assert (record["n"], record["f"], record["seed"]) == (
                run.n, run.f, run.seed)
            assert json.loads(record["params"]) == run.params
            # The full summary row survives as JSON next to the
            # flattened row_<key> scalar columns.
            assert json.loads(record["row"]) == run.row

    def test_ledgers_follow_runs(self, faults_store, tmp_path):
        export_store(faults_store, tmp_path / "export")
        ledger_records = read_jsonl(tmp_path / "export" / "ledgers.jsonl")
        by_hash: dict[str, list[dict]] = {}
        for record in ledger_records:
            by_hash.setdefault(record["run_hash"], []).append(record)
        with_ledger = [run for run in faults_store.query() if run.has_ledger]
        assert with_ledger  # the fault-free runs always carry one
        for run in with_ledger:
            messages, bits = faults_store.ledger(run.hash)
            rounds = by_hash.pop(run.hash)
            assert [r["round"] for r in rounds] == list(
                range(1, len(messages) + 1))
            assert [r["messages"] for r in rounds] == messages
            assert [r["bits"] for r in rounds] == bits
        assert not by_hash  # ledgerless runs export no ledger rows

    def test_scalar_row_keys_flatten_nested_values_stay_json(self, tmp_path):
        with RunStore(f"sqlite://{tmp_path}/runs.sqlite") as store:
            store.put("h1", driver="d", n=4, f=0, seed=0, params={},
                      version="v1", status="ok",
                      row={"messages": 5, "nested": {"x": 1}, "name": "a"})
            store.put("h2", driver="d", n=4, f=0, seed=1, params={},
                      version="v1", status="ok",
                      row={"messages": 7, "extra": 1.5})
            export_store(store, tmp_path / "export")
        records = {record["hash"]: record
                   for record in read_jsonl(tmp_path / "export/runs.jsonl")}
        # Unified schema: every record carries the union of scalar keys.
        assert {"row_messages", "row_name", "row_extra"} <= set(
            records["h1"])
        assert "row_nested" not in records["h1"]
        assert records["h1"]["row_messages"] == 5
        assert records["h1"]["row_extra"] is None
        assert records["h2"]["row_name"] is None
        assert json.loads(records["h1"]["row"])["nested"] == {"x": 1}

    def test_driver_and_status_filters(self, tmp_path):
        with RunStore(f"sqlite://{tmp_path}/runs.sqlite") as store:
            store.put("keep", driver="crash", n=4, f=0, seed=0, params={},
                      version="v1", status="ok", row={"m": 1},
                      messages_per_round=[1], bits_per_round=[8])
            store.put("drop", driver="gossip", n=4, f=0, seed=0, params={},
                      version="v1", status="ok", row={"m": 2},
                      messages_per_round=[2], bits_per_round=[16])
            store.put_telemetry("keep", "k", 1)
            store.put_telemetry("drop", "k", 2)
            export_store(store, tmp_path / "export", driver="crash")
        assert [r["hash"] for r in
                read_jsonl(tmp_path / "export/runs.jsonl")] == ["keep"]
        assert [r["run_hash"] for r in
                read_jsonl(tmp_path / "export/ledgers.jsonl")] == ["keep"]
        assert [r["run_hash"] for r in
                read_jsonl(tmp_path / "export/telemetry.jsonl")] == ["keep"]

    def test_unknown_format_rejected(self, tmp_path):
        with RunStore(f"sqlite://{tmp_path}/runs.sqlite") as store:
            with pytest.raises(ValueError, match="unknown export format"):
                export_store(store, tmp_path / "export", formats=("csv",))


class TestCli:
    def test_runs_export_cli(self, faults_store, tmp_path, capsys):
        out = tmp_path / "cli-export"
        code = cli_main([
            "runs", "export", "--store",
            f"sqlite://{tmp_path}/runs.sqlite", "--out", str(out),
            "--driver", "faults",
        ])
        captured = capsys.readouterr()
        assert code == 0
        printed = captured.out.strip().splitlines()
        assert str(out / "runs.jsonl") in printed
        assert "exported 4 runs" in captured.err
        assert len(read_jsonl(out / "runs.jsonl")) == 4


class TestParquet:
    @pytest.mark.skipif(parquet_writer_available(),
                        reason="a parquet writer is installed")
    def test_parquet_without_writer_fails_cleanly(self, faults_store,
                                                  tmp_path):
        with pytest.raises(RuntimeError, match="pyarrow.*duckdb"):
            export_store(faults_store, tmp_path / "export",
                         formats=("parquet",))

    def test_parquet_frontier_round_trip(self, faults_store, tmp_path):
        duckdb = pytest.importorskip("duckdb")

        out = tmp_path / "export"
        export_store(faults_store, out, formats=("parquet", "jsonl"))
        expected = [
            (run.row["scenario"], run.row["faults"], run.row["outcome"],
             run.row["messages"])
            for run in faults_store.query(driver="faults", status="ok")
        ]
        connection = duckdb.connect(":memory:")
        try:
            frontier = connection.execute(FRONTIER_SQL.format(
                runs=f"'{out / 'runs.parquet'}'")).fetchall()
        finally:
            connection.close()
        assert frontier == expected
