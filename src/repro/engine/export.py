"""Columnar export: dump a run store for analytics-grade SQL.

``export_store`` writes the three store tables — ``runs``, ``ledgers``,
``telemetry`` — as columnar files so frontier queries and scaling fits
run directly in SQL (DuckDB over Parquet, or any engine over JSONL)
without re-executing anything:

* ``runs``: the identity/status columns, the full summary ``row`` as a
  JSON text column, **and** every scalar summary field flattened into
  a ``row_<key>`` column (``row_outcome``, ``row_messages``, ...) so
  queries never need JSON extraction.
* ``ledgers``: ``(run_hash, round, messages, bits)`` — one row per
  stored round.
* ``telemetry``: ``(run_hash, key, value)`` with ``value`` as JSON
  text.

Formats:

``jsonl``
    Always available (stdlib only): one JSON object per line, stable
    key order.
``parquet``
    Written through ``pyarrow`` when importable, else through
    ``duckdb``'s native Parquet ``COPY``; requesting it with neither
    installed raises a clear error naming both options.

Example frontier query over the Parquet export (DuckDB)::

    SELECT row_scenario AS scenario, row_faults AS faults,
           row_outcome AS outcome
    FROM 'export/runs.parquet'
    WHERE driver = 'faults' AND status = 'ok'
    ORDER BY created, hash
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

_SCALARS = (str, int, float, bool, type(None))

#: Fixed identity columns of the ``runs`` export, in order.
RUN_COLUMNS = ("hash", "driver", "n", "f", "seed", "params", "code_version",
               "status", "error", "elapsed", "created", "has_ledger", "row")


def _runs_records(runs) -> tuple[list[str], list[dict]]:
    """Flatten stored runs into export records with a unified schema."""
    row_keys: set[str] = set()
    for run in runs:
        if run.row:
            row_keys.update(
                key for key, value in run.row.items()
                if isinstance(value, _SCALARS)
            )
    columns = list(RUN_COLUMNS) + [f"row_{key}" for key in sorted(row_keys)]
    records = []
    for run in runs:
        record = {
            "hash": run.hash, "driver": run.driver, "n": run.n,
            "f": run.f, "seed": run.seed,
            "params": json.dumps(run.params, sort_keys=True),
            "code_version": run.code_version, "status": run.status,
            "error": run.error, "elapsed": run.elapsed,
            "created": run.created, "has_ledger": run.has_ledger,
            "row": json.dumps(run.row) if run.row is not None else None,
        }
        row = run.row or {}
        for key in sorted(row_keys):
            value = row.get(key)
            record[f"row_{key}"] = (value if isinstance(value, _SCALARS)
                                    else None)
        records.append(record)
    return columns, records


def _write_jsonl(path: Path, columns: list[str],
                 records: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(
                {column: record.get(column) for column in columns}))
            handle.write("\n")
    return path


def parquet_writer_available() -> bool:
    """Whether any Parquet writer (pyarrow or duckdb) is importable."""
    for module in ("pyarrow", "duckdb"):
        try:
            __import__(module)
            return True
        except ImportError:
            continue
    return False


def _duckdb_type(values: list) -> str:
    present = [value for value in values if value is not None]
    if not present:
        return "VARCHAR"
    if all(isinstance(value, bool) for value in present):
        return "BOOLEAN"
    if all(isinstance(value, int) and not isinstance(value, bool)
           for value in present):
        return "BIGINT"
    if all(isinstance(value, (int, float)) and not isinstance(value, bool)
           for value in present):
        return "DOUBLE"
    return "VARCHAR"


def _write_parquet(path: Path, columns: list[str],
                   records: list[dict]) -> Path:
    try:
        import pyarrow as pa
        import pyarrow.parquet as pq
    except ImportError:
        pass
    else:
        table = pa.table({
            column: [record.get(column) for record in records]
            for column in columns
        })
        pq.write_table(table, str(path))
        return path
    try:
        import duckdb
    except ImportError:
        raise RuntimeError(
            "parquet export needs a writer: install 'pyarrow' or 'duckdb' "
            "(pip install duckdb), or export --jsonl instead"
        ) from None
    types = {
        column: _duckdb_type([record.get(column) for record in records])
        for column in columns
    }
    connection = duckdb.connect(":memory:")
    try:
        ddl = ", ".join(f'"{column}" {types[column]}' for column in columns)
        connection.execute(f"CREATE TABLE export ({ddl})")
        placeholders = ", ".join("?" for _ in columns)
        rows = [
            tuple(
                value if isinstance(value, _SCALARS) else json.dumps(value)
                for value in (record.get(column) for column in columns)
            )
            for record in records
        ]
        if rows:
            connection.executemany(
                f"INSERT INTO export VALUES ({placeholders})", rows)
        target = str(path).replace("'", "''")
        connection.execute(
            f"COPY export TO '{target}' (FORMAT PARQUET)")
    finally:
        connection.close()
    return path


_WRITERS = {"jsonl": _write_jsonl, "parquet": _write_parquet}


def export_store(
    store,
    out_dir,
    *,
    formats: Sequence[str] = ("jsonl",),
    driver: Optional[str] = None,
    status: Optional[str] = None,
) -> dict[str, list[Path]]:
    """Dump ``store`` (an open RunStore) under ``out_dir``.

    Returns ``{table: [written paths]}`` with one file per requested
    format (``runs.jsonl``, ``runs.parquet``, ...).  ``driver`` /
    ``status`` filter the exported runs; ledgers and telemetry follow
    the selected runs.
    """
    for fmt in formats:
        if fmt not in _WRITERS:
            raise ValueError(
                f"unknown export format {fmt!r}; "
                f"known: {', '.join(sorted(_WRITERS))}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    runs = store.query(driver=driver, status=status)
    tables: dict[str, tuple[list[str], list[dict]]] = {}
    tables["runs"] = _runs_records(runs)

    ledger_columns = ["run_hash", "round", "messages", "bits"]
    ledger_records = []
    for run in runs:
        if not run.has_ledger:
            continue
        ledger = store.ledger(run.hash)
        if ledger is None:  # pragma: no cover - raced deletion
            continue
        messages, bits = ledger
        ledger_records.extend(
            {"run_hash": run.hash, "round": round_no + 1,
             "messages": message_count, "bits": bit_count}
            for round_no, (message_count, bit_count)
            in enumerate(zip(messages, bits))
        )
    tables["ledgers"] = (ledger_columns, ledger_records)

    exported_hashes = {run.hash for run in runs}
    telemetry_records = [
        {"run_hash": hash_, "key": key,
         "value": json.dumps(value, sort_keys=True)}
        for hash_, key, value in store.telemetry_rows()
        if hash_ in exported_hashes or (driver is None and status is None)
    ]
    tables["telemetry"] = (["run_hash", "key", "value"], telemetry_records)

    written: dict[str, list[Path]] = {}
    for table, (columns, records) in tables.items():
        written[table] = [
            _WRITERS[fmt](out / f"{table}.{fmt}", columns, records)
            for fmt in formats
        ]
    return written
