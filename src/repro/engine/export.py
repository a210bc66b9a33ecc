"""JSONL export: dump a run store for analytics-grade SQL, and load it back.

``export_store`` writes the three store tables — ``runs``, ``ledgers``,
``telemetry`` — as one JSONL file each (one JSON object per line,
stable key order, stdlib only), so frontier queries and scaling fits
run in any SQL engine that loads them without re-executing anything:

* ``runs``: the identity/status columns, the full summary ``row`` as a
  JSON text column, **and** every scalar summary field flattened into
  a ``row_<key>`` column (``row_outcome``, ``row_messages``, ...) so
  queries never need JSON extraction.
* ``ledgers``: ``(run_hash, round, messages, bits)`` — one row per
  stored round.
* ``telemetry``: ``(run_hash, key, value)`` with ``value`` as JSON
  text.

Example frontier query, with ``runs.jsonl`` loaded into a ``sqlite3``
table ``runs`` (one column per record key)::

    SELECT row_scenario AS scenario, row_faults AS faults,
           row_outcome AS outcome
    FROM runs
    WHERE driver = 'faults' AND status = 'ok'
    ORDER BY created, hash
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

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


def export_store(
    store,
    out_dir,
    *,
    driver: Optional[str] = None,
    status: Optional[str] = None,
) -> tuple[int, dict[str, Path]]:
    """Dump ``store`` (an open RunStore) under ``out_dir``.

    Returns the number of runs written and ``{table: path}``
    (``runs.jsonl``, ``ledgers.jsonl``, ``telemetry.jsonl``).
    ``driver`` / ``status`` filter the exported runs; ledgers and
    telemetry follow the selected runs.
    """
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

    written = {
        table: _write_jsonl(out / f"{table}.jsonl", columns, records)
        for table, (columns, records) in tables.items()
    }
    return len(runs), written


def load_export(store, out_dir) -> int:
    """Put the ``ok`` runs of an export under ``out_dir`` back into
    ``store`` (an open RunStore), keyed for the code that loads them.

    A committed export is the record of what its code version measured
    (each run keeps that version in its ``code_version`` column); loaded,
    a sweep or a report over ``store`` reads those rows instead of
    running anything.  Returns the number of runs loaded.
    """
    from repro.engine.store import code_version, run_hash

    loaded = 0
    with open(Path(out_dir) / "runs.jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record["status"] != "ok":
                continue
            params = json.loads(record["params"])
            key = (record["driver"], record["n"], record["f"],
                   record["seed"], params)
            store.put(run_hash(*key), driver=key[0], n=key[1], f=key[2],
                      seed=key[3], params=params, version=code_version(),
                      status="ok", row=json.loads(record["row"]),
                      elapsed=record["elapsed"])
            loaded += 1
    return loaded
