"""Parallel sweep engine with a persistent, content-addressed run store.

Three layers, each usable on its own:

``repro.engine.store``
    A content-addressed store (canonical hash of ``(driver, n, f,
    seed, params, code_version)``) persisting the summary row plus the
    per-round message/bit ledgers in one stdlib-SQLite file (WAL, one
    connection per thread).  Re-running a sweep whose runs are already
    stored performs zero executions, and ``repro.engine.export`` dumps
    runs/ledgers/telemetry as JSONL files for SQL-native frontier
    queries.

``repro.engine.sweeps``
    Declarative :class:`SweepSpec` / :class:`RunRequest` descriptions of
    sweeps and the named-driver registry: every protocol family of
    :data:`repro.analysis.experiments.FAMILIES` (``"crash"``,
    ``"byzantine"``, ``"byzantine-full"``, the baselines) runs through
    its ``summary``, and ``"falsify"``, ``"faults"``, ``"serve"``
    through their harnesses' summary functions.

``repro.engine.pool``
    :func:`run_requests` — the executor.  Serial in-process for
    ``jobs=1``; a ``ProcessPoolExecutor`` with chunked submission,
    per-task timeouts, and crash isolation for ``jobs>1``.  Results come
    back in request order, so parallel output is byte-identical to
    serial.

The CLI front ends are ``python -m repro sweep`` and
``python -m repro runs``; ``benchmarks/report.py`` routes every
protocol execution through this engine.
"""

from repro.engine.export import export_store
from repro.engine.pool import RunResult, run_requests
from repro.engine.store import (
    RunStore,
    StoredRun,
    code_version,
    default_store_path,
    run_hash,
)
from repro.engine.sweeps import (
    DRIVERS,
    RunRequest,
    SweepSpec,
    driver_names,
    evaluate_f,
    execute_request,
    table1_requests,
)

__all__ = [
    "DRIVERS",
    "RunRequest",
    "RunResult",
    "RunStore",
    "StoredRun",
    "SweepSpec",
    "code_version",
    "default_store_path",
    "driver_names",
    "evaluate_f",
    "execute_request",
    "export_store",
    "run_hash",
    "run_requests",
    "table1_requests",
]
