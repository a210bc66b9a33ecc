"""Parallel sweep engine with a persistent, content-addressed run store.

Three layers, each usable on its own:

``repro.engine.store``
    A content-addressed store (canonical hash of ``(driver, n, f,
    seed, params, code_version)``) persisting the summary row plus the
    per-round message/bit ledgers in one stdlib-SQLite file (WAL, one
    connection per thread).  Re-running a sweep whose runs are already
    stored performs zero executions, and ``repro.engine.export`` dumps
    runs/ledgers/telemetry as columnar Parquet/JSONL files for
    SQL-native frontier queries (DuckDB reads the Parquet directly).

``repro.engine.sweeps``
    Declarative :class:`SweepSpec` / :class:`RunRequest` descriptions of
    sweeps and the named-driver registry that maps ``"crash"``,
    ``"byzantine"``, ``"obg"``, ``"gossip"``, ``"balls"``,
    ``"reelection"`` to the summary functions in
    :mod:`repro.analysis.experiments`.

``repro.engine.pool``
    :func:`run_requests` — the executor.  Serial in-process for
    ``jobs=1``; a ``ProcessPoolExecutor`` with chunked submission,
    per-task timeouts, and crash isolation for ``jobs>1``.  Results come
    back in request order, so parallel output is byte-identical to
    serial.

``repro.engine.queue`` / ``repro.engine.fabric``
    The crash-resumable distributed layer: sweeps enqueued as leasable
    tasks in the store's ``tasks`` table, drained by independent
    worker processes with heartbeat renewal, a stale-lease reaper, and
    at-most-once settlement into the ``runs`` table.  ``python -m
    repro fabric enqueue|work|status|resume`` is the CLI.

The CLI front ends are ``python -m repro sweep`` and
``python -m repro runs``; ``benchmarks/report.py`` routes every
protocol execution through this engine.
"""

from repro.engine.export import export_store
from repro.engine.fabric import (
    FabricConfig,
    FabricWorker,
    campaign_status,
    enqueue_campaign,
    resume_campaign,
    run_workers,
)
from repro.engine.pool import RunResult, execute_leased, run_requests
from repro.engine.queue import QueuedTask, TaskQueue
from repro.engine.store import (
    RunStore,
    StoredRun,
    code_version,
    default_store_path,
    parse_store_url,
    resolve_store_url,
    run_hash,
)
from repro.engine.sweeps import (
    DRIVERS,
    RunRequest,
    SweepSpec,
    driver_names,
    evaluate_f,
    execute_request,
    register_driver,
    table1_requests,
)

__all__ = [
    "DRIVERS",
    "FabricConfig",
    "FabricWorker",
    "QueuedTask",
    "RunRequest",
    "RunResult",
    "RunStore",
    "StoredRun",
    "SweepSpec",
    "TaskQueue",
    "campaign_status",
    "code_version",
    "default_store_path",
    "driver_names",
    "enqueue_campaign",
    "evaluate_f",
    "execute_leased",
    "execute_request",
    "export_store",
    "parse_store_url",
    "register_driver",
    "resolve_store_url",
    "resume_campaign",
    "run_hash",
    "run_requests",
    "run_workers",
    "table1_requests",
]
