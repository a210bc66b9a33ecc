"""Persistent, content-addressed run store: one SQLite file in WAL mode.

Every protocol execution is identified by a canonical SHA-256 hash of
``(driver, n, f, seed, params, code_version)``.  ``params`` is the
driver's keyword configuration restricted to JSON scalars so the key is
reproducible across processes and sessions; ``code_version`` is a hash
of the ``repro`` package sources, so editing any algorithm or the cost
model automatically invalidates old measurements instead of silently
serving stale rows.

Three tables, created on connect from the one ``_SCHEMA`` below:

``runs``
    One row per execution: the identity fields, status (``ok`` or
    ``failed``), the JSON summary row, the error text for failed runs,
    wall-clock timing, and whether a per-round ledger was stored.

``ledgers``
    The per-round ``(messages, bits)`` ledger of each stored run —
    the raw material for round-resolved plots without re-executing.

``telemetry``
    Opt-in observability rows keyed by run hash: one ``(key, JSON
    value)`` pair per aspect (execution timing, retry counts, phase
    profiles).  Written only when a sweep runs with an observer
    attached (see :mod:`repro.obs`); ``python -m repro obs report``
    aggregates it.

A store location is a file path, made absolute when the store opens.
Analytics do not run against the store:
``python -m repro runs export`` dumps it as JSONL files for any SQL
engine (:mod:`repro.engine.export`).

Each result is stored under its hash as it settles, so a killed sweep
resumes by running the same command again: what was stored is served,
only the rest executes.  A store file from before the work queue was
removed still opens; its ``tasks`` table is ignored.

WAL journaling makes concurrent *readers* first-class: a
``python -m repro runs`` session can watch a sweep fill in from another
process while the coordinator writes, and two ``sweep`` processes may
write the same file.  Within one process every thread gets its own
connection — SQLite connections are not thread-safe, so
``check_same_thread`` stays at its strict default and each connection
simply never leaves its owning thread.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Optional, Sequence

__all__ = [
    "DEFAULT_STORE",
    "STORE_ENV",
    "RunStore",
    "StoredRun",
    "canonical_json",
    "code_version",
    "default_store_path",
    "normalize_ledger",
    "run_hash",
]

#: Environment variable overriding the default store path.
STORE_ENV = "REPRO_STORE"

#: Default store path, relative to the current working directory.
DEFAULT_STORE = ".repro/runs.sqlite"


def default_store_path() -> str:
    """``$REPRO_STORE`` if set, else ``.repro/runs.sqlite`` under cwd."""
    return os.environ.get(STORE_ENV, DEFAULT_STORE)


@lru_cache(maxsize=1)
def code_version() -> str:
    """A short hash of every ``.py`` source in the ``repro`` package.

    Any change to the algorithms, the cost model, or the drivers yields
    a new version, so cached measurements never outlive the code that
    produced them.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def canonical_json(value: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def run_hash(
    driver: str,
    n: int,
    f: int,
    seed: int,
    params: object = (),
    version: Optional[str] = None,
) -> str:
    """The content address of one execution."""
    key = canonical_json(
        {
            "driver": driver,
            "n": n,
            "f": f,
            "seed": seed,
            "params": dict(params) if not isinstance(params, dict) else params,
            "code_version": version if version is not None else code_version(),
        }
    )
    return hashlib.sha256(key.encode()).hexdigest()


@dataclass
class StoredRun:
    """One persisted execution, decoded from the ``runs`` table."""

    hash: str
    driver: str
    n: int
    f: int
    seed: int
    params: dict
    code_version: str
    status: str
    row: Optional[dict]
    error: Optional[str]
    elapsed: Optional[float]
    created: float
    #: Whether the run was stored *with* a per-round ledger.  An empty
    #: ledger (a zero-round run) still sets this, so ``[]`` and ``None``
    #: survive store round trips distinctly.
    has_ledger: bool = False
    #: Executions the stored result took (1 = clean first attempt,
    #: 2 = recovered through the retry path; legacy rows default to 1).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def normalize_ledger(
    hash_: str,
    messages_per_round: Optional[Sequence[int]],
    bits_per_round: Optional[Sequence[int]],
) -> Optional[tuple[list[int], list[int]]]:
    """Validate a put's ledger pair; return ``(messages, bits)`` lists.

    Both-or-neither and equal lengths — a bare ``zip`` here used to
    silently drop the ledger when one side was ``None`` and silently
    truncate to the shorter list on a length mismatch, corrupting the
    stored ledger without a trace.
    """
    if (messages_per_round is None) != (bits_per_round is None):
        given, missing = (
            ("messages_per_round", "bits_per_round")
            if bits_per_round is None
            else ("bits_per_round", "messages_per_round")
        )
        raise ValueError(
            f"run {hash_}: {given} given without {missing}; the per-round "
            "ledger lists must be stored together or not at all"
        )
    if messages_per_round is None:
        return None
    messages = [int(m) for m in messages_per_round]
    bits = [int(b) for b in bits_per_round]
    if len(messages) != len(bits):
        raise ValueError(
            f"run {hash_}: ledger length mismatch — {len(messages)} "
            f"messages_per_round rounds vs {len(bits)} bits_per_round "
            "rounds; refusing to truncate"
        )
    return messages, bits


_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    hash         TEXT PRIMARY KEY,
    driver       TEXT NOT NULL,
    n            INTEGER NOT NULL,
    f            INTEGER NOT NULL,
    seed         INTEGER NOT NULL,
    params       TEXT NOT NULL,
    code_version TEXT NOT NULL,
    status       TEXT NOT NULL CHECK (status IN ('ok', 'failed')),
    row          TEXT,
    error        TEXT,
    elapsed      REAL,
    created      REAL NOT NULL,
    has_ledger   INTEGER NOT NULL DEFAULT 0,
    attempts     INTEGER NOT NULL DEFAULT 1
);
CREATE INDEX IF NOT EXISTS idx_runs_driver ON runs (driver, n, f, seed);
CREATE INDEX IF NOT EXISTS idx_runs_created ON runs (created);
CREATE TABLE IF NOT EXISTS ledgers (
    run_hash TEXT NOT NULL REFERENCES runs (hash) ON DELETE CASCADE,
    "round"  INTEGER NOT NULL,
    messages INTEGER NOT NULL,
    bits     INTEGER NOT NULL,
    PRIMARY KEY (run_hash, "round")
);
CREATE TABLE IF NOT EXISTS telemetry (
    run_hash TEXT NOT NULL,
    key      TEXT NOT NULL,
    value    TEXT NOT NULL,
    created  REAL NOT NULL,
    PRIMARY KEY (run_hash, key)
);
"""

#: How long a connection waits on another's lock before "database is
#: locked".
_BUSY_TIMEOUT_MS = 10_000

_RUN_COLUMNS = ("hash, driver, n, f, seed, params, code_version, status,"
                " row, error, elapsed, created, has_ledger, attempts")


def _decode_run(record: tuple) -> StoredRun:
    (hash_, driver, n, f, seed, params, version, status, row, error,
     elapsed, created, has_ledger, attempts) = record
    return StoredRun(
        hash=hash_, driver=driver, n=n, f=f, seed=seed,
        params=json.loads(params), code_version=version, status=status,
        row=json.loads(row) if row is not None else None,
        error=error, elapsed=elapsed, created=created,
        has_ledger=bool(has_ledger), attempts=int(attempts),
    )


def _migrate(connection: sqlite3.Connection) -> None:
    """Upgrade stores created before the ``has_ledger`` column.

    Legacy rows could not distinguish "stored without a ledger" from
    "stored with an empty one"; the backfill marks rows with ledger
    rows present, the best reconstruction available.
    """
    columns = {
        record[1] for record in connection.execute("PRAGMA table_info(runs)")
    }
    if "has_ledger" not in columns:
        connection.execute(
            "ALTER TABLE runs"
            " ADD COLUMN has_ledger INTEGER NOT NULL DEFAULT 0")
        connection.execute(
            "UPDATE runs SET has_ledger = EXISTS"
            " (SELECT 1 FROM ledgers WHERE run_hash = hash)")
    if "attempts" not in columns:
        connection.execute(
            "ALTER TABLE runs"
            " ADD COLUMN attempts INTEGER NOT NULL DEFAULT 1")


class RunStore:
    """The run cache: open with a file path; close when done.

    Usable as a context manager::

        with RunStore(".repro/runs.sqlite") as store:
            store.get(some_hash)

    Semantics (pinned by ``tests/test_store_backends.py``):

    * ``put`` replaces the row under its content hash and rewrites its
      ledgers atomically; ``messages_per_round`` and ``bits_per_round``
      must be given together with equal lengths (``ValueError`` naming
      the run hash otherwise).
    * ``ledger`` distinguishes **no ledger stored** (``None``) from a
      legitimately **empty ledger** (``([], [])``) — a zero-round run
      must survive a store round trip.
    * ``put_telemetry`` replaces on the same ``(run_hash, key)``.
    * ``query`` orders by ``(created, hash)``; ``stats`` reports totals.
    * Readers in other threads and other processes see committed
      writes — concurrent readers are first-class.
    * A location that is not a file path -- ``:memory:`` or anything
      with ``://`` in it -- is a ``ValueError``, and nothing is created.
    """

    def __init__(self, path: os.PathLike | str = DEFAULT_STORE):
        text = os.fspath(path)
        if text == ":memory:" or "://" in text:
            # Every thread opens its own connection, so an in-memory
            # store would be one store per thread; and a URL taken as a
            # path would create a directory named after its scheme.
            raise ValueError(
                f"run store {text!r} is not a file path; give the path "
                "of a SQLite file (for analytics, dump it with "
                "'python -m repro runs export')")
        self.path = Path(os.path.abspath(text))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # One connection per thread, all tracked so close() tears the
        # store down deterministically: a sweep coordinator, a progress
        # watcher and the test suite's concurrent readers all touch one
        # store object.
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._lock = threading.Lock()
        self._closed = False
        self._connection()  # create eagerly: surface path/schema errors now

    # -- lifecycle ----------------------------------------------------

    def _connection(self) -> sqlite3.Connection:
        """The calling thread's connection, opened on first use."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            with self._lock:
                if self._closed:
                    raise RuntimeError("store is closed")
                connection = self._connect()
                self._connections.append(connection)
            self._local.connection = connection
        return connection

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(
            str(self.path),
            # Autocommit: transactions are the explicit BEGIN/COMMIT of
            # transaction(), never sqlite3's implicit ones.
            isolation_level=None,
            # Strict per-thread ownership — each thread gets its own
            # connection, so the default thread check stays on as a
            # safety net rather than being disabled.
            check_same_thread=True,
        )
        # Concurrent-writer safety net: WAL readers never block, but a
        # reader opening its connection while the coordinator holds the
        # write lock briefly (schema setup, a put) should wait, not
        # fail with "database is locked".
        connection.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        # SQLite does not call the busy handler for the switch to WAL:
        # a new file still in rollback mode, write-locked by another
        # process's first transaction, fails it at once.  Wait as
        # busy_timeout would.
        deadline = time.monotonic() + _BUSY_TIMEOUT_MS / 1000
        while True:
            try:
                connection.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as error:
                if ("locked" not in str(error)
                        or time.monotonic() > deadline):
                    raise
                time.sleep(0.01)
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute("PRAGMA foreign_keys=ON")
        connection.executescript(_SCHEMA)
        _migrate(connection)
        connection.commit()
        return connection

    def close(self) -> None:
        with self._lock:
            self._closed = True
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self._local = threading.local()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------

    def execute(self, sql: str, parameters: Sequence = ()) -> sqlite3.Cursor:
        """Run one statement on the calling thread's connection."""
        return self._connection().execute(sql, parameters)

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """One explicit write transaction on the calling thread's
        connection: commit on exit, roll back on any exception.

        Keeps multi-statement mutations — a ``put``'s row + ledger
        rewrite — atomic for concurrent readers and writers.  The lock
        is taken at BEGIN: a deferred transaction that reads before
        writing can hit an unretryable ``SQLITE_BUSY`` upgrading its
        shared lock when another ``sweep`` process committed in between,
        while ``BEGIN IMMEDIATE`` serializes writers under
        ``busy_timeout``.
        """
        connection = self._connection()
        connection.execute("BEGIN IMMEDIATE")
        try:
            yield connection
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise

    # -- writes -------------------------------------------------------

    def put(self, hash_: str, *, driver: str, n: int, f: int, seed: int,
            params: object, version: str, status: str,
            row: Optional[dict] = None, error: Optional[str] = None,
            elapsed: Optional[float] = None,
            messages_per_round: Optional[Sequence[int]] = None,
            bits_per_round: Optional[Sequence[int]] = None,
            attempts: int = 1) -> None:
        """Insert or replace one run (and its per-round ledgers)."""
        params_map = dict(params) if not isinstance(params, dict) else params
        ledger = normalize_ledger(hash_, messages_per_round, bits_per_round)
        with self.transaction() as connection:
            connection.execute(
                f"INSERT OR REPLACE INTO runs ({_RUN_COLUMNS})"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    hash_, driver, n, f, seed,
                    canonical_json(params_map), version, status,
                    # Row keys keep insertion order (not canonical_json):
                    # table columns come from the first row, so a cached
                    # row must render byte-identically to a fresh one.
                    json.dumps(row) if row is not None else None,
                    error, elapsed, time.time(),
                    ledger is not None, int(attempts),
                ),
            )
            connection.execute(
                "DELETE FROM ledgers WHERE run_hash = ?", (hash_,))
            if ledger is not None:
                connection.executemany(
                    "INSERT INTO ledgers (run_hash, \"round\", messages, bits)"
                    " VALUES (?, ?, ?, ?)",
                    [(hash_, round_no, message_count, bit_count)
                     for round_no, (message_count, bit_count)
                     in enumerate(zip(*ledger), start=1)],
                )

    def put_telemetry(self, hash_: str, key: str, value: object) -> None:
        """Attach one observability row to a run hash.

        ``value`` is any JSON-serializable object; re-putting the same
        ``(hash, key)`` replaces the previous value.
        """
        with self.transaction() as connection:
            connection.execute(
                "INSERT OR REPLACE INTO telemetry"
                " (run_hash, key, value, created) VALUES (?, ?, ?, ?)",
                (hash_, key, canonical_json(value), time.time()),
            )

    def delete(self, hash_: str) -> None:
        with self.transaction() as connection:
            connection.execute(
                "DELETE FROM ledgers WHERE run_hash = ?", (hash_,))
            connection.execute(
                "DELETE FROM telemetry WHERE run_hash = ?", (hash_,))
            connection.execute("DELETE FROM runs WHERE hash = ?", (hash_,))

    def clear(self) -> None:
        with self.transaction() as connection:
            for table in ("ledgers", "telemetry", "runs"):
                connection.execute(f"DELETE FROM {table}")

    # -- reads --------------------------------------------------------

    def get(self, hash_: str) -> Optional[StoredRun]:
        record = self.execute(
            f"SELECT {_RUN_COLUMNS} FROM runs WHERE hash = ?", (hash_,)
        ).fetchone()
        return _decode_run(record) if record else None

    def ledger(self, hash_: str) -> Optional[tuple[list[int], list[int]]]:
        """``(messages_per_round, bits_per_round)`` of one stored run.

        ``None`` when the run is missing or was stored without a ledger;
        ``([], [])`` for a run stored with a legitimately empty one.
        """
        flag = self.execute(
            "SELECT has_ledger FROM runs WHERE hash = ?", (hash_,)
        ).fetchone()
        if flag is None or not flag[0]:
            return None
        records = self.execute(
            "SELECT messages, bits FROM ledgers WHERE run_hash = ?"
            " ORDER BY \"round\"", (hash_,)
        ).fetchall()
        return ([m for m, _ in records], [b for _, b in records])

    def query(self, *, driver: Optional[str] = None, n: Optional[int] = None,
              f: Optional[int] = None, seed: Optional[int] = None,
              status: Optional[str] = None,
              current_version_only: bool = False,
              limit: Optional[int] = None) -> list[StoredRun]:
        """Stored runs matching the given filters, oldest first."""
        clauses, values = [], []
        for column, value in (("driver", driver), ("n", n), ("f", f),
                              ("seed", seed), ("status", status)):
            if value is not None:
                clauses.append(f"{column} = ?")
                values.append(value)
        if current_version_only:
            clauses.append("code_version = ?")
            values.append(code_version())
        sql = f"SELECT {_RUN_COLUMNS} FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created, hash"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [_decode_run(r) for r in self.execute(sql, values).fetchall()]

    def telemetry(self, hash_: str) -> dict:
        """All telemetry rows of one run, as ``{key: decoded value}``."""
        return {
            key: json.loads(value)
            for key, value in self.execute(
                "SELECT key, value FROM telemetry WHERE run_hash = ?"
                " ORDER BY key", (hash_,)
            ).fetchall()
        }

    def telemetry_rows(self, *, key: Optional[str] = None,
                       driver: Optional[str] = None,
                       limit: Optional[int] = None,
                       ) -> list[tuple[str, str, dict]]:
        """``(run_hash, key, value)`` telemetry rows, oldest first.

        ``driver`` filters through the ``runs`` table; telemetry whose
        run row is gone still matches when ``driver`` is ``None``.
        """
        clauses, values = [], []
        sql = "SELECT t.run_hash, t.key, t.value FROM telemetry t"
        if driver is not None:
            sql += " JOIN runs r ON r.hash = t.run_hash"
            clauses.append("r.driver = ?")
            values.append(driver)
        if key is not None:
            clauses.append("t.key = ?")
            values.append(key)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY t.created, t.run_hash, t.key"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        return [
            (hash_, key_, json.loads(value))
            for hash_, key_, value in self.execute(sql, values).fetchall()
        ]

    def stats(self) -> dict:
        """Aggregate counts for the CLI footer."""
        total, ok, failed = self.execute(
            "SELECT COUNT(*),"
            " SUM(CASE WHEN status = 'ok' THEN 1 ELSE 0 END),"
            " SUM(CASE WHEN status = 'failed' THEN 1 ELSE 0 END)"
            " FROM runs"
        ).fetchone()
        drivers = [d for (d,) in self.execute(
            "SELECT DISTINCT driver FROM runs ORDER BY driver").fetchall()]
        return {
            "total": int(total or 0),
            "ok": int(ok or 0),
            "failed": int(failed or 0),
            "drivers": drivers,
            "path": str(self.path),
        }
