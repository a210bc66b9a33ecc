"""The run store's contract, against the one store there is.

:class:`TestBackendContract` pins ``RunStore`` (put/get/ledger/query/
telemetry, concurrent readers in threads and in another process);
:class:`TestOneStore` pins that there is one engine, one on-disk
schema and no second layer.

The file name and the ``[sqlite]`` test ids date from when a second
engine ran the same suite; they are kept because the tier-1 floor list
names these tests by id.
"""

from __future__ import annotations

import importlib.util
import os
import re
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.engine.pool import run_requests
from repro.engine.store import RunStore, code_version, run_hash
from repro.engine.sweeps import RunRequest


def put_run(store, hash_, *, driver="crash", n=8, f=2, seed=0, params=None,
            version="v1", status="ok", row=None, **kwargs):
    store.put(
        hash_, driver=driver, n=n, f=f, seed=seed,
        params={} if params is None else params, version=version,
        status=status, row=row, **kwargs,
    )


@pytest.fixture(params=["sqlite"])  # one engine; the param keeps the ids
def store(tmp_path):
    with RunStore(tmp_path / "runs.sqlite") as opened:
        yield opened


class TestStorePath:
    def test_path_names_the_file(self, tmp_path):
        with RunStore(str(tmp_path / "sub" / "runs.sqlite")) as opened:
            assert opened.path == tmp_path / "sub" / "runs.sqlite"
        assert (tmp_path / "sub" / "runs.sqlite").is_file()

    def test_pathlike_accepted(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as opened:
            assert opened.path == tmp_path / "runs.sqlite"

    def test_relative_path_is_made_absolute_on_open(
            self, tmp_path, monkeypatch):
        """A store opened from a relative path keeps naming the same
        file after the process changes directory."""
        monkeypatch.chdir(tmp_path)
        with RunStore("runs.sqlite") as opened:
            assert opened.path == tmp_path / "runs.sqlite"
            (tmp_path / "elsewhere").mkdir()
            monkeypatch.chdir(tmp_path / "elsewhere")
            put_run(opened, "a" * 64)
        assert not (tmp_path / "elsewhere" / "runs.sqlite").exists()

    @pytest.mark.parametrize("location", [
        ":memory:", "sqlite:///tmp/runs.sqlite", "sqlite://runs.sqlite",
        "duckdb://runs.duckdb", "postgres://runs"])
    def test_not_a_file_path_is_rejected(self, location, tmp_path,
                                         monkeypatch):
        """An in-memory store cannot give every thread its own
        connection, and a URL taken as a path would create a directory
        named after its scheme: both are one error line, and nothing is
        created."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="not a file path") as caught:
            RunStore(location)
        assert "'python -m repro runs export'" in str(caught.value)
        assert "\n" not in str(caught.value)
        assert list(tmp_path.iterdir()) == []


class TestBackendContract:
    def test_put_get_round_trip(self, store):
        row = {"messages": 12, "outcome": "safe_terminated", "ratio": 1.5}
        put_run(store, "h1", n=16, f=4, seed=7,
                params={"b": 2, "a": 1}, row=row, elapsed=0.25)
        run = store.get("h1")
        assert run is not None
        assert (run.hash, run.driver, run.n, run.f, run.seed) == (
            "h1", "crash", 16, 4, 7)
        assert run.params == {"a": 1, "b": 2}
        assert run.code_version == "v1"
        assert run.ok and run.status == "ok"
        assert run.row == row
        assert run.error is None
        assert run.elapsed == 0.25
        assert run.has_ledger is False
        assert store.get("missing") is None

    def test_put_replaces_row_and_ledger(self, store):
        put_run(store, "h1", row={"messages": 1},
                messages_per_round=[1, 2, 3], bits_per_round=[10, 20, 30])
        put_run(store, "h1", row={"messages": 2},
                messages_per_round=[5], bits_per_round=[50])
        assert len(store.query()) == 1
        assert store.get("h1").row == {"messages": 2}
        assert store.ledger("h1") == ([5], [50])

    def test_failed_run_round_trip(self, store):
        put_run(store, "bad", status="failed", error="boom", row=None)
        run = store.get("bad")
        assert not run.ok
        assert run.error == "boom"
        assert run.row is None

    def test_run_attempts_round_trip(self, store):
        put_run(store, "h1", attempts=2)
        put_run(store, "h2")
        assert store.get("h1").attempts == 2
        assert store.get("h2").attempts == 1

    def test_ledger_preserves_round_order(self, store):
        messages, bits = [7, 3, 9, 1], [70, 30, 90, 10]
        put_run(store, "h1", messages_per_round=messages,
                bits_per_round=bits)
        assert store.ledger("h1") == (messages, bits)

    def test_empty_ledger_distinct_from_missing(self, store):
        put_run(store, "zero", messages_per_round=[], bits_per_round=[])
        put_run(store, "none")
        assert store.ledger("zero") == ([], [])
        assert store.ledger("none") is None
        assert store.ledger("absent") is None
        assert store.get("zero").has_ledger is True
        assert store.get("none").has_ledger is False

    def test_lone_ledger_side_is_rejected(self, store):
        with pytest.raises(ValueError,
                           match="h1.*messages_per_round given without"):
            put_run(store, "h1", messages_per_round=[1])
        with pytest.raises(ValueError,
                           match="h1.*bits_per_round given without"):
            put_run(store, "h1", bits_per_round=[1])
        assert store.get("h1") is None

    def test_ledger_length_mismatch_is_rejected(self, store):
        with pytest.raises(ValueError, match="h1.*length mismatch"):
            put_run(store, "h1", messages_per_round=[1, 2],
                    bits_per_round=[10])
        assert store.get("h1") is None

    def test_content_hash_round_trip(self, store):
        hash_ = run_hash("crash", 8, 2, 0, {"adversary": "hunter"}, "v1")
        put_run(store, hash_, params={"adversary": "hunter"},
                row={"messages": 3})
        assert store.get(hash_).row == {"messages": 3}
        assert run_hash("crash", 8, 2, 0, {"adversary": "hunter"},
                        "v2") != hash_

    def test_telemetry_replace_semantics(self, store):
        put_run(store, "h1")
        store.put_telemetry("h1", "timing", {"elapsed": 1.0})
        store.put_telemetry("h1", "timing", {"elapsed": 2.0})
        store.put_telemetry("h1", "retries", 3)
        assert store.telemetry("h1") == {
            "timing": {"elapsed": 2.0}, "retries": 3}
        rows = store.telemetry_rows(key="timing")
        assert rows == [("h1", "timing", {"elapsed": 2.0})]

    def test_telemetry_rows_driver_filter(self, store):
        put_run(store, "c1", driver="crash")
        put_run(store, "b1", driver="byzantine")
        store.put_telemetry("c1", "k", 1)
        store.put_telemetry("b1", "k", 2)
        assert store.telemetry_rows(driver="byzantine") == [("b1", "k", 2)]
        assert len(store.telemetry_rows()) == 2
        assert store.telemetry("nope") == {}

    def test_query_filters_and_order(self, store):
        put_run(store, "a", driver="crash", n=8, f=2, seed=0)
        put_run(store, "b", driver="crash", n=16, f=4, seed=1)
        put_run(store, "c", driver="byzantine", n=8, f=2, seed=0,
                status="failed", error="x")
        runs = store.query()
        assert [r.hash for r in runs] == [
            h for _, h in sorted((r.created, r.hash) for r in runs)]
        assert {r.hash for r in store.query(driver="crash")} == {"a", "b"}
        assert [r.hash for r in store.query(n=8, f=2, seed=0,
                                            status="ok")] == ["a"]
        assert len(store.query(limit=2)) == 2
        assert store.query(driver="gossip") == []

    def test_query_current_version_only(self, store):
        put_run(store, "old", version="0123456789abcdef")
        put_run(store, "new", version=code_version())
        assert [r.hash for r in store.query(current_version_only=True)] == [
            "new"]
        assert len(store.query()) == 2

    def test_stats(self, store):
        assert store.stats()["total"] == 0
        put_run(store, "a", driver="crash")
        put_run(store, "b", driver="byzantine", status="failed", error="x")
        stats = store.stats()
        assert stats["total"] == 2
        assert stats["ok"] == 1
        assert stats["failed"] == 1
        assert stats["drivers"] == ["byzantine", "crash"]
        assert str(store.path) in stats["path"]

    def test_delete_removes_everything(self, store):
        put_run(store, "h1", messages_per_round=[1], bits_per_round=[10])
        store.put_telemetry("h1", "k", 1)
        put_run(store, "h2")
        store.delete("h1")
        assert store.get("h1") is None
        assert store.ledger("h1") is None
        assert store.telemetry("h1") == {}
        assert store.get("h2") is not None
        store.delete("h1")  # idempotent

    def test_clear(self, store):
        put_run(store, "h1", messages_per_round=[1], bits_per_round=[10])
        store.put_telemetry("h1", "k", 1)
        store.clear()
        assert store.stats()["total"] == 0
        assert store.query() == []
        assert store.telemetry_rows() == []

    def test_concurrent_thread_readers(self, store):
        """Reader threads on the same store object see committed puts."""
        total = 24
        errors: list[BaseException] = []
        final_counts: list[int] = []
        deadline = time.monotonic() + 60

        def reader():
            try:
                while time.monotonic() < deadline:
                    runs = store.query(driver="conc")
                    for run in runs:
                        assert store.ledger(run.hash) == ([1, 2], [10, 20])
                    if len(runs) == total:
                        final_counts.append(len(runs))
                        return
                final_counts.append(len(store.query(driver="conc")))
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for index in range(total):
            put_run(store, f"conc{index:02d}", driver="conc", seed=index,
                    messages_per_round=[1, 2], bits_per_round=[10, 20])
        for thread in threads:
            thread.join(timeout=90)
        assert not errors, errors
        assert final_counts == [total, total, total]

    def test_concurrent_process_reader(self, store):
        """A second process sweeps while this one polls the same store."""
        path = str(store.path)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--driver", "crash",
             "--n", "6", "--seeds", "0-1", "--f", "1", "--store", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            text=True,
        )
        observed = 0
        try:
            # Poll the live store from this process while the sweep
            # writes from the other one.
            while process.poll() is None:
                observed = max(observed, store.stats()["total"])
                time.sleep(0.05)
        finally:
            stdout, stderr = process.communicate(timeout=300)
        assert process.returncode == 0, stderr
        runs = store.query(driver="crash")
        assert len(runs) == 2
        assert all(run.ok for run in runs)
        assert all(store.ledger(run.hash) is not None for run in runs)
        assert observed <= 2
        assert "2 cached" in subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--driver", "crash",
             "--n", "6", "--seeds", "0-1", "--f", "1", "--store", path],
            capture_output=True, env=env, text=True, check=True,
        ).stderr


class TestClosedStore:
    def test_use_after_close_is_an_error(self, tmp_path):
        store = RunStore(tmp_path / "runs.sqlite")
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.query()


#: ``SELECT name, sql FROM sqlite_master ORDER BY name`` on a fresh
#: store, recorded at the last commit that had ``engine/backends/``,
#: less the work queue's ``tasks`` table and index (removed with the
#: queue; :data:`LEGACY_TASKS` is how an old file still carries them).
#: Changing it changes the on-disk format: extend ``_migrate`` first.
PINNED_SCHEMA = [
    ("idx_runs_created", "CREATE INDEX idx_runs_created ON runs (created)"),
    ("idx_runs_driver",
     "CREATE INDEX idx_runs_driver ON runs (driver, n, f, seed)"),
    ("ledgers", """CREATE TABLE ledgers (
    run_hash TEXT NOT NULL REFERENCES runs (hash) ON DELETE CASCADE,
    "round"  INTEGER NOT NULL,
    messages INTEGER NOT NULL,
    bits     INTEGER NOT NULL,
    PRIMARY KEY (run_hash, "round")
)"""),
    ("runs", """CREATE TABLE runs (
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
)"""),
    ("sqlite_autoindex_ledgers_1", None),
    ("sqlite_autoindex_runs_1", None),
    ("sqlite_autoindex_telemetry_1", None),
    ("telemetry", """CREATE TABLE telemetry (
    run_hash TEXT NOT NULL,
    key      TEXT NOT NULL,
    value    TEXT NOT NULL,
    created  REAL NOT NULL,
    PRIMARY KEY (run_hash, key)
)"""),
]


#: The work queue's table as stores written before its removal carry
#: it: such a file must still open and serve its runs.
LEGACY_TASKS = """CREATE TABLE tasks (
    campaign       TEXT NOT NULL,
    task_hash      TEXT NOT NULL,
    seq            INTEGER NOT NULL,
    spec           TEXT NOT NULL,
    state          TEXT NOT NULL
        CHECK (state IN ('pending', 'leased', 'settled', 'failed')),
    lease_owner    TEXT,
    lease_deadline REAL,
    attempts       INTEGER NOT NULL DEFAULT 0,
    result_status  TEXT,
    created        REAL NOT NULL,
    settled        REAL,
    PRIMARY KEY (campaign, task_hash)
)"""


class TestOneStore:
    def test_on_disk_schema_is_pinned(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite"):
            pass
        connection = sqlite3.connect(tmp_path / "runs.sqlite")
        try:
            schema = connection.execute(
                "SELECT name, sql FROM sqlite_master ORDER BY name").fetchall()
        finally:
            connection.close()
        assert schema == PINNED_SCHEMA

    def test_no_backends_package_and_no_layer_cycle(self):
        assert importlib.util.find_spec(".backends", "repro.engine") is None
        engine = Path(repro.__file__).resolve().parent / "engine"
        # The store is the bottom layer: it imports no other module of
        # the engine, at any level.
        assert not re.search(
            r"^\s*(?:from|import)\s+repro\.engine\.",
            (engine / "store.py").read_text(), re.MULTILINE)

    def test_store_with_a_legacy_tasks_table_serves_cache_hits(
            self, tmp_path):
        path = tmp_path / "runs.sqlite"
        requests = [RunRequest.make("crash", 6, 1, seed) for seed in (0, 1)]
        with RunStore(path) as store:
            fresh = run_requests(requests, store=store)
        connection = sqlite3.connect(path)
        try:
            connection.execute(LEGACY_TASKS)
            connection.execute(
                "INSERT INTO tasks VALUES"
                " ('c', 'h', 0, '{}', 'leased', 'w', 1.0, 1, NULL, 0.0, NULL)")
            connection.commit()
        finally:
            connection.close()
        with RunStore(path) as store:
            cached = run_requests(requests, store=store)
            tasks = store.execute("SELECT campaign, state FROM tasks").fetchall()
        assert all(result.cached for result in cached)
        assert [r.row for r in cached] == [r.row for r in fresh]
        # Ignored, not migrated: the table and its row are as they were.
        assert tasks == [("c", "leased")]

    def test_concurrent_writer_threads_lose_nothing(self, tmp_path):
        """Four threads x 50 puts on one store object: every row lands
        (the removed ``:memory:`` store lost three quarters of them)."""
        per_thread, writers = 50, 4
        errors: list[BaseException] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with RunStore(tmp_path / "runs.sqlite") as store:

                def writer(slot: int) -> None:
                    try:
                        for index in range(per_thread):
                            put_run(store, f"w{slot}-{index:03d}", seed=index,
                                    messages_per_round=[1], bits_per_round=[8])
                    except BaseException as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=writer, args=(slot,))
                           for slot in range(writers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, errors
                assert store.stats()["total"] == per_thread * writers
        finally:
            sys.setswitchinterval(interval)

    def test_legacy_tasks_table_outlives_put_delete_and_clear(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        connection = sqlite3.connect(path)
        try:
            connection.execute(LEGACY_TASKS)
            connection.execute(
                "INSERT INTO tasks VALUES"
                " ('c', 'h', 0, '{}', 'pending', NULL, NULL, 0, NULL, 0.0,"
                " NULL)")
            connection.commit()
        finally:
            connection.close()
        with RunStore(path) as store:
            put_run(store, "a" * 64, messages_per_round=[1],
                    bits_per_round=[8])
            put_run(store, "b" * 64)
            store.delete("a" * 64)
            assert [run.hash for run in store.query()] == ["b" * 64]
            store.clear()
            assert store.stats()["total"] == 0
            tasks = store.execute("SELECT campaign, state FROM tasks").fetchall()
        assert tasks == [("c", "pending")]

    def test_two_sweeps_share_a_store_in_wal_mode(self, tmp_path):
        # WAL lets a reader poll while a sweep writes; the busy timeout
        # makes a second sweep's BEGIN IMMEDIATE wait for the first.
        with RunStore(tmp_path / "runs.sqlite") as store:
            assert store.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert store.execute("PRAGMA busy_timeout").fetchone() == (10000,)

    def test_opening_a_new_file_another_connection_write_locks_waits(
            self, tmp_path):
        """The switch to WAL on a new (rollback-journal) file that
        another connection holds a write lock on waits for the lock, as
        every other statement does, instead of failing at once with
        "database is locked"."""
        path = tmp_path / "runs.sqlite"
        locked, release = threading.Event(), 0.3

        def hold_the_write_lock():
            connection = sqlite3.connect(path, isolation_level=None)
            connection.execute("BEGIN IMMEDIATE")
            locked.set()
            time.sleep(release)
            connection.execute("COMMIT")
            connection.close()

        holder = threading.Thread(target=hold_the_write_lock)
        holder.start()
        try:
            assert locked.wait(timeout=30)
            started = time.monotonic()
            with RunStore(path) as store:
                waited = time.monotonic() - started
                put_run(store, "a" * 64)
                assert store.execute(
                    "PRAGMA journal_mode").fetchone() == ("wal",)
        finally:
            holder.join(timeout=30)
        assert not holder.is_alive()
        assert waited >= release / 2

    def test_two_store_objects_on_one_file_see_each_others_writes(
            self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with RunStore(path) as first, RunStore(path) as second:
            put_run(first, "a" * 64, messages_per_round=[3, 4],
                    bits_per_round=[30, 40])
            put_run(second, "b" * 64, seed=1)
            for store in (first, second):
                assert sorted(run.hash for run in store.query()) == [
                    "a" * 64, "b" * 64]
            assert second.ledger("a" * 64) == ([3, 4], [30, 40])

    def test_a_failed_transaction_leaves_no_trace(self, store):
        put_run(store, "a" * 64, messages_per_round=[1], bits_per_round=[8])
        with pytest.raises(RuntimeError, match="mid-write"):
            with store.transaction() as connection:
                connection.execute("DELETE FROM ledgers")
                connection.execute("DELETE FROM runs")
                raise RuntimeError("mid-write")
        assert [run.hash for run in store.query()] == ["a" * 64]
        assert store.ledger("a" * 64) == ([1], [8])

    def test_concurrent_writer_processes_lose_nothing(self, tmp_path):
        """Two processes put 50 runs each into one file at once, as two
        ``sweep`` commands sharing a store do: every row lands."""
        path = str(tmp_path / "runs.sqlite")
        script = (
            "import sys\n"
            "from repro.engine.store import RunStore\n"
            "slot, path = sys.argv[1], sys.argv[2]\n"
            "with RunStore(path) as store:\n"
            "    for index in range(50):\n"
            "        store.put(f'{slot}-{index:03d}', driver='crash', n=8,\n"
            "                  f=2, seed=index, params={}, version='v1',\n"
            "                  status='ok', row={'messages': index},\n"
            "                  messages_per_round=[index],\n"
            "                  bits_per_round=[8 * index])\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        writers = [subprocess.Popen(
            [sys.executable, "-c", script, slot, path],
            env={**os.environ, "PYTHONPATH": src},
            stderr=subprocess.PIPE, text=True) for slot in ("p", "q")]
        for writer in writers:
            _, err = writer.communicate(timeout=120)
            assert writer.returncode == 0, err
        with RunStore(path) as store:
            runs = store.query()
            assert len(runs) == 100
            assert all(store.ledger(run.hash) == ([run.seed], [8 * run.seed])
                       for run in runs)
