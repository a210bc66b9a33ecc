"""The run store's contract, against the one store there is.

:class:`TestBackendContract` pins ``RunStore`` (put/get/ledger/query/
telemetry, concurrent readers in threads and in another process);
:class:`TestQueueContract` pins the work queue through
:class:`~repro.engine.queue.TaskQueue` with explicit ``now=`` clocks;
:class:`TestOneStore` pins that there is one engine, one on-disk
schema and no second layer.

The file name and the ``[sqlite]`` test ids date from when a second
engine ran the same suite; they are kept because the tier-1 floor list
names these tests by id.
"""

from __future__ import annotations

import dataclasses
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
from repro.engine.queue import (
    SETTLE_ALREADY,
    SETTLE_LOST,
    SETTLE_MISSING,
    SETTLE_OK,
    TASK_LEASED,
    TASK_PENDING,
    TaskQueue,
)
from repro.engine.store import (
    RunStore,
    code_version,
    parse_store_url,
    resolve_store_url,
    run_hash,
)
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
    with RunStore(f"sqlite://{tmp_path}/runs.sqlite") as opened:
        yield opened


class TestStoreUrls:
    def test_bare_path_is_sqlite(self):
        assert parse_store_url(".repro/runs.sqlite") == (
            "sqlite", os.path.abspath(".repro/runs.sqlite"))

    def test_pathlike_accepted(self):
        scheme, path = parse_store_url(Path("/tmp/x/runs.sqlite"))
        assert scheme == "sqlite"
        assert path == "/tmp/x/runs.sqlite"

    def test_explicit_sqlite_url(self):
        assert parse_store_url("sqlite:///abs/runs.sqlite") == (
            "sqlite", "/abs/runs.sqlite")
        assert parse_store_url("SQLITE://rel/runs.sqlite") == (
            "sqlite", os.path.abspath("rel/runs.sqlite"))

    def test_relative_path_resolves_against_parse_time_cwd(
            self, tmp_path, monkeypatch):
        """Workers parsing the same relative URL from different CWDs
        must NOT end up with different store files — the path is
        pinned to the parser's CWD, so the coordinator resolves it
        once and hands workers an absolute URL."""
        monkeypatch.chdir(tmp_path)
        scheme, path = parse_store_url("sqlite://runs.sqlite")
        assert path == str(tmp_path / "runs.sqlite")
        url = resolve_store_url("runs.sqlite")
        assert url == f"sqlite://{tmp_path}/runs.sqlite"
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        # The absolute URL round-trips identically from any CWD.
        assert parse_store_url(url) == (scheme, path)
        assert resolve_store_url(url) == url

    def test_memory_store_is_rejected(self, tmp_path, monkeypatch):
        """An in-memory store cannot give every thread and worker its
        own connection; without the check ``abspath`` would quietly
        create a file named ``:memory:``."""
        monkeypatch.chdir(tmp_path)
        for location in (":memory:", "sqlite://:memory:"):
            for opener in (parse_store_url, resolve_store_url, RunStore):
                with pytest.raises(ValueError, match="in-memory") as caught:
                    opener(location)
                assert "\n" not in str(caught.value)
        assert list(tmp_path.iterdir()) == []

    def test_duckdb_scheme_is_rejected_with_export_hint(self):
        with pytest.raises(ValueError) as caught:
            parse_store_url("duckdb://runs.duckdb")
        message = str(caught.value)
        assert "unknown run-store scheme 'duckdb'" in message
        assert "sqlite://" in message
        assert "'python -m repro runs export'" in message
        assert "\n" not in message

    def test_unknown_scheme_is_an_error(self):
        with pytest.raises(ValueError, match="unknown run-store scheme"):
            parse_store_url("postgres://runs")

    def test_missing_path_is_an_error(self):
        with pytest.raises(ValueError, match="missing a path"):
            parse_store_url("sqlite://")

    def test_runstore_reports_scheme_and_path(self, tmp_path):
        with RunStore(f"sqlite://{tmp_path}/runs.sqlite") as opened:
            assert opened.path == tmp_path / "runs.sqlite"
            assert resolve_store_url(opened.path) == (
                f"sqlite://{tmp_path}/runs.sqlite")


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
        url = resolve_store_url(store.path)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--driver", "crash",
             "--n", "6", "--seeds", "0-1", "--f", "1", "--store", url],
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
             "--n", "6", "--seeds", "0-1", "--f", "1", "--store", url],
            capture_output=True, env=env, text=True, check=True,
        ).stderr


def queue_requests(count):
    return [RunRequest.make("crash", 8, 0, seed) for seed in range(count)]


class TestQueueContract:
    """The work queue, through the one layer that holds its SQL.

    Tasks are named by ``seq`` (their enqueue position): the task hash
    is the request's content hash under the current code version.
    """

    @pytest.fixture
    def queue(self, store):
        return TaskQueue(store)

    def enqueue(self, queue, campaign="c", count=2):
        return queue.enqueue(campaign, queue_requests(count))

    def test_enqueue_is_idempotent(self, queue):
        assert self.enqueue(queue) == (2, 2)
        assert self.enqueue(queue) == (2, 0)
        assert self.enqueue(queue, count=3) == (3, 1)  # only seq 2 is new
        counts = queue.counts()
        assert counts["c"][TASK_PENDING] == 3
        assert counts["c"]["total"] == 3

    def test_claim_orders_by_seq_and_stamps_lease(self, queue):
        self.enqueue(queue)
        task = queue.claim("w1", 30.0, now=100.0)
        assert task.seq == 0
        assert task.task_hash == run_hash("crash", 8, 0, 0)
        assert task.state == TASK_LEASED
        assert task.lease_owner == "w1"
        assert task.lease_deadline == 130.0
        assert task.attempts == 1
        assert task.spec["seed"] == 0
        persisted = queue.get("c", task.task_hash)
        assert persisted.state == TASK_LEASED
        assert persisted.lease_owner == "w1"
        assert persisted == task

    def test_claim_skips_live_leases(self, queue):
        self.enqueue(queue)
        queue.claim("w1", 30.0, now=100.0)
        second = queue.claim("w2", 30.0, now=100.0)
        assert second.seq == 1
        assert queue.claim("w3", 30.0, now=100.0) is None

    def test_claim_reclaims_expired_lease(self, queue):
        self.enqueue(queue, count=1)
        queue.claim("dead", 30.0, now=100.0)
        # Before the deadline the lease holds; after it, it's claimable
        # and the new lease increments the attempt counter.
        assert queue.claim("w2", 30.0, now=129.0) is None
        task = queue.claim("w2", 30.0, now=131.0)
        assert task.seq == 0
        assert task.lease_owner == "w2"
        assert task.attempts == 2

    def test_campaign_filter(self, queue):
        self.enqueue(queue, campaign="a", count=1)
        self.enqueue(queue, campaign="b", count=1)
        task = queue.claim("w", 30.0, campaign="b", now=100.0)
        assert task.campaign == "b"
        assert queue.claim("w", 30.0, campaign="nope", now=100.0) is None

    def test_heartbeat_extends_only_the_live_owner(self, queue):
        self.enqueue(queue, count=1)
        task = queue.claim("w1", 30.0, now=100.0)
        assert queue.heartbeat(task, "w1", 30.0, now=170.0)
        assert queue.get("c", task.task_hash).lease_deadline == 200.0
        assert not queue.heartbeat(task, "imposter", 30.0, now=969.0)
        assert queue.get("c", task.task_hash).lease_deadline == 200.0

    def test_settlement_is_at_most_once(self, queue):
        self.enqueue(queue, count=1)
        task = queue.claim("w1", 30.0, now=100.0)
        assert queue.settle(task, "w1", result_status="ok",
                            now=101.0) == SETTLE_OK
        settled = queue.get("c", task.task_hash)
        assert settled.done and settled.result_status == "ok"
        assert settled.lease_owner is None
        assert settled.settled == 101.0
        # Everyone after the winner gets a detected no-op.
        assert queue.settle(task, "w1", result_status="ok",
                            now=102.0) == SETTLE_ALREADY
        assert queue.settle(task, "w2", result_status="ok",
                            now=102.0) == SETTLE_ALREADY
        assert queue.get("c", task.task_hash).settled == 101.0
        ghost = dataclasses.replace(task, task_hash="nope")
        assert queue.settle(ghost, "w1", result_status="ok",
                            now=102.0) == SETTLE_MISSING

    def test_settle_maps_run_status_to_a_terminal_state(self, queue):
        """``ok`` settles; anything else — ``failed``, or ``None`` for a
        run that never produced a result — fails the task."""
        self.enqueue(queue, count=3)
        for result_status, state in (("ok", "settled"), ("failed", "failed"),
                                     (None, "failed")):
            task = queue.claim("w1", 30.0, now=100.0)
            assert queue.settle(task, "w1", result_status=result_status,
                                now=101.0) == SETTLE_OK
            final = queue.get("c", task.task_hash)
            assert (final.state, final.result_status) == (
                state, result_status)
        assert queue.outstanding() == 0

    def test_settle_after_lease_lost_is_detected(self, queue):
        self.enqueue(queue, count=1)
        slow = queue.claim("slow", 30.0, now=100.0)
        # The lease expires and another worker claims it; the original
        # worker's settle must NOT override the new lease.
        queue.claim("fast", 30.0, now=131.0)
        assert queue.settle(slow, "slow", result_status="ok",
                            now=132.0) == SETTLE_LOST
        task = queue.get("c", slow.task_hash)
        assert task.state == TASK_LEASED and task.lease_owner == "fast"

    def test_reap_returns_expired_leases_to_pending(self, queue):
        self.enqueue(queue)
        dead = queue.claim("dead", 30.0, now=100.0)
        live = queue.claim("live", 400.0, now=100.0)
        reaped = queue.reap(now=200.0)
        assert [(t.seq, t.lease_owner) for t in reaped] == [(0, "dead")]
        assert queue.get("c", dead.task_hash).state == TASK_PENDING
        assert queue.get("c", live.task_hash).state == TASK_LEASED
        assert queue.reap(now=200.0) == []

    def test_force_reap_reclaims_live_leases_too(self, queue):
        self.enqueue(queue, count=1)
        task = queue.claim("live", 400.0, now=100.0)
        reaped = queue.reap(force=True, now=101.0)
        assert [t.lease_owner for t in reaped] == ["live"]
        assert queue.get("c", task.task_hash).state == TASK_PENDING

    def test_list_tasks_filters(self, queue):
        self.enqueue(queue)
        queue.claim("w1", 30.0, now=100.0)
        assert [t.seq for t in queue.tasks()] == [0, 1]
        assert [t.seq for t in queue.tasks(state=TASK_PENDING)] == [1]
        assert queue.tasks(campaign="nope") == []
        assert len(queue.tasks(limit=1)) == 1

    def test_run_attempts_round_trip(self, store):
        put_run(store, "h1", attempts=2)
        put_run(store, "h2")
        assert store.get("h1").attempts == 2
        assert store.get("h2").attempts == 1

    def test_concurrent_claimants_never_share_a_task(self, queue):
        """Racing threads each lease a disjoint set of tasks."""
        total = 16
        self.enqueue(queue, campaign="race", count=total)
        claimed: list[list[int]] = [[] for _ in range(4)]
        errors: list[BaseException] = []

        def claimant(slot: int) -> None:
            try:
                while True:
                    task = queue.claim(f"w{slot}", 60.0, campaign="race")
                    if task is None:
                        return
                    claimed[slot].append(task.seq)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=claimant, args=(slot,))
                   for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        everything = [seq for per in claimed for seq in per]
        assert sorted(everything) == list(range(total))  # no double-claims


class TestClosedStore:
    def test_use_after_close_is_an_error(self, tmp_path):
        store = RunStore(f"sqlite://{tmp_path}/runs.sqlite")
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.query()


#: ``SELECT name, sql FROM sqlite_master ORDER BY name`` on a fresh
#: store, recorded at the last commit that had ``engine/backends/``.
#: Changing it changes the on-disk format: extend ``_migrate`` first.
PINNED_SCHEMA = [
    ("idx_runs_created", "CREATE INDEX idx_runs_created ON runs (created)"),
    ("idx_runs_driver",
     "CREATE INDEX idx_runs_driver ON runs (driver, n, f, seed)"),
    ("idx_tasks_state",
     "CREATE INDEX idx_tasks_state ON tasks (state, lease_deadline)"),
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
    ("sqlite_autoindex_tasks_1", None),
    ("sqlite_autoindex_telemetry_1", None),
    ("tasks", """CREATE TABLE tasks (
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
)"""),
    ("telemetry", """CREATE TABLE telemetry (
    run_hash TEXT NOT NULL,
    key      TEXT NOT NULL,
    value    TEXT NOT NULL,
    created  REAL NOT NULL,
    PRIMARY KEY (run_hash, key)
)"""),
]


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
        # The store never imports the layer above it, and the queue
        # imports the store at module level only (an indented import
        # would be a function-level one papering over a cycle).
        assert not re.search(
            r"^\s*(?:from|import)\s+repro\.engine\.queue\b",
            (engine / "store.py").read_text(), re.MULTILINE)
        assert not re.search(
            r"^[ \t]+(?:from|import)\s+repro\.engine\.store\b",
            (engine / "queue.py").read_text(), re.MULTILINE)

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
