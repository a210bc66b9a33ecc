"""Tests for the parallel sweep engine and its SQLite run store."""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import crash_run_summary
from repro.analysis.tables import plain_table
from repro.engine import pool as engine_pool
from repro.engine.pool import run_requests
from repro.engine.store import RunStore, code_version, run_hash
from repro.engine.sweeps import (
    DRIVERS,
    RunRequest,
    SweepSpec,
    check_driver_params,
    driver_names,
    evaluate_f,
    resolve_driver,
    table1_requests,
)
from repro.__main__ import main, parse_int_list

SMALL = SweepSpec.make("crash", [6, 8], [0, 1], f="n//4")

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def store(tmp_path):
    with RunStore(tmp_path / "runs.sqlite") as opened:
        yield opened


class TestRequests:
    def test_params_canonicalized(self):
        a = RunRequest.make("crash", 8, 1, 0, adversary="hunter", namespace=99)
        b = RunRequest.make("crash", 8, 1, 0, namespace=99, adversary="hunter")
        assert a == b
        assert a.params == (("adversary", "hunter"), ("namespace", 99))

    def test_non_scalar_params_rejected(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            RunRequest.make("crash", 8, 1, 0, config={"nested": 1})

    def test_spec_expands_cross_product(self):
        requests = SMALL.requests()
        assert [(r.n, r.f, r.seed) for r in requests] == [
            (6, 1, 0), (6, 1, 1), (8, 2, 0), (8, 2, 1),
        ]

    def test_evaluate_f(self):
        assert evaluate_f("0", 64) == 0
        assert evaluate_f("n//8", 64) == 8
        assert evaluate_f("max(1, n//4)", 2) == 1
        assert evaluate_f("ceil(log2(n))", 9) == 4
        with pytest.raises(ValueError, match="bad fault-budget"):
            evaluate_f("__import__('os')", 4)

    def test_driver_registry(self):
        assert {"crash", "byzantine", "byzantine-full", "obg", "gossip",
                "balls", "falsify", "faults", "serve"} <= set(driver_names())
        assert "reelection" not in driver_names()

    @pytest.mark.parametrize("name", driver_names())
    def test_every_driver_passes_its_check_on_its_defaults(self, name):
        assert check_driver_params(name, 8, 1, {}) is None

    @pytest.mark.parametrize("name", driver_names())
    def test_every_driver_rejects_a_negative_f_before_any_run(self, name):
        with pytest.raises(ValueError, match="f=-1 must be non-negative"):
            check_driver_params(name, 8, -1, {})

    @pytest.mark.parametrize("param", [
        ("rate", 0.5), ("faults", "[]"), ("slots", 16),
        ("election_constant", 2.0)], ids=lambda param: param[0])
    def test_falsify_takes_the_params_its_grid_reads(self, param):
        """A campaign's params reach every scenario of its grid: a
        harness param, the fault spec and any family's param pass."""
        assert check_driver_params("falsify", 8, 1, dict([param])) is None

    def test_table1_requests_cover_all_families(self):
        requests = table1_requests(10, 1, seed=1)
        assert [r.driver for r in requests] == [
            "crash", "obg", "balls", "gossip", "byzantine", "byzantine-full",
        ]


class TestHashing:
    def test_stable_and_sensitive(self):
        request = RunRequest.make("crash", 8, 1, 0, adversary="hunter")
        h = run_hash(request.driver, request.n, request.f, request.seed,
                     request.params, "v1")
        again = run_hash("crash", 8, 1, 0,
                         (("adversary", "hunter"),), "v1")
        assert h == again
        assert h != run_hash("crash", 8, 1, 1,
                             (("adversary", "hunter"),), "v1")
        assert h != run_hash("crash", 8, 1, 0,
                             (("adversary", "hunter"),), "v2")

    BASE = ("crash", 8, 1, 0, (("adversary", "hunter"),), "v1")

    @pytest.mark.parametrize("field, value", [
        (0, "byzantine"),
        (1, 9),
        (2, 2),
        (4, (("adversary", "random"),)),
        (4, (("adversary", "hunter"), ("namespace", 99))),
        (4, ()),
    ], ids=["driver", "n", "f", "param-value", "extra-param", "no-params"])
    def test_every_input_moves_the_hash(self, field, value):
        changed = list(self.BASE)
        changed[field] = value
        assert run_hash(*changed) != run_hash(*self.BASE)

    def test_code_version_is_short_hex(self):
        version = code_version()
        assert len(version) == 16
        int(version, 16)


class TestStore:
    def test_roundtrip_with_ledger(self, store):
        store.put(
            "h1", driver="crash", n=8, f=1, seed=0, params={"a": 1},
            version="v", status="ok", row={"messages": 7, "ok": True},
            elapsed=0.5, messages_per_round=[3, 4], bits_per_round=[30, 40],
        )
        stored = store.get("h1")
        assert stored.ok
        assert stored.row == {"messages": 7, "ok": True}
        assert stored.params == {"a": 1}
        assert store.ledger("h1") == ([3, 4], [30, 40])

    def test_missing_is_none(self, store):
        assert store.get("nope") is None
        assert store.ledger("nope") is None

    def test_empty_ledger_distinct_from_no_ledger(self, store):
        # A zero-round run stored with an *empty* ledger must not decay
        # into "stored without ledgers" across a round trip.
        store.put("zero", driver="crash", n=1, f=0, seed=0, params={},
                  version="v", status="ok", row={"messages": 0},
                  messages_per_round=[], bits_per_round=[])
        store.put("bare", driver="crash", n=1, f=0, seed=1, params={},
                  version="v", status="ok", row={"messages": 0})
        assert store.ledger("zero") == ([], [])
        assert store.ledger("bare") is None
        assert store.get("zero").has_ledger
        assert not store.get("bare").has_ledger

    def test_put_rejects_lone_ledger_side(self, store):
        with pytest.raises(ValueError, match="h1.*bits_per_round"):
            store.put("h1", driver="crash", n=8, f=1, seed=0, params={},
                      version="v", status="ok", row={},
                      messages_per_round=[3, 4])
        with pytest.raises(ValueError, match="h1.*messages_per_round"):
            store.put("h1", driver="crash", n=8, f=1, seed=0, params={},
                      version="v", status="ok", row={},
                      bits_per_round=[30, 40])
        # Nothing was silently stored without its ledger.
        assert store.get("h1") is None

    def test_put_rejects_ledger_length_mismatch(self, store):
        with pytest.raises(ValueError, match="h1.*length mismatch"):
            store.put("h1", driver="crash", n=8, f=1, seed=0, params={},
                      version="v", status="ok", row={},
                      messages_per_round=[3, 4, 5], bits_per_round=[30])
        assert store.get("h1") is None

    def test_legacy_store_without_has_ledger_migrates(self, tmp_path):
        import sqlite3

        path = tmp_path / "legacy.sqlite"
        connection = sqlite3.connect(path)
        connection.executescript("""
            CREATE TABLE runs (
                hash TEXT PRIMARY KEY, driver TEXT NOT NULL,
                n INTEGER NOT NULL, f INTEGER NOT NULL,
                seed INTEGER NOT NULL, params TEXT NOT NULL,
                code_version TEXT NOT NULL, status TEXT NOT NULL,
                row TEXT, error TEXT, elapsed REAL, created REAL NOT NULL
            );
            CREATE TABLE ledgers (
                run_hash TEXT NOT NULL, round INTEGER NOT NULL,
                messages INTEGER NOT NULL, bits INTEGER NOT NULL,
                PRIMARY KEY (run_hash, round)
            );
            CREATE TABLE telemetry (
                run_hash TEXT NOT NULL, key TEXT NOT NULL,
                value TEXT NOT NULL, created REAL NOT NULL,
                PRIMARY KEY (run_hash, key)
            );
            INSERT INTO runs VALUES
                ('with', 'crash', 8, 1, 0, '{}', 'v', 'ok',
                 '{"messages": 7}', NULL, 0.1, 1.0),
                ('without', 'crash', 8, 1, 1, '{}', 'v', 'ok',
                 '{"messages": 7}', NULL, 0.1, 2.0);
            INSERT INTO ledgers VALUES ('with', 1, 3, 30), ('with', 2, 4, 40);
        """)
        connection.commit()
        connection.close()

        with RunStore(path) as migrated:
            assert migrated.ledger("with") == ([3, 4], [30, 40])
            assert migrated.ledger("without") is None
            assert migrated.get("with").has_ledger
            assert not migrated.get("without").has_ledger

    def test_failed_runs_and_query_filters(self, store):
        store.put("ok1", driver="crash", n=8, f=1, seed=0, params={},
                  version="v", status="ok", row={"messages": 1})
        store.put("bad", driver="obg", n=8, f=1, seed=1, params={},
                  version="v", status="failed", error="boom")
        assert [r.hash for r in store.query(status="failed")] == ["bad"]
        assert [r.hash for r in store.query(driver="crash")] == ["ok1"]
        assert store.stats()["total"] == 2
        assert store.stats()["failed"] == 1
        assert store.query(status="failed")[0].error == "boom"


class TestExecution:
    def test_serial_matches_direct_driver_calls(self):
        rows = [result.row for result in run_requests(SMALL.requests())]
        direct = [crash_run_summary(n, n // 4, seed)
                  for n in (6, 8) for seed in (0, 1)]
        assert rows == direct

    def test_parallel_rows_byte_identical_to_serial(self):
        serial = run_requests(SMALL.requests())
        parallel = run_requests(SMALL.requests(), jobs=2, chunksize=1)
        assert [r.row for r in parallel] == [r.row for r in serial]
        assert (plain_table([r.row for r in parallel])
                == plain_table([r.row for r in serial]))
        assert ([r.messages_per_round for r in parallel]
                == [r.messages_per_round for r in serial])

    def test_second_invocation_all_cache_hits(self, store, monkeypatch):
        first = run_requests(SMALL.requests(), store=store)
        assert all(not result.cached for result in first)

        def explode(request):
            raise AssertionError(f"executed {request} despite warm store")

        monkeypatch.setattr(engine_pool, "execute_request", explode)
        second = run_requests(SMALL.requests(), store=store)
        assert all(result.cached for result in second)
        assert [r.row for r in second] == [r.row for r in first]
        assert ([r.messages_per_round for r in second]
                == [r.messages_per_round for r in first])

    def test_duplicate_requests_execute_once(self, monkeypatch):
        calls = []
        real = engine_pool.execute_request

        def counting(request):
            calls.append(request)
            return real(request)

        monkeypatch.setattr(engine_pool, "execute_request", counting)
        request = RunRequest.make("crash", 6, 1, 0)
        results = run_requests([request, request, request])
        assert len(calls) == 1
        assert [r.row for r in results] == [results[0].row] * 3

    def test_driver_failure_isolated_and_recorded(self, store, monkeypatch):
        monkeypatch.setitem(DRIVERS, "boom", _boom_driver)
        requests = [RunRequest.make("crash", 6, 0, 0),
                    RunRequest.make("boom", 6, 0, 0),
                    RunRequest.make("crash", 6, 0, 1)]
        results = run_requests(requests, store=store)
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        assert "deliberate failure" in results[1].error
        stored = store.query(status="failed")
        assert len(stored) == 1 and stored[0].driver == "boom"
        # Failed runs are recorded but not served as cache hits.
        retry = run_requests(requests, store=store)
        assert [r.cached for r in retry] == [True, False, True]


def _boom_driver(n, f, seed, include_rounds=False, **params):
    raise RuntimeError("deliberate failure")


def _zero_rounds_driver(n, f, seed, include_rounds=False, **params):
    # A legitimately zero-round run: the ledger exists and is empty.
    return {"messages": 0, "messages_per_round": [], "bits_per_round": []}


def _ledgerless_driver(n, f, seed, include_rounds=False, **params):
    return {"messages": 5}


class TestSettleLedgerIntegrity:
    def test_duplicate_requests_write_store_once(self, store):
        puts = []
        real_put = store.put

        def counting_put(*args, **kwargs):
            puts.append(args)
            return real_put(*args, **kwargs)

        store.put = counting_put
        request = RunRequest.make("crash", 6, 1, 0)
        results = run_requests([request] * 4, store=store)
        # K deduplicated followers share one content hash: one backend
        # write, not K identical writes + K ledger DELETE round trips.
        assert len(puts) == 1
        assert all(result.ok and not result.cached for result in results)
        assert [r.row for r in results] == [results[0].row] * 4
        assert all(r.messages_per_round == results[0].messages_per_round
                   for r in results)
        # And the store round trip still serves every duplicate.
        del store.put
        cached = run_requests([request] * 4, store=store)
        assert all(result.cached for result in cached)
        assert [r.row for r in cached] == [r.row for r in results]

    def test_empty_ledger_survives_cache_round_trip(self, store, monkeypatch):
        monkeypatch.setitem(DRIVERS, "zero-rounds", _zero_rounds_driver)
        monkeypatch.setitem(DRIVERS, "ledgerless", _ledgerless_driver)
        requests = [RunRequest.make("zero-rounds", 4, 0, 0),
                    RunRequest.make("ledgerless", 4, 0, 0)]
        fresh = run_requests(requests, store=store)
        assert fresh[0].messages_per_round == []
        assert fresh[0].bits_per_round == []
        assert fresh[1].messages_per_round is None
        assert fresh[1].bits_per_round is None

        cached = run_requests(requests, store=store)
        assert all(result.cached for result in cached)
        # [] stays [] and None stays None — a zero-round run is not
        # conflated with a run stored without ledgers.
        assert cached[0].messages_per_round == []
        assert cached[0].bits_per_round == []
        assert cached[1].messages_per_round is None
        assert cached[1].bits_per_round is None


class TestCli:
    def test_parse_int_list(self):
        assert parse_int_list("16,32,64") == [16, 32, 64]
        assert parse_int_list("0-4") == [0, 1, 2, 3, 4]
        assert parse_int_list("0-2,7") == [0, 1, 2, 7]
        with pytest.raises(ValueError):
            parse_int_list(",")

    def test_sweep_then_cached_rerun_then_runs(self, tmp_path, capsys):
        store_path = str(tmp_path / "runs.sqlite")
        argv = ["sweep", "--driver", "crash", "--n", "6,8", "--seeds",
                "0-1", "--f", "n//4", "--store", store_path]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "4 executed, 0 cached, 0 failed" in first.err

        assert main(argv) == 0
        second = capsys.readouterr()
        assert "0 executed, 4 cached, 0 failed" in second.err
        assert first.out == second.out

        assert main(["runs", "--store", store_path]) == 0
        listing = capsys.readouterr()
        assert "crash" in listing.out
        assert "4 ok / 0 failed of 4 stored runs" in listing.err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep_over_a_partly_stored_campaign_counts_both(
            self, jobs, tmp_path, capsys):
        argv = ["sweep", "--driver", "crash", "--seeds", "0-1", "--f",
                "n//4", "--format", "json", "--store",
                str(tmp_path / "runs.sqlite")]
        assert main([*argv, "--n", "6"]) == 0
        alone = json.loads(capsys.readouterr().out)
        assert main([*argv, "--n", "6,8", "--jobs", jobs]) == 0
        both = capsys.readouterr()
        assert "4 runs: 2 executed, 2 cached, 0 failed" in both.err
        rows = json.loads(both.out)
        assert len(rows) == 4 and rows[:2] == alone

    def test_sweep_no_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--driver", "crash", "--n", "6", "--seeds",
                     "0", "--no-store"]) == 0
        assert "crash-renaming" in capsys.readouterr().out
        assert not (tmp_path / ".repro").exists()

    def test_sweep_param_passthrough(self, capsys):
        assert main(["sweep", "--driver", "crash", "--n", "6", "--seeds",
                     "0", "--no-store", "--param", "adversary=random",
                     "--f", "1"]) == 0
        assert "crash-renaming" in capsys.readouterr().out


def stored_rows(path) -> set:
    """A store's runs as ``(hash, status, row, ledger)``: identity and
    payload, without timings."""
    with RunStore(path) as store:
        return {
            (run.hash, run.status, json.dumps(run.row, sort_keys=True),
             json.dumps(store.ledger(run.hash)))
            for run in store.query()
        }


class TestKilledSweepResumes:
    """A sweep stores each run as it settles, so one killed mid-run
    resumes by running the same command again."""

    #: Four runs that land at once, then four that take a while each.
    SWEEP = ["sweep", "--driver", "crash", "--n", "16,2048", "--seeds",
             "0-3", "--f", "0", "--format", "json"]
    TOTAL = 8

    def sweep(self, store, jobs=2, **popen):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *self.SWEEP, "--jobs", str(jobs),
             "--store", str(store)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            **popen)

    def kill_and_rerun(self, tmp_path, capsys, jobs):
        path = tmp_path / "runs.sqlite"
        # Its own session, killed as a group: nothing of it outlives the
        # kill, whichever process would notice first.
        process = self.sweep(path, jobs, start_new_session=True)
        try:
            with RunStore(path) as store:
                deadline = time.monotonic() + 120
                while store.stats()["total"] == 0:
                    assert process.poll() is None, process.communicate()
                    assert time.monotonic() < deadline, "no run landed"
                    time.sleep(0.01)
        finally:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
        assert process.returncode == -signal.SIGKILL
        stored = len(stored_rows(path))
        assert 0 < stored < self.TOTAL

        rerun = self.sweep(path, jobs)
        _, err = rerun.communicate(timeout=300)
        assert rerun.returncode == 0, err
        counts = re.search(r"(\d+) runs: (\d+) executed, (\d+) cached", err)
        assert counts is not None, err
        assert tuple(map(int, counts.groups())) == (
            self.TOTAL, self.TOTAL - stored, stored)

        oracle = tmp_path / "oracle.sqlite"
        assert main([*self.SWEEP, "--jobs", "1", "--store", str(oracle)]) == 0
        capsys.readouterr()
        assert stored_rows(path) == stored_rows(oracle)
        assert len(stored_rows(oracle)) == self.TOTAL

    def test_sigkilled_sweep_reruns_only_what_it_had_not_stored(
            self, tmp_path, capsys):
        self.kill_and_rerun(tmp_path, capsys, jobs=2)

    def test_sigkilled_serial_sweep_resumes_the_same_way(
            self, tmp_path, capsys):
        # Without a pool the store is written from the one process, run
        # by run: the kill loses at most the run in hand.
        self.kill_and_rerun(tmp_path, capsys, jobs=1)


def _session(sid: int) -> list[int]:
    """The live (not zombie) processes of session ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


#: A process that makes a retry worker whose run never ends, then waits.
_HANGING_RETRY = """
import time
from repro.engine import pool
from repro.engine.sweeps import RunRequest
pool.execute_request = lambda request: time.sleep(300)
pool._run_isolated(RunRequest.make("crash", 16, 0, 0), None)
"""


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
class TestWorkersExitWithTheirCoordinator:
    """A worker ends when the process that started it is killed, so a
    plain ``kill -9`` of the coordinator leaves nothing computing."""

    def kill_the_leader_only(self, argv, workers):
        process = subprocess.Popen(
            [sys.executable, *argv], env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while len(_session(process.pid)) < 1 + workers:
                assert process.poll() is None, "ended before its workers ran"
                assert time.monotonic() < deadline, "no workers started"
                time.sleep(0.02)
            process.kill()
            process.wait()
            deadline = time.monotonic() + 5
            while _session(process.pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _session(process.pid) == []
        finally:
            if _session(process.pid):
                os.killpg(process.pid, signal.SIGKILL)

    def test_pool_workers_exit_with_a_killed_sweep(self, tmp_path):
        self.kill_the_leader_only(
            ["-m", "repro", *TestKilledSweepResumes.SWEEP, "--jobs", "2",
             "--store", str(tmp_path / "runs.sqlite")], workers=2)

    def test_a_retry_worker_exits_with_its_killed_parent(self):
        self.kill_the_leader_only(["-c", _HANGING_RETRY], workers=1)


def _crash_driver(n, f, seed, include_rounds=False, **params):
    return resolve_driver("crash")(n, f, seed, include_rounds=include_rounds,
                                   **params)


class TestStoreResume:
    """A rerun over a store serves every run stored ``ok`` and executes
    the rest, on either executor path."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partly_stored_campaign_executes_only_the_rest(self, jobs,
                                                            tmp_path):
        requests = SMALL.requests()
        path = tmp_path / "runs.sqlite"
        with RunStore(path) as store:
            run_requests(requests[1::2], store=store)
            results = run_requests(requests, jobs=jobs, chunksize=1,
                                   store=store)
        assert [r.cached for r in results] == [False, True, False, True]
        assert [r.attempts for r in results] == [1, 0, 1, 0]
        oracle = tmp_path / "oracle.sqlite"
        with RunStore(oracle) as store:
            serial = run_requests(requests, store=store)
        assert [r.row for r in results] == [r.row for r in serial]
        assert stored_rows(path) == stored_rows(oracle)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_progress_starts_at_the_stored_count(self, jobs, store):
        requests = SMALL.requests()
        run_requests(requests[:1], store=store)
        calls = []
        run_requests(requests, jobs=jobs, chunksize=1, store=store,
                     progress=lambda done, total: calls.append((done, total)))
        assert calls[0] == (1, 4) and calls[-1] == (4, 4)
        assert [done for done, _ in calls] == sorted(
            done for done, _ in calls)

    def test_pool_leaves_the_store_a_serial_run_leaves(self, tmp_path):
        paths = {jobs: tmp_path / f"jobs{jobs}.sqlite" for jobs in (1, 2)}
        for jobs, path in paths.items():
            with RunStore(path) as store:
                run_requests(SMALL.requests(), jobs=jobs, chunksize=1,
                             store=store)
        assert stored_rows(paths[2]) == stored_rows(paths[1])
        assert len(stored_rows(paths[1])) == len(SMALL.requests())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_runs_rerun_and_are_replaced_once_they_pass(
            self, jobs, store, monkeypatch):
        requests = [RunRequest.make("flaky", 6, 0, seed) for seed in (0, 1)]
        requests.append(RunRequest.make("crash", 6, 0, 0))
        monkeypatch.setitem(DRIVERS, "flaky", _boom_driver)
        first = run_requests(requests, jobs=jobs, chunksize=1,
                             store=store)
        monkeypatch.setitem(DRIVERS, "flaky", _crash_driver)
        second = run_requests(requests, jobs=jobs, chunksize=1,
                              store=store)
        assert [r.status for r in first] == ["failed", "failed", "ok"]
        assert [(r.status, r.cached) for r in second] == [
            ("ok", False), ("ok", False), ("ok", True)]
        assert [r.row for r in second] == [
            crash_run_summary(6, 0, seed) for seed in (0, 1, 0)]
        stored = {(run.driver, run.seed): run for run in store.query()}
        assert sorted(stored) == [("crash", 0), ("flaky", 0), ("flaky", 1)]
        assert all(run.ok and run.error is None for run in stored.values())

    def test_worker_death_is_stored_as_a_failed_run(self, store, monkeypatch):
        monkeypatch.setitem(DRIVERS, "halt", _halt_driver)
        requests = [RunRequest.make("crash", 6, 0, 0),
                    RunRequest.make("halt", 6, 0, 13)]
        run_requests(requests, jobs=2, chunksize=2, retry_backoff=0.0,
                     store=store)
        stored = {run.driver: run for run in store.query()}
        assert (stored["crash"].status, stored["crash"].attempts) == ("ok", 2)
        assert stored["crash"].row == crash_run_summary(6, 0, 0)
        assert (stored["halt"].status, stored["halt"].attempts) == (
            "failed", 2)
        assert "exit code 37" in stored["halt"].error
        assert "first attempt" in stored["halt"].error

    def test_each_run_is_stored_before_the_next_starts(self, tmp_path,
                                                       monkeypatch):
        # What a killed sweep resumes from: every settled run is
        # committed, and visible to another connection, at once.
        path = tmp_path / "runs.sqlite"
        seen = []

        def peeking(n, f, seed, include_rounds=False, **params):
            with RunStore(path) as reader:
                seen.append(reader.stats()["total"])
            return _crash_driver(n, f, seed, include_rounds, **params)

        monkeypatch.setitem(DRIVERS, "peek", peeking)
        with RunStore(path) as store:
            run_requests([RunRequest.make("peek", 6, 1, seed)
                          for seed in range(4)], store=store)
        assert seen == [0, 1, 2, 3]

    def test_a_new_code_version_is_a_cache_miss(self, store, monkeypatch):
        first = run_requests(SMALL.requests(), store=store)
        monkeypatch.setattr(engine_pool, "code_version", lambda: "0" * 16)
        second = run_requests(SMALL.requests(), store=store)
        assert not any(result.cached for result in second)
        assert [r.row for r in second] == [r.row for r in first]
        assert store.stats()["total"] == 2 * len(SMALL.requests())

    def test_a_lost_attempt_waits_one_jittered_delay(self, monkeypatch):
        delays = []

        def recording(base, request, attempt=1):
            delays.append((base, request, attempt))
            return 0.0

        monkeypatch.setattr(engine_pool, "retry_jitter_delay", recording)
        monkeypatch.setitem(DRIVERS, "halt", _halt_driver)
        requests = [RunRequest.make("crash", 6, 0, 0),
                    RunRequest.make("halt", 6, 0, 13)]
        good, bad = run_requests(requests, jobs=2, chunksize=2,
                                 retry_backoff=0.25)
        # Both chunk-mates lost their first attempt with the worker; each
        # is retried once, after the delay keyed on its own request.
        assert delays == [(0.25, request, 1) for request in requests]
        assert (good.ok, good.attempts) == (True, 2)
        assert (bad.ok, bad.attempts) == (False, 2)

    def test_two_sweeps_sharing_a_store_leave_the_serial_store(
            self, tmp_path, capsys):
        path = tmp_path / "runs.sqlite"
        argv = ["sweep", "--driver", "crash", "--n", "6,8,12", "--seeds",
                "0-3", "--f", "n//4", "--format", "json"]
        sweeps = [subprocess.Popen(
            [sys.executable, "-m", "repro", *argv, "--jobs", "2",
             "--store", str(path)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)]
        outputs = [sweep.communicate(timeout=300) for sweep in sweeps]
        for sweep, (_, err) in zip(sweeps, outputs):
            assert sweep.returncode == 0, err
        oracle = tmp_path / "oracle.sqlite"
        assert main([*argv, "--jobs", "1", "--store", str(oracle)]) == 0
        serial_out = capsys.readouterr().out
        assert [out for out, _ in outputs] == [serial_out, serial_out]
        assert stored_rows(path) == stored_rows(oracle)
        assert len(stored_rows(oracle)) == 12


def _seeded_boom_driver(n, f, seed, include_rounds=False, **params):
    raise RuntimeError(f"boom seed={seed}")


def _halt_driver(n, f, seed, include_rounds=False, **params):
    import os

    os._exit(37)  # simulates an OOM-kill / hard worker death


def _sleepy_driver(n, f, seed, include_rounds=False, **params):
    import time

    time.sleep(10)
    return crash_run_summary(n, f, seed)


class TestChunkRetry:
    def test_attempts_recorded(self, store):
        fresh = run_requests(SMALL.requests(), store=store)
        assert all(result.attempts == 1 for result in fresh)
        cached = run_requests(SMALL.requests(), store=store)
        assert all(result.attempts == 0 for result in cached)

    def test_raising_driver_costs_one_attempt_on_every_path(
            self, monkeypatch):
        # A traceback is the driver's verdict, a pure function of
        # (inputs, seed, code_version): no executor runs it twice.
        monkeypatch.setattr(
            engine_pool, "retry_jitter_delay",
            lambda *args, **kwargs: pytest.fail("a verdict was retried"))
        monkeypatch.setitem(DRIVERS, "boom", _seeded_boom_driver)
        boom = RunRequest.make("boom", 4, 0, 0)
        mate = RunRequest.make("crash", 6, 1, 0)
        outcomes = {
            "serial": run_requests([boom, mate])[0],
            "pool": run_requests([boom, mate], jobs=2, chunksize=1)[0],
        }
        for path, outcome in outcomes.items():
            assert (outcome.status, outcome.attempts) == ("failed", 1), path
            assert outcome.error.count("RuntimeError: boom seed=0") == 1, path
            assert "first attempt" not in outcome.error, path

    def test_poisoned_task_isolated_from_chunk_mates(self, monkeypatch):
        monkeypatch.setitem(DRIVERS, "halt", _halt_driver)
        requests = [RunRequest.make("crash", 6, 0, 0),
                    RunRequest.make("halt", 6, 0, 13)]
        good, bad = run_requests(requests, jobs=2, chunksize=2,
                                 retry_backoff=0.0)
        # The worker died mid-chunk, taking the good task's first
        # attempt with it; the individual retry recovers it.
        assert good.ok and good.attempts == 2
        assert good.row == crash_run_summary(6, 0, 0)
        assert not bad.ok and bad.attempts == 2
        assert "first attempt" in bad.error

    def test_hung_task_terminated_and_chunk_mate_recovered(self,
                                                           monkeypatch):
        monkeypatch.setitem(DRIVERS, "sleepy", _sleepy_driver)
        requests = [RunRequest.make("crash", 6, 0, 1),
                    RunRequest.make("sleepy", 6, 0, 0)]
        good, hung = run_requests(requests, jobs=2, chunksize=2,
                                  timeout=0.5, retry_backoff=0.0)
        assert good.ok and good.attempts == 2
        assert good.row == crash_run_summary(6, 0, 1)
        assert not hung.ok and hung.attempts == 2
        assert "on retry" in hung.error
        assert "first attempt" in hung.error

    def test_run_isolated_kills_hung_worker(self, monkeypatch):
        # Exercise the retry path directly: the hung worker must be
        # terminated (no orphan process left behind) through the public
        # multiprocessing API, and the failure message must carry the
        # "on retry" marker the chunk-retry error concatenation relies
        # on.
        import multiprocessing
        import time

        monkeypatch.setitem(DRIVERS, "sleepy", _sleepy_driver)
        request = RunRequest.make("sleepy", 6, 0, 0)
        before = {child.pid
                  for child in multiprocessing.active_children()}
        start = time.perf_counter()
        result = engine_pool._run_isolated(request, timeout=0.5)
        elapsed = time.perf_counter() - start
        assert not result.ok
        assert "timed out" in result.error and "on retry" in result.error
        assert elapsed < 8  # terminated, not joined for the full sleep
        leaked = [child for child in multiprocessing.active_children()
                  if child.pid not in before]
        assert not leaked

    def test_run_isolated_reports_worker_death(self, monkeypatch):
        monkeypatch.setitem(DRIVERS, "halt", _halt_driver)
        request = RunRequest.make("halt", 6, 0, 0)
        result = engine_pool._run_isolated(request, timeout=10.0)
        assert not result.ok
        assert "exit code 37" in result.error
