"""The fabric's robustness contract: lease, crash, reap, resume.

The headline tests kill real worker processes with SIGKILL mid-lease
and prove the campaign still converges to the run set a serial
execution produces — every task settled exactly once, recovered
attempts recorded, fabric@1 events schema-valid throughout.

Crash choreography is deterministic, not sampled: a *gate* driver
blocks on a sentinel file, so the test controls exactly when a worker
is stuck mid-task (SIGKILL it), when the task becomes finishable
(delete the sentinel), and when recovery runs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.engine import (
    FabricConfig,
    FabricWorker,
    RunRequest,
    RunStore,
    TaskQueue,
    campaign_status,
    enqueue_campaign,
    execute_leased,
    resume_campaign,
    run_hash,
    run_requests,
    run_workers,
)
from repro.engine import pool as engine_pool
from repro.engine.fabric import heartbeat_jitter, spawn_workers
from repro.engine.pool import retry_jitter_delay
from repro.engine.queue import (
    SETTLE_LOST,
    TASK_LEASED,
    TASK_SETTLED,
    QueuedTask,
    task_request,
)
from repro.engine.sweeps import DRIVERS, SweepSpec, register_driver
from repro.obs import validate_events

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(
    not FORK_AVAILABLE,
    reason="worker processes need fork to inherit test-registered drivers",
)


def _gate_driver(n, f, seed, include_rounds=False, gate="", **params):
    """Block while the sentinel file ``gate`` exists, then run crash."""
    while gate and os.path.exists(gate):
        time.sleep(0.02)
    from repro.analysis.experiments import crash_run_summary

    return crash_run_summary(n, f, seed, include_rounds=include_rounds)


def _boom_driver(n, f, seed, include_rounds=False, **params):
    raise RuntimeError(f"boom seed={seed}")


def _halt_driver(n, f, seed, include_rounds=False, **params):
    os._exit(37)  # the child dies without a verdict


@pytest.fixture
def drivers():
    register_driver("gate", _gate_driver)
    register_driver("boom", _boom_driver)
    yield
    DRIVERS.pop("gate", None)
    DRIVERS.pop("boom", None)


@pytest.fixture
def store_url(tmp_path):
    return f"sqlite://{tmp_path}/runs.sqlite"


def small_requests():
    return SweepSpec.make("crash", [6, 8], [0, 1], f="1").requests()


def quick_config(store_url, **overrides) -> FabricConfig:
    defaults = dict(store=store_url, campaign="t", lease_ttl=60.0,
                    poll_interval=0.05, isolate=False)
    defaults.update(overrides)
    return FabricConfig(**defaults)


def stored_rows(store_url) -> set:
    """The byte-comparison view of a store: identity + payload, no
    timing metadata (elapsed/created/attempts legitimately differ
    between a crashed-and-recovered run and a serial one)."""
    with RunStore(store_url) as store:
        return {
            (run.hash, run.status,
             json.dumps(run.row, sort_keys=True),
             json.dumps(store.ledger(run.hash)))
            for run in store.query()
        }


def serial_oracle(tmp_path, requests) -> set:
    url = f"sqlite://{tmp_path}/oracle.sqlite"
    with RunStore(url) as store:
        run_requests(requests, store=store)
    return stored_rows(url)


class TestFabricConfig:
    def test_store_resolved_to_absolute_url(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = FabricConfig(store="runs.sqlite")
        assert config.store == f"sqlite://{tmp_path}/runs.sqlite"

    def test_beat_interval_defaults_to_third_of_ttl(self, store_url):
        assert FabricConfig(store=store_url,
                            lease_ttl=30.0).beat_interval == 10.0
        assert FabricConfig(store=store_url, lease_ttl=30.0,
                            heartbeat_interval=5.0).beat_interval == 5.0

    def test_validation(self, store_url):
        with pytest.raises(ValueError, match="lease_ttl"):
            FabricConfig(store=store_url, lease_ttl=0)
        with pytest.raises(ValueError, match="must be < lease_ttl"):
            FabricConfig(store=store_url, lease_ttl=1.0,
                         heartbeat_interval=2.0)
        with pytest.raises(ValueError, match="max_task_attempts"):
            FabricConfig(store=store_url, max_task_attempts=0)

    def test_jitters_are_hashseed_stable_pure_functions(self, store_url):
        task = QueuedTask(campaign="c", task_hash="h", seq=3, spec={},
                          state="leased", lease_owner="w",
                          lease_deadline=1.0, attempts=2,
                          result_status=None, created=0.0, settled=None)
        first = [heartbeat_jitter(6.0, task, beat) for beat in (1, 2, 3)]
        assert first == [heartbeat_jitter(6.0, task, b) for b in (1, 2, 3)]
        assert all(4.5 <= delay < 7.5 for delay in first)
        request = RunRequest.make("crash", 8, 1, 5)
        assert retry_jitter_delay(0.25, request) == retry_jitter_delay(
            0.25, request)
        assert retry_jitter_delay(0.0, request) == 0.0


class TestTaskQueue:
    def test_enqueue_uses_content_hashes_and_dedups(self, store_url):
        requests = small_requests()
        total, new = enqueue_campaign(store_url, "t",
                                      requests + requests[:1])
        assert (total, new) == (len(requests), len(requests))
        with RunStore(store_url) as store:
            queue = TaskQueue(store)
            tasks = queue.tasks(campaign="t")
            assert {t.task_hash for t in tasks} == {
                run_hash(r.driver, r.n, r.f, r.seed, r.params)
                for r in requests
            }
            # Spec round-trips to the exact request (same content hash).
            assert {task_request(t) for t in tasks} == set(requests)
            assert queue.outstanding("t") == len(requests)
            assert queue.campaigns() == ["t"]
        # Re-enqueueing the whole campaign is a no-op.
        assert enqueue_campaign(store_url, "t", requests) == (
            len(requests), 0)


class TestWorkerDrain:
    def test_campaign_matches_serial_execution(self, tmp_path, store_url):
        requests = small_requests()
        enqueue_campaign(store_url, "t", requests)
        worker = FabricWorker(quick_config(store_url), name="w0")
        summary = worker.run()
        assert summary["reason"] == "drained"
        assert summary["settled"] == len(requests)
        assert summary["leases_lost"] == 0
        assert stored_rows(store_url) == serial_oracle(tmp_path, requests)
        events = list(worker.events)
        assert validate_events(events) == []
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "fabric.worker.start"
        assert kinds[-1] == "fabric.worker.stop"
        assert kinds.count("fabric.task.lease") == len(requests)
        assert kinds.count("fabric.task.settle") == len(requests)
        status = campaign_status(store_url, "t")
        assert status["outstanding"] == 0
        assert status["campaigns"]["t"]["settled"] == len(requests)

    def test_prestored_runs_settle_from_cache(self, store_url):
        requests = small_requests()
        with RunStore(store_url) as store:
            run_requests(requests, store=store)
        enqueue_campaign(store_url, "t", requests)
        worker = FabricWorker(quick_config(store_url), name="w0")
        summary = worker.run()
        assert summary["settled"] == len(requests)
        assert summary["cached"] == len(requests)
        settles = [e for e in worker.events
                   if e["kind"] == "fabric.task.settle"]
        assert all(e["data"]["cached"] for e in settles)
        # Cached settlement reports the stored row's attempt count.
        assert all(e["data"]["run_attempts"] == 1 for e in settles)

    def test_failed_run_settles_task_as_failed(self, drivers, store_url):
        requests = [RunRequest.make("boom", 4, 0, 0),
                    RunRequest.make("crash", 6, 1, 0)]
        enqueue_campaign(store_url, "t", requests)
        summary = FabricWorker(quick_config(store_url), name="w0").run()
        assert summary["settled"] == 1
        assert summary["failed"] == 1
        with RunStore(store_url) as store:
            failed = store.query(status="failed")
            assert len(failed) == 1
            assert "boom seed=0" in failed[0].error
            counts = TaskQueue(store).counts("t")["t"]
        assert counts["settled"] == 1 and counts["failed"] == 1

    @needs_fork
    def test_raising_driver_costs_one_attempt_on_every_path(
            self, drivers, store_url, monkeypatch):
        # A traceback is the driver's verdict, a pure function of
        # (inputs, seed, code_version): no executor runs it twice.
        monkeypatch.setattr(
            engine_pool, "retry_jitter_delay",
            lambda *args, **kwargs: pytest.fail("a verdict was retried"))
        boom = RunRequest.make("boom", 4, 0, 0)
        mate = RunRequest.make("crash", 6, 1, 0)
        outcomes = {
            "serial": run_requests([boom, mate])[0],
            "pool": run_requests([boom, mate], jobs=2, chunksize=1)[0],
            "leased in-process": execute_leased(boom, isolate=False),
            "leased isolated": execute_leased(boom, timeout=60.0),
        }
        enqueue_campaign(store_url, "t", [boom, mate])
        FabricWorker(quick_config(store_url), name="w0").run()
        with RunStore(store_url) as store:
            (outcomes["fabric worker"],) = store.query(status="failed")
        for path, outcome in outcomes.items():
            assert (outcome.status, outcome.attempts) == ("failed", 1), path
            assert outcome.error.count("RuntimeError: boom seed=0") == 1, path
            assert "first attempt" not in outcome.error, path

    @needs_fork
    def test_lost_attempt_still_gets_its_one_jittered_retry(
            self, monkeypatch):
        delays = []

        def delay(base, request, attempt=1):
            delays.append(retry_jitter_delay(base, request, attempt))
            return 0.0

        monkeypatch.setattr(engine_pool, "retry_jitter_delay", delay)
        register_driver("halt", _halt_driver)
        try:
            request = RunRequest.make("halt", 6, 0, 13)
            result = execute_leased(request, timeout=60.0)
        finally:
            DRIVERS.pop("halt", None)
        assert (result.status, result.attempts) == ("failed", 2)
        assert result.error.count("exit code 37") == 2
        assert "--- first attempt ---" in result.error
        assert delays == [retry_jitter_delay(0.25, request)]
        assert 0.25 <= delays[0] < 0.375

    def test_poisoned_task_recorded_as_failed_run(self, store_url):
        requests = small_requests()[:1]
        enqueue_campaign(store_url, "t", requests)
        config = quick_config(store_url, max_task_attempts=2)
        with RunStore(store_url) as store:
            queue = TaskQueue(store)
            # Burn through the attempt budget: each claim+force-reap
            # cycle is one crashed-worker generation.
            for _ in range(config.max_task_attempts):
                assert queue.claim("crasher", 60.0, campaign="t")
                queue.reap("t", force=True)
        summary = FabricWorker(config, name="w0").run()
        assert summary["failed"] == 1 and summary["settled"] == 0
        with RunStore(store_url) as store:
            run = store.query(status="failed")[0]
            assert "poisoned" in run.error
            assert run.attempts == config.max_task_attempts + 1
            task = TaskQueue(store).tasks(campaign="t")[0]
        assert task.state == "failed" and task.result_status == "failed"

    def test_graceful_stop_finishes_task_in_hand(self, store_url):
        requests = small_requests()
        enqueue_campaign(store_url, "t", requests)
        worker = FabricWorker(quick_config(store_url), name="w0")
        # Stop after the first settle: the loop must exit without
        # claiming more, leaving the rest pending for another worker.
        original = worker._settled

        def stop_after_first(*args, **kwargs):
            original(*args, **kwargs)
            worker.stop("sigterm")

        worker._settled = stop_after_first
        summary = worker.run()
        assert summary["reason"] == "sigterm"
        assert summary["settled"] == 1
        status = campaign_status(store_url, "t")
        assert status["campaigns"]["t"]["pending"] == len(requests) - 1
        assert status["campaigns"]["t"]["leased"] == 0
        # A second worker drains the remainder.
        summary2 = FabricWorker(quick_config(store_url), name="w1").run()
        assert summary2["settled"] == len(requests) - 1

    def test_lost_lease_settlement_is_noop(self, store_url):
        """A worker that lost its lease mid-run must not double-settle."""
        requests = small_requests()[:1]
        enqueue_campaign(store_url, "t", requests)
        config = quick_config(store_url)
        worker = FabricWorker(config, name="slow")
        with RunStore(config.store) as store:
            queue = TaskQueue(store)
            task = queue.claim("slow", config.lease_ttl, campaign="t")
            # While "slow" executes, the reaper hands the task to a
            # recovery worker; "slow" comes back and tries to settle a
            # lease it no longer holds.
            queue.reap("t", force=True)
            recovered = queue.claim("fast", config.lease_ttl, campaign="t")
            outcome = queue.settle(task, "slow", result_status="ok")
            assert outcome == SETTLE_LOST
            assert queue.settle(recovered, "fast",
                                result_status="ok") == "settled"
            final = queue.get("t", task.task_hash)
        assert final.state == TASK_SETTLED
        worker._settled(task, "settled", outcome, cached=False,
                        run_attempts=1, started=time.perf_counter())
        assert worker.leases_lost == 1 and worker.settled == 0


@needs_fork
class TestCrashRecovery:
    """Real SIGKILL against real worker processes."""

    def _requests(self, gate_path):
        return [RunRequest.make("gate", 6, 1, 0, gate=str(gate_path)),
                RunRequest.make("crash", 6, 1, 1),
                RunRequest.make("crash", 8, 1, 0)]

    def _wait_for_lease(self, store_url, campaign, task_hash,
                        timeout=30.0):
        deadline = time.monotonic() + timeout
        with RunStore(store_url) as store:
            queue = TaskQueue(store)
            while time.monotonic() < deadline:
                task = queue.get(campaign, task_hash)
                if task is not None and task.state == TASK_LEASED:
                    return task
                time.sleep(0.05)
        raise AssertionError(f"task {task_hash} never leased")

    def test_sigkill_mid_lease_recovered_by_second_worker(
            self, drivers, tmp_path, store_url):
        gate = tmp_path / "gate"
        gate.touch()
        requests = self._requests(gate)
        enqueue_campaign(store_url, "t", requests)
        gate_hash = run_hash("gate", 6, 1, 0, {"gate": str(gate)})
        config = quick_config(store_url, lease_ttl=1.5,
                              events_dir=str(tmp_path / "events"))
        [(victim, receiver)] = spawn_workers(config, 1)
        try:
            leased = self._wait_for_lease(store_url, "t", gate_hash)
            assert leased.attempts == 1
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(30.0)
            assert victim.exitcode == -signal.SIGKILL
        finally:
            receiver.close()
            if victim.is_alive():  # pragma: no cover - cleanup
                victim.kill()
                victim.join()
        gate.unlink()  # the task is finishable from now on

        # Wait out the lease so the recovery worker's own reaper (not
        # a force-reap) reclaims the task — the SIGKILLed worker sends
        # no heartbeats, so the lease must expire on its own.
        with RunStore(store_url) as store:
            task = TaskQueue(store).get("t", gate_hash)
            assert task.state == TASK_LEASED  # died holding the lease
            time.sleep(max(0.0, task.lease_deadline - time.time()) + 0.1)

        recovery = FabricWorker(config, name="recovery")
        summary = recovery.run()
        assert summary["reason"] == "drained"
        assert summary["settled"] >= 1  # at least the gated task

        events = list(recovery.events)
        assert validate_events(events) == []
        reaps = [e for e in events if e["kind"] == "fabric.task.reap"]
        assert any(e["data"]["task"] == gate_hash for e in reaps)

        with RunStore(store_url) as store:
            queue = TaskQueue(store)
            assert queue.outstanding("t") == 0
            recovered = queue.get("t", gate_hash)
            assert recovered.state == TASK_SETTLED
            assert recovered.attempts == 2  # the crashed lease + ours
            assert len(store.query()) == len(requests)  # no duplicates
        assert stored_rows(store_url) == serial_oracle(tmp_path, requests)

    def test_kill_every_worker_then_resume(self, drivers, tmp_path,
                                           store_url):
        """The whole-host-crash drill: no surviving worker, stale
        leases everywhere, ``resume`` completes the campaign."""
        gate = tmp_path / "gate"
        gate.touch()
        requests = self._requests(gate)
        enqueue_campaign(store_url, "t", requests)
        gate_hash = run_hash("gate", 6, 1, 0, {"gate": str(gate)})
        config = quick_config(store_url, lease_ttl=30.0)
        pairs = spawn_workers(config, 2)
        try:
            self._wait_for_lease(store_url, "t", gate_hash)
            for process, _ in pairs:
                os.kill(process.pid, signal.SIGKILL)
            for process, _ in pairs:
                process.join(30.0)
        finally:
            for process, receiver in pairs:
                receiver.close()
                if process.is_alive():  # pragma: no cover - cleanup
                    process.kill()
                    process.join()
        gate.unlink()

        # The long lease has NOT expired — resume's force-reap is what
        # reclaims it (safe: settlement is owner-guarded).
        summaries = resume_campaign(config, 1)
        assert summaries[0]["reason"] == "drained"
        with RunStore(store_url) as store:
            assert TaskQueue(store).outstanding("t") == 0
            assert len(store.query()) == len(requests)
        assert stored_rows(store_url) == serial_oracle(tmp_path, requests)

    def test_sigterm_drains_gracefully(self, drivers, tmp_path, store_url):
        """SIGTERM mid-task: the worker finishes the task in hand,
        settles it, and exits without claiming the rest."""
        gate = tmp_path / "gate"
        gate.touch()
        requests = self._requests(gate)
        enqueue_campaign(store_url, "t", requests)
        gate_hash = run_hash("gate", 6, 1, 0, {"gate": str(gate)})
        config = quick_config(store_url, lease_ttl=60.0)
        [(worker, receiver)] = spawn_workers(config, 1)
        try:
            self._wait_for_lease(store_url, "t", gate_hash)
            os.kill(worker.pid, signal.SIGTERM)
            time.sleep(0.2)  # the drain must wait for the gated task
            assert worker.is_alive()
            gate.unlink()
            summary = receiver.recv()
            worker.join(30.0)
        finally:
            receiver.close()
            if worker.is_alive():  # pragma: no cover - cleanup
                worker.kill()
                worker.join()
        assert summary["reason"] == "sigterm"
        assert summary["settled"] >= 1
        with RunStore(store_url) as store:
            task = TaskQueue(store).get("t", gate_hash)
            assert task.state == TASK_SETTLED  # finished, not abandoned
            assert TaskQueue(store).counts("t")["t"]["leased"] == 0

    def test_two_workers_split_a_campaign(self, tmp_path, store_url):
        requests = SweepSpec.make("crash", [6, 8], [0, 1, 2],
                                  f="1").requests()
        enqueue_campaign(store_url, "t", requests)
        summaries = run_workers(quick_config(store_url), 2)
        assert sum(s["settled"] for s in summaries) == len(requests)
        assert all(s["reason"] == "drained" for s in summaries)
        assert stored_rows(store_url) == serial_oracle(tmp_path, requests)


class TestHeartbeat:
    def test_heartbeat_keeps_long_task_leased(self, drivers, tmp_path,
                                              store_url):
        """A task outliving its lease TTL survives via renewal: the
        reaper never reclaims it while the worker is alive."""
        gate = tmp_path / "gate"
        gate.touch()
        requests = [RunRequest.make("gate", 4, 0, 0, gate=str(gate))]
        enqueue_campaign(store_url, "t", requests)
        config = quick_config(store_url, lease_ttl=0.6,
                              heartbeat_interval=0.1)
        worker = FabricWorker(config, name="w0")
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            # Hold the gate for several TTLs; a third party reaping the
            # whole time must find nothing expired.
            reap_attempts = []
            with RunStore(store_url) as store:
                queue = TaskQueue(store)
                deadline = time.monotonic() + 3 * config.lease_ttl
                while time.monotonic() < deadline:
                    reap_attempts.extend(queue.reap("t"))
                    time.sleep(0.05)
        finally:
            gate.unlink()
            thread.join(30.0)
        assert not thread.is_alive()
        assert reap_attempts == []  # renewal always beat expiry
        beats = [e for e in worker.events
                 if e["kind"] == "fabric.task.heartbeat"]
        assert len(beats) >= 2
        assert all(e["data"]["renewed"] for e in beats)
        assert worker.summary()["settled"] == 1
