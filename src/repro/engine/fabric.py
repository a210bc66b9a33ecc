"""Crash-resumable distributed sweep fabric: lease, execute, settle.

The paper's protocol renames correctly while up to half its processors
crash; this module holds the harness to the same standard.  A sweep
becomes a *campaign*: its requests are enqueued once as content-hashed
tasks (:mod:`repro.engine.queue`), and any number of independent
worker processes — started together, started later, restarted after a
``kill -9`` — drain the queue cooperatively:

* **Lease** — a worker claims one task atomically and owns it until
  its lease deadline; a heartbeat thread renews the lease on a
  seeded-jitter cadence while the task executes, so a slow run is not
  mistaken for a dead worker.
* **Reap** — each worker periodically returns expired leases to
  ``pending`` (crashed workers renew nothing), so work lost to a
  SIGKILL is reclaimed by whoever is still alive.
* **Settle** — the run row is written to the content-addressed store
  *first*, then the task is settled under the lease owner guard.  A
  crash between the two leaves a pending task whose run row already
  exists; recovery serves it from the store without re-executing.
  Settlement is therefore at-most-once: a competing worker that lost
  its lease gets a detected no-op verdict, never a duplicate row.

Determinism contract: every run row is keyed by its content hash and
produced by the same :func:`~repro.engine.sweeps.execute_request` path
the serial engine uses, so the final run set of a campaign — however
many workers, crashes, and resumes it took — is byte-identical to one
serial ``run_requests`` execution (timing metadata aside).

Workers drain gracefully on SIGTERM (finish the task in hand, settle
it, stop claiming) and survive SIGKILL via lease expiry; both paths
are pinned by the chaos tests in ``tests/test_fabric.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from repro.engine.pool import RunResult, execute_leased
from repro.engine.queue import (
    SETTLE_LOST,
    SETTLE_OK,
    TASK_LEASED,
    QueuedTask,
    TaskQueue,
    task_request,
)
from repro.engine.store import RunStore, code_version, resolve_store_url
from repro.engine.sweeps import RunRequest
from repro.obs.events import EventRecorder

__all__ = [
    "FabricConfig",
    "FabricWorker",
    "campaign_status",
    "enqueue_campaign",
    "resume_campaign",
    "run_workers",
    "spawn_workers",
    "worker_name",
]

#: Default campaign name when none is given.
DEFAULT_CAMPAIGN = "default"


@dataclass(frozen=True)
class FabricConfig:
    """One campaign's worker knobs — a plain value, picklable for
    spawned worker processes.

    ``store`` is resolved to an absolute ``sqlite://path`` URL at
    construction so every worker opens the same file whatever its CWD.
    ``lease_ttl`` must comfortably exceed ``heartbeat_interval``
    (default: a third of the TTL) — a worker that misses two beats is
    presumed dead and loses its lease to the reaper.
    """

    store: str
    campaign: str = DEFAULT_CAMPAIGN
    lease_ttl: float = 30.0
    heartbeat_interval: Optional[float] = None
    poll_interval: float = 0.5
    reap_interval: Optional[float] = None
    task_timeout: Optional[float] = None
    retry_backoff: float = 0.25
    #: Lease generations before a task is poisoned: a task that has
    #: been claimed this many times and never settled is recorded as a
    #: failed run instead of crashing every worker that touches it.
    max_task_attempts: int = 5
    isolate: bool = True
    #: Keep polling after the queue drains (a standing worker fleet)
    #: instead of exiting when no work remains.
    forever: bool = False
    events_dir: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "store", resolve_store_url(self.store))
        if self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be > 0, got {self.lease_ttl}")
        if self.max_task_attempts < 1:
            raise ValueError(
                f"max_task_attempts must be >= 1, got "
                f"{self.max_task_attempts}")
        beat = self.beat_interval
        if beat >= self.lease_ttl:
            raise ValueError(
                f"heartbeat_interval {beat} must be < lease_ttl "
                f"{self.lease_ttl}; a lease must outlive its renewal")

    @property
    def beat_interval(self) -> float:
        return (self.heartbeat_interval if self.heartbeat_interval is not None
                else self.lease_ttl / 3.0)

    @property
    def reap_every(self) -> float:
        return (self.reap_interval if self.reap_interval is not None
                else self.lease_ttl)


def worker_name(suffix: Optional[str] = None) -> str:
    """A lease-owner id unique across hosts and processes."""
    base = f"{socket.gethostname()}-{os.getpid()}"
    return f"{base}-{suffix}" if suffix else base


def heartbeat_jitter(interval: float, task: QueuedTask, beat: int) -> float:
    """Seconds until heartbeat ``beat`` (1-based) of one lease.

    Seeded-jitter in ``[0.75, 1.25) * interval``: the stream derives
    from ``hash((seq, attempts, beat))`` — an integer tuple, stable
    across processes and ``PYTHONHASHSEED`` — so renewal schedules are
    reproducible, yet workers that leased in the same instant do not
    hammer the store in lockstep.
    """
    rng = Random(hash((task.seq, task.attempts, beat)) & 0x7FFFFFFF)
    return interval * (0.75 + 0.5 * rng.random())


class FabricWorker:
    """One worker process' claim-execute-settle loop.

    Opens its own store connection (``config.store`` is a URL), runs
    until the campaign drains (or until SIGTERM / ``stop()``), and
    returns a summary dict.  Safe to run in-process for tests
    (``isolate=False`` keeps execution in this interpreter).
    """

    def __init__(self, config: FabricConfig, name: Optional[str] = None):
        self.config = config
        self.name = name or worker_name()
        self.events = EventRecorder(capacity=None)
        self._emit_lock = threading.Lock()
        self._stop = threading.Event()
        self._stop_reason = "drained"
        self.settled = 0
        self.failed = 0
        self.cached = 0
        self.leases_lost = 0

    # -- control ------------------------------------------------------

    def stop(self, reason: str = "stopped") -> None:
        """Request a graceful drain: finish the task in hand, settle
        it, then exit the loop without claiming more work."""
        self._stop_reason = reason
        self._stop.set()

    def _install_sigterm(self) -> object:
        previous = signal.getsignal(signal.SIGTERM)
        signal.signal(signal.SIGTERM,
                      lambda signum, frame: self.stop("sigterm"))
        return previous

    def _emit(self, kind: str, **data) -> None:
        # The heartbeat thread emits concurrently with the main loop;
        # EventRecorder is not thread-safe on its own.
        with self._emit_lock:
            self.events.emit(kind, **data)

    # -- the loop -----------------------------------------------------

    def run(self) -> dict:
        config = self.config
        previous_sigterm: object = None
        if threading.current_thread() is threading.main_thread():
            previous_sigterm = self._install_sigterm()
        self._emit("fabric.worker.start", worker=self.name,
                   store=config.store, campaign=config.campaign)
        store = RunStore(config.store)
        try:
            queue = TaskQueue(store)
            next_reap = 0.0
            while not self._stop.is_set():
                now = time.time()
                if now >= next_reap:
                    self._reap(queue, now)
                    next_reap = now + config.reap_every
                task = queue.claim(self.name, config.lease_ttl,
                                   campaign=config.campaign)
                if task is None:
                    if (not config.forever
                            and queue.outstanding(config.campaign) == 0):
                        break
                    self._stop.wait(config.poll_interval)
                    continue
                self._execute(store, queue, task)
        except BaseException:
            self._stop_reason = "error"
            raise
        finally:
            self._emit("fabric.worker.stop", worker=self.name,
                       reason=self._stop_reason, settled=self.settled,
                       failed=self.failed, leases_lost=self.leases_lost)
            store.close()
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
        return self.summary()

    def summary(self) -> dict:
        return {
            "worker": self.name,
            "reason": self._stop_reason,
            "settled": self.settled,
            "failed": self.failed,
            "cached": self.cached,
            "leases_lost": self.leases_lost,
            "events": self.write_events(),
        }

    def write_events(self) -> Optional[str]:
        if self.config.events_dir is None:
            return None
        path = os.path.join(self.config.events_dir,
                            f"{self.config.campaign}-{self.name}.jsonl")
        return str(self.events.write_jsonl(path))

    # -- per-task path ------------------------------------------------

    def _reap(self, queue: TaskQueue, now: float) -> None:
        for task in queue.reap(self.config.campaign, now=now):
            self._emit("fabric.task.reap", campaign=task.campaign,
                       task=task.task_hash, owner=task.lease_owner,
                       attempt=task.attempts)

    def _execute(self, store: RunStore, queue: TaskQueue,
                 task: QueuedTask) -> None:
        config = self.config
        request = task_request(task)
        self._emit("fabric.task.lease", campaign=task.campaign,
                   task=task.task_hash, worker=self.name,
                   attempt=task.attempts, deadline=task.lease_deadline)
        started = time.perf_counter()

        # Cache fast path: the run row may already exist — a hit from a
        # previous sweep, or a worker that crashed *after* writing the
        # row but *before* settling.  Either way the work is done.
        stored = store.get(task.task_hash)
        if stored is not None and stored.ok:
            outcome = queue.settle(task, self.name, result_status="ok")
            self._settled(task, "settled", outcome, cached=True,
                          run_attempts=stored.attempts, started=started)
            return

        # Poison guard: claiming is what increments ``attempts``, so a
        # task seen this many times took down every worker that ran it
        # (or kept timing out).  Record the failure and stop the bleed.
        if task.attempts > config.max_task_attempts:
            error = (f"poisoned: task exceeded {config.max_task_attempts} "
                     f"lease attempts without settling")
            store.put(
                task.task_hash, driver=request.driver, n=request.n,
                f=request.f, seed=request.seed, params=request.params_dict(),
                version=code_version(), status="failed", error=error,
                attempts=task.attempts,
            )
            outcome = queue.settle(task, self.name, result_status="failed")
            self._settled(task, "failed", outcome, cached=False,
                          run_attempts=task.attempts, started=started)
            return

        beat_stop = threading.Event()
        beats = threading.Thread(
            target=self._heartbeat_loop, args=(queue, task, beat_stop),
            daemon=True, name=f"heartbeat-{task.task_hash[:8]}",
        )
        beats.start()
        try:
            result = execute_leased(
                request, timeout=config.task_timeout,
                retry_backoff=config.retry_backoff, isolate=config.isolate,
            )
        finally:
            beat_stop.set()
            beats.join()
        self._settle_result(store, queue, task, request, result, started)

    def _settle_result(self, store: RunStore, queue: TaskQueue,
                       task: QueuedTask, request: RunRequest,
                       result: RunResult, started: float) -> None:
        # Run row first, settlement second: a crash in between leaves
        # a re-claimable task whose recovery is a pure store read.  The
        # reverse order could settle a task whose result is lost.
        store.put(
            task.task_hash, driver=request.driver, n=request.n,
            f=request.f, seed=request.seed, params=request.params_dict(),
            version=code_version(), status=result.status, row=result.row,
            error=result.error, elapsed=result.elapsed,
            messages_per_round=result.messages_per_round,
            bits_per_round=result.bits_per_round, attempts=result.attempts,
        )
        outcome = queue.settle(task, self.name, result_status=result.status)
        state = "settled" if result.ok else "failed"
        self._settled(task, state, outcome, cached=False,
                      run_attempts=result.attempts, started=started)

    def _settled(self, task: QueuedTask, state: str, outcome: str,
                 *, cached: bool, run_attempts: int, started: float) -> None:
        if outcome == SETTLE_OK:
            if state == "settled":
                self.settled += 1
            else:
                self.failed += 1
            if cached:
                self.cached += 1
        elif outcome == SETTLE_LOST:
            self.leases_lost += 1
        self._emit("fabric.task.settle", campaign=task.campaign,
                   task=task.task_hash, worker=self.name, state=state,
                   outcome=outcome, cached=cached, run_attempts=run_attempts,
                   elapsed_s=round(time.perf_counter() - started, 6))

    def _heartbeat_loop(self, queue: TaskQueue, task: QueuedTask,
                        stop: threading.Event) -> None:
        beat = 0
        while True:
            beat += 1
            if stop.wait(heartbeat_jitter(self.config.beat_interval,
                                          task, beat)):
                return
            renewed = queue.heartbeat(task, self.name, self.config.lease_ttl)
            deadline = time.time() + self.config.lease_ttl
            self._emit("fabric.task.heartbeat", campaign=task.campaign,
                       task=task.task_hash, worker=self.name,
                       renewed=renewed, deadline=deadline)
            if not renewed:
                # The lease is gone — reaped after a stall, or the task
                # was settled from the store by a recovery worker.  The
                # execution continues (its result is idempotent under
                # the content hash) but settlement will be a no-op.
                return


# -- campaign operations ----------------------------------------------


def enqueue_campaign(store_url: str, campaign: str,
                     requests: Sequence[RunRequest],
                     events_dir: Optional[str] = None) -> tuple[int, int]:
    """Fan ``requests`` out as tasks; returns ``(total, new)``."""
    with RunStore(resolve_store_url(store_url)) as store:
        total, new = TaskQueue(store).enqueue(campaign, requests)
    if events_dir is not None:
        recorder = EventRecorder(capacity=None)
        recorder.emit("fabric.campaign.enqueue", campaign=campaign,
                      tasks=total, new=new)
        recorder.write_jsonl(
            os.path.join(events_dir, f"{campaign}-enqueue.jsonl"))
    return total, new


def reap_stale(store_url: str, campaign: Optional[str] = None, *,
               force: bool = False) -> list[QueuedTask]:
    """Return expired (or, with ``force``, all) leases to pending."""
    with RunStore(resolve_store_url(store_url)) as store:
        return TaskQueue(store).reap(campaign, force=force)


def _worker_entry(config: FabricConfig, suffix: str, connection) -> None:
    """Child-process entry point for :func:`spawn_workers`."""
    worker = FabricWorker(config, name=worker_name(suffix))
    try:
        summary = worker.run()
    except BaseException:  # noqa: BLE001 - report, then die loudly
        try:
            connection.send(worker.summary())
        finally:
            connection.close()
        raise
    connection.send(summary)
    connection.close()


def spawn_workers(config: FabricConfig, count: int,
                  ) -> list[tuple[multiprocessing.Process, object]]:
    """Start ``count`` worker processes; returns ``(process, pipe)``
    pairs whose pipes each yield one summary dict.

    Fork is preferred where available so drivers registered by the
    parent (tests, notebooks) exist in the children; the spawn fallback
    still resolves every built-in driver by name.  Workers are *not*
    daemons — a campaign should outlive a coordinator that exits early.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])
    pairs = []
    for index in range(count):
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(
            target=_worker_entry, args=(config, f"w{index}", sender),
            daemon=False, name=f"fabric-{config.campaign}-w{index}",
        )
        process.start()
        sender.close()
        pairs.append((process, receiver))
    return pairs


def run_workers(config: FabricConfig, count: int = 1) -> list[dict]:
    """Run ``count`` workers to completion; returns their summaries.

    ``count=1`` runs in-process (no fork, direct tracebacks); more
    workers run as independent processes, exactly as they would across
    hosts — each opens the store by URL and coordinates only through
    the queue.
    """
    if count == 1:
        return [FabricWorker(config).run()]
    summaries = []
    for process, receiver in spawn_workers(config, count):
        try:
            summaries.append(receiver.recv())
        except EOFError:
            summaries.append({
                "worker": process.name, "reason": "crashed",
                "settled": 0, "failed": 0, "cached": 0,
                "leases_lost": 0, "events": None,
            })
        finally:
            receiver.close()
            process.join()
    return summaries


def resume_campaign(config: FabricConfig, count: int = 1, *,
                    force_reap: bool = True) -> list[dict]:
    """Reap leases left by dead workers, then drain what remains.

    ``force_reap`` (the default) reclaims *all* leases, not just
    expired ones — safe because settlement is owner-guarded: if a
    leaseholder is in fact still alive, it simply loses the settle
    race and records a detected no-op.
    """
    reap_stale(config.store, config.campaign, force=force_reap)
    return run_workers(config, count)


def campaign_status(store_url: str,
                    campaign: Optional[str] = None) -> dict:
    """Queue counts, live leases and the store's run counts
    (:meth:`RunStore.stats`), for the status CLI and tests."""
    url = resolve_store_url(store_url)
    with RunStore(url) as store:
        runs = store.stats()
        queue = TaskQueue(store)
        counts = queue.counts(campaign)
        now = time.time()
        leases = [
            {
                "campaign": task.campaign,
                "task": task.task_hash,
                "owner": task.lease_owner,
                "attempts": task.attempts,
                "expires_in": (round(task.lease_deadline - now, 3)
                               if task.lease_deadline is not None else None),
            }
            for task in queue.tasks(campaign=campaign, state=TASK_LEASED)
        ]
    return {
        "store": url,
        "campaigns": counts,
        "leases": leases,
        "outstanding": sum(
            per["pending"] + per["leased"] for per in counts.values()),
        "runs": runs,
    }
