"""Parallel sweep execution: process pool, crash isolation, caching.

:func:`run_requests` is the engine's single entry point.  Guarantees:

* **Deterministic order** — results come back in request order whatever
  the worker count, so parallel output is byte-identical to serial.
* **Crash isolation** — a driver that raises produces a ``failed``
  result (with the traceback) instead of aborting the sweep.  A wedged
  or crashed worker chunk is not written off wholesale: its tasks are
  resubmitted individually (one bounded retry, each in a fresh
  single-worker pool so one poisoned task cannot take down its chunk
  mates) and only the tasks that fail again are recorded as failed.
* **Caching** — with a :class:`~repro.engine.store.RunStore`, every
  ``ok`` run is persisted under its content hash as it settles and
  served from the store on the next invocation with zero executions;
  failed runs are recorded but retried.  A killed sweep therefore
  resumes by running it again: only what it had not stored executes.
* **Deduplication** — identical requests inside one call execute once.

``jobs=1`` runs everything in-process (no pool, no pickling); ``jobs>1``
uses a ``ProcessPoolExecutor`` with chunked task submission to amortize
dispatch overhead on the many-small-runs workloads typical of sweeps.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.backoff import jittered_backoff
from repro.engine.store import RunStore, code_version, run_hash
from repro.engine.sweeps import RunRequest, execute_request


@dataclass
class RunResult:
    """Outcome of one request: a fresh execution or a store hit."""

    request: RunRequest
    status: str  # "ok" | "failed"
    row: Optional[dict] = None
    error: Optional[str] = None
    elapsed: float = 0.0
    cached: bool = False
    messages_per_round: Optional[list[int]] = None
    bits_per_round: Optional[list[int]] = None
    #: Executions this result took: 0 for a store hit, 1 for a direct
    #: success/failure, 2 when the task went through the retry path.
    attempts: int = 1
    #: The driver's own clock readings (``row["telemetry"]``): beside
    #: ``elapsed`` in the run's telemetry row, never in the stored row.
    telemetry: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _run_one(request: RunRequest) -> RunResult:
    """Execute one request, converting any driver exception to ``failed``."""
    start = time.perf_counter()
    try:
        row, messages_per_round, bits_per_round, telemetry = (
            execute_request(request))
        return RunResult(
            request=request, status="ok", row=row,
            elapsed=time.perf_counter() - start,
            messages_per_round=messages_per_round,
            bits_per_round=bits_per_round,
            telemetry=telemetry,
        )
    except Exception:
        return RunResult(
            request=request, status="failed",
            error=traceback.format_exc(limit=16),
            elapsed=time.perf_counter() - start,
        )


def _exit_with_parent() -> None:
    """Make this worker process end when its parent does.

    A worker whose coordinator was killed would otherwise compute, under
    ppid 1, chunks nobody collects or stores.  The parent's sentinel is
    a pipe end only the parent holds open (and workers forked after
    this one, which exit the same way first), so it reads EOF once the
    parent is gone; one daemon thread waits on it and ends the process.
    """
    parent = multiprocessing.parent_process()

    def exit_when_parent_is_gone() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=exit_when_parent_is_gone, daemon=True).start()


def _worker(batch: list[tuple[int, RunRequest]]) -> list[tuple[int, RunResult]]:
    """Pool entry point: run one chunk of ``(index, request)`` tasks."""
    return [(index, _run_one(request)) for index, request in batch]


def _isolated_entry(connection, request: RunRequest) -> None:
    """Child-process entry point for :func:`_run_isolated`."""
    _exit_with_parent()
    try:
        connection.send(_run_one(request))
    finally:
        connection.close()


def _run_isolated(request: RunRequest,
                  timeout: Optional[float]) -> RunResult:
    """One attempt in a dedicated, killable worker process.

    Returns what the driver made of the request — its row or its
    traceback — or, when the attempt ended without the driver's verdict
    (timed out, child died), a ``failed`` result giving the reason.

    Isolation is the point: if *this* task is the one that wedged or
    killed its original chunk's worker, only its own worker breaks.
    The worker is a :class:`multiprocessing.Process` we own directly —
    unlike a ``ProcessPoolExecutor``, whose workers are reachable only
    through the private ``_processes`` attribute — so a hung attempt is
    terminated at ``timeout`` through the public
    ``Process.terminate()``/``kill()`` API and the sweep carries on.
    """
    receiver, sender = multiprocessing.Pipe(duplex=False)
    worker = multiprocessing.Process(
        target=_isolated_entry, args=(sender, request), daemon=True,
    )
    worker.start()
    sender.close()
    try:
        if receiver.poll(timeout):
            return receiver.recv()
        worker.terminate()
        worker.join(5.0)
        if worker.is_alive():  # pragma: no cover - SIGTERM ignored
            worker.kill()
            worker.join()
        error = f"timed out: task exceeded {timeout:.1f}s on retry"
    except EOFError:
        # The worker died before sending a result (OOM kill, hard
        # crash) — poll() saw the pipe close, not a payload.
        worker.join(5.0)
        error = f"retry worker died with exit code {worker.exitcode}"
    except Exception:
        error = traceback.format_exc(limit=8)
    finally:
        receiver.close()
        worker.join(5.0)
        if worker.is_alive():  # pragma: no cover - defensive teardown
            worker.kill()
            worker.join()
    return RunResult(request=request, status="failed", error=error)


def retry_jitter_delay(base: float, request: RunRequest,
                       attempt: int = 1) -> float:
    """Seeded-jitter backoff before retrying ``request``.

    The same deterministic scheme the serving layer uses
    (:func:`repro.backoff.jittered_backoff`): doubling per attempt with
    a multiplicative jitter in ``[1, 1.5)`` keyed on ``(seed, n, f,
    attempt)``.  The jitter is the point: a fixed sleep marches every
    retrying worker back in lockstep onto whatever resource contention
    broke the first attempt, while a seeded spread decorrelates them
    *reproducibly*.
    """
    if base <= 0:
        return 0.0
    return jittered_backoff(base, 2.0, 0.5, request.seed, request.n,
                            request.f, attempt)


def _chunk(tasks: list, size: int) -> list[list]:
    return [tasks[start:start + size] for start in range(0, len(tasks), size)]


def default_chunksize(pending: int, jobs: int) -> int:
    """Roughly four chunks per worker: amortizes dispatch, keeps the
    pool load-balanced when per-run cost varies across ``n``."""
    return max(1, pending // max(1, jobs * 4))


def run_requests(
    requests: Sequence[RunRequest],
    *,
    jobs: int = 1,
    store: Optional[RunStore] = None,
    timeout: Optional[float] = None,
    chunksize: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    retry_backoff: float = 0.25,
    observer: Optional[object] = None,
) -> list[RunResult]:
    """Execute ``requests``; return results in request order.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` executes serially in-process.
    store:
        Optional run store.  ``ok`` hits are served without executing;
        fresh results (including failures) are written back.
    timeout:
        Per-task budget in seconds (parallel path only).  A chunk is
        allowed ``timeout * len(chunk)``; on expiry its unfinished tasks
        go to the individual retry pass with ``timeout`` each.
    chunksize:
        Tasks per pool submission; default :func:`default_chunksize`.
    progress:
        Optional ``progress(done, total)`` callback, called after the
        cache scan and after each completed chunk.
    retry_backoff:
        Base seconds of the seeded-jitter backoff
        (:func:`retry_jitter_delay`) applied before resubmitting each
        task of a timed-out or broken chunk individually (transient
        failures — OOM kills, a wedged sibling — often need a beat to
        clear, and jitter keeps the retries from re-colliding).  Each
        task gets exactly one retry; a task that fails twice is
        recorded failed with both errors.
    observer:
        Optional :class:`repro.obs.EventRecorder`.  When given, emits
        ``engine.*`` events (store hit/miss, chunk dispatch/timeout/
        broken, task retry/settle), accumulates per-driver wall time
        into ``observer.profiler`` as ``driver:<name>`` phases, and —
        when a ``store`` is also given — persists a telemetry row per
        freshly-executed request under its run hash.
    """
    requests = list(requests)
    prof = observer.profiler if observer is not None else None
    results: list[Optional[RunResult]] = [None] * len(requests)
    version = code_version()
    hashes = [
        run_hash(r.driver, r.n, r.f, r.seed, r.params, version)
        for r in requests
    ]

    # Cache scan: serve ok rows straight from the store.
    if store is not None:
        for index, hash_ in enumerate(hashes):
            stored = store.get(hash_)
            if stored is not None and stored.ok:
                # ledger() is None for a run stored without ledgers and
                # ([], []) for a legitimately zero-round run — the two
                # must stay distinguishable across a cache round trip.
                ledger = store.ledger(hash_)
                messages_per_round, bits_per_round = (
                    ledger if ledger is not None else (None, None))
                results[index] = RunResult(
                    request=requests[index], status="ok", row=stored.row,
                    elapsed=stored.elapsed or 0.0, cached=True,
                    messages_per_round=messages_per_round,
                    bits_per_round=bits_per_round,
                    attempts=0,
                )
                if observer is not None:
                    observer.emit("engine.store.hit",
                                  driver=requests[index].driver,
                                  run_hash=hash_)
            elif observer is not None:
                observer.emit("engine.store.miss",
                              driver=requests[index].driver, run_hash=hash_)

    pending = [i for i, result in enumerate(results) if result is None]

    # Dedup: identical requests (same content hash) execute once.
    leaders: dict[str, int] = {}
    followers: dict[int, list[int]] = {}
    unique_pending = []
    for index in pending:
        leader = leaders.setdefault(hashes[index], index)
        if leader == index:
            unique_pending.append(index)
        else:
            followers.setdefault(leader, []).append(index)

    total = len(requests)
    done = total - len(pending)
    if progress is not None:
        progress(done, total)

    def settle(index: int, result: RunResult) -> None:
        nonlocal done
        if prof is not None:
            prof.add(f"driver:{requests[index].driver}", result.elapsed)
        if observer is not None:
            observer.emit(
                "engine.task.settle", driver=requests[index].driver,
                status=result.status, attempts=result.attempts,
                elapsed_s=result.elapsed,
            )
        if store is not None:
            # One write per unique content hash: followers were
            # deduplicated *by* that hash, so re-putting per follower
            # would issue N identical row writes plus N redundant
            # ledger DELETE round trips.
            request = requests[index]
            store.put(
                hashes[index],
                driver=request.driver, n=request.n, f=request.f,
                seed=request.seed, params=request.params_dict(),
                version=version, status=result.status, row=result.row,
                error=result.error, elapsed=result.elapsed,
                messages_per_round=result.messages_per_round,
                bits_per_round=result.bits_per_round,
                attempts=result.attempts,
            )
            if observer is not None:
                store.put_telemetry(hashes[index], "run", {
                    "driver": request.driver, "n": request.n,
                    "f": request.f, "seed": request.seed,
                    "status": result.status,
                    "elapsed_s": result.elapsed,
                    "attempts": result.attempts,
                    "rounds": (len(result.messages_per_round)
                               if result.messages_per_round is not None
                               else None),
                    **(result.telemetry or {}),
                })
        for target in (index, *followers.get(index, ())):
            results[target] = RunResult(
                request=requests[target], status=result.status,
                row=result.row, error=result.error, elapsed=result.elapsed,
                cached=False,
                messages_per_round=result.messages_per_round,
                bits_per_round=result.bits_per_round,
                attempts=result.attempts,
                telemetry=result.telemetry,
            )
            done += 1

    if jobs <= 1 or len(unique_pending) <= 1:
        for index in unique_pending:
            settle(index, _run_one(requests[index]))
            if progress is not None:
                progress(done, total)
    elif unique_pending:
        size = chunksize or default_chunksize(len(unique_pending), jobs)
        chunks = _chunk([(i, requests[i]) for i in unique_pending], size)
        retry: list[tuple[int, RunRequest, str]] = []
        hung = False
        # Snapshot our pre-existing children so the hung-pool cleanup
        # below can tell the executor's workers apart from unrelated
        # processes (e.g. a caller's own multiprocessing children)
        # without reaching into the executor's private ``_processes``.
        preexisting = {child.pid for child in multiprocessing.active_children()}
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(chunks)),
                                   initializer=_exit_with_parent)
        try:
            futures = [pool.submit(_worker, chunk) for chunk in chunks]
            if observer is not None:
                observer.emit("engine.chunk.dispatch", chunks=len(chunks),
                              chunksize=size, jobs=min(jobs, len(chunks)))
            for chunk, future in zip(chunks, futures):
                budget = None if timeout is None else timeout * len(chunk)
                try:
                    outcomes = dict(future.result(timeout=budget))
                except FutureTimeoutError:
                    future.cancel()
                    hung = True
                    first_error = (f"timed out: chunk exceeded {budget:.1f}s"
                                   f" ({len(chunk)} tasks)")
                    retry.extend((i, r, first_error) for i, r in chunk)
                    if observer is not None:
                        observer.emit("engine.chunk.timeout",
                                      tasks=len(chunk), budget_s=budget)
                    continue
                except Exception:  # BrokenProcessPool and kin
                    first_error = traceback.format_exc(limit=8)
                    retry.extend((i, r, first_error) for i, r in chunk)
                    if observer is not None:
                        observer.emit("engine.chunk.broken", tasks=len(chunk))
                    continue
                for index, _request in chunk:
                    settle(index, outcomes[index])
                if progress is not None:
                    progress(done, total)
        finally:
            if hung:
                # A timed-out chunk may still be running; don't let
                # shutdown block on it.  cancel_futures drops queued
                # work, then terminating the executor's surviving
                # workers (the active children we did not have before
                # creating the pool) unsticks the wedged chunk.
                pool.shutdown(wait=False, cancel_futures=True)
                for child in multiprocessing.active_children():
                    if child.pid not in preexisting:
                        child.terminate()
            else:
                pool.shutdown(wait=True)
        for index, request, first_error in retry:
            delay = retry_jitter_delay(retry_backoff, request)
            if delay > 0:
                time.sleep(delay)
            if observer is not None:
                observer.emit("engine.task.retry", driver=request.driver,
                              n=request.n, seed=request.seed)
            result = _run_isolated(request, timeout)
            result.request = request
            result.attempts = 2
            if not result.ok:
                result.error = (
                    f"{result.error}\n--- first attempt ---\n{first_error}"
                )
            settle(index, result)
            if progress is not None:
                progress(done, total)

    return results  # type: ignore[return-value]
