"""The asyncio front door: renaming as a long-lived service.

:class:`RenamingService` accepts ``rename`` / ``lookup`` / ``release``
requests from many concurrent clients and turns them into epoch-based
executions of the crash-resilient renaming protocol:

* **Routing** — every original identity hashes to one of ``shards``
  independent :class:`~repro.serve.sharding.Shard` directories.
* **Batching** — per shard, state-changing requests coalesce in an
  :class:`~repro.serve.batching.EpochBatcher` (``max_batch`` /
  ``max_wait``); each closed batch becomes one protocol epoch.
* **Concurrency** — epochs run *off the event loop* in a thread pool
  (``run_in_executor``), one at a time per shard, concurrently across
  shards; the loop stays free to accept requests and answer lookups.
* **Degradation** — a shard whose epoch fails (injected link faults,
  renaming failure, non-termination) rolls its membership delta back
  and fails only that batch's requests with :class:`ShardDegraded`;
  every other shard, and the failed shard's next batch, keep serving.
* **Resilience** (``resilience=``) — failed batch members are
  *retried* with seeded jittered exponential backoff instead of failed
  outright; a per-shard circuit breaker opens after consecutive failed
  epochs, defers work to a half-open probe, and sheds load beyond a
  capacity bound; per-request deadlines cancel requests whose retry
  would start too late.  See :mod:`repro.serve.resilience`.  Recovery
  is state-free by construction: a failed epoch rolls the directory
  back, so the probe epoch re-runs the protocol from the last good
  assignment — the shard rebuilds from the rolled-back directory
  rather than degrading forever.  ``resilience=None`` is the same
  code under a fail-fast policy: no retry, a breaker that never opens.

One lane clock.  A *lane* is one shard's batcher, FIFO queue and worker
task, and everything that happens on it is an item on that queue,
taken one at a time: a closed :class:`~repro.serve.batching.Batch`
(its ops' turn, at the stamp of its last request), a ``_Tick(now,
force)`` (the turn of the retries deferred to ``now``; at drain,
``force``: of all of them) and a ``_Read`` (a stamped lookup).  Lane
time is the requests' stamps.  Stamped by the caller (``arrival=``, as
the load generator's trace is), batch boundaries, the retry/breaker
schedule and every read's answer are a pure function of the submitted
stream, never of the event loop's or the thread pool's schedule.
Unstamped, the lane is *live*: the same clock read from
``loop.time()`` (in ``_now`` only) plus at most one alarm, armed for
the earlier of the open batch's deadline and the earliest deferred
retry, so a lonely request still flushes after ``max_wait`` real
seconds.  A lane is one or the other for life and its stamps never run
backwards; ``submit`` and ``lookup_at`` refuse anything else.

The read rule: ``lookup_at(uid, t)`` is answered in queue order —
after every batch of the lane that closed at or before ``t`` (and the
retries those batches pulled along), before any batch that closes
later.  ``submit`` closes batches synchronously in submission order,
so "closed by ``t``" is "already queued": no versioned tables, no
waiting in the caller.  A read moves no clock: a retry due by ``t``
that no batch has pulled along yet runs after it.  The synchronous
``lookup(uid)`` never queues; it probes the table installed by now —
one consistent epoch, possibly trailing batches in flight — so its
answer follows wall-clock timing and no counted result may use it.

Serve-level events (``serve.*``, their data fields in
:data:`repro.obs.events.EVENT_KINDS`) are emitted through the ordinary
``observer=`` hook, always from the event-loop thread and never per
request.
"""

from __future__ import annotations

import asyncio
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, NamedTuple, Optional, Sequence

from repro.core.crash_renaming import CrashRenamingConfig
from repro.faults.spec import FaultSpec
from repro.serve.batching import (
    CLOSE_DRAIN,
    CLOSE_TIMEOUT,
    Batch,
    BatchPolicy,
    EpochBatcher,
)
from repro.serve.resilience import (
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    ResiliencePolicy,
    ResilienceSpec,
    RetryBacklog,
    classify_failure,
    retry_delay,
)
from repro.serve.sharding import (
    LOOKUP,
    RELEASE,
    RENAME,
    Shard,
    ShardOp,
    shard_of,
)


class ServeError(RuntimeError):
    """Base class for request-level service failures."""


class NotRenamed(ServeError):
    """A rename produced no name: the identity was released in the
    same batch, or crashed out of its epoch."""

    def __init__(self, uid: int, shard: int):
        super().__init__(
            f"identity {uid} holds no name after its epoch on shard {shard}"
        )
        self.uid = uid
        self.shard = shard


class ShardDegraded(ServeError):
    """The batch's epoch failed; the shard rolled back and serves on.

    ``kind`` is the failure taxonomy (:mod:`repro.serve.resilience`):
    ``"faults"`` when injected link faults issued verdicts during the
    epoch, ``"non_termination"`` / ``"rename_failed"`` for the
    protocol's own failure modes, ``"error"`` otherwise — so callers
    classify without string-matching ``type(cause).__name__``.  The
    original exception is chained as ``__cause__`` (and kept on
    ``.cause``), so tracebacks show the real protocol failure.
    """

    def __init__(self, shard: int, epoch: int, cause: BaseException,
                 kind: str = "error"):
        super().__init__(
            f"shard {shard} epoch {epoch} failed ({kind}): "
            f"{type(cause).__name__}: {cause}"
        )
        self.shard = shard
        self.epoch = epoch
        self.cause = cause
        self.kind = kind
        self.__cause__ = cause


class RequestShed(ServeError):
    """The request was shed: its shard's breaker is open and the
    deferred backlog is at capacity — failing fast beats queueing."""

    def __init__(self, shard: int, depth: int):
        super().__init__(
            f"shard {shard} shed request: breaker open, "
            f"{depth} ops already deferred"
        )
        self.shard = shard
        self.depth = depth


class DeadlineExceeded(ServeError):
    """The request's deadline passed before an epoch could cover it."""

    def __init__(self, uid: int, shard: int, deadline: float):
        super().__init__(
            f"identity {uid} exceeded its {deadline}s deadline on "
            f"shard {shard}"
        )
        self.uid = uid
        self.shard = shard
        self.deadline = deadline


#: What ``resilience=None`` runs under: no retry (fail the batch on
#: error), a breaker that never opens (nothing deferred, nothing shed).
_FAIL_FAST = ResiliencePolicy(max_retries=0, breaker_threshold=sys.maxsize)


class _Tick(NamedTuple):
    """Lane item: run the deferred entries due by ``now``; ``force``
    (drain) runs them all, fast-forwarding over backoff and cooldown."""

    now: Optional[float]
    force: bool = False


class _Read(NamedTuple):
    """Lane item: answer ``uid`` from the table at this queue position."""

    uid: int
    future: "asyncio.Future"


class _Lane:
    """One shard's serving state: batcher, queue, worker, resilience."""

    __slots__ = ("shard", "batcher", "queue", "task", "timer", "failures",
                 "breaker", "backlog", "retries", "shed",
                 "deadline_expired", "vclock", "live", "stamp")

    def __init__(self, shard: Shard, policy: BatchPolicy,
                 resilience: ResiliencePolicy):
        self.shard = shard
        self.batcher = EpochBatcher(shard.index, policy)
        self.queue: Optional[asyncio.Queue] = None
        self.task: Optional[asyncio.Task] = None
        #: Live lanes only: the one pending alarm (see ``_arm``).
        self.timer: Optional[asyncio.TimerHandle] = None
        self.failures = 0
        self.breaker = CircuitBreaker(resilience.breaker_threshold,
                                      resilience.breaker_cooldown)
        self.backlog = RetryBacklog()
        self.retries = 0
        self.shed = 0
        self.deadline_expired = 0
        # The worker's monotonic clock: batches advance it to their
        # last arrival, backlog entries to their due time.
        self.vclock = 0.0
        # The front door's side: whether requests come unstamped
        # (``None`` until the first one), and the last stamp admitted.
        self.live: Optional[bool] = None
        self.stamp = float("-inf")

    @property
    def index(self) -> int:
        return self.shard.index


class RenamingService:
    """Sharded, batching renaming service over an asyncio event loop.

    Use as an async context manager (or call :meth:`start` /
    :meth:`aclose` explicitly) inside a running loop::

        async with RenamingService(shards=4, namespace=1 << 20) as svc:
            gid = await svc.rename(uid)
            assert svc.lookup(uid) == gid
            await svc.release(uid)
            await svc.drain()

    ``shard_faults`` maps a shard index to a :mod:`repro.faults.spec`
    spec injected into that shard's every epoch; ``shard_fault_windows``
    bounds a shard's injection to a ``(start, stop)`` window of
    protocol execution attempts (1-based, half-open) — a transient
    outage.  ``resilience`` (a
    :class:`~repro.serve.resilience.ResiliencePolicy`, a JSON spec, or
    a mapping) enables deadlines / retries / circuit breaking; ``None``
    keeps the fail-the-batch behaviour.
    """

    def __init__(
        self,
        *,
        shards: int = 4,
        namespace: int = 1 << 20,
        seed: int = 0,
        max_batch: int = 64,
        max_wait: Optional[float] = 0.1,
        config: Optional[CrashRenamingConfig] = None,
        shard_faults: Optional[Mapping[int, FaultSpec]] = None,
        shard_fault_windows: Optional[Mapping[int, tuple[int, int]]] = None,
        resilience: ResilienceSpec = None,
        observer: Optional[object] = None,
        executor: Optional[ThreadPoolExecutor] = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if namespace < 1:
            raise ValueError(f"namespace must be positive, got {namespace}")
        if config is None:
            from repro.analysis.experiments import (
                EXPERIMENT_ELECTION_CONSTANT,
            )

            config = CrashRenamingConfig(
                election_constant=EXPERIMENT_ELECTION_CONSTANT,
            )
        self.shards = shards
        self.namespace = namespace
        self.seed = seed
        self.policy = BatchPolicy(max_batch=max_batch, max_wait=max_wait)
        self.observer = observer
        #: The caller's policy, ``None`` when there is none (the stats
        #: and report surface); ``_policy`` is what the lanes run under.
        self.resilience = ResiliencePolicy.from_spec(resilience)
        self._policy = self.resilience or _FAIL_FAST
        faults = dict(shard_faults or {})
        windows = dict(shard_fault_windows or {})
        unknown = [s for s in {*faults, *windows} if not 0 <= s < shards]
        if unknown:
            raise ValueError(
                f"shard_faults names shards {unknown} outside [0, {shards})"
            )
        self._lanes = [
            _Lane(
                Shard(
                    index, shards, namespace=namespace, seed=seed,
                    config=config, fault_spec=faults.get(index),
                    fault_window=windows.get(index),
                ),
                self.policy,
                self._policy,
            )
            for index in range(shards)
        ]
        self.epochs = 0
        self.empty_batches = 0
        self.failed_epochs = 0
        self._submitted = 0
        self._executor = executor
        self._own_executor = executor is None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    async def __aenter__(self) -> "RenamingService":
        self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    def start(self) -> None:
        """Bind to the running loop, start executors and lane workers."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.shards, thread_name_prefix="repro-serve",
            )
        for lane in self._lanes:
            lane.queue = asyncio.Queue()
            lane.task = self._loop.create_task(
                self._run_lane(lane), name=f"repro-serve-shard{lane.index}",
            )
        self._emit("serve.start", shards=self.shards,
                   max_batch=self.policy.max_batch,
                   max_wait=self.policy.max_wait,
                   namespace=self.namespace, seed=self.seed)

    async def drain(self) -> None:
        """Flush open batches and wait until every queued item ran.

        This also *forces the retry backlog empty*: behind its flushed
        batch each lane gets a forced tick, which executes deferred
        work immediately at its due stamp (virtual time jumps — no
        real sleeping) and fast-forwards breaker cooldowns, so every
        request and stamped read resolves one way or the other before
        drain returns.  Attempts are bounded, so this terminates.
        """
        self._check_running()
        flushed = sum(self._flush_lane(lane, CLOSE_DRAIN)
                      for lane in self._lanes)
        # Queued now, not decided on after the join: between a join's
        # return and this task's next step an alarm can hand the worker
        # a retry, and a look at the backlog would find it empty.
        for lane in self._lanes:
            lane.queue.put_nowait(_Tick(None, force=True))
        await asyncio.gather(*(lane.queue.join() for lane in self._lanes))
        self._emit("serve.drain", flushed=flushed)

    async def aclose(self) -> None:
        """Drain, then stop the lane workers and the owned executor."""
        if self._closed or not self._started:
            self._closed = True
            return
        await self.drain()
        self._closed = True
        tasks = [lane.task for lane in self._lanes]
        for lane in self._lanes:
            if lane.timer is not None:
                lane.timer.cancel()
            lane.task.cancel()
            lane.task = None  # a stopped task's frames hold the lane: a cycle
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._own_executor and self._executor is not None:
            self._executor.shutdown(wait=True)
        self._emit("serve.stop", epochs=self.epochs,
                   failed_epochs=self.failed_epochs,
                   batches=self.batches, requests=self._submitted)

    def _check_running(self) -> None:
        if not self._started:
            raise RuntimeError("service not started; use 'async with' or "
                               "call start() inside a running loop")
        if self._closed:
            raise RuntimeError("service is closed")

    # -- the front door -------------------------------------------------

    def submit(self, kind: str, uid: int,
               arrival: Optional[float] = None) -> "asyncio.Future":
        """Enqueue one state-changing request; returns its future.

        Synchronous (no await): the request joins its shard's open
        batch before control returns, so per-shard request order equals
        submission order — the determinism contract.  ``arrival`` is
        the request's stamp on its lane's clock; ``None`` reads the
        loop clock (a live lane, see the module docstring).
        """
        self._check_running()
        if kind not in (RENAME, RELEASE):
            raise ValueError(f"cannot batch request kind {kind!r}")
        lane = self._lane_of(uid)
        arrival = self._stamp(lane, arrival)
        future = self._loop.create_future()
        op = ShardOp(self._submitted, kind, uid, handle=future,
                     arrival=arrival)
        self._submitted += 1
        for batch in lane.batcher.offer(op, arrival):
            self._dispatch(lane, batch)
        self._arm(lane)
        return future

    async def rename(self, uid: int,
                     arrival: Optional[float] = None) -> int:
        """Acquire (or refresh) the global compact id of ``uid``.

        Resolves after the epoch that covers this request: the id is
        from the *new* assignment.  Raises :class:`NotRenamed` if the
        identity ends the epoch without a name, :class:`ShardDegraded`
        if the shard's epoch failed.
        """
        return await self.submit(RENAME, uid, arrival)

    async def release(self, uid: int,
                      arrival: Optional[float] = None) -> bool:
        """Give up ``uid``'s compact id (idempotent); True when applied."""
        return await self.submit(RELEASE, uid, arrival)

    def lookup(self, uid: int) -> Optional[int]:
        """Current global compact id of ``uid``, or ``None`` (miss).

        Served synchronously from the shard's installed table — this
        read never queues behind epochs and never blocks the loop.  It
        is *epoch-consistent* but may trail in-flight batches;
        :meth:`lookup_at` is the read that is ordered on the stream.
        """
        return self._lane_of(uid).shard.lookup(uid)

    def lookup_at(self, uid: int,
                  arrival: Optional[float] = None) -> "asyncio.Future":
        """A read ordered on its lane's clock; returns its future.

        Resolves to what :meth:`lookup` would return once every batch
        of the lane that closed at or before ``arrival`` has executed,
        and before any batch that closes later (the read rule in the
        module docstring).  ``arrival`` is a stamp like ``submit``'s.
        """
        self._check_running()
        lane = self._lane_of(uid)
        self._stamp(lane, arrival)
        future = self._loop.create_future()
        lane.queue.put_nowait(_Read(uid, future))
        return future

    def _lane_of(self, uid: int) -> _Lane:
        if not 1 <= uid <= self.namespace:
            raise ValueError(
                f"identity {uid} outside [1, {self.namespace}]"
            )
        return self._lanes[shard_of(uid, self.shards)]

    def original_of(self, global_id: int) -> Optional[int]:
        """Inverse lookup across shards, or ``None``."""
        from repro.serve.sharding import split_compact

        local, shard = split_compact(global_id, self.shards)
        directory = self._lanes[shard].shard.directory
        try:
            return directory.original_id(local)
        except KeyError:
            return None

    # -- the lane clock -------------------------------------------------

    def _now(self, lane: _Lane, stamp: Optional[float] = None) -> float:
        """Lane time: the loop's on a live lane, else the stamp of the
        item in hand.  The only place a lane reads ``loop.time()``."""
        return self._loop.time() if lane.live else stamp

    def _stamp(self, lane: _Lane, arrival: Optional[float]) -> float:
        """Admit one request's stamp onto the lane clock, or refuse it.

        A stamp earlier than the lane's last would become its batch's
        ``last_arrival`` and run the worker's time backwards; one
        unstamped request on a stamped lane would have every later
        stamp compared with ``loop.time()``.
        """
        if lane.live is None:
            lane.live = arrival is None
        now = self._now(lane, arrival)
        if lane.live != (arrival is None) or now < lane.stamp:
            raise ValueError(
                f"lane {lane.index} cannot take arrival {arrival} after "
                f"stamp {lane.stamp}: a lane's requests are all stamped or "
                f"all unstamped, and its stamps never decrease"
            )
        lane.stamp = now
        return now

    def _dispatch(self, lane: _Lane, batch: Batch) -> None:
        self._emit("serve.batch.close", shard=lane.index, batch=batch.index,
                   size=len(batch), reason=batch.reason)
        lane.queue.put_nowait(batch)

    def _flush_lane(self, lane: _Lane, reason: str) -> bool:
        batch = lane.batcher.flush(reason)
        if batch is None:
            return False
        self._dispatch(lane, batch)
        return True

    def _arm(self, lane: _Lane) -> None:
        """Keep a live lane's one alarm at the earlier of the open
        batch's deadline and the earliest deferred retry.  (A stamped
        lane needs none: its time moves only when a stamp arrives.)"""
        due = None
        if lane.live:
            due = min((t for t in (lane.batcher.deadline,
                                   lane.backlog.earliest_due())
                       if t is not None), default=None)
        if lane.timer is not None:
            if lane.timer.when() == due:
                return
            lane.timer.cancel()
            lane.timer = None
        if due is not None:
            lane.timer = self._loop.call_at(due, self._wake, lane)

    def _wake(self, lane: _Lane) -> None:
        """The alarm: close the open batch if its deadline passed, and
        put a tick on the lane for whatever retries are due."""
        # The loop may fire a hair early; it is at least the armed time.
        now = max(self._now(lane), lane.timer.when())
        lane.timer = None
        deadline = lane.batcher.deadline
        if deadline is not None and deadline <= now:
            self._flush_lane(lane, CLOSE_TIMEOUT)
        if lane.backlog:
            lane.queue.put_nowait(_Tick(now))

    # -- epoch execution ------------------------------------------------

    async def _run_lane(self, lane: _Lane) -> None:
        while True:
            item = await lane.queue.get()
            try:
                if isinstance(item, _Read):
                    if not item.future.done():
                        item.future.set_result(lane.shard.lookup(item.uid))
                elif isinstance(item, _Tick):
                    await self._process_backlog(lane, item.now, item.force)
                else:
                    # A closed batch is work due now that has consumed
                    # no attempt, behind whatever was deferred to now.
                    now = self._now(lane, item.last_arrival)
                    lane.vclock = max(lane.vclock, now)
                    await self._process_backlog(lane, now)
                    await self._attempt(lane, item.ops, now,
                                        origin=item.index, attempt=0)
                # The backlog may have changed: move the alarm with it.
                self._arm(lane)
            finally:
                lane.queue.task_done()

    # -- one attempt path (deadlines, retries, breaker) -----------------

    async def _process_backlog(self, lane: _Lane, now: Optional[float],
                               force: bool = False) -> None:
        """Give deferred entries that are due by ``now`` their turn.

        ``force`` (drain) ignores ``now`` and fast-forwards the lane's
        virtual clock over backoff delays and breaker cooldowns until
        the backlog is empty — attempts are bounded, so every entry
        either resolves or exhausts its retries.
        """
        while lane.backlog and (force or lane.backlog.peek().due <= now):
            entry = lane.backlog.pop()
            await self._attempt(lane, entry.ops,
                                max(entry.due, lane.vclock),
                                origin=entry.origin, attempt=entry.attempt,
                                force=force)

    async def _attempt(self, lane: _Lane, ops: Sequence, vnow: float, *,
                       origin: int, attempt: int,
                       force: bool = False) -> None:
        """The turn of ``ops`` at time ``vnow``: one protocol execution.

        ``attempt`` counts executions these ops already consumed (the
        retry salt).  While the breaker is open the shard is
        quarantined: the ops wait in the backlog for the probe time
        instead (consuming no attempt), unless ``force`` fast-forwards
        the cooldown and makes them the half-open probe.
        """
        policy = self._policy
        state = self._poll_breaker(lane, vnow)
        if state == BREAKER_OPEN and force:
            vnow = max(vnow, lane.breaker.probe_at)
            state = self._poll_breaker(lane, vnow)
        if state == BREAKER_OPEN:
            self._defer_or_shed(lane, ops, origin, attempt, vnow)
            return
        lane.vclock = max(lane.vclock, vnow)
        ops = list(ops)
        if policy.deadline is not None:
            ops = self._expire_deadlines(lane, ops, vnow, attempt)
        if not ops:
            return
        epoch = lane.shard.directory.epoch + 1
        self._emit("serve.epoch.begin", shard=lane.index, epoch=epoch,
                   ops=len(ops), attempt=attempt)
        started = time.perf_counter()
        try:
            outcome = await self._loop.run_in_executor(
                self._executor, lane.shard.execute, ops, attempt,
            )
        except Exception as error:
            wall = time.perf_counter() - started
            kind = classify_failure(error, lane.shard.last_fault_issued)
            lane.failures += 1
            self.failed_epochs += 1
            # "failure", not "kind": the event envelope reserves
            # ``kind`` for the event name itself.
            self._emit("serve.epoch.failed", shard=lane.index, epoch=epoch,
                       failure=kind, attempt=attempt,
                       error=f"{type(error).__name__}: {error}"[:200],
                       wall_s=round(wall, 6))
            self._emit("serve.shard.degraded", shard=lane.index,
                       failures=lane.failures, failure=kind)
            if lane.breaker.record_failure(vnow):
                self._emit("serve.breaker.open", shard=lane.index,
                           failures=lane.breaker.consecutive)
            next_attempt = attempt + 1
            if next_attempt > policy.max_retries:
                failure = ShardDegraded(lane.index, epoch, error, kind)
                for op in ops:
                    if not op.handle.done():
                        op.handle.set_exception(failure)
                return
            delay = retry_delay(policy, self.seed, lane.index, origin,
                                next_attempt)
            due = vnow + delay
            if lane.breaker.state == BREAKER_OPEN:
                due = max(due, lane.breaker.probe_at)
            lane.backlog.push(ops, due, next_attempt, origin)
            lane.retries += 1
            self._emit("serve.retry", shard=lane.index, batch=origin,
                       attempt=next_attempt, ops=len(ops),
                       delay_s=round(delay, 9))
            return
        wall = time.perf_counter() - started
        if outcome.ran and lane.breaker.record_success():
            self._emit("serve.breaker.close", shard=lane.index)
        self._resolve_success(lane, ops, outcome, wall)

    def _expire_deadlines(self, lane: _Lane, ops: list, vnow: float,
                          attempt: int) -> list:
        deadline = self._policy.deadline
        expired = [op for op in ops if vnow > op.arrival + deadline]
        if not expired:
            return ops
        lane.deadline_expired += len(expired)
        for op in expired:
            if not op.handle.done():
                op.handle.set_exception(
                    DeadlineExceeded(op.uid, lane.index, deadline)
                )
        self._emit("serve.deadline", shard=lane.index,
                   expired=len(expired), attempt=attempt)
        dead = {id(op) for op in expired}
        return [op for op in ops if id(op) not in dead]

    def _defer_or_shed(self, lane: _Lane, ops: Sequence, origin: int,
                       attempt: int, now: float) -> None:
        """Queue ops for the breaker's probe time, shedding overflow."""
        policy = self._policy
        room = policy.shed_capacity - lane.backlog.ops_count
        keep = list(ops[:max(0, room)])
        drop = list(ops[len(keep):])
        if keep:
            due = max(lane.breaker.probe_at, now)
            lane.backlog.push(keep, due, attempt, origin)
        if drop:
            depth = lane.backlog.ops_count
            lane.shed += len(drop)
            for op in drop:
                if not op.handle.done():
                    op.handle.set_exception(RequestShed(lane.index, depth))
            self._emit("serve.shed", shard=lane.index, ops=len(drop),
                       depth=depth)

    def _resolve_success(self, lane: _Lane, ops: Sequence, outcome,
                         wall: float) -> None:
        for op in ops:
            future = op.handle
            if future.done():
                continue
            if op.kind == RELEASE:
                future.set_result(True)
                continue
            value = lane.shard.resolve(outcome, op)
            if value is None:
                future.set_exception(NotRenamed(op.uid, lane.index))
            else:
                future.set_result(value)
        if not outcome.ran:
            self.empty_batches += 1
            self._emit("serve.epoch.empty", shard=lane.index, ops=len(ops))
            return
        self.epochs += 1
        report = outcome.report
        self._emit(
            "serve.epoch.end", shard=lane.index, epoch=report.epoch,
            members=report.members, renamed=report.renamed,
            departed=len(report.departed_during_epoch),
            rounds=report.rounds, messages=report.messages,
            bits=report.bits, wall_s=round(wall, 6),
        )

    def _poll_breaker(self, lane: _Lane, now: float) -> str:
        before = lane.breaker.state
        state = lane.breaker.poll(now)
        if state == BREAKER_HALF_OPEN and before == BREAKER_OPEN:
            self._emit("serve.breaker.half_open", shard=lane.index)
        return state

    # -- introspection --------------------------------------------------

    @property
    def batches(self) -> int:
        return sum(lane.batcher.closed for lane in self._lanes)

    def boundaries(self) -> list[list[dict]]:
        """Per-shard batch boundary records (see ``Batch.boundary``)."""
        return [list(lane.batcher.boundaries) for lane in self._lanes]

    def histories(self) -> list[list]:
        """Per-shard :class:`EpochReport` histories."""
        return [list(lane.shard.directory.history) for lane in self._lanes]

    def assignment(self) -> dict[int, int]:
        """The merged ``original -> global compact`` table, all shards."""
        merged: dict[int, int] = {}
        for lane in self._lanes:
            merged.update(lane.shard.global_assignment())
        return merged

    def stats(self) -> dict:
        """Scalar service counters (JSON-friendly)."""
        totals = {"rounds": 0, "messages": 0, "bits": 0}
        for lane in self._lanes:
            for report in lane.shard.directory.history:
                totals["rounds"] += report.rounds
                totals["messages"] += report.messages
                totals["bits"] += report.bits
        stats = {
            "shards": self.shards,
            "requests": self._submitted,
            "batches": self.batches,
            "epochs": self.epochs,
            "empty_batches": self.empty_batches,
            "failed_epochs": self.failed_epochs,
            "failures": sum(lane.failures for lane in self._lanes),
            "retries": sum(lane.retries for lane in self._lanes),
            "shed": sum(lane.shed for lane in self._lanes),
            "deadline_expired": sum(lane.deadline_expired
                                    for lane in self._lanes),
            "members": sum(len(lane.shard.directory.members)
                           for lane in self._lanes),
            **totals,
        }
        if self.resilience is not None:
            stats["breaker_opens"] = sum(lane.breaker.opens
                                         for lane in self._lanes)
            stats["breaker_closes"] = sum(lane.breaker.closes
                                          for lane in self._lanes)
            stats["breakers_open"] = sum(
                1 for lane in self._lanes
                if lane.breaker.state != "closed"
            )
        return stats

    def per_shard_stats(self) -> list[dict]:
        rows = []
        for lane in self._lanes:
            directory = lane.shard.directory
            row = {
                "shard": lane.index,
                "members": len(directory.members),
                "epochs": directory.epoch,
                "attempts": lane.shard.attempts,
                "batches": lane.batcher.closed,
                "failures": lane.failures,
                "retries": lane.retries,
                "shed": lane.shed,
                "deadline_expired": lane.deadline_expired,
                "messages": sum(r.messages for r in directory.history),
                "bits": sum(r.bits for r in directory.history),
            }
            if self.resilience is not None:
                row["breaker"] = lane.breaker.stats()
                row["backlog"] = lane.backlog.ops_count
            rows.append(row)
        return rows

    # -- events ---------------------------------------------------------

    def _emit(self, event_kind: str, **data) -> None:
        if self.observer is not None:
            self.observer.emit(event_kind, **data)
