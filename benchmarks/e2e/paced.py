"""``serve_paced``: a rename through ``repro.serve`` at an operator's load.

The pacer is this benchmark's own and is open-loop: one task sleeps to
each request's due time, submits it whatever the service is doing, and
stamps its latency **from the due time**, so a stall is charged to
every request it delays.  (``loadgen.run_load`` times from submission,
which hides how late the generator ran.)  Requests carry their virtual
arrival stamps, so batches, epochs and protocol messages are a pure
function of the seed while the latencies are real.

A latency is reported at reference machine speed (see ``speed.py``).
Its batching wait — from the due time to the due time of the request
that closes the batch, known from the trace alone — is the pacing's
and stays as it is; the rest (queueing behind the previous epoch, the
epoch, resolution) is the machine's and is multiplied by the speed
sampled during the pass.  Queueing is not quite linear in speed, so
this is first-order: it halved the spread of p50 and p95 on a
disturbed box (6.6 % to 2.8 % and a 21 % range to 10 %).
"""

from __future__ import annotations

import asyncio
import statistics
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.overlay_directory import OverlayDirectory
from repro.serve.batching import (
    CLOSE_DEADLINE,
    CLOSE_FULL,
    BatchPolicy,
    plan_batches,
)
from repro.serve.loadgen import (
    LoadProfile,
    Request,
    generate_trace,
    trace_digest,
)
from repro.serve.service import NotRenamed, RenamingService
from repro.serve.sharding import LOOKUP, RENAME, Shard, ShardOp, shard_of

from benchmarks.e2e.spec import Sizes, percentile
from benchmarks.e2e.speed import SpeedMeter
from benchmarks.e2e.trace import Recorder, wrapped

#: Past these the run is not a paced run any more: the generator was
#: late, or the service was still working off a backlog at the end.
MAX_LATE_P95_MS = 20.0
MAX_DRAIN_S = 2.0


def batching_waits(trace: Sequence[Request],
                   profile: LoadProfile) -> list[float]:
    """Per state-changing request, in submission order: seconds from its
    arrival until its batch closes — on the arrival that fills the
    batch, on the first arrival past the deadline, or at the drain that
    follows the last request."""
    lanes: dict[int, list[tuple[ShardOp, float]]] = {}
    changes = [op for op in trace if op.kind != LOOKUP]
    for index, op in enumerate(changes):
        lanes.setdefault(shard_of(op.uid, profile.shards), []).append(
            (ShardOp(index, op.kind, op.uid), op.arrival))
    waits = [0.0] * len(changes)
    policy = BatchPolicy(profile.max_batch, profile.max_wait)
    for shard, ops in lanes.items():
        batches = plan_batches(shard, ops, policy)
        for batch, following in zip(batches, batches[1:] + [None]):
            if batch.reason == CLOSE_FULL:
                closes = batch.last_arrival
            elif batch.reason == CLOSE_DEADLINE:
                closes = following.first_arrival
            else:
                closes = trace[-1].arrival
            for op in batch.ops:
                waits[op.index] = closes - changes[op.index].arrival
    return waits


@dataclass
class Pending:
    """One state-changing request, from due time to resolution."""

    kind: str
    due: float
    #: Seconds of its latency that are the batching window's.
    batching: float
    resolved: float = float("nan")
    ok: bool = False

    def settle(self, future: asyncio.Future) -> None:
        self.resolved = time.perf_counter()
        # A rename released again within its batch is answered "no
        # name": an answer, not a failure.
        self.ok = not future.cancelled() and isinstance(
            future.exception(), (type(None), NotRenamed))


@dataclass
class Played:
    """What one paced pass measured."""

    requests: list[Pending]
    #: Machine speed during the pass (median of the samples: a sample
    #: that collides with a busy shard thread reads slow).
    speed: float
    late: list[float]
    lookups: int
    lookup_s: float
    first_due: float
    last_due: float
    end: float
    stats: dict
    histories: list[list]
    unique: bool
    members_ok: bool

    @property
    def failed(self) -> int:
        bad = sum(not request.ok for request in self.requests)
        # A duplicate name, or a table that is not the trace's final
        # membership, spoils every answer the service gave.
        if not (self.unique and self.members_ok):
            return len(self.requests) + self.lookups
        return bad

    def at_reference(self, seconds: float, batching: float = 0.0) -> float:
        """``seconds`` of which ``batching`` were the pacing's, with the
        rest put at reference machine speed."""
        return batching + (seconds - batching) * self.speed

    def latencies_ms(self, kind: str) -> list[float]:
        return [1e3 * self.at_reference(request.resolved - request.due,
                                        request.batching)
                for request in self.requests
                if request.kind == kind and request.ok]


class ServePaced:
    """Two shards, batches of at most 16, half a second of batching
    wait; ~30 state-changing requests a second beside ~270 lookups.

    The trace is that of instance 0 whatever ``--seed`` says: how fast
    the membership grows follows the draw (35 to 67 mean members over
    ten draws) and an epoch costs by its members, so latencies spread
    14-17 % over traces and 2-8 % over the service's seed, which is
    what the seed varies: every epoch's protocol coins.
    """

    instance = 0

    def __init__(self, seed: int, sizes: Sizes, seconds: float,
                 meter: SpeedMeter):
        self.meter = meter
        self.service_seed = seed
        self.profile = LoadProfile(
            clients=sizes.serve_clients,
            requests=max(1, int(sizes.serve_rate * seconds)),
            shards=2, max_batch=16, max_wait=0.5,
            arrival_rate=sizes.serve_rate,
            rename_weight=6.0, lookup_weight=90.0, release_weight=4.0,
            namespace=1 << 20, seed=self.instance,
        )
        self.trace = generate_trace(self.profile)
        self.batching = batching_waits(self.trace, self.profile)
        active: set[int] = set()
        for op in self.trace:
            if op.kind == RENAME:
                active.add(op.uid)
            elif op.kind != LOOKUP:
                active.discard(op.uid)
        self.final_members = active

    def play(self, paced: bool = True,
             recorder: Optional[Recorder] = None) -> Played:
        return asyncio.run(self._play(paced, recorder))

    async def _play(self, paced: bool,
                    recorder: Optional[Recorder]) -> Played:
        profile = self.profile
        service = RenamingService(
            shards=profile.shards, namespace=profile.namespace,
            seed=self.service_seed, max_batch=profile.max_batch,
            max_wait=profile.max_wait,
        )
        requests: list[Pending] = []
        late: list[float] = []
        lookups, lookup_s = 0, 0.0
        mark = self.meter.mark()
        with ExitStack() as stack:
            if recorder is not None:
                stack.enter_context(_traced_epochs(recorder))
            async with service:
                first_due = time.perf_counter() + 0.05
                for op in self.trace:
                    due = first_due + op.arrival if paced else time.perf_counter()
                    # Always yields, so lanes dispatch even when behind.
                    await asyncio.sleep(max(0.0, due - time.perf_counter()))
                    late.append(time.perf_counter() - due)
                    if op.kind == LOOKUP:
                        begin = time.perf_counter()
                        service.lookup(op.uid)
                        lookup_s += time.perf_counter() - begin
                        lookups += 1
                        continue
                    pending = Pending(op.kind, due,
                                      self.batching[len(requests)])
                    requests.append(pending)
                    service.submit(op.kind, op.uid, op.arrival) \
                        .add_done_callback(pending.settle)
                last_due = due
                await service.drain()
                # Done callbacks run on the loop's next pass.
                await asyncio.sleep(0)
                end = time.perf_counter()
                assignment = service.assignment()
                stats = service.stats()
                histories = service.histories()
        return Played(
            requests, statistics.median(self.meter.window(mark)),
            late, lookups, lookup_s, first_due, last_due, end,
            stats, histories,
            unique=len(set(assignment.values())) == len(assignment),
            members_ok=set(assignment) == self.final_members,
        )

    def counted(self, played: Played) -> list:
        return [trace_digest(self.trace),
                [[report.epoch, report.members, report.messages, report.bits]
                 for history in played.histories for report in history]]


@contextmanager
def _traced_epochs(recorder: Recorder):
    """Spans around ``Shard.execute`` and, inside it, ``run_epoch``.

    An epoch span lists the submission indices of its batch, which is
    the identifier the requests of one batch share.
    """
    def execute(original):
        def traced(self, ops, *args, **kwargs):
            with recorder.span("epoch", shard=self.index,
                               requests=[op.index for op in ops]):
                return original(self, ops, *args, **kwargs)
        return traced

    def run_epoch(original):
        def traced(self, *args, **kwargs):
            with recorder.span("apps.run_epoch", members=len(self.members)):
                return original(self, *args, **kwargs)
        return traced

    with wrapped(Shard, "execute", execute), \
            wrapped(OverlayDirectory, "run_epoch", run_epoch):
        yield


def end_to_end(played: Played) -> dict[str, tuple[float, int]]:
    renames = played.latencies_ms(RENAME)
    return {
        "wall_s": (played.end - played.first_due, 1),
        "rename_p50_ms": (percentile(renames, 0.50), len(renames)),
        "rename_p95_ms": (percentile(renames, 0.95), len(renames)),
    }


def validity(played: Played) -> list[str]:
    """Why the latencies of this pass should not be trusted, if so."""
    reasons = []
    late_p95 = 1e3 * percentile(played.late, 0.95)
    drain = played.end - played.last_due
    if late_p95 > MAX_LATE_P95_MS:
        reasons.append(f"pacer late p95 {late_p95:.1f} ms > {MAX_LATE_P95_MS}")
    if drain > MAX_DRAIN_S:
        reasons.append(f"drain {drain:.2f} s > {MAX_DRAIN_S}")
    return reasons


def layers(played: Played, recorder: Recorder) -> dict[str, float]:
    """Per-layer metrics of a traced pass; adds the request spans.

    The spans keep the clock's seconds.  The metrics that are the
    machine's time are at reference speed like the latencies, so that
    ``rename_p50_ms ~ wait_p50 + epoch_exec_p50``; lateness, drain and
    the busy share are what the clock saw (they say whether the pass
    was a paced one at all).
    """
    ref = played.at_reference
    epochs = recorder.named("epoch")
    run_epochs = recorder.named("apps.run_epoch")
    executed = {span["parent"] for span in run_epochs}
    epoch_of = {index: epoch for epoch in epochs
                for index in epoch["counters"]["requests"]}
    waits, resolves = [], []
    for index, request in enumerate(played.requests):
        epoch = epoch_of.get(index)
        recorder.add("request", request.due, request.resolved, recorder.root,
                     kind=request.kind, batching_s=request.batching,
                     epoch=epoch and epoch["id"])
        if epoch is not None and request.kind == RENAME and request.ok:
            waits.append(1e3 * ref(epoch["start"] - request.due,
                                   request.batching))
            resolves.append(1e3 * ref(request.resolved - epoch["end"]))
    exec_s = [epoch["end"] - epoch["start"] for epoch in epochs
              if epoch["id"] in executed]
    reports = [report for history in played.histories for report in history]
    length = played.end - played.first_due
    return {
        "serve.epochs": played.stats["epochs"],
        "serve.protocol_messages": played.stats["messages"],
        "serve.ops_per_epoch": len(played.requests) / len(epochs),
        "serve.members_mean":
            sum(report.members for report in reports) / len(reports),
        "serve.epoch_exec_p50_ms": 1e3 * ref(percentile(exec_s, 0.50)),
        "serve.epoch_exec_p95_ms": 1e3 * ref(percentile(exec_s, 0.95)),
        "serve.epoch_busy_share":
            sum(exec_s) / (played.stats["shards"] * length),
        "apps.run_epoch_s": ref(sum(
            span["end"] - span["start"] for span in run_epochs)),
        "serve.shard_overhead_s": ref(sum(
            recorder.self_time(epoch) for epoch in epochs)),
        "serve.wait_p50_ms": percentile(waits, 0.50),
        "serve.wait_p95_ms": percentile(waits, 0.95),
        "serve.resolve_p95_ms": percentile(resolves, 0.95),
        "serve.lookup_mean_us": 1e6 * ref(played.lookup_s / played.lookups),
        "serve.lookups": played.lookups,
        "serve.retries": played.stats["retries"],
        "serve.degraded": played.stats["failures"],
        "serve.late_p95_ms": 1e3 * percentile(played.late, 0.95),
        "serve.drain_s": played.end - played.last_due,
        "bench.machine_speed": played.speed,
    }
