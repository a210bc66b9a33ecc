"""Load generation and latency measurement for the renaming service.

A :class:`LoadProfile` describes a workload as a small frozen value:
how many client identities, how many requests, the rename / lookup /
release mix, the (virtual) arrival rate, and the service shape the
benchmark should stand up.  :func:`generate_trace` expands a profile
into a concrete request *trace* — a pure function of the profile (one
seeded :class:`random.Random`, no wall clock anywhere), so the same
profile always produces the identical trace, and — every request
carrying its arrival stamp onto its lane's clock — the identical batch
boundaries and the identical answer to every lookup.  That property is
asserted by ``tests/test_serve_ab.py`` and is what lets a serial
reference loop reproduce the concurrent service's counted results,
reads included, bit for bit.

:func:`run_load` plays a trace against a started
:class:`~repro.serve.service.RenamingService`: open-loop dispatch in
trace order, per-request latency measured from submission to future
resolution, lookups as stamped reads (``lookup_at``) ordered on the
lane like everything else.  :func:`execute_profile` is the one-call
harness — build service, play trace, collect stats/histograms/phases —
used by the ``serve`` engine driver and ``benchmarks/serve.py``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import asdict, dataclass, replace
from random import Random
from typing import Mapping, Optional, Sequence

from repro.serve.resilience import ResilienceSpec
from repro.serve.service import (
    DeadlineExceeded,
    NotRenamed,
    RenamingService,
    RequestShed,
    ShardDegraded,
)
from repro.serve.sharding import LOOKUP, RELEASE, RENAME

#: Histogram bucket for requests that failed (degraded / shed /
#: deadline / error): kept out of the per-kind p50/p95/p99, which
#: measure only requests the service actually answered.
FAILED = "failed"


@dataclass(frozen=True)
class LoadProfile:
    """One serving workload, small enough to be a cache key.

    ``arrival_rate`` and ``max_wait`` are in *virtual* seconds —
    together with the weights they determine the batch shapes; the
    dispatcher replays arrivals as fast as it can.
    """

    clients: int = 256
    requests: int = 120_000
    shards: int = 4
    max_batch: int = 64
    max_wait: float = 0.1
    arrival_rate: float = 20_000.0
    rename_weight: float = 6.0
    lookup_weight: float = 90.0
    release_weight: float = 4.0
    namespace: int = 1 << 20
    seed: int = 0

    def __post_init__(self):
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.namespace < self.clients:
            raise ValueError(
                f"namespace {self.namespace} smaller than "
                f"clients={self.clients}"
            )
        if self.rename_weight <= 0:
            raise ValueError("rename_weight must be positive (the first "
                             "request has nothing to look up)")
        if min(self.lookup_weight, self.release_weight) < 0:
            raise ValueError("mix weights must be non-negative")
        if self.arrival_rate <= 0:
            raise ValueError(
                f"arrival_rate must be positive, got {self.arrival_rate}"
            )

    def scaled(self, **overrides) -> "LoadProfile":
        """A copy with fields replaced (``dataclasses.replace``)."""
        return replace(self, **overrides)


#: The benchmark's default workload: 120k requests — mostly lookups,
#: with enough rename/release churn to keep every shard's epoch loop
#: busy — against 4 shards of ~64 members each.
DEFAULT_PROFILE = LoadProfile()

#: CI smoke: small and fast, same shape.
QUICK_PROFILE = LoadProfile(clients=48, requests=4_000, shards=2,
                            max_batch=32)


@dataclass(frozen=True)
class Request:
    """One trace entry.  ``arrival`` is virtual seconds from start."""

    index: int
    arrival: float
    kind: str
    uid: int


def generate_trace(profile: LoadProfile) -> list[Request]:
    """Expand a profile into its request trace — pure and seeded.

    Arrivals are a Poisson process at ``arrival_rate``; kinds are drawn
    from the mix weights with feasibility fallbacks (can't look up
    before anything is named, can't release with nobody active, can't
    rename with every client active).  Renames pick an inactive client,
    releases an active one, lookups any identity ever named — so a
    lookup can miss (identity released), which the service must answer,
    not error on.
    """
    rng = Random(profile.seed)
    uids = sorted(rng.sample(
        range(1, profile.namespace + 1), profile.clients,
    ))
    inactive = list(uids)
    active: list[int] = []
    named: list[int] = []
    named_set: set[int] = set()
    rename_cut = profile.rename_weight
    lookup_cut = rename_cut + profile.lookup_weight
    total = lookup_cut + profile.release_weight
    trace: list[Request] = []
    arrival = 0.0
    for index in range(profile.requests):
        arrival += rng.expovariate(profile.arrival_rate)
        draw = rng.random() * total
        if draw < rename_cut:
            kind = RENAME
        elif draw < lookup_cut:
            kind = LOOKUP
        else:
            kind = RELEASE
        # Feasibility fallbacks, in dependency order.
        if kind == LOOKUP and not named:
            kind = RENAME
        if kind == RELEASE and not active:
            kind = RENAME
        if kind == RENAME and not inactive:
            kind = LOOKUP
        if kind == RENAME:
            slot = rng.randrange(len(inactive))
            inactive[slot], inactive[-1] = inactive[-1], inactive[slot]
            uid = inactive.pop()
            active.append(uid)
            if uid not in named_set:
                named_set.add(uid)
                named.append(uid)
        elif kind == RELEASE:
            slot = rng.randrange(len(active))
            active[slot], active[-1] = active[-1], active[slot]
            uid = active.pop()
            inactive.append(uid)
        else:
            uid = named[rng.randrange(len(named))]
        trace.append(Request(index, arrival, kind, uid))
    return trace


def trace_digest(trace: Sequence[Request]) -> str:
    """Stable content hash of a trace (for determinism assertions)."""
    hasher = hashlib.sha256()
    for op in trace:
        hasher.update(
            f"{op.index} {op.arrival:.9f} {op.kind} {op.uid}\n".encode()
        )
    return hasher.hexdigest()


class LatencyHistogram:
    """Accumulates request latencies; summarizes p50/p95/p99."""

    __slots__ = ("_samples",)

    def __init__(self):
        self._samples: list[float] = []

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)

    def __len__(self) -> int:
        return len(self._samples)

    def summary(self) -> dict:
        """``{count, mean_ms, p50_ms, p95_ms, p99_ms, max_ms}``.

        Quantiles are nearest-rank over the exact sample set (no
        binning): ``p99`` of 10k samples is the 9900th smallest.
        """
        count = len(self._samples)
        if not count:
            return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
                    "p95_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
        ordered = sorted(self._samples)

        def at(q: float) -> float:
            # nearest-rank: ceil(q * count) clamped into [1, count]
            index = max(1, min(count, int(-(-(q * count) // 1))))
            return ordered[index - 1]

        to_ms = lambda s: round(s * 1000.0, 4)  # noqa: E731
        return {
            "count": count,
            "mean_ms": to_ms(sum(ordered) / count),
            "p50_ms": to_ms(at(0.50)),
            "p95_ms": to_ms(at(0.95)),
            "p99_ms": to_ms(at(0.99)),
            "max_ms": to_ms(ordered[-1]),
        }


@dataclass
class LoadReport:
    """What one trace execution measured."""

    requests: int
    wall_s: float
    throughput_rps: float
    renames: int
    releases: int
    lookups: int
    renamed: int
    released: int
    rename_misses: int
    degraded: int
    shed: int
    deadline_expired: int
    errors: int
    unresolved: int
    lookup_hits: int
    lookup_misses: int
    latency: dict

    def as_dict(self) -> dict:
        return asdict(self)


async def run_load(
    service: RenamingService,
    trace: Sequence[Request],
    *,
    yield_every: int = 256,
) -> LoadReport:
    """Play ``trace`` against a started service; measure everything.

    Open loop, in trace order and as fast as possible (yielding to the
    loop every ``yield_every`` requests so epochs overlap with
    dispatch): every request is submitted with its arrival stamp and
    without waiting for completion — state changes through ``submit``,
    lookups through ``lookup_at`` — so batch boundaries and every
    count, lookup hits included, are a pure function of the trace.
    Latency is measured from submission to future resolution by a
    done-callback and is *end-to-end*: a retried request's single
    future resolves only after its final attempt, and a lookup's sample
    is the time to its ordered answer, queueing behind its lane's
    earlier batches included.  Failed requests (degraded / shed /
    deadline / error) land in the ``failed`` histogram, keeping the
    per-kind p50/p95/p99 a statement about answered requests.
    """
    hists = {RENAME: LatencyHistogram(), RELEASE: LatencyHistogram(),
             LOOKUP: LatencyHistogram(), FAILED: LatencyHistogram()}
    counts = {
        "renames": 0, "releases": 0, "lookups": 0,
        "renamed": 0, "released": 0, "rename_misses": 0,
        "degraded": 0, "shed": 0, "deadline_expired": 0, "errors": 0,
        "lookup_hits": 0, "lookup_misses": 0,
    }
    submitted = {RENAME: "renames", RELEASE: "releases", LOOKUP: "lookups"}
    answered = {RENAME: "renamed", RELEASE: "released"}
    futures: list[asyncio.Future] = []
    started = time.perf_counter()
    for op in trace:
        if yield_every and op.index % yield_every == 0:
            await asyncio.sleep(0)
        counts[submitted[op.kind]] += 1
        t0 = time.perf_counter()
        if op.kind == LOOKUP:
            future = service.lookup_at(op.uid, op.arrival)
        else:
            future = service.submit(op.kind, op.uid, op.arrival)

        def _settled(fut: asyncio.Future, kind: str = op.kind,
                     submit_ts: float = t0) -> None:
            if fut.cancelled():
                return  # counted as unresolved at the drain site
            elapsed = time.perf_counter() - submit_ts
            error = fut.exception()
            if error is None:
                hists[kind].record(elapsed)
                if kind == LOOKUP:
                    counts["lookup_hits" if fut.result() is not None
                           else "lookup_misses"] += 1
                else:
                    counts[answered[kind]] += 1
            elif isinstance(error, NotRenamed):
                # Answered, just with "no name": an epoch covered it.
                hists[kind].record(elapsed)
                counts["rename_misses"] += 1
            else:
                hists[FAILED].record(elapsed)
                if isinstance(error, RequestShed):
                    counts["shed"] += 1
                elif isinstance(error, DeadlineExceeded):
                    counts["deadline_expired"] += 1
                elif isinstance(error, ShardDegraded):
                    counts["degraded"] += 1
                else:
                    counts["errors"] += 1

        future.add_done_callback(_settled)
        futures.append(future)
    await service.drain()
    # drain() resolves every accepted request; a future still pending
    # here is a service bug (or an aborted run) — cancel it and count
    # it, never hang on it.
    unresolved = [f for f in futures if not f.done()]
    for future in unresolved:
        future.cancel()
    if futures:
        await asyncio.gather(*futures, return_exceptions=True)
    wall = time.perf_counter() - started
    return LoadReport(
        requests=len(trace),
        wall_s=round(wall, 6),
        throughput_rps=round(len(trace) / wall, 1) if wall else 0.0,
        latency={kind: hist.summary() for kind, hist in hists.items()},
        unresolved=len(unresolved),
        **counts,
    )


def execute_profile(
    profile: LoadProfile,
    *,
    shard_faults: Optional[Mapping[int, object]] = None,
    shard_fault_windows: Optional[Mapping[int, tuple]] = None,
    adversary_factory=None,
    resilience: ResilienceSpec = None,
    config=None,
    observer=None,
    profile_shards: bool = False,
) -> dict:
    """Stand up a service, play the profile's trace, report everything.

    The one-call harness behind ``python -m repro serve`` and the
    ``serve`` engine driver.  Returns a JSON-able report: the profile,
    the trace digest, the :class:`LoadReport` fields, service counters,
    per-shard rows, batch boundaries, the per-shard phase breakdown,
    and a global-uniqueness verdict over the final assignment.
    """
    trace = generate_trace(profile)

    async def _run() -> dict:
        service = RenamingService(
            shards=profile.shards,
            namespace=profile.namespace,
            seed=profile.seed,
            max_batch=profile.max_batch,
            max_wait=profile.max_wait,
            config=config,
            shard_faults=shard_faults,
            shard_fault_windows=shard_fault_windows,
            adversary_factory=adversary_factory,
            resilience=resilience,
            observer=observer,
            profile_shards=profile_shards,
        )
        async with service:
            load = await run_load(service, trace)
            assignment = service.assignment()
            globals_ = list(assignment.values())
            histories = service.histories()
            report = {
                "profile": asdict(profile),
                "resilience": (None if service.resilience is None
                               else json.loads(service.resilience.to_json())),
                "trace_sha256": trace_digest(trace),
                **load.as_dict(),
                "service": service.stats(),
                "per_shard": service.per_shard_stats(),
                "boundaries": service.boundaries(),
                "phases": service.phase_report(),
                "assignment_size": len(assignment),
                "unique": len(set(globals_)) == len(globals_),
                "epoch_messages": [
                    report.messages
                    for shard_history in histories
                    for report in shard_history
                ],
                "epoch_bits": [
                    report.bits
                    for shard_history in histories
                    for report in shard_history
                ],
            }
        return report

    return asyncio.run(_run())
