"""The ``serve`` sweep-engine driver: one load execution per row.

Lets ``python -m repro sweep --driver serve`` scale the *service* the
way the other drivers scale a single protocol execution: ``n`` is the
number of client identities, ``f`` the number of shards degraded by an
injected fault spec, and the extra scalar params pick the service
shape (shards, batch policy) and the workload (requests, rate, mix).
Every knob is a JSON scalar, so rows stay content-addressable in the
engine's run store and replay bit-exactly: the trace, the batch
boundaries, and each shard's protocol randomness all derive from
``seed`` alone.  What the execution read off a clock (wall time,
throughput, rename latency) rides in ``row["telemetry"]``, which the
engine moves to the run's telemetry before the row is stored.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.serve.loadgen import LoadProfile, execute_profile

#: Spec injected into each of the first ``f`` shards when the caller
#: does not pass one: total omission, which makes every epoch on those
#: shards fail — the worst case the degradation frontier measures.
DEFAULT_FAULT_SPEC = '[{"kind": "omission", "p": 1.0}]'


def serve_run_summary(
    n: int,
    f: int,
    seed: int,
    *,
    requests: Optional[int] = None,
    shards: int = 4,
    max_batch: int = 64,
    max_wait: float = 0.1,
    arrival_rate: float = 20_000.0,
    rename_weight: float = 6.0,
    lookup_weight: float = 90.0,
    release_weight: float = 4.0,
    namespace: Optional[int] = None,
    faults: str = DEFAULT_FAULT_SPEC,
    fault_window: Optional[str] = None,
    resilience: Optional[str] = None,
    include_rounds: bool = False,
) -> dict:
    """One service load execution as a flat engine row.

    ``n`` = client identities, ``f`` = shards (indices ``0..f-1``)
    running every epoch under the ``faults`` spec (a JSON string, like
    the ``faults`` driver's).  ``fault_window`` (JSON ``[start, stop]``,
    1-based attempts, half-open) bounds the injection to a transient
    outage on those shards; ``resilience`` is a JSON
    :class:`~repro.serve.resilience.ResiliencePolicy` spec (``"{}"``
    for all defaults) enabling retries / breaker / deadlines — both
    plain JSON strings so rows stay content-addressable.  ``requests``
    defaults to ``40 * n`` so sweeps over ``n`` keep per-client load
    constant.  With ``include_rounds`` the ledger columns carry
    *per-epoch* totals (ordered by shard, then epoch) rather than
    per-round ones — an epoch is the service's unit of protocol work.
    """
    if not 0 <= f <= shards:
        raise ValueError(f"f={f} must be within [0, shards={shards}]")
    profile = LoadProfile(
        clients=n,
        requests=40 * n if requests is None else requests,
        shards=shards,
        max_batch=max_batch,
        max_wait=max_wait,
        arrival_rate=arrival_rate,
        rename_weight=rename_weight,
        lookup_weight=lookup_weight,
        release_weight=release_weight,
        namespace=namespace if namespace is not None else max(1 << 20, n),
        seed=seed,
    )
    spec = json.loads(faults)
    shard_faults = {shard: spec for shard in range(f)} if f else None
    windows = None
    if fault_window is not None and f:
        start, stop = json.loads(fault_window)
        windows = {shard: (start, stop) for shard in range(f)}
    report = execute_profile(profile, shard_faults=shard_faults,
                             shard_fault_windows=windows,
                             resilience=resilience)
    service = report["service"]
    rename_latency = report["latency"]["rename"]
    row = {
        "driver": "serve",
        "n": n,
        "f_budget": f,
        "requests": report["requests"],
        "shards": shards,
        "renamed": report["renamed"],
        "released": report["released"],
        "rename_misses": report["rename_misses"],
        "degraded": report["degraded"],
        "shed": report["shed"],
        "deadline_expired": report["deadline_expired"],
        "unresolved": report["unresolved"],
        "lookup_hits": report["lookup_hits"],
        "lookup_misses": report["lookup_misses"],
        "batches": service["batches"],
        "epochs": service["epochs"],
        "failed_epochs": service["failed_epochs"],
        "retries": service["retries"],
        "breaker_opens": service.get("breaker_opens", 0),
        "breaker_closes": service.get("breaker_closes", 0),
        "members": service["members"],
        "rounds": service["rounds"],
        "messages": service["messages"],
        "bits": service["bits"],
        "unique": report["unique"],
        "trace_sha256": report["trace_sha256"],
        "telemetry": {
            "throughput_rps": report["throughput_rps"],
            "wall_s": report["wall_s"],
            "rename_p50_ms": rename_latency["p50_ms"],
            "rename_p99_ms": rename_latency["p99_ms"],
        },
    }
    if include_rounds:
        row["messages_per_round"] = report["epoch_messages"]
        row["bits_per_round"] = report["epoch_bits"]
    return row
