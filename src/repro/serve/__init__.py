"""Renaming as a service: asyncio front door over sharded epochs.

The serving layer promotes the epoch-based
:class:`~repro.apps.overlay_directory.OverlayDirectory` into a
long-lived concurrent service:

* :mod:`repro.serve.service` — the asyncio :class:`RenamingService`
  accepting rename / lookup / release from many clients;
* :mod:`repro.serve.batching` — deterministic epoch batching
  (``max_batch`` / ``max_wait``);
* :mod:`repro.serve.sharding` — namespace partitioning into
  independent directories with globally unique interleaved ids;
* :mod:`repro.serve.resilience` — deadlines, seeded retry backoff, and
  the per-shard circuit breaker;
* :mod:`repro.serve.chaos` — the serve-level degradation ladder and
  the classification of a run under it (resilient vs baseline);
* :mod:`repro.serve.loadgen` — seeded load profiles, trace generation,
  latency histograms, and the one-call load harness;
* :mod:`repro.serve.driver` — the ``serve`` sweep-engine driver.

Its ``serve.*`` events are ordinary ``repro.obs/events@1`` events,
their data fields in :data:`repro.obs.events.EVENT_KINDS`.
"""

from repro.serve.batching import (
    Batch,
    BatchPolicy,
    EpochBatcher,
    plan_batches,
)
from repro.serve.chaos import (
    DEFAULT_CHAOS_RESILIENCE,
    classify_serve_run,
    default_chaos_ladder,
)
from repro.serve.loadgen import (
    LatencyHistogram,
    LoadProfile,
    LoadReport,
    Request,
    execute_profile,
    generate_trace,
    run_load,
    trace_digest,
)
from repro.serve.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    RetryBacklog,
    classify_failure,
    retry_delay,
)
from repro.serve.service import (
    DeadlineExceeded,
    NotRenamed,
    RenamingService,
    RequestShed,
    ServeError,
    ShardDegraded,
)
from repro.serve.sharding import (
    EpochOutcome,
    Shard,
    ShardOp,
    global_compact,
    net_delta,
    shard_of,
    split_compact,
)

__all__ = [
    "Batch",
    "BatchPolicy",
    "CircuitBreaker",
    "DEFAULT_CHAOS_RESILIENCE",
    "DeadlineExceeded",
    "EpochBatcher",
    "EpochOutcome",
    "LatencyHistogram",
    "LoadProfile",
    "LoadReport",
    "NotRenamed",
    "RenamingService",
    "Request",
    "RequestShed",
    "ResiliencePolicy",
    "RetryBacklog",
    "ServeError",
    "Shard",
    "ShardDegraded",
    "ShardOp",
    "classify_failure",
    "classify_serve_run",
    "default_chaos_ladder",
    "execute_profile",
    "generate_trace",
    "global_compact",
    "net_delta",
    "plan_batches",
    "retry_delay",
    "run_load",
    "shard_of",
    "split_compact",
    "trace_digest",
]
