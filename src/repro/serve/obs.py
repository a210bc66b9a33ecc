"""The ``repro.obs/serve@2`` event surface of the serving layer.

Version 2 (the resilience PR) adds the retry/breaker/shed/deadline
kinds and requires a failure taxonomy ``failure`` on
``serve.epoch.failed`` / ``serve.shard.degraded``.  Every @1 event is
still emitted with all its @1 fields, so @1 consumers keep working.

Serve events ride the existing :mod:`repro.obs` recorder — they are
ordinary ``repro.obs/events@1`` events whose ``kind`` is dotted under
``serve.`` — so `python -m repro obs tail` validates and prints them
like any other stream.  This module pins the *serve-specific* contract
on top: which kinds exist and which ``data`` fields each must carry,
so CI and tests can schema-validate a service run, not just the
generic envelope.

Events are emitted only from the event-loop thread (batch lifecycle,
epoch results, degradation), never from inside a shard's protocol
execution — per-request emission would melt the ring buffer at
100k+ requests per run, and the protocol's own round events stay
available by running a directory epoch with an observer
(``OverlayDirectory.run_epoch(observer=...)``).
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.events import validate_kinds

#: Format tag for the serve event family.
SERVE_EVENT_FORMAT = "repro.obs/serve@2"

#: Required ``data`` fields per serve event kind.
SERVE_EVENT_KINDS: dict[str, tuple[str, ...]] = {
    # Service lifecycle.
    "serve.start": ("shards", "max_batch"),
    "serve.drain": ("flushed",),
    "serve.stop": ("epochs", "failed_epochs"),
    # Batch lifecycle (one per closed batch).
    "serve.batch.close": ("shard", "batch", "size", "reason"),
    # Epoch execution (bracket one shard epoch off the event loop).
    # ``attempt`` is 0 for a batch's first execution, k for its k-th
    # retry (the retry seed salt).
    "serve.epoch.begin": ("shard", "epoch", "ops", "attempt"),
    "serve.epoch.end": ("shard", "epoch", "members", "renamed",
                        "departed", "rounds", "messages", "bits",
                        "wall_s"),
    "serve.epoch.empty": ("shard", "ops"),
    # ``failure`` is the taxonomy ("faults" / "non_termination" /
    # "rename_failed" / "error"); the field is not named ``kind``
    # because the event envelope reserves that for the event name.
    "serve.epoch.failed": ("shard", "epoch", "failure", "attempt", "error",
                           "wall_s"),
    # A shard served a batch it could not complete; the service keeps
    # serving every other shard.
    "serve.shard.degraded": ("shard", "failures", "failure"),
    # Resilience (emitted only with a resilience policy attached).
    # A failed batch's survivors were scheduled for re-execution.
    "serve.retry": ("shard", "batch", "attempt", "ops", "delay_s"),
    # The shard's breaker opened (threshold consecutive failures, or a
    # failed half-open probe), went half-open (cooldown elapsed; next
    # execution is the probe), or closed (the probe succeeded).
    "serve.breaker.open": ("shard", "failures"),
    "serve.breaker.half_open": ("shard",),
    "serve.breaker.close": ("shard",),
    # Ops failed fast because the open shard's backlog was full.
    "serve.shed": ("shard", "ops", "depth"),
    # Ops cancelled because their per-request deadline passed.
    "serve.deadline": ("shard", "expired", "attempt"),
}


def validate_serve_events(events: Iterable[dict]) -> list[str]:
    """Serve-contract validation on top of the generic event schema:
    every ``serve.*`` event against :data:`SERVE_EVENT_KINDS` (see
    :func:`repro.obs.events.validate_kinds`)."""
    return validate_kinds(events, "serve", SERVE_EVENT_KINDS)
