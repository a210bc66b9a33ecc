"""The ``repro.obs/fabric@1`` event surface of the sweep fabric.

Fabric events ride the existing :mod:`repro.obs` recorder — they are
ordinary ``repro.obs/events@1`` events whose ``kind`` is dotted under
``fabric.`` — so ``python -m repro obs tail`` validates and prints
them like any other stream.  This module pins the *fabric-specific*
contract on top: which kinds exist and which ``data`` fields each must
carry, so the chaos tests and CI's ``fabric-smoke`` job can
schema-validate a campaign, not just the generic envelope.

Each worker process writes its own JSONL stream (one file per worker
under the campaign's event directory) — crash forensics must survive
the crash, so events are never funneled through a coordinator that
might be the thing that died.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.events import validate_kinds

#: Format tag for the fabric event family (stamped into status output
#: and checked by CI's fabric-smoke job).
FABRIC_EVENT_FORMAT = "repro.obs/fabric@1"

#: Required ``data`` fields per fabric event kind.
FABRIC_EVENT_KINDS: dict[str, tuple[str, ...]] = {
    # Campaign lifecycle.  ``new`` is how many tasks this enqueue
    # actually inserted (re-enqueueing is idempotent).
    "fabric.campaign.enqueue": ("campaign", "tasks", "new"),
    # Worker lifecycle.  ``reason`` on stop is "drained" (no claimable
    # work left), "sigterm" (graceful drain), or "error".
    "fabric.worker.start": ("worker", "store", "campaign"),
    "fabric.worker.stop": ("worker", "reason", "settled", "failed",
                           "leases_lost"),
    # Lease/settlement state machine.  ``attempt`` is the lease
    # generation (1 = first execution, more after crash recovery).
    "fabric.task.lease": ("campaign", "task", "worker", "attempt",
                          "deadline"),
    # ``renewed`` is False when the heartbeat found the lease gone
    # (reaped, or settled by a competing recovery worker).
    "fabric.task.heartbeat": ("campaign", "task", "worker", "renewed",
                              "deadline"),
    # A stale lease returned to pending; ``owner`` is who lost it.
    "fabric.task.reap": ("campaign", "task", "owner", "attempt"),
    # ``outcome`` is the backend's settle verdict: "settled" (this
    # worker performed the settlement), "already", "lost", "missing".
    # ``cached`` marks runs served from the store without executing;
    # ``run_attempts`` is the execution count recorded on the run row.
    "fabric.task.settle": ("campaign", "task", "worker", "state",
                           "outcome", "cached", "run_attempts",
                           "elapsed_s"),
}


def validate_fabric_events(events: Iterable[dict]) -> list[str]:
    """Fabric-contract validation on top of the generic event schema:
    every ``fabric.*`` event against :data:`FABRIC_EVENT_KINDS` (see
    :func:`repro.obs.events.validate_kinds`)."""
    return validate_kinds(events, "fabric", FABRIC_EVENT_KINDS)
