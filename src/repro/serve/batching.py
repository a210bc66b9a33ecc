"""Epoch batching: coalesce pending renames into protocol executions.

One renaming epoch runs the protocol among the joiners it names, all
at once: its rounds are paid per *epoch*, not per request, and a
rename and a release of one identity in one batch cancel — so the
service coalesces requests into batches and runs one epoch per batch.
:class:`EpochBatcher` implements the policy:

* a batch closes as soon as it holds ``max_batch`` operations
  (``"full"``), or
* when a new operation arrives after the open batch's deadline
  (``first_arrival + max_wait``) has passed (``"deadline"`` — the
  late arrival starts the next batch), or
* when the owner flushes explicitly (``"drain"`` at shutdown,
  ``"timeout"`` from a live lane's alarm).

Decisions use only the submitted operations' *arrival stamps* and
counts — the batcher never reads a clock.  Its time is its lane's
clock (:mod:`repro.serve.service`): fed the stamps of a generated
trace, batch boundaries are a pure function of the trace and the
policy — byte-identical across runs, event-loop schedules, and
processes, which is what makes the serial A/B reference in
``tests/test_serve_ab.py`` exact and the load benchmark replayable.
On a live lane the *service* stamps with ``loop.time()`` and its one
alarm, armed for :attr:`EpochBatcher.deadline`, calls
:meth:`EpochBatcher.flush`; the policy stays the same, only the clock
is real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.serve.sharding import ShardOp

#: Why a batch closed, in the order the rules are checked.
CLOSE_FULL = "full"
CLOSE_DEADLINE = "deadline"
CLOSE_DRAIN = "drain"
CLOSE_TIMEOUT = "timeout"


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing knobs: size trigger and waiting-time trigger.

    ``max_wait`` is in the unit of the arrival stamps (virtual seconds
    for a generated trace, real seconds on a live lane); ``None``
    disables the deadline rule, leaving only size and explicit flush.
    """

    max_batch: int = 64
    max_wait: Optional[float] = 0.1

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait is not None and self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")


@dataclass(frozen=True)
class Batch:
    """One closed batch: the epoch's work order."""

    shard: int
    index: int
    ops: tuple[ShardOp, ...]
    first_arrival: float
    last_arrival: float
    reason: str

    def __len__(self) -> int:
        return len(self.ops)

    def boundary(self) -> dict:
        """The batch's identity for determinism comparisons — every
        field that defines *which* requests landed in it and why it
        closed, none that depend on wall clock."""
        return {
            "shard": self.shard,
            "batch": self.index,
            "size": len(self.ops),
            "reason": self.reason,
            "first": self.ops[0].index,
            "last": self.ops[-1].index,
        }


class EpochBatcher:
    """Accumulates one shard's pending operations into batches.

    Not thread-safe by design: the service only touches it from the
    event loop, the serial reference from one thread.
    """

    def __init__(self, shard: int, policy: BatchPolicy):
        self.shard = shard
        self.policy = policy
        self.closed = 0
        #: Boundary records of every closed batch, in close order.
        self.boundaries: list[dict] = []
        self._pending: list[ShardOp] = []
        self._arrivals: list[float] = []

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def deadline(self) -> Optional[float]:
        """When the open batch expires, or ``None`` (empty/no rule)."""
        if not self._pending or self.policy.max_wait is None:
            return None
        return self._arrivals[0] + self.policy.max_wait

    def offer(self, op: ShardOp, arrival: float) -> list[Batch]:
        """Submit one operation; returns the batches this closed.

        Usually empty or one batch; two when ``max_batch == 1`` races a
        passed deadline.  ``arrival`` stamps must be non-decreasing per
        batcher; the service's front door checks, the batcher does not.
        """
        closed: list[Batch] = []
        deadline = self.deadline
        if deadline is not None and arrival > deadline:
            closed.append(self._close(CLOSE_DEADLINE))
        self._pending.append(op)
        self._arrivals.append(arrival)
        if len(self._pending) >= self.policy.max_batch:
            closed.append(self._close(CLOSE_FULL))
        return closed

    def flush(self, reason: str = CLOSE_DRAIN) -> Optional[Batch]:
        """Close the open batch regardless of size; ``None`` if empty."""
        if not self._pending:
            return None
        return self._close(reason)

    def _close(self, reason: str) -> Batch:
        batch = Batch(
            shard=self.shard,
            index=self.closed,
            ops=tuple(self._pending),
            first_arrival=self._arrivals[0],
            last_arrival=self._arrivals[-1],
            reason=reason,
        )
        self.closed += 1
        self.boundaries.append(batch.boundary())
        self._pending.clear()
        self._arrivals.clear()
        return batch


def plan_batches(
    shard: int, ops: Sequence[tuple[ShardOp, float]], policy: BatchPolicy
) -> list[Batch]:
    """Pure batch plan for one shard's ``(op, arrival)`` stream.

    Exactly the batches a service produces for the same stamped
    stream — the serial reference uses this to mirror the concurrent
    execution batch for batch.
    """
    batcher = EpochBatcher(shard, policy)
    batches: list[Batch] = []
    for op, arrival in ops:
        batches.extend(batcher.offer(op, arrival))
    tail = batcher.flush(CLOSE_DRAIN)
    if tail is not None:
        batches.append(tail)
    return batches
