"""Namespace sharding: independent directory instances behind one door.

The original namespace ``[1, N]`` is hashed across ``shards``
independent :class:`~repro.apps.overlay_directory.OverlayDirectory`
instances.  Each shard runs its own protocol epochs over only the
members hashed to it, so epochs of different shards can execute
concurrently (the service runs them in a thread pool), and a fault
injected into one shard's epochs cannot touch another shard's state.

Compact identities stay globally unique through an interleaved
encoding: shard ``s`` of ``S`` maps its local compact id ``c`` to the
global id ``(c - 1) * S + s + 1``.  When the shards are balanced the
global namespace stays dense to within a factor of the imbalance —
a shard's directory is long-lived (members keep their names, joiners
fill the free slots) and keeps its names inside ``[1, 2 * members]``,
so the global one is ``[1, ~2 * S * max_shard_members]``.

Everything here is deterministic and thread-free: :func:`shard_of` is
a fixed multiplicative hash (never Python's salted ``hash``), and
:meth:`Shard.execute` is a plain blocking function the service calls
via ``run_in_executor`` — one epoch at a time per shard, enforced by
the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.apps.overlay_directory import EpochReport, OverlayDirectory
from repro.core.crash_renaming import CrashRenamingConfig
from repro.faults.degradation import FaultTap
from repro.faults.spec import FaultSpec, build_fault_model, normalize_spec

#: Knuth's multiplicative constant; any odd 32-bit constant with good
#: avalanche works, this one is conventional.
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = 0xFFFFFFFF

#: ``rename``/``release`` are the state-changing operations a batch
#: carries; ``lookup`` never reaches a shard's epoch loop.
RENAME = "rename"
RELEASE = "release"
LOOKUP = "lookup"


def shard_of(uid: int, shards: int) -> int:
    """The shard owning original identity ``uid`` — stable everywhere.

    A fixed multiplicative hash, deliberately not Python's ``hash``:
    the mapping must agree across processes, interpreter versions, and
    ``PYTHONHASHSEED`` values, because it is baked into every stored
    global compact id.
    """
    return ((uid * _HASH_MULTIPLIER) & _HASH_MASK) % shards


def global_compact(local: int, shard: int, shards: int) -> int:
    """Interleave a shard-local compact id into the global namespace."""
    return (local - 1) * shards + shard + 1


def split_compact(global_id: int, shards: int) -> tuple[int, int]:
    """Inverse of :func:`global_compact`: ``(local, shard)``."""
    return (global_id - 1) // shards + 1, (global_id - 1) % shards


def shard_seed(seed: int, shard: int) -> int:
    """Per-shard protocol seed: independent shards, replayable whole."""
    return hash((seed, shard)) & 0x7FFFFFFF


def _check_window(window) -> Optional[tuple[int, int]]:
    """Validate a ``(start, stop)`` attempt window (1-based, half-open)."""
    if window is None:
        return None
    try:
        start, stop = window
    except (TypeError, ValueError):
        raise ValueError(
            f"fault_window must be a (start, stop) pair, got {window!r}"
        ) from None
    start, stop = int(start), int(stop)
    if start < 1 or stop < start:
        raise ValueError(
            f"fault_window needs 1 <= start <= stop, got ({start}, {stop})"
        )
    return (start, stop)


def net_delta(
    members: set[int], ops: Sequence["ShardOp"]
) -> tuple[list[int], list[int]]:
    """Collapse a batch of rename/release ops into ``(joins, leaves)``.

    Processed in arrival order against the shard's *current* members:
    a release cancels a same-batch pending join (the identity was
    given up before any epoch assigned it a name), a rename cancels a
    same-batch pending leave, repeated renames of a member are
    idempotent, and a release of a non-member is a no-op.  The result
    is the batch's net membership change — what one epoch applies.
    """
    joins: list[int] = []
    leaves: list[int] = []
    join_set: set[int] = set()
    leave_set: set[int] = set()
    for op in ops:
        uid = op.uid
        if op.kind == RENAME:
            if uid in join_set:
                continue
            if uid in leave_set:
                leave_set.discard(uid)
                leaves.remove(uid)
                continue
            if uid in members:
                continue
            join_set.add(uid)
            joins.append(uid)
        elif op.kind == RELEASE:
            if uid in join_set:
                join_set.discard(uid)
                joins.remove(uid)
                continue
            if uid in leave_set or uid not in members:
                continue
            leave_set.add(uid)
            leaves.append(uid)
        else:
            raise ValueError(f"batch op kind {op.kind!r} cannot reach a "
                             f"shard epoch")
    return joins, leaves


@dataclass(frozen=True)
class ShardOp:
    """One state-changing request routed to a shard.

    ``index`` is the request's global trace/submission index (used only
    for reporting); ``handle`` is an opaque slot the service uses to
    carry the asyncio future — the sharding layer never touches it.
    ``arrival`` is the request's arrival stamp (virtual or loop time);
    the resilience layer measures per-request deadlines from it.  Both
    are excluded from equality so counted-result comparisons see only
    ``(index, kind, uid)``.
    """

    index: int
    kind: str
    uid: int
    handle: object = field(default=None, compare=False, repr=False)
    arrival: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class EpochOutcome:
    """What one shard epoch produced, for response resolution.

    ``report`` is ``None`` when the batch's net delta emptied the shard
    (every member released): no epoch ran, the assignment is empty.
    """

    shard: int
    epoch: int
    report: Optional[EpochReport]
    assignment: Mapping[int, int]

    @property
    def ran(self) -> bool:
        return self.report is not None


class Shard:
    """One directory partition plus its per-epoch execution policy.

    Wraps an :class:`OverlayDirectory` seeded independently per shard.
    ``fault_spec`` (a :mod:`repro.faults.spec` spec) rebuilds a fresh
    seeded fault model for every epoch, so injected faults replay
    bit-exactly.

    ``fault_window`` bounds the injection to a half-open interval of
    *protocol execution attempts* ``[start, stop)``, 1-based — the
    chaos harness uses it to model a transient outage.  Attempts, not
    epochs: a failed execution rolls back and leaves ``directory.epoch``
    unchanged, so windows keyed on the epoch number would never close
    under total fault.  ``None`` injects into every execution (PR 5/6
    behaviour).
    """

    def __init__(
        self,
        index: int,
        shards: int,
        *,
        namespace: int,
        seed: int = 0,
        config: Optional[CrashRenamingConfig] = None,
        fault_spec: FaultSpec = None,
        fault_window: Optional[tuple[int, int]] = None,
    ):
        self.index = index
        self.shards = shards
        self.seed = shard_seed(seed, index)
        self.fault_spec = normalize_spec(fault_spec)
        self.fault_window = _check_window(fault_window)
        self.directory = OverlayDirectory(
            namespace, config=config, seed=self.seed,
        )
        #: Protocol executions tried so far (failed ones included).
        self.attempts = 0
        #: Fault verdicts issued during the most recent execution
        #: (a ``FaultTap.issued`` snapshot) — empty when no fault model
        #: was active or the channel never lied.
        self.last_fault_issued: dict[str, int] = {}

    def owns(self, uid: int) -> bool:
        return shard_of(uid, self.shards) == self.index

    # -- reads (safe from the event-loop thread) -----------------------

    def lookup(self, uid: int) -> Optional[int]:
        """Current global compact id of ``uid``, or ``None``.

        Safe to call while :meth:`execute` runs on another thread: the
        directory rebinds its lookup tables atomically per epoch, so a
        concurrent reader sees one consistent epoch or the next.
        """
        local = self.directory.compact_id_or_none(uid)
        if local is None:
            return None
        return global_compact(local, self.index, self.shards)

    def global_assignment(self) -> dict[int, int]:
        """``original -> global compact`` for this shard's members."""
        return {
            uid: global_compact(local, self.index, self.shards)
            for uid, local in self.directory.assignment.items()
        }

    # -- epochs (one at a time, off the event loop) --------------------

    def execute(self, ops: Sequence[ShardOp], salt: int = 0) -> EpochOutcome:
        """Apply one batch: net membership delta, then one epoch.

        Blocking; the service calls it via ``run_in_executor`` and
        serializes calls per shard.  On *any* protocol failure the
        membership delta is rolled back and the exception propagates —
        the directory is left exactly as before the batch, so the
        service can fail these requests and keep serving.

        The epoch's protocol run is among its *participants* (the
        batch's net joiners, see :class:`OverlayDirectory`), so the
        fault model is sized to them, and with fewer than two neither
        it nor an adversary is built: nothing is sent, so nothing can
        be dropped or crashed mid-send.  The attempt is counted either
        way — ``fault_window`` is in executed batches.

        ``salt`` distinguishes retries: a rolled-back epoch leaves
        ``directory.epoch`` unchanged, so re-executing with ``salt=0``
        would rebuild the identical protocol seed and fault model and
        fail identically forever.  The resilience layer passes the
        attempt number; ``salt=0`` reproduces the pre-resilience seeds
        byte-for-byte (the A/B contract).
        """
        directory = self.directory
        joins, leaves = net_delta(directory.members, ops)
        for uid in joins:
            directory.join(uid)
        for uid in leaves:
            directory.leave(uid)
        if not directory.members:
            # Net effect emptied the shard: nothing to rename.  The
            # previous assignment is withdrawn (all holders released).
            directory.withdraw_assignment()
            return EpochOutcome(self.index, directory.epoch, None, {})
        epoch = directory.epoch + 1
        self.attempts += 1
        self.last_fault_issued = {}
        tap: Optional[FaultTap] = None
        running = len(directory.participants())
        if (running > 1 and self.fault_spec
                and self._faults_active(self.attempts)):
            if salt:
                fault_seed = hash((self.seed, epoch, salt)) & 0x7FFFFFFF
            else:
                fault_seed = hash((self.seed, epoch)) & 0x7FFFFFFF
            tap = FaultTap(build_fault_model(
                self.fault_spec, running, seed=fault_seed,
            ))
        try:
            report = directory.run_epoch(fault_model=tap, seed_salt=salt)
        except Exception:
            # run_epoch installs atomically, so only the join/leave
            # delta needs undoing.
            if tap is not None:
                self.last_fault_issued = dict(tap.issued)
            for uid in joins:
                directory.leave(uid)
            for uid in leaves:
                directory.join(uid)
            raise
        if tap is not None:
            self.last_fault_issued = dict(tap.issued)
        return EpochOutcome(
            self.index, report.epoch, report, report.assignment,
        )

    def _faults_active(self, attempt: int) -> bool:
        """Whether the fault window covers this (1-based) attempt."""
        if self.fault_window is None:
            return True
        start, stop = self.fault_window
        return start <= attempt < stop

    def resolve(self, outcome: EpochOutcome, op: ShardOp) -> Optional[int]:
        """The response value for ``op`` after its batch's epoch.

        A rename resolves to the uid's *global* compact id in the new
        assignment, or ``None`` when the uid holds no name (released in
        the same batch, or crashed out of the epoch).  A release always
        resolves (idempotent).
        """
        if op.kind == RELEASE:
            return None
        local = outcome.assignment.get(op.uid)
        if local is None:
            return None
        return global_compact(local, self.index, self.shards)
