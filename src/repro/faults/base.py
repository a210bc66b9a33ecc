"""Link-level fault-model interface.

The crash adversary ("Eve") decides which *nodes* fail; a
:class:`FaultModel` decides what the *links* do to the messages that
survive her.  It sits between the applied crash plan and envelope
delivery inside :class:`repro.sim.network.SyncNetwork`: once per round
the network shows it every sender's resolved outgoing sends (after
mid-send crashes removed their share) and it answers with a
:data:`RoundFaultPlan` — a per-send verdict addressed by ``(sender,
send index)``, the position convention of crash plans
(:func:`repro.adversary.base.kept_indices`), so a fault decision names
one concrete transmitted message even when a sender proposes duplicate
identical sends.

Verdicts and their semantics (anything unnamed is delivered normally):

``drop``
    Omission: the message was transmitted (and is charged to the bit
    ledgers) but never arrives.
``duplicate``
    The link delivers ``1 + copies`` envelopes around the same message.
    The sender transmitted once, so the ledgers charge once; receivers
    simply observe repeats.
``corrupt``
    The receiver gets a deterministically bit-flipped copy of the
    message (see :func:`corrupt_message`); the original is charged, so
    corruption never changes a counted quantity.
``hold``
    Partition: the envelope is buffered by the network and delivered in
    ``release_round`` (if the receiver is still alive then).  Charged
    at transmission time.

Because the ledgers charge every resolved send exactly once regardless
of its verdict, an attached fault model never changes message/bit
accounting — only *delivery* — which is what lets the falsification
monitors compare faulted executions against the paper's bounds.

Fault models are single-use, like adversaries: build a fresh instance
(see :mod:`repro.faults.spec`) for every execution.  All randomized
models draw from their own seeded :class:`random.Random`, consumed in a
deterministic order over ``(round, sender, index)``, so an execution is
a pure function of ``(protocol, seeds, crash schedule, fault spec)``
and replays exactly under :mod:`repro.falsify.replay`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:  # annotations only, to avoid an import cycle
    from repro.sim.messages import Message, Send

#: sender link index -> send index -> verdict for this round's sends.
RoundFaultPlan = Mapping[int, Mapping[int, "FaultVerdict"]]

#: The four non-trivial verdict kinds (absence means "deliver").
DROP = "drop"
DUPLICATE = "duplicate"
CORRUPT = "corrupt"
HOLD = "hold"

FAULT_KINDS = (DROP, DUPLICATE, CORRUPT, HOLD)


class FaultPlanError(ValueError):
    """A fault model returned an invalid plan (bad index, kind, or
    release round)."""


@dataclass(frozen=True, slots=True)
class FaultVerdict:
    """One link-level decision about one resolved send.

    ``copies`` is the number of *extra* envelopes a ``duplicate``
    verdict delivers; ``release_round`` is the absolute round a ``hold``
    verdict delays delivery to (must be after the current round);
    ``salt`` seeds the deterministic bit-flip of a ``corrupt`` verdict.
    """

    kind: str
    copies: int = 1
    release_round: int = 0
    salt: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.kind == DUPLICATE and self.copies < 1:
            raise FaultPlanError(
                f"duplicate verdict needs copies >= 1, got {self.copies}"
            )


def drop() -> FaultVerdict:
    return FaultVerdict(DROP)


def duplicate(copies: int = 1) -> FaultVerdict:
    return FaultVerdict(DUPLICATE, copies=copies)


def corrupt(salt: int = 0) -> FaultVerdict:
    return FaultVerdict(CORRUPT, salt=salt)


def hold(release_round: int) -> FaultVerdict:
    return FaultVerdict(HOLD, release_round=release_round)


@dataclass
class FaultStats:
    """What the network actually applied, tallied per execution.

    Every envelope a ``hold`` verdict buffered gets exactly one
    terminal disposition, so ``held == released + released_to_dead +
    in_flight()`` holds at every instant:

    ``released``
        Delivered to a still-alive receiver at its release round.
    ``released_to_dead``
        Reached its release round after the receiver crashed or
        terminated — the envelope vanishes, the count does not.
    ``expired``
        Still buffered when the run ended (release round beyond the
        last executed round); the run-end drain books each one here and
        emits a ``fault.expire`` event, so after a completed run
        ``in_flight() == expired``.
    """

    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    held: int = 0
    released: int = 0
    released_to_dead: int = 0
    expired: int = 0

    def as_dict(self) -> dict:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "held": self.held,
            "released": self.released,
            "released_to_dead": self.released_to_dead,
            "expired": self.expired,
        }

    def in_flight(self) -> int:
        """Held mail with no delivery disposition yet.

        Mid-run this counts envelopes still buffered for a future
        release round; after the run-end drain it equals ``expired``
        (terminal accounting for mail the run never released).
        """
        return self.held - self.released - self.released_to_dead

    @property
    def total(self) -> int:
        return self.dropped + self.duplicated + self.corrupted + self.held


class FaultModel:
    """Base class; subclasses implement :meth:`plan_round`.

    The default implementation is the fault-free channel (it never
    issues a verdict), so subclasses only override what they perturb.
    """

    def plan_round(
        self,
        round_no: int,
        delivered: Mapping[int, "Sequence[Send]"],
        alive: frozenset[int],
    ) -> RoundFaultPlan:
        """Decide this round's link faults.

        ``delivered`` maps each alive sender to its resolved outgoing
        sends — *after* the crash adversary's plan was applied, so a
        verdict always targets a message the network would otherwise
        deliver.  Like crash adversaries, fault models may receive lazy
        :class:`~repro.sim.messages.Multicast` sequences; ``len()`` is
        free, and indexing materializes stable ``Send`` instances.
        Implementations must iterate senders and indices in a
        deterministic order (sorted) so seeded decisions replay.
        """
        return {}

    def describe(self) -> str:
        return type(self).__name__


class NoFaults(FaultModel):
    """The reliable channel — behaviourally identical to passing
    ``fault_model=None``, but exercising the faulted delivery path
    (useful for A/B tests)."""


def corrupt_message(message: "Message", salt: int) -> "Message":
    """A deterministically corrupted copy of a frozen message.

    Picks one integer field (by ``salt``) and flips one of its low 16
    bits — a minimal, targeted violation of the channel's integrity
    that field-level digest checks (:mod:`repro.crypto.hashing`) are
    designed to catch.  Messages with no integer fields, or whose
    validation rejects the flipped value, pass through unchanged: the
    channel can only corrupt what the wire format can express.
    """
    try:
        fields = dataclasses.fields(message)
    except TypeError:
        return message
    int_fields = [
        f.name for f in fields
        if isinstance(getattr(message, f.name), int)
        and not isinstance(getattr(message, f.name), bool)
    ]
    if not int_fields:
        return message
    name = int_fields[salt % len(int_fields)]
    flipped = getattr(message, name) ^ (1 << (salt % 16))
    try:
        return dataclasses.replace(message, **{name: flipped})
    except Exception:
        return message


def validate_plan(
    plan: RoundFaultPlan,
    round_no: int,
    delivered: Mapping[int, "Sequence[Send]"],
) -> None:
    """Reject malformed plans before any delivery state changes.

    Mirrors the atomic-rejection contract of
    ``SyncNetwork._apply_crash_plan``: a bad plan raises
    :class:`FaultPlanError` and the round is left untouched.
    """
    for sender, verdicts in plan.items():
        sends = delivered.get(sender)
        if sends is None:
            raise FaultPlanError(
                f"round {round_no}: fault plan names sender {sender}, "
                f"which resolved no sends this round"
            )
        limit = len(sends)
        for index, verdict in verdicts.items():
            if not 0 <= index < limit:
                raise FaultPlanError(
                    f"round {round_no}: sender {sender} verdict index "
                    f"{index} outside [0, {limit})"
                )
            if not isinstance(verdict, FaultVerdict):
                raise FaultPlanError(
                    f"round {round_no}: sender {sender} index {index}: "
                    f"expected a FaultVerdict, got {type(verdict).__name__}"
                )
            if verdict.kind == HOLD and verdict.release_round <= round_no:
                raise FaultPlanError(
                    f"round {round_no}: hold verdict for sender {sender} "
                    f"index {index} releases at round "
                    f"{verdict.release_round}, which is not in the future"
                )
