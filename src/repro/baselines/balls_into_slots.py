"""Randomized balls-into-slots renaming (the [3]-style baseline family).

Alistarh, Denysyuk, Rodrigues and Shavit's "balls-into-leaves" solves
strong renaming in ``O(log log f)`` rounds by treating names as leaves
and nodes as balls that race for them with load-balanced random
probes.  This module implements the family's flat core -- random slot
claiming with deterministic conflict resolution -- which preserves the
properties Table 1 charges the family for: all-to-all claim broadcasts
(``Theta(n^2)`` messages over the execution) with small ``O(log N)``-bit
messages, randomized round count concentrated at ``O(log n)``.

One round, for each unnamed node:

1. pick a uniformly random slot among those not known taken;
2. broadcast ``CLAIM(slot, ID)``;
3. the winner of a slot is the smallest identity among the claims a
   node *received* for it; a node takes the slot iff it won in its own
   view, and everybody marks every claimed slot as taken.

Safety under mid-send crashes: a non-crashed claimant's broadcast
reaches everyone, so two *alive* nodes can only contend inside one
round, where the min-identity rule orders them consistently; a slot
whose only claimant crashed is leaked, but at most one slot leaks per
crash, and crashed nodes need no names, so ``n`` slots always suffice.
(Links that forge claims can leak more; a ball left without a free slot
raises :class:`~repro.core.crash_renaming.RenamingFailure`.)

Step 3 reads the same broadcasts at every node that received them, so
the simulator tabulates a round's claims once per *distinct inbox*
(:func:`_claims`, through :func:`repro.sim.columnar.derive`); what is
private to a ball -- its coin, the slots it has seen taken -- stays in
its program.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from repro.adversary.base import CrashAdversary
from repro.core.crash_renaming import RenamingFailure
from repro.sim.columnar import derive
from repro.sim.messages import CostModel, Envelope, Message, broadcast
from repro.sim.node import Context, Process, Program
from repro.sim.runner import ExecutionResult, admit_identities, run_network

#: Safety valve: the adversary cannot stall the protocol this long
#: (the per-round success probability is constant), so exceeding it
#: indicates a bug rather than bad luck.
MAX_CLAIM_ROUNDS = 10_000


@dataclass(frozen=True)
class SlotClaim(Message):
    """``CLAIM(slot, ID)``: one ball racing for one leaf."""

    slot: int
    uid: int

    def payload_bits(self, cost: CostModel) -> int:
        return cost.index_bits + cost.id_bits


@dataclass(frozen=True)
class SlotRelease(Message):
    """Keep-alive of a named node: re-announces its final slot so late
    observers cannot mistake the slot for free."""

    slot: int
    uid: int

    def payload_bits(self, cost: CostModel) -> int:
        return cost.index_bits + cost.id_bits


def _claims(envelopes: Sequence[Envelope]
            ) -> tuple[Mapping[int, int], frozenset[int], bool]:
    """One round's broadcasts as every node that received them reads
    them: the smallest identity claiming each claimed slot, every slot
    named (claimed or re-announced), and whether any claim was fresh.
    Computed once per distinct inbox (:func:`repro.sim.columnar.derive`).
    """
    winners: dict[int, int] = {}
    named: set[int] = set()
    for envelope in envelopes:
        message = envelope.message
        if isinstance(message, SlotClaim):
            slot = message.slot
            best = winners.get(slot)
            if best is None or message.uid < best:
                winners[slot] = message.uid
            named.add(slot)
        elif isinstance(message, SlotRelease):
            named.add(message.slot)
    return MappingProxyType(winners), frozenset(named), bool(winners)


class BallsIntoSlotsNode(Process):
    """One participant of the balls-into-slots baseline.

    ``slots`` is the target namespace size ``M`` (Definition 1.1 allows
    any ``n <= M < N``).  ``M = n`` (default) is strong renaming --
    the hardest case, where the last contenders race for the last few
    slots.  ``M = (1 + eps) n`` is *loose* renaming: the slack keeps
    the collision probability per probe below eps/(1+eps), so the race
    finishes in O(log(1/eps))-ish rounds instead of O(log n) -- the
    classical time-for-namespace trade, measured in experiment F13.
    """

    def __init__(self, uid: int, slots: Optional[int] = None):
        super().__init__(uid)
        self.slots = slots
        self.my_slot: Optional[int] = None
        self.rounds_to_name: Optional[int] = None

    def program(self, ctx: Context) -> Program:
        n = ctx.n
        slot_count = self.slots if self.slots is not None else n
        if slot_count < n:
            raise ValueError(
                f"target namespace M={slot_count} smaller than n={n}"
            )
        taken: set[int] = set()
        quiescent = False
        round_index = 0
        while True:
            round_index += 1
            if round_index > MAX_CLAIM_ROUNDS:  # pragma: no cover
                raise RuntimeError(f"node {self.uid}: claim race stalled")

            my_claim: Optional[int] = None
            if self.my_slot is None:
                free = [slot for slot in range(1, slot_count + 1)
                        if slot not in taken]
                if not free:
                    # Only links that invent claims can leak more slots
                    # than there are crashes.  Nobody got a wrong name.
                    raise RenamingFailure(
                        f"node {self.uid}: no free slots left"
                    )
                my_claim = free[ctx.rng.randrange(len(free))]
                outgoing = broadcast(n, SlotClaim(my_claim, self.uid))
            elif quiescent:
                # Last round carried no fresh claims: every alive node is
                # named (unnamed nodes always claim), so the race is over.
                return self.my_slot
            else:
                # Keep the slot visible to stragglers until quiescence.
                outgoing = broadcast(n, SlotRelease(self.my_slot, self.uid))
            inbox = yield outgoing

            winners, named, fresh_claims = derive(inbox, _claims)
            # Only the news: `|=` would presize for a disjoint union and
            # double every node's table on the overlap it mostly is.
            taken.update(named - taken)
            if (my_claim is not None
                    and winners.get(my_claim, self.uid) >= self.uid):
                self.my_slot = my_claim
                self.rounds_to_name = round_index
            quiescent = not fresh_claims


def run_balls_into_slots(
    uids: Sequence[int],
    *,
    namespace: Optional[int] = None,
    slots: Optional[int] = None,
    adversary: Optional[CrashAdversary] = None,
    **network: object,
) -> ExecutionResult:
    """Run the balls-into-slots baseline for nodes with ids ``uids``.

    ``slots`` is the target namespace ``M`` (default ``n``: strong
    renaming); pass ``M > n`` for loose renaming.  ``network`` is
    handed to :func:`repro.sim.runner.run_network` as it stands.
    """
    uids, cost = admit_identities(uids, namespace, floor=slots or 0)
    if slots is not None and slots < len(uids):
        raise ValueError(
            f"target namespace M={slots} smaller than n={len(uids)}"
        )
    processes = [BallsIntoSlotsNode(uid, slots=slots) for uid in uids]
    return run_network(processes, cost, crash_adversary=adversary, **network)
