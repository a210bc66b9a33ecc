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

Step 3 reads the same broadcasts at every node that received them, and
its two rules -- a minimum per slot, a union of named slots -- are
tallies, so the simulator tabulates a round's claims once per *round*
over the broadcasts everybody received (:func:`_claims`, through
:func:`repro.sim.columnar.tally`) and a ball folds in the few claims
only its own inbox holds.  The slots seen taken are kept the same way:
one cumulative ``seen`` set and sorted free tuple per round, shared by
every ball, plus each ball's private set of the slots only it heard
named -- ``O(n + n f)`` memory where a set per ball was ``n^2``.  What
is private to a ball -- its coin, that small set -- stays in its
program.
"""

from __future__ import annotations

from bisect import bisect_left
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from repro.adversary.base import CrashAdversary
from repro.core.crash_renaming import RenamingFailure
from repro.sim.columnar import tally
from repro.sim.messages import CostModel, Message, broadcast, record
from repro.sim.node import Context, Process, Program
from repro.sim.runner import ExecutionResult, admit_identities, run_network

#: Safety valve: the adversary cannot stall the protocol this long
#: (the per-round success probability is constant), so exceeding it
#: indicates a bug rather than bad luck.
MAX_CLAIM_ROUNDS = 10_000


@record
class SlotClaim(Message, fixed_width=True):
    """``CLAIM(slot, ID)``: one ball racing for one leaf."""

    slot: int
    uid: int

    def payload_bits(self, cost: CostModel) -> int:
        return cost.index_bits + cost.id_bits


@record
class SlotRelease(Message, fixed_width=True):
    """Keep-alive of a named node: re-announces its final slot so late
    observers cannot mistake the slot for free."""

    slot: int
    uid: int

    def payload_bits(self, cost: CostModel) -> int:
        return cost.index_bits + cost.id_bits


def _claims(received: Sequence[Message], seen: frozenset[int],
            slot_count: int
            ) -> tuple[Mapping[int, int], frozenset[int], tuple[int, ...], bool]:
    """One round's broadcasts as every node that received them reads
    them: the smallest identity claiming each claimed slot, ``seen``
    grown by every slot named (claimed or re-announced), the slots of
    ``[1, slot_count]`` still outside it in ascending order, and whether
    any claim was fresh.  Computed once per round
    (:func:`repro.sim.columnar.tally`): the balls hand in the ``seen``
    the previous round handed them all, and share what comes back.
    """
    winners: dict[int, int] = {}
    named: set[int] = set()
    for message in received:
        if isinstance(message, SlotClaim):
            slot = message.slot
            best = winners.get(slot)
            if best is None or message.uid < best:
                winners[slot] = message.uid
            named.add(slot)
        elif isinstance(message, SlotRelease):
            named.add(message.slot)
    seen = seen | named
    free = tuple([slot for slot in range(1, slot_count + 1)
                  if slot not in seen])
    return MappingProxyType(winners), seen, free, bool(winners)


def _free_slot(free: Sequence[int], mine: set[int], draw) -> Optional[int]:
    """The ``draw(count)``-th of the ``count`` slots of ``free`` (sorted)
    outside ``mine``, or ``None`` when there is none: the pick from
    ``[slot for slot in free if slot not in mine]`` without the list."""
    skipped = []
    for slot in mine:
        at = bisect_left(free, slot)
        if at < len(free) and free[at] == slot:
            skipped.append(at)
    count = len(free) - len(skipped)
    if not count:
        return None
    at = draw(count)
    for position in sorted(skipped):
        if position > at:
            break
        at += 1
    return free[at]


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
        # The slots seen taken: `seen` (and `free`, its complement) are
        # the round's, shared by every ball; `mine` holds the slots only
        # this ball's own rows named.
        seen: frozenset[int] = frozenset()
        free: Sequence[int] = range(1, slot_count + 1)
        mine: set[int] = set()
        quiescent = False
        round_index = 0
        while True:
            round_index += 1
            if round_index > MAX_CLAIM_ROUNDS:  # pragma: no cover
                raise RuntimeError(f"node {self.uid}: claim race stalled")

            my_claim: Optional[int] = None
            if self.my_slot is None:
                my_claim = _free_slot(free, mine, ctx.rng.randrange)
                if my_claim is None:
                    # Only links that invent claims can leak more slots
                    # than there are crashes.  Nobody got a wrong name.
                    raise RenamingFailure(
                        f"node {self.uid}: no free slots left"
                    )
                outgoing = broadcast(n, SlotClaim(my_claim, self.uid))
            elif quiescent:
                # Last round carried no fresh claims: every alive node is
                # named (unnamed nodes always claim), so the race is over.
                return self.my_slot
            else:
                # Keep the slot visible to stragglers until quiescence.
                outgoing = broadcast(n, SlotRelease(self.my_slot, self.uid))
            inbox = yield outgoing

            (winners, seen, free, fresh_claims), own = tally(
                inbox, _claims, seen, slot_count)
            best = winners.get(my_claim, self.uid)
            for message in own:
                if isinstance(message, SlotClaim):
                    fresh_claims = True
                    if message.slot == my_claim and message.uid < best:
                        best = message.uid
                    mine.add(message.slot)
                elif isinstance(message, SlotRelease):
                    mine.add(message.slot)
            if mine:
                mine -= seen
            if my_claim is not None and best >= self.uid:
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
