"""All-to-all interval halving (the [34]/[15] baseline family).

Every phase is a single round: each alive node broadcasts
``<ID, I>`` to everyone, then *locally* plays committee for its own
interval with the same rank rule the paper's committee members apply
(rank among same-interval peers, offset by the peers already inside
``bot(I)``).  Because everyone halves in every phase, all alive nodes'
intervals sit at the same tree depth at all times -- the all-to-all
pattern makes the paper's minimum-depth synchronisation unnecessary,
which is also why this baseline needs no committee machinery.

Complexity: every node talks to every node each phase, so
``Theta(n^2)`` messages per phase and ``Theta(n^2 log n)`` in total --
the Table 1 message wall -- *regardless of how many failures actually
occur*.  Rounds: exactly ``ceil(log2 n)`` phases, deterministically.

Safety under mid-send crashes follows the same witness argument as
Lemma 2.3: among the nodes that moved into ``bot(I)``, the one with
the largest identity saw every mover's status (movers are alive, and
alive broadcasts reach everyone), so the slot-capacity inequality it
checked bounds the whole group.

Every node applies one rule to the broadcasts it received, and the model
charges those broadcasts, not the rule.  The rule is a tally, so the
simulator evaluates it once per *round* over the broadcasts everybody
received (:func:`_halving_table`, through
:func:`repro.sim.columnar.tally`); each node looks its own interval up
and counts in, on top, the few reports only its own inbox holds -- what
a victim of that round's crashes still got out.  A node whose own report
is missing from what it received (a lossy or corrupting link) cannot
rank itself and raises
:class:`~repro.core.crash_renaming.RenamingFailure`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from repro.adversary.base import CrashAdversary
from repro.core.crash_renaming import RenamingFailure
from repro.core.intervals import Interval, reports_inside_bot, root_interval
from repro.sim.columnar import messages, tally
from repro.sim.messages import CostModel, Message, broadcast, record
from repro.sim.node import Context, Process, Program
from repro.sim.runner import ExecutionResult, admit_identities, run_network


@record
class HalvingStatus(Message, fixed_width=True):
    """Per-phase broadcast ``<ID(v), I_v>``."""

    uid: int
    interval: Interval

    def payload_bits(self, cost: CostModel) -> int:
        return cost.id_bits + 2 * cost.index_bits


def _halving_table(received: Sequence[Message]
                   ) -> Mapping[tuple[int, int], tuple[tuple[int, ...], int]]:
    """One phase's broadcasts as every node that received them reads
    them: ``(lo, hi) -> (sorted uids reporting exactly that interval,
    reports inside its bot)`` for every reported non-singleton interval.

    The same grouping pass and sweep the paper's committee members use
    (:func:`~repro.core.intervals.reports_inside_bot`): ``O(n log n)``
    once per round (:func:`repro.sim.columnar.tally`) instead of a
    rescan of all ``n`` statuses by each of ``n`` nodes.  Both entries
    are counts over reports, whatever their order.
    """
    reporters: dict[tuple[int, int], list[int]] = defaultdict(list)
    for message in received:
        if isinstance(message, HalvingStatus):
            interval = message.interval
            reporters[(interval.lo, interval.hi)].append(message.uid)
    inside = reports_inside_bot(
        reporters, [key for key in reporters if key[0] != key[1]])
    return MappingProxyType({
        key: (tuple(sorted(reporters[key])), count)
        for key, count in inside.items()
    })


class ObgHalvingNode(Process):
    """One participant of the all-to-all halving baseline."""

    def __init__(self, uid: int):
        super().__init__(uid)
        self.interval: Optional[Interval] = None

    def _halve(self, inbox) -> None:
        """One local halving step of a non-singleton interval, using
        everyone's broadcast status: the round's table for the reports
        every node received, the inbox's own extra reports counted in."""
        interval = self.interval
        lo, hi = key = interval.lo, interval.hi
        table, own = tally(inbox, _halving_table)
        if own and key not in table:
            # Nobody's broadcast carried this interval whole (a faulted
            # link split the node's own): tabulate the inbox as it is.
            table, own = _halving_table(messages(inbox)), ()
        ranked, below_bot = table.get(key, ((), 0))
        uid = self.uid
        rank = bisect_left(ranked, uid) + 1
        reported = rank <= len(ranked) and ranked[rank - 1] == uid
        mid = (lo + hi) // 2
        for message in own:
            if isinstance(message, HalvingStatus):
                other = message.interval
                if other.lo == lo and other.hi == hi:
                    rank += message.uid < uid
                    reported = reported or message.uid == uid
                elif lo <= other.lo and other.hi <= mid:
                    below_bot += 1
        if not reported:
            # A lossy or corrupting link ate this node's own report:
            # it cannot rank itself.  Nobody got a wrong name.
            raise RenamingFailure(
                f"node {self.uid}: own report missing among the "
                f"reports of {interval}"
            )
        bot = interval.bot()
        if below_bot + rank <= bot.size:
            self.interval = bot
        else:
            self.interval = interval.top()

    def program(self, ctx: Context) -> Program:
        n = ctx.n
        self.interval = root_interval(n)
        phases = math.ceil(math.log2(n)) if n > 1 else 0
        for _phase in range(phases):
            inbox = yield broadcast(n, HalvingStatus(self.uid, self.interval))
            if not self.interval.is_singleton:
                self._halve(inbox)
        if not self.interval.is_singleton:
            raise RenamingFailure(
                f"node {self.uid} finished with interval {self.interval}"
            )
        return self.interval.lo


def run_obg_halving(
    uids: Sequence[int],
    *,
    namespace: Optional[int] = None,
    adversary: Optional[CrashAdversary] = None,
    **network: object,
) -> ExecutionResult:
    """Run the all-to-all halving baseline for nodes with ids ``uids``;
    ``network`` is handed to :func:`repro.sim.runner.run_network`."""
    uids, cost = admit_identities(uids, namespace)
    processes = [ObgHalvingNode(uid) for uid in uids]
    return run_network(processes, cost, crash_adversary=adversary, **network)
