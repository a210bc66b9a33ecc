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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.adversary.base import CrashAdversary
from repro.faults.base import FaultModel
from repro.core.crash_renaming import RenamingFailure
from repro.core.intervals import Interval, root_interval
from repro.sim.messages import CostModel, Message, broadcast
from repro.sim.node import Context, Process, Program
from repro.sim.runner import ExecutionResult, run_network


@dataclass(frozen=True)
class HalvingStatus(Message):
    """Per-phase broadcast ``<ID(v), I_v>``."""

    uid: int
    interval: Interval

    def payload_bits(self, cost: CostModel) -> int:
        return cost.id_bits + 2 * cost.index_bits


class ObgHalvingNode(Process):
    """One participant of the all-to-all halving baseline."""

    def __init__(self, uid: int):
        super().__init__(uid)
        self.interval: Optional[Interval] = None

    def _halve(self, statuses: list[HalvingStatus]) -> None:
        """One local halving step using everyone's broadcast status."""
        if self.interval.is_singleton:
            return
        same_ids = sorted(
            status.uid for status in statuses
            if status.interval == self.interval
        )
        bot = self.interval.bot()
        below_bot = sum(
            1 for status in statuses
            if bot.contains_interval(status.interval)
        )
        rank = same_ids.index(self.uid) + 1
        if below_bot + rank <= bot.size:
            self.interval = bot
        else:
            self.interval = self.interval.top()

    def program(self, ctx: Context) -> Program:
        n = ctx.n
        self.interval = root_interval(n)
        phases = math.ceil(math.log2(n)) if n > 1 else 0
        for _phase in range(phases):
            inbox = yield broadcast(n, HalvingStatus(self.uid, self.interval))
            statuses = [
                envelope.message for envelope in inbox
                if isinstance(envelope.message, HalvingStatus)
            ]
            if statuses:
                self._halve(statuses)
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
    seed: int = 0,
    trace: bool = False,
    monitors: Sequence[object] = (),
    observer: Optional[object] = None,
    fault_model: Optional[FaultModel] = None,
) -> ExecutionResult:
    """Run the all-to-all halving baseline for nodes with ids ``uids``."""
    uids = list(uids)
    if len(set(uids)) != len(uids):
        raise ValueError("original identities must be distinct")
    if namespace is None:
        namespace = max(max(uids), len(uids))
    cost = CostModel(n=len(uids), namespace=namespace)
    processes = [ObgHalvingNode(uid) for uid in uids]
    return run_network(
        processes, cost, crash_adversary=adversary, seed=seed, trace=trace,
        monitors=monitors, observer=observer, fault_model=fault_model,
    )
