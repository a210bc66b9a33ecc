"""Full-information gossip renaming (the early, big-message family).

Each node repeatedly broadcasts *everything it knows* -- the whole set
of original identities it has heard of -- for ``f_assumed + 1`` rounds,
then takes its new name to be the rank of its own identity in its
final knowledge set.  This is the style of the early consensus-derived
solutions the paper cites ([20], [33]): correctness comes from the
classic crash-free-round argument (with at most ``f`` crashes, some
round among ``f + 1`` is crash-free; from then on all alive nodes hold
the identical, closed knowledge set), and the costs are what Table 1
charges that family:

* rounds grow linearly with the *assumed* fault bound, not the actual
  failure count;
* every message carries a set of up to ``n`` identities, i.e.
  ``Theta(n log N)`` bits, for ``Theta(n^3 log N)`` total bits at full
  resilience -- the cubic bit wall.

The new names are ranks of original identities, so this baseline is
order-preserving, and with a closed final set they are distinct and lie
in ``[1, n]`` (strong renaming).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.adversary.base import CrashAdversary
from repro.sim.columnar import messages
from repro.sim.messages import CostModel, Message, broadcast, record
from repro.sim.node import Context, Process, Program
from repro.sim.runner import ExecutionResult, admit_identities, run_network


@record
class KnowledgeGossip(Message):
    """A node's full knowledge: every original identity it has heard of."""

    known: frozenset[int]

    def payload_bits(self, cost: CostModel) -> int:
        return max(1, len(self.known)) * cost.id_bits


class CollectRankNode(Process):
    """One participant of the gossip-to-stability baseline.

    ``assumed_faults`` is the fault bound the deployment provisions for
    (the paper's point: this family pays for the worst case up front);
    it defaults to ``n - 1`` when left ``None``.
    """

    def __init__(self, uid: int, assumed_faults: Optional[int] = None):
        super().__init__(uid)
        self.assumed_faults = assumed_faults
        self.known: frozenset[int] = frozenset()

    def program(self, ctx: Context) -> Program:
        n = ctx.n
        faults = self.assumed_faults if self.assumed_faults is not None else n - 1
        if not 0 <= faults < n:
            raise ValueError(f"assumed_faults={faults} must lie in [0, n)")
        self.known = frozenset([self.uid])
        for _round in range(faults + 1):
            inbox = yield broadcast(n, KnowledgeGossip(self.known))
            for message in messages(inbox):
                if isinstance(message, KnowledgeGossip):
                    self.known |= message.known
        return sorted(self.known).index(self.uid) + 1


def run_collect_rank(
    uids: Sequence[int],
    *,
    namespace: Optional[int] = None,
    adversary: Optional[CrashAdversary] = None,
    assumed_faults: Optional[int] = None,
    **network: object,
) -> ExecutionResult:
    """Run the gossip baseline for nodes with identities ``uids``;
    ``network`` is handed to :func:`repro.sim.runner.run_network`."""
    uids, cost = admit_identities(uids, namespace)
    processes = [CollectRankNode(uid, assumed_faults) for uid in uids]
    return run_network(processes, cost, crash_adversary=adversary, **network)
