"""Deliberately buggy protocols — fault-injection fixtures.

The falsifier needs known-bad targets to prove it can find, shrink,
and replay real violations; these fixtures play the role mutation
seeds play in a mutation-testing harness.  They are registered as
ordinary scenarios (``planted-duplicate``) so the CI smoke job can
assert the campaign actually falsifies something.

:class:`RacyRankNode` is a one-round renaming that is correct only in
failure-free executions: every node broadcasts its identity and takes
as its name the rank of its own identity among the identities it
heard.  A mid-send crash delivers the victim's broadcast to only some
survivors, so survivors disagree on the identity population and two of
them can compute the same rank — exactly the view-splitting hazard the
paper's committee algorithm defends against with its response round
(Lemma 2.3), here left undefended on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.adversary.base import CrashAdversary
from repro.sim.messages import CostModel, Message, broadcast
from repro.sim.node import Context, Process, Program
from repro.sim.runner import ExecutionResult, admit_identities, run_network


@dataclass(frozen=True)
class RankHello(Message):
    """The racy renaming's single message: "my identity is ``uid``"."""

    uid: int

    def payload_bits(self, cost: CostModel) -> int:
        return cost.id_bits


class RacyRankNode(Process):
    """One participant of the planted-bug renaming (see module docs)."""

    def program(self, ctx: Context) -> Program:
        inbox = yield broadcast(ctx.n, RankHello(self.uid))
        heard = {
            envelope.message.uid
            for envelope in inbox
            if isinstance(envelope.message, RankHello)
        }
        heard.add(self.uid)
        return sorted(heard).index(self.uid) + 1


def run_racy_rank(
    uids: Sequence[int],
    *,
    namespace: Optional[int] = None,
    adversary: Optional[CrashAdversary] = None,
    **network: object,
) -> ExecutionResult:
    """Run the planted-bug renaming for nodes with identities ``uids``;
    ``network`` is handed to :func:`repro.sim.runner.run_network`."""
    uids, cost = admit_identities(uids, namespace)
    processes = [RacyRankNode(uid) for uid in uids]
    return run_network(processes, cost, crash_adversary=adversary, **network)
