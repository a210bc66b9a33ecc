"""Shared test harnesses.

`SubprotocolHarness` runs one in-committee subprotocol (graded
broadcast, validator, or binary consensus) as a complete network
execution: every link is a committee member, honest members run the
subprotocol generator verbatim, and Byzantine members run the same
schedule through a corrupting :class:`CommitteeComm` that equivocates
arbitrarily per receiver -- the strongest attack expressible against
these thresholds short of breaking lockstep (going silent covers that).

:func:`play_round` files a round's column the one way a run does, by
``SyncNetwork.step``, from what each link proposes.
"""

from __future__ import annotations

from random import Random
from typing import Callable, Mapping, Optional, Sequence

from repro.consensus.comm import CommitteeComm
from repro.consensus.graded import BOTTOM
from repro.crypto.auth import Authenticator
from repro.crypto.shared_randomness import SharedRandomness
from repro.faults.base import FaultModel, hold
from repro.sim.columnar import ColumnarRound
from repro.sim.messages import CostModel
from repro.sim.network import SyncNetwork
from repro.sim.node import Context, Process, Program
from repro.sim.runner import ExecutionResult, run_network


#: ``subprogram(comm, ctx, my_input)`` -> generator returning the output.
Subprogram = Callable[[CommitteeComm, Context, object], object]


class RandomCorruptComm(CommitteeComm):
    """Equivocates: every outgoing value is drawn fresh per receiver."""

    def __init__(self, view, b_max, rng: Random):
        super().__init__(view, b_max)
        self.rng = rng

    def outgoing_value(self, kind, value, receiver):
        menu = [value, 0, 1, BOTTOM, (self.rng.randrange(1 << 20),
                                      self.rng.randrange(64))]
        if value in (0, 1):
            menu.append(1 - value)
        return self.rng.choice(menu)


class SubprotocolMember(Process):
    """One committee member running ``subprogram`` as its whole program."""

    def __init__(self, uid: int, subprogram: Subprogram, my_input: object,
                 b_max: int, corrupt_rng: Optional[Random] = None,
                 silent: bool = False):
        super().__init__(uid)
        self.subprogram = subprogram
        self.my_input = my_input
        self.b_max = b_max
        self.corrupt_rng = corrupt_rng
        self.silent = silent
        self.byzantine = corrupt_rng is not None or silent

    def program(self, ctx: Context) -> Program:
        if self.silent:
            while True:
                yield []
        view = range(ctx.n)
        if self.corrupt_rng is not None:
            comm = RandomCorruptComm(view, self.b_max, self.corrupt_rng)
        else:
            comm = CommitteeComm(view, self.b_max)
        output = yield from self.subprogram(comm, ctx, self.my_input)
        return output


def run_subprotocol(
    subprogram: Subprogram,
    honest_inputs: Sequence[object],
    n_byzantine: int = 0,
    *,
    byzantine_silent: bool = False,
    seed: int = 0,
    shared_seed: int = 0,
) -> ExecutionResult:
    """Run ``subprogram`` among honest + Byzantine committee members.

    ``b_max`` is set to the largest bound the honest quorum supports
    (``(|G| - 1) // 2``); callers must keep ``n_byzantine <= b_max``.
    """
    n_honest = len(honest_inputs)
    b_max = max(0, (n_honest - 1) // 2)
    if n_byzantine > b_max:
        raise ValueError(
            f"{n_byzantine} Byzantine members exceed b_max={b_max} "
            f"for {n_honest} honest members"
        )
    rng = Random(seed)
    processes: list[Process] = [
        SubprotocolMember(uid=i + 1, subprogram=subprogram,
                          my_input=value, b_max=b_max)
        for i, value in enumerate(honest_inputs)
    ]
    for j in range(n_byzantine):
        processes.append(
            SubprotocolMember(
                uid=n_honest + j + 1,
                subprogram=subprogram,
                my_input=0,
                b_max=b_max,
                corrupt_rng=None if byzantine_silent else Random(rng.getrandbits(32)),
                silent=byzantine_silent,
            )
        )
    n = len(processes)
    cost = CostModel(n=n, namespace=max(n, 1 << 20))
    return run_network(
        processes, cost,
        shared=SharedRandomness(shared_seed),
        seed=seed + 1,
    )


def honest_outputs(result: ExecutionResult) -> list[object]:
    """Outputs of the honest members, in link order."""
    return [
        result.results[index]
        for index in sorted(result.results)
        if index not in result.byzantine
    ]


class _Proposer(Process):
    """Proposes ``held`` in round 1 and, unless it leaves then,
    ``proposal`` in round 2, whose column it keeps unread."""

    def __init__(self, index: int, held, proposal, stays: bool,
                 columns: list):
        super().__init__(100 + index)
        self.held, self.proposal = held, proposal
        self.stays, self.columns = stays, columns

    def program(self, ctx: Context) -> Program:
        yield self.held
        if self.stays:
            inbox = yield self.proposal
            self.columns.append(inbox._column)


class _HoldThenPlan(FaultModel):
    """Holds every send of round 1 to round 2, then plays ``plan``."""

    def __init__(self, plan: Mapping):
        self.plan = plan

    def plan_round(self, round_no, delivered, alive):
        if round_no == 2:
            return self.plan
        return {sender: dict.fromkeys(range(len(sends)), hold(2))
                for sender, sends in delivered.items() if len(sends)}


def play_round(proposals: Mapping[int, object], n: int, *,
               held: Optional[Mapping[int, object]] = None, gone=(),
               verdicts: Optional[Mapping[int, Mapping]] = None
               ) -> ColumnarRound:
    """Round 2 of ``n`` links, link ``i`` of uid ``100 + i`` proposing
    ``proposals.get(i, [])``: its :class:`ColumnarRound` as
    ``SyncNetwork.step`` filed it, from a reader's ``inbox._column``,
    attached and unread.

    The held mail comes first: each ``held[i]`` was proposed in round 1
    and held by the channel to round 2.  The links in ``gone`` leave
    after round 1 (they propose nothing in round 2, and read nothing);
    at least one link stays.  ``verdicts`` are round 2's fault verdicts,
    ``{sender: {send index: verdict}}``.  The network runs without
    authentication, so a claim shows in its rows' header."""
    columns: list[ColumnarRound] = []
    held = held or {}
    network = SyncNetwork(
        [_Proposer(index, held.get(index, []), proposals.get(index, []),
                   index not in gone, columns) for index in range(n)],
        CostModel(n=n, namespace=1 << 10),
        authenticator=Authenticator(enabled=False),
        fault_model=_HoldThenPlan(verdicts or {}))
    network._start()
    network.step()
    network.step()
    return columns[0]
