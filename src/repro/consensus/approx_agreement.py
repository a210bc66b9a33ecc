"""Synchronous crash-tolerant approximate agreement.

The primitive underlying Okun's order-preserving renaming [32] (one of
Table 1's rows): each node starts with a real value; after the
protocol, all surviving nodes hold values within ``epsilon`` of each
other, inside the range of the original inputs.

Construction (classic midpoint averaging): each round every node
broadcasts its value and adopts ``(min + max) / 2`` of the values it
received.  All alive nodes receive every alive sender's value, so
their received sets differ only by crashed senders' partial
deliveries; since every received value lies inside the current honest
range, the diameter at least halves each round, and
``ceil(log2(range / epsilon))`` rounds reach epsilon-agreement.

Provided both as a standalone protocol (:class:`ApproxAgreementNode`)
and as the building block the renaming literature layers on top; the
property tests in ``tests/test_approx_agreement.py`` check validity and
the halving rate under adversarial mid-send crash schedules.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.adversary.base import CrashAdversary
from repro.sim.columnar import messages
from repro.sim.messages import CostModel, Message, broadcast, record
from repro.sim.node import Context, Process, Program
from repro.sim.runner import ExecutionResult, admit_identities, run_network

#: Fixed-point denominator: values travel as integers scaled by this,
#: keeping every message at O(log N + log PRECISION) bits.
PRECISION = 1 << 20


@record
class ValueReport(Message):
    """One round's value broadcast, fixed-point encoded."""

    scaled_value: int

    def payload_bits(self, cost: CostModel) -> int:
        return 20 + cost.index_bits


def rounds_needed(initial_range: float, epsilon: float) -> int:
    """Rounds to shrink ``initial_range`` below ``epsilon`` at rate 1/2."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if initial_range <= epsilon:
        return 0
    return math.ceil(math.log2(initial_range / epsilon))


class ApproxAgreementNode(Process):
    """One participant of midpoint approximate agreement.

    ``initial`` is the node's input; ``rounds`` must be identical at
    every node (all nodes know the input range bound and epsilon).
    """

    def __init__(self, uid: int, initial: float, rounds: int):
        super().__init__(uid)
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        self.initial = initial
        self.rounds = rounds
        self.value = initial

    def program(self, ctx: Context) -> Program:
        self.value = self.initial
        for _round in range(self.rounds):
            report = ValueReport(round(self.value * PRECISION))
            inbox = yield broadcast(ctx.n, report)
            received = [
                message.scaled_value / PRECISION
                for message in messages(inbox)
                if isinstance(message, ValueReport)
            ]
            if received:
                self.value = (min(received) + max(received)) / 2
        return self.value


def run_approximate_agreement(
    inputs: Sequence[tuple[int, float]],
    epsilon: float,
    *,
    value_bound: Optional[float] = None,
    adversary: Optional[CrashAdversary] = None,
    **network: object,
) -> ExecutionResult:
    """Run approximate agreement for ``(uid, initial_value)`` pairs.

    ``value_bound`` is the publicly known bound on the input range used
    to size the round count; it defaults to the actual input range.
    ``network`` is handed to :func:`repro.sim.runner.run_network`.
    """
    if not inputs:
        raise ValueError("need at least one participant")
    _, cost = admit_identities([uid for uid, _ in inputs])
    values = [value for _, value in inputs]
    spread = (max(values) - min(values)) if value_bound is None else value_bound
    rounds = rounds_needed(spread, epsilon)
    processes = [
        ApproxAgreementNode(uid, value, rounds) for uid, value in inputs
    ]
    return run_network(processes, cost, crash_adversary=adversary, **network)
