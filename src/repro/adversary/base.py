"""Crash-adversary interface.

The paper's "Eve" is an adaptive adversary: at any point she may use
the execution history so far to decide which nodes crash immediately --
*even in the middle of sending a message*.  The network therefore
consults the adversary once per round, showing her every alive node's
proposed outgoing messages, and she answers with a :data:`CrashPlan`:
a mapping from victim link index to the subset of its proposed messages
that are still delivered before the crash takes effect.

An empty delivered-subset models "crashed before sending"; a proper
subset models the mid-send crash the proofs of Lemmas 2.3/2.5 defend
against.  The network enforces that the plan only names alive nodes,
that delivered subsets really are subsets, and that the adversary's
total budget ``f`` is respected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # imported for annotations only, to avoid an import cycle
    from repro.sim.messages import Send
    from repro.sim.trace import Trace

#: victim link index -> subset of its proposed sends still delivered.
CrashPlan = Mapping[int, "Sequence[Send]"]


class CrashPlanError(ValueError):
    """An adversary returned an invalid plan (budget / subset violation)."""


def kept_send_indices(
    kept: "Sequence[Send]", proposed: "Sequence[Send]"
) -> tuple[int, ...]:
    """Positions in ``proposed`` of each send in ``kept``, in ``kept`` order.

    This is the single matching rule used everywhere a kept-send subset
    is resolved against a proposed send list — by the network when it
    applies a crash plan and by the falsification recorder when it
    serializes one.  Each kept send is matched to an unused position by
    *object identity* first (adversaries normally keep the very objects
    they were shown), falling back to equality for adversaries that
    construct fresh-but-equal sends.  Identity-first matching keeps the
    resolution well-defined when a victim proposes duplicate identical
    sends: keeping the second of two equal sends resolves to index 1,
    never to index 0, so a recorded schedule replays the exact instance
    the network delivered.

    Raises :class:`CrashPlanError` when a kept send cannot be matched.
    """
    positions_by_id: dict[int, list[int]] = {}
    for position, send in enumerate(proposed):
        positions_by_id.setdefault(id(send), []).append(position)
    used: set[int] = set()
    indices: list[int] = []
    for send in kept:
        chosen = -1
        for position in positions_by_id.get(id(send), ()):
            if position not in used and proposed[position] is send:
                chosen = position
                break
        if chosen < 0:
            for position, candidate in enumerate(proposed):
                if position not in used and candidate == send:
                    chosen = position
                    break
        if chosen < 0:
            raise CrashPlanError(f"kept message {send} was never proposed")
        used.add(chosen)
        indices.append(chosen)
    return tuple(indices)


class CrashAdversary:
    """Base class; subclasses implement :meth:`plan_round`.

    Parameters
    ----------
    budget:
        Maximum number of nodes this adversary may crash over the whole
        execution (the paper's ``f``).
    """

    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.budget = budget
        self.crashed: set[int] = set()

    @property
    def remaining_budget(self) -> int:
        return self.budget - len(self.crashed)

    def plan_round(
        self,
        round_no: int,
        proposed: Mapping[int, Sequence[Send]],
        alive: frozenset[int],
        trace: Trace,
    ) -> CrashPlan:
        """Decide this round's crashes.  Default: crash nobody.

        ``proposed`` maps each alive link index to that node's proposed
        outgoing sends **as an abstract sequence, not necessarily a
        list**: a node that fans one message out yields a lazy
        :class:`~repro.sim.messages.Multicast`, which materializes its
        ``Send`` objects once, on first access, and then returns the
        *same* instances on every later access.  Adversaries may index,
        slice, and iterate it freely; because the instances are stable,
        a kept subset taken from it resolves by object identity in
        :func:`kept_send_indices`, so mid-send crashes of broadcasting
        victims record and replay exactly (see
        ``tests/test_adversary_crash.py::TestBroadcastMidSendCrash``).
        """
        raise NotImplementedError

    def note_crashes(self, victims: set[int]) -> None:
        """Called by the network after it applies a validated plan."""
        self.crashed |= victims


class NoCrashes(CrashAdversary):
    """The failure-free adversary (``f = 0``)."""

    def __init__(self):
        super().__init__(budget=0)

    def plan_round(self, round_no, proposed, alive, trace) -> CrashPlan:
        return {}
