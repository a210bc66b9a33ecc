"""Crash-adversary interface.

The paper's "Eve" is an adaptive adversary: at any point she may use
the execution history so far to decide which nodes crash immediately --
*even in the middle of sending a message*.  The network therefore
consults the adversary once per round, showing her every alive node's
proposed outgoing messages, and she answers with a :data:`CrashPlan`:
a mapping from victim link index to the part of its proposed fan-out
that is still delivered before the crash takes effect, named by
*position*: the kept indices into the victim's proposed sends, in the
order they are to be delivered.

An empty kept part models "crashed before sending"; a proper part
models the mid-send crash the proofs of Lemmas 2.3/2.5 defend against.
Positions are all a plan needs -- a strategy reads ``len()`` of a
proposal, which is free on a lazy fan-out, and never a ``Send`` -- so a
crash round costs its crashes, not the victims' fan-outs (DESIGN
decision 15).  :func:`kept_indices` is the one place a plan value
becomes validated positions, for the network, the falsification
recorder and the tests' oracle alike.  The network enforces that the
plan only names alive nodes, that every kept part really is part of
what was proposed, and that the adversary's total budget ``f`` is
respected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # imported for annotations only, to avoid an import cycle
    from repro.sim.messages import Send

#: victim link index -> the indices of its proposed sends that are still
#: delivered (any sequence of distinct positions -- a ``range``, a
#: shuffled list).
CrashPlan = Mapping[int, Sequence[int]]


class CrashPlanError(ValueError):
    """An adversary returned an invalid plan (budget / subset violation)."""


def kept_indices(kept: Sequence[int], proposed: "Sequence[Send]"
                 ) -> tuple[int, ...]:
    """One victim's plan value as validated positions in ``proposed``.

    The single resolution rule for a :data:`CrashPlan` value, used
    wherever one is applied or written down -- the network, the
    falsification recorder, the tests' ``ReferenceNetwork``.  Each
    index must be an ``int`` inside ``[0, len(proposed))``, none named
    twice; ``proposed`` itself is not touched, so a lazy fan-out stays
    lazy.

    Raises :class:`CrashPlanError` on anything else.
    """
    kept = tuple(kept)
    if not kept:
        return kept
    for index in kept:
        if type(index) is not int:
            raise CrashPlanError(
                f"kept part names {index!r}, not a send index")
    if not (0 <= min(kept) and max(kept) < len(proposed)):
        raise CrashPlanError(
            f"kept indices {sorted(set(kept) - set(range(len(proposed))))} "
            f"outside [0, {len(proposed)})")
    if len(set(kept)) != len(kept):
        raise CrashPlanError("a kept index is named twice")
    return kept


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
    ) -> CrashPlan:
        """Decide this round's crashes.  Default: crash nobody.

        ``proposed`` maps each alive link index to that node's proposed
        outgoing sends **as an abstract sequence, not necessarily a
        list**: a node that fans one message out yields a lazy
        :class:`~repro.sim.messages.Multicast`.  Its ``len()`` is free,
        and a plan answers with kept *indices*, so it never makes the
        fan-out build a ``Send``.  A policy may still index, slice and
        iterate it to decide.  A strategy that adapts to more history
        than this keeps it itself.
        """
        raise NotImplementedError

    def note_crashes(self, victims: set[int]) -> None:
        """Called by the network after it applies a validated plan."""
        self.crashed |= victims


class NoCrashes(CrashAdversary):
    """The failure-free adversary (``f = 0``)."""

    def __init__(self):
        super().__init__(budget=0)

    def plan_round(self, round_no, proposed, alive) -> CrashPlan:
        return {}
