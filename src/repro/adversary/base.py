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
decision 15).  A programmable policy may still answer with the kept
``Send`` objects themselves; :func:`kept_indices` is the one place
either form becomes validated positions, for the network, the
falsification recorder and the tests' oracle alike.  The network
enforces that the plan only names alive nodes, that every kept part
really is part of what was proposed, and that the adversary's total
budget ``f`` is respected.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence, Union

if TYPE_CHECKING:  # imported for annotations only, to avoid an import cycle
    from repro.sim.messages import Send
    from repro.sim.trace import Trace

#: victim link index -> what of its proposed sends is still delivered:
#: their indices (any sequence of distinct positions -- a ``range``, a
#: shuffled list), or, from a policy, the kept ``Send`` objects.
CrashPlan = Mapping[int, Union["Sequence[int]", "Sequence[Send]"]]


class CrashPlanError(ValueError):
    """An adversary returned an invalid plan (budget / subset violation)."""


def kept_send_indices(
    kept: "Sequence[Send]", proposed: "Sequence[Send]"
) -> tuple[int, ...]:
    """Positions in ``proposed`` of each send in ``kept``, in ``kept`` order.

    The matching rule for a plan that names kept sends by *object*
    (:func:`kept_indices` is its one caller).  Each kept send is matched
    to an unused position by *object identity* first (a policy normally
    keeps the very objects it was shown), falling back to equality for
    one that constructs fresh-but-equal sends.  Identity-first matching
    keeps the resolution well-defined when a victim proposes duplicate
    identical sends: keeping the second of two equal sends resolves to
    index 1, never to index 0, so a recorded schedule replays the exact
    instance the network delivered.

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


def kept_indices(
    kept: "Union[Sequence[int], Sequence[Send]]", proposed: "Sequence[Send]"
) -> tuple[int, ...]:
    """One victim's plan value as validated positions in ``proposed``.

    The single resolution rule for a :data:`CrashPlan` value, used
    wherever one is applied or written down -- the network, the
    falsification recorder, the tests' ``ReferenceNetwork``.  Indices
    pass through, checked: each inside ``[0, len(proposed))``, none
    twice; ``proposed`` itself is not touched, so a lazy fan-out stays
    lazy.  Anything else is a policy's kept ``Send`` objects and is
    matched by :func:`kept_send_indices`.

    Raises :class:`CrashPlanError` on a part that was never proposed.
    """
    kept = tuple(kept)
    if not kept:
        return kept
    if set(map(type, kept)) != {int}:
        return kept_send_indices(kept, proposed)
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
        trace: Trace,
    ) -> CrashPlan:
        """Decide this round's crashes.  Default: crash nobody.

        ``proposed`` maps each alive link index to that node's proposed
        outgoing sends **as an abstract sequence, not necessarily a
        list**: a node that fans one message out yields a lazy
        :class:`~repro.sim.messages.Multicast`.  Its ``len()`` is free,
        and a plan that answers with kept *indices* never makes it
        build a ``Send``.  A policy that wants the objects may index,
        slice and iterate it freely: the ``Send`` instances are
        materialized once and stable, so a kept subset taken from it
        resolves by object identity (:func:`kept_send_indices`), and
        mid-send crashes of broadcasting victims record and replay
        exactly (``tests/test_adversary_crash.py::
        TestBroadcastMidSendCrash``).
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
