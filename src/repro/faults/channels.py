"""Concrete link-fault models.

Each model perturbs one dimension of the standard fault hierarchy used
to probe graceful degradation — omission, duplication, corruption,
transient partition — and :class:`ComposedFaults` stacks them.  All
randomized models consume their private seeded RNG in a fixed order
over ``(round, sender, index)``, so a model built from the same spec
and seed makes identical decisions in a strict replay.
"""

from __future__ import annotations

from random import Random
from typing import Iterable, Mapping, Optional, Sequence

from repro.faults.base import (
    CORRUPT,
    DROP,
    DUPLICATE,
    HOLD,
    FaultModel,
    FaultVerdict,
    RoundFaultPlan,
)


class _BudgetedRandomFaults(FaultModel):
    """Shared machinery: per-send probability with an optional total
    budget, decided in sorted ``(sender, index)`` order."""

    #: Verdict kind the subclass issues.
    kind = DROP

    def __init__(self, p: float, *, seed: int = 0,
                 budget: Optional[int] = None):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be >= 0, got {budget}")
        self.p = p
        self.budget = budget
        self.issued = 0
        self.rng = Random(seed)

    @property
    def remaining(self) -> Optional[int]:
        return None if self.budget is None else self.budget - self.issued

    def _verdict(self) -> FaultVerdict:
        return FaultVerdict(self.kind)

    def plan_round(self, round_no, delivered, alive) -> RoundFaultPlan:
        if self.p == 0.0 or (self.budget is not None
                             and self.issued >= self.budget):
            return {}
        plan: dict[int, dict[int, FaultVerdict]] = {}
        random = self.rng.random
        for sender in sorted(delivered):
            # len() is free even on a lazy fan-out; the Send objects
            # themselves are never needed to decide a drop/dup/corrupt.
            count = len(delivered[sender])
            verdicts: dict[int, FaultVerdict] = {}
            for index in range(count):
                if random() < self.p:
                    if (self.budget is not None
                            and self.issued >= self.budget):
                        if verdicts:
                            plan[sender] = verdicts
                        return plan
                    verdicts[index] = self._verdict()
                    self.issued += 1
            if verdicts:
                plan[sender] = verdicts
        return plan

    def describe(self) -> str:
        budget = "" if self.budget is None else f", budget={self.budget}"
        return f"{type(self).__name__}(p={self.p}{budget})"


class OmissionFaults(_BudgetedRandomFaults):
    """Each resolved send is lost independently with probability ``p``.

    ``budget`` caps the *total* number of omissions over the execution
    (the omission-bounded model): once spent, the channel is reliable
    again, so a protocol that tolerates finitely many losses still
    terminates.  ``budget=None`` is the unbounded lossy channel.
    """

    kind = DROP


class DuplicateDelivery(_BudgetedRandomFaults):
    """Each resolved send is delivered ``1 + copies`` times with
    probability ``p`` — the at-least-once channel."""

    kind = DUPLICATE

    def __init__(self, p: float, *, copies: int = 1, seed: int = 0,
                 budget: Optional[int] = None):
        super().__init__(p, seed=seed, budget=budget)
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        self.copies = copies

    def _verdict(self) -> FaultVerdict:
        return FaultVerdict(DUPLICATE, copies=self.copies)


class CorruptingChannel(_BudgetedRandomFaults):
    """Each resolved send is bit-flipped in one integer field with
    probability ``p`` (see :func:`repro.faults.base.corrupt_message`).
    The per-verdict salt comes from the model's RNG, so which field and
    bit flips is itself seeded and replayable."""

    kind = CORRUPT

    def _verdict(self) -> FaultVerdict:
        return FaultVerdict(CORRUPT, salt=self.rng.getrandbits(16))


class TransientPartition(FaultModel):
    """Splits the node set for rounds ``[start, end)``.

    While the partition is up, every message crossing the cut is held
    and delivered in round ``end`` (the heal round) — the synchronous
    analogue of a network partition with eventual delivery.  Messages
    within a side flow normally.  ``left`` names one side's link
    indices; everything else is the right side.  Deterministic: no RNG.
    """

    def __init__(self, start: int, end: int, left: Iterable[int]):
        if start < 1:
            raise ValueError(f"partition start must be >= 1, got {start}")
        if end <= start:
            raise ValueError(
                f"partition rounds [{start}, {end}) are empty"
            )
        self.start = start
        self.end = end
        self.left = frozenset(left)

    def plan_round(self, round_no, delivered, alive) -> RoundFaultPlan:
        if not self.start <= round_no < self.end:
            return {}
        left = self.left
        release = self.end
        plan: dict[int, dict[int, FaultVerdict]] = {}
        for sender in sorted(delivered):
            sender_left = sender in left
            verdicts: dict[int, FaultVerdict] = {}
            # Needs each send's target, so a lazy fan-out materializes
            # here — exactly like a crash adversary inspecting a victim.
            for index, send in enumerate(delivered[sender]):
                if (send.to in left) != sender_left:
                    verdicts[index] = FaultVerdict(
                        HOLD, release_round=release)
            if verdicts:
                plan[sender] = verdicts
        return plan

    def describe(self) -> str:
        return (f"TransientPartition(rounds=[{self.start}, {self.end}), "
                f"left={sorted(self.left)})")


class ComposedFaults(FaultModel):
    """Stacks fault models: each is consulted in order, and the first
    verdict issued for a ``(sender, index)`` wins — later models never
    see, and cannot override, an already-decided send."""

    def __init__(self, models: Sequence[FaultModel]):
        self.models = list(models)

    def plan_round(self, round_no, delivered, alive) -> RoundFaultPlan:
        merged: dict[int, dict[int, FaultVerdict]] = {}
        for model in self.models:
            plan = model.plan_round(round_no, delivered, alive)
            for sender, verdicts in plan.items():
                into = merged.setdefault(sender, {})
                for index, verdict in verdicts.items():
                    into.setdefault(index, verdict)
        return merged

    def describe(self) -> str:
        return " + ".join(model.describe() for model in self.models)
