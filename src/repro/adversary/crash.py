"""Concrete crash-adversary strategies ("Eve").

All strategies honour the adaptive model: they see the full proposed
send set of the current round (history up to "now") and may deliver an
arbitrary subset of a victim's in-flight messages.  The built-in ones
decide from fan-out *sizes* alone and answer with kept indices, so they
never make a lazy fan-out build its ``Send`` objects.
"""

from __future__ import annotations

from random import Random
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.adversary.base import CrashAdversary, CrashPlan, CrashPlanError

if TYPE_CHECKING:  # annotations only, avoids an import cycle
    from repro.sim.messages import Send


class RandomCrash(CrashAdversary):
    """Crashes each alive node independently with a fixed per-round rate.

    On crashing a victim, an independent fair coin decides for each
    in-flight message, in send order, whether it is still delivered --
    an unbiased mid-send crash.
    """

    def __init__(self, budget: int, rate: float, rng: Random):
        super().__init__(budget)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.rng = rng

    def plan_round(self, round_no, proposed, alive) -> CrashPlan:
        if self.remaining_budget <= 0:  # spent: nobody to sort through
            return {}
        plan: dict[int, list[int]] = {}
        random = self.rng.random
        for victim in sorted(alive):
            if len(plan) >= self.remaining_budget:
                break
            if random() < self.rate:
                fanout = len(proposed.get(victim, ()))
                plan[victim] = [index for index in range(fanout)
                                if random() < 0.5]
        return plan


class ScheduledCrash(CrashAdversary):
    """Crashes a fixed set of victims at fixed rounds.

    ``schedule`` maps a round number to the victims crashed in that
    round; by default nothing a victim proposed in its crash round is
    delivered.  ``deliver_prefix`` optionally lets the first ``k``
    proposed messages of a victim through, modelling a deterministic
    mid-send crash -- convenient for regression tests that need an
    exactly reproducible split.

    ``budget`` optionally pins the adversary's crash budget ``f``
    independently of the schedule.  The whole schedule is then
    validated at plan (construction) time: if the cumulative victim
    count ever exceeds ``f``, a :class:`CrashPlanError` names the first
    offending round — mirroring the network's atomic plan rejection
    rather than silently under-delivering crashes mid-execution.
    """

    def __init__(
        self,
        schedule: Mapping[int, Sequence[int]],
        deliver_prefix: Mapping[int, int] | None = None,
        budget: int | None = None,
    ):
        victims = [v for batch in schedule.values() for v in batch]
        if len(victims) != len(set(victims)):
            raise ValueError("schedule names the same victim twice")
        if budget is not None:
            cumulative = 0
            for round_no in sorted(schedule):
                cumulative += len(schedule[round_no])
                if cumulative > budget:
                    raise CrashPlanError(
                        f"schedule exceeds crash budget f={budget} at "
                        f"round {round_no}: {cumulative} cumulative "
                        f"victims planned"
                    )
        super().__init__(budget=len(victims) if budget is None else budget)
        self.schedule = {r: list(batch) for r, batch in schedule.items()}
        self.deliver_prefix = dict(deliver_prefix or {})

    def plan_round(self, round_no, proposed, alive) -> CrashPlan:
        plan: dict[int, range] = {}
        for victim in self.schedule.get(round_no, []):
            if victim not in alive:
                continue
            keep = self.deliver_prefix.get(victim, 0)
            plan[victim] = range(len(proposed.get(victim, ())))[:keep]
        return plan


class MidSendPartitioner(CrashAdversary):
    """Crashes high-fanout nodes mid-send, delivering to a random half.

    This is the view-splitting attack: a committee member's response (or
    announcement) reaches only half the nodes, so survivors disagree on
    committee membership and on halving decisions.  Lemmas 2.3/2.5 claim
    the algorithm stays safe regardless; the integration tests run this
    adversary to check exactly that.
    """

    def __init__(self, budget: int, rng: Random, per_round: int = 1,
                 min_fanout: int = 2):
        super().__init__(budget)
        self.rng = rng
        self.per_round = per_round
        self.min_fanout = min_fanout

    def plan_round(self, round_no, proposed, alive) -> CrashPlan:
        if self.remaining_budget <= 0:  # spent: nobody to sort through
            return {}
        candidates = sorted(
            (victim for victim in alive
             if len(proposed.get(victim, [])) >= self.min_fanout),
            key=lambda victim: -len(proposed.get(victim, [])),
        )
        plan: dict[int, list[int]] = {}
        for victim in candidates[: self.per_round]:
            if len(plan) >= self.remaining_budget:
                break
            order = list(range(len(proposed.get(victim, ()))))
            self.rng.shuffle(order)
            plan[victim] = order[: len(order) // 2]
        return plan


class CommitteeHunter(CrashAdversary):
    """Kills every apparent committee member, round after round.

    A committee member is recognisable purely from observable behaviour:
    it is a node whose proposed fanout covers at least ``threshold`` of
    the network (committee members are the only nodes that talk to
    everyone).  Killing all of them in their announcement round forces
    the re-election mechanism of the crash algorithm, doubling the
    election probability ``p`` -- this adversary is the workload behind
    the resource-competitiveness experiments (F2/F8).

    ``deliver_fraction`` controls how much of a victim's in-flight
    traffic still leaks out (0 = clean pre-send crash, and no draw from
    ``rng``: a shuffle that keeps nothing decides nothing).
    """

    def __init__(self, budget: int, rng: Random, threshold: float = 0.5,
                 deliver_fraction: float = 0.0):
        super().__init__(budget)
        if not 0.0 <= deliver_fraction <= 1.0:
            raise ValueError(f"deliver_fraction must be in [0, 1]")
        self.rng = rng
        self.threshold = threshold
        self.deliver_fraction = deliver_fraction

    def plan_round(self, round_no, proposed, alive) -> CrashPlan:
        budget = self.remaining_budget
        if budget <= 0:  # spent: nobody to sort through
            return {}
        n = max(len(alive), 1)
        plan: dict[int, Sequence[int]] = {}
        for victim in sorted(alive):
            if len(plan) >= budget:
                break
            fanout = len(proposed.get(victim, ()))
            if fanout >= self.threshold * n:
                if not self.deliver_fraction:  # keeps nothing: no draw
                    plan[victim] = ()
                    continue
                order = list(range(fanout))
                self.rng.shuffle(order)
                plan[victim] = order[: int(fanout * self.deliver_fraction)]
        return plan


class BudgetedAdaptiveCrash(CrashAdversary):
    """A fully programmable adversary for white-box tests.

    ``policy`` receives ``(round_no, proposed, alive, remaining)``
    and returns a :data:`CrashPlan` of kept indices; the network still
    validates budget and subset constraints, so a buggy policy fails
    loudly.
    """

    def __init__(
        self,
        budget: int,
        policy: Callable[[int, Mapping[int, Sequence[Send]], frozenset[int],
                          int], CrashPlan],
    ):
        super().__init__(budget)
        self.policy = policy

    def plan_round(self, round_no, proposed, alive) -> CrashPlan:
        return self.policy(round_no, proposed, alive, self.remaining_budget)
