"""A crash round costs its crashes: the plan and the bookkeeping.

DESIGN decision 15 promises that a crash is paid for by what it does,
not by the victim's fan-out or by n.  Two places paid more:

- ``CommitteeHunter.plan_round`` shuffled ``list(range(fanout))`` for
  every victim to keep ``order[:int(fanout * deliver_fraction)]`` -- at
  the default fraction 0, nothing.  It now draws nothing when it keeps
  nothing.  The plan before that is kept here as the oracle
  (:class:`OracleHunter`): over consecutive rounds the plans must be
  the same lists of indices; at fraction 0 the hunter's ``Random`` is
  never touched, above 0 its state equals the oracle's after every
  round, so every later draw is the same.
- ``SyncNetwork._retire`` did a ``list.remove`` on the correct-pending
  order per victim and per finisher.  It is now a dict keyed by index;
  ``_correct_pending()`` and a capped run's ``NonTerminationError.
  pending`` must still be the ascending list of correct nodes neither
  crashed nor finished, after any sequence of crashes and terminations.

A spent ``RandomCrash`` or ``MidSendPartitioner`` answers ``{}`` without
reading the alive set or its ``Random``.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.crash import (
    BudgetedAdaptiveCrash,
    CommitteeHunter,
    MidSendPartitioner,
    RandomCrash,
)
from repro.sim.messages import broadcast
from repro.sim.network import NonTerminationError, SyncNetwork
from repro.sim.node import Process
from tests.test_network import Ping, cost_for


class OracleHunter(CommitteeHunter):
    """``CommitteeHunter.plan_round`` as it was: a shuffle per victim,
    whatever the victim keeps."""

    def plan_round(self, round_no, proposed, alive):
        if self.remaining_budget <= 0:
            return {}
        n = max(len(alive), 1)
        plan = {}
        for victim in sorted(alive):
            if len(plan) >= self.remaining_budget:
                break
            fanout = len(proposed.get(victim, ()))
            if fanout >= self.threshold * n:
                order = list(range(fanout))
                self.rng.shuffle(order)
                plan[victim] = order[: int(fanout * self.deliver_fraction)]
        return plan


def proposals(rng: Random, alive, n: int, threshold: float) -> dict:
    """Fan-out lengths, some at or above ``threshold * len(alive)``; a
    strategy reads only ``len`` of a proposal, so a ``range`` stands in."""
    big = int(threshold * max(len(alive), 1)) + 1
    return {victim: range(rng.choice([0, 1, rng.randrange(big + 1),
                                      big, big + rng.randrange(2 * n)]))
            for victim in alive}


class TestHunterAgainstTheOracle:
    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 40), budget_share=st.floats(0, 1),
           threshold=st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]),
           fraction=st.sampled_from([0.0, 0.3, 0.5]),
           rounds=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_same_plans_and_rng_stream(self, n, budget_share, threshold,
                                       fraction, rounds, seed):
        budget = int(budget_share * n)
        hunter = CommitteeHunter(budget, Random(seed), threshold=threshold,
                                 deliver_fraction=fraction)
        oracle = OracleHunter(budget, Random(seed), threshold=threshold,
                              deliver_fraction=fraction)
        untouched = hunter.rng.getstate()
        world = Random(seed ^ 0x5EED)
        alive = set(range(n))
        for round_no in range(1, rounds + 1):
            proposed = proposals(world, alive, n, threshold)
            plan = hunter.plan_round(round_no, proposed, frozenset(alive))
            expected = oracle.plan_round(round_no, proposed,
                                         frozenset(alive))
            assert list(plan) == list(expected)
            assert {v: list(kept) for v, kept in plan.items()} == expected
            if fraction:
                assert hunter.rng.getstate() == oracle.rng.getstate()
            else:
                assert hunter.rng.getstate() == untouched
            hunter.note_crashes(set(plan))
            oracle.note_crashes(set(expected))
            alive -= set(plan)
            # Some survivors terminate: they leave the alive set uncrashed.
            alive -= {v for v in alive if world.random() < 0.1}

    def test_a_committee_round_at_fraction_zero_draws_nothing(self):
        hunter = CommitteeHunter(64, Random(3))
        state = hunter.rng.getstate()
        proposed = {v: range(128 if v % 2 else 3) for v in range(128)}
        plan = hunter.plan_round(1, proposed, frozenset(proposed))
        assert sorted(plan) == list(range(1, 128, 2))
        assert all(len(kept) == 0 for kept in plan.values())
        assert hunter.rng.getstate() == state


class Untouchable(frozenset):
    """An alive set that may be sized but not walked."""

    def __iter__(self):
        raise AssertionError("a spent adversary walked the alive set")


class TestSpentBudget:
    @pytest.mark.parametrize("make", [
        lambda budget, rng: RandomCrash(budget, rate=1.0, rng=rng),
        lambda budget, rng: MidSendPartitioner(budget, rng, per_round=4),
        lambda budget, rng: CommitteeHunter(budget, rng,
                                            deliver_fraction=0.5),
    ], ids=["random", "partitioner", "hunter"])
    @pytest.mark.parametrize("budget", [0, 3])
    def test_spent_adversary_answers_empty_and_draws_nothing(self, make,
                                                             budget):
        adversary = make(budget, Random(11))
        adversary.note_crashes(set(range(100, 100 + budget)))
        state = adversary.rng.getstate()
        alive = Untouchable(range(16))
        proposed = {v: range(16) for v in range(16)}
        assert adversary.plan_round(5, proposed, alive) == {}
        assert adversary.rng.getstate() == state

    def test_budget_left_still_plans(self):
        adversary = RandomCrash(2, rate=1.0, rng=Random(11))
        plan = adversary.plan_round(1, {v: range(4) for v in range(8)},
                                    frozenset(range(8)))
        assert sorted(plan) == [0, 1]


class Lifer(Process):
    """Broadcasts (or idles) for ``life`` rounds, then returns its uid;
    ``life=None`` never returns."""

    def __init__(self, uid, life, talks, byzantine=False):
        super().__init__(uid)
        self.life = life
        self.talks = talks
        self.byzantine = byzantine

    def program(self, ctx):
        age = 0
        while self.life is None or age < self.life:
            age += 1
            yield broadcast(ctx.n, Ping(age)) if self.talks else []
        return self.uid


class PendingCheck:
    """After every round, ``_correct_pending()`` is the ascending list of
    correct nodes neither crashed nor finished."""

    def __init__(self):
        self.rounds = 0

    @staticmethod
    def expected(network):
        return [index for index, process in enumerate(network.processes)
                if not process.byzantine and index not in network.crashed
                and index not in network.finished]

    def on_start(self, network):
        assert network._correct_pending() == self.expected(network)

    def on_round(self, network):
        self.rounds += 1
        pending = network._correct_pending()
        assert pending == self.expected(network)
        pending.append(-1)  # a copy: the network's order is not touched
        assert network._correct_pending() == self.expected(network)

    def on_finish(self, network):
        assert network._correct_pending() == []


CAP = 10


class TestCorrectPendingOrder:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
           crash_rate=st.sampled_from([0.0, 0.2, 0.5]),
           immortal_rate=st.sampled_from([0.0, 0.1]))
    def test_ascending_after_crashes_and_terminations(
            self, n, seed, crash_rate, immortal_rate):
        rng = Random(seed)
        processes = [
            Lifer(index + 1,
                  None if rng.random() < immortal_rate
                  else rng.randrange(CAP + 2),
                  talks=rng.random() < 0.5,
                  byzantine=rng.random() < 0.2)
            for index in range(n)]
        draws = Random(seed + 1)

        def policy(round_no, proposed, alive, remaining):
            victims = [v for v in sorted(alive) if draws.random() < crash_rate]
            return {v: [] for v in victims[:remaining]}

        check = PendingCheck()
        network = SyncNetwork(
            processes, cost_for(n), max_rounds=CAP, monitors=[check],
            crash_adversary=BudgetedAdaptiveCrash(n, policy))
        try:
            network.run()
        except NonTerminationError as error:
            assert error.round_no == CAP
            assert list(error.pending) == PendingCheck.expected(network)
            assert error.pending  # only a correct node left keeps a run going
            assert error.pending == tuple(sorted(error.pending))
        else:
            assert network._correct_pending() == []
        assert check.rounds == network.round_no

    def test_capped_run_names_the_pending_in_ascending_order(self):
        # Link 5 is crashed, 2 finishes, 7 is Byzantine: the rest pend.
        processes = [Lifer(index + 1, 1 if index == 2 else None, talks=True,
                           byzantine=index == 7) for index in range(9)]

        def policy(round_no, proposed, alive, remaining):
            return {5: []} if round_no == 1 else {}

        network = SyncNetwork(
            processes, cost_for(9), max_rounds=3,
            crash_adversary=BudgetedAdaptiveCrash(1, policy))
        with pytest.raises(NonTerminationError) as caught:
            network.run()
        assert caught.value.pending == (0, 1, 3, 4, 6, 8)
