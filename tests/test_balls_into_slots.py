"""Tests for the balls-into-slots baseline ([3]-style)."""

import math
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.crash import (
    BudgetedAdaptiveCrash,
    MidSendPartitioner,
    RandomCrash,
    ScheduledCrash,
)
from repro.baselines.balls_into_slots import run_balls_into_slots


def assert_strong(result, n):
    outputs = result.outputs_by_uid()
    values = list(outputs.values())
    assert len(set(values)) == len(values), f"duplicates: {outputs}"
    assert all(1 <= value <= n for value in values)


class TestFailureFree:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 50, 128])
    def test_every_slot_assigned(self, n):
        result = run_balls_into_slots(range(2, 2 + 5 * n, 5), seed=n)
        outputs = result.outputs_by_uid()
        assert sorted(outputs.values()) == list(range(1, n + 1))

    def test_round_count_is_logarithmic(self):
        # Randomized, but strongly concentrated: a constant fraction of
        # the contenders win each round.
        for n in (16, 64, 256):
            result = run_balls_into_slots(range(1, n + 1), seed=1)
            assert result.rounds <= 4 * math.ceil(math.log2(n)) + 4

    def test_messages_are_quadratic_per_active_round(self):
        n = 64
        result = run_balls_into_slots(range(1, n + 1), seed=1)
        # Every node broadcasts every round until quiescence.
        assert result.metrics.correct_messages >= n * n
        assert result.metrics.correct_messages <= n * n * result.rounds

    def test_messages_are_small(self):
        result = run_balls_into_slots(range(1, 65), namespace=1 << 20, seed=2)
        assert result.metrics.max_message_bits < 40

    def test_replayable(self):
        a = run_balls_into_slots(range(1, 33), seed=9)
        b = run_balls_into_slots(range(1, 33), seed=9)
        assert a.outputs_by_uid() == b.outputs_by_uid()
        assert a.rounds == b.rounds

    def test_duplicate_uids_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            run_balls_into_slots([4, 4])


class TestUnderCrashes:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_crashes(self, seed):
        n = 40
        result = run_balls_into_slots(
            range(1, n + 1),
            adversary=RandomCrash(n // 2, 0.1, Random(seed)), seed=seed,
        )
        assert_strong(result, n)

    @pytest.mark.parametrize("seed", range(6))
    def test_mid_send_claim_crashes(self, seed):
        """The nasty case: a claimant crashes mid-broadcast, so views
        disagree on whether its slot is taken."""
        n = 32
        result = run_balls_into_slots(
            range(1, n + 1),
            adversary=MidSendPartitioner(n // 2, Random(seed), per_round=3),
            seed=seed,
        )
        assert_strong(result, n)

    def test_winner_assassination(self):
        """Crash the lowest-index claimant every round (it is most
        likely to be winning some slot)."""
        n = 16

        def policy(round_no, proposed, alive, remaining):
            if remaining == 0 or not proposed:
                return {}
            victim = min(v for v in proposed if proposed[v])
            kept = list(proposed[victim])[: len(proposed[victim]) // 2]
            return {victim: kept}

        result = run_balls_into_slots(
            range(1, n + 1),
            adversary=BudgetedAdaptiveCrash(n - 2, policy), seed=4,
        )
        assert_strong(result, n)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_uniqueness_under_random_schedules(self, seed, data):
        n = 12
        victims = data.draw(st.lists(
            st.integers(0, n - 1), unique=True, max_size=n - 1,
        ))
        rounds = data.draw(st.lists(
            st.integers(1, 12), min_size=len(victims), max_size=len(victims),
        ))
        prefixes = data.draw(st.lists(
            st.integers(0, n), min_size=len(victims), max_size=len(victims),
        ))
        schedule: dict[int, list[int]] = {}
        for victim, round_no in zip(victims, rounds):
            schedule.setdefault(round_no, []).append(victim)
        adversary = ScheduledCrash(
            schedule,
            deliver_prefix=dict(zip(victims, prefixes)),
        )
        result = run_balls_into_slots(
            range(1, n + 1), adversary=adversary, seed=seed,
        )
        assert_strong(result, n)


class TestLooseRenaming:
    """Definition 1.1's general M >= n: slack trades namespace for time."""

    def test_names_lie_in_the_larger_namespace(self):
        n, slots = 32, 64
        result = run_balls_into_slots(range(1, n + 1), slots=slots, seed=1)
        outputs = result.outputs_by_uid()
        assert len(set(outputs.values())) == n
        assert all(1 <= value <= slots for value in outputs.values())

    def test_slack_speeds_up_the_race(self):
        n = 128
        strong = [run_balls_into_slots(range(1, n + 1), seed=s).rounds
                  for s in range(3)]
        loose = [run_balls_into_slots(range(1, n + 1), slots=4 * n,
                                      seed=s).rounds for s in range(3)]
        assert max(loose) <= min(strong)

    def test_slots_below_n_rejected(self):
        with pytest.raises(ValueError, match="smaller than n"):
            run_balls_into_slots(range(1, 9), slots=7)

    def test_loose_under_crashes(self):
        n = 24
        result = run_balls_into_slots(
            range(1, n + 1), slots=2 * n,
            adversary=RandomCrash(8, 0.1, Random(3)), seed=3,
        )
        outputs = result.outputs_by_uid()
        values = list(outputs.values())
        assert len(set(values)) == len(values)
        assert all(1 <= value <= 2 * n for value in values)

    def test_namespace_covers_slots(self):
        # When uids are tiny but slots large, the cost model namespace
        # must still cover the slot values.
        result = run_balls_into_slots([1, 2, 3], slots=30, seed=1)
        assert result.metrics.max_message_bits > 0
