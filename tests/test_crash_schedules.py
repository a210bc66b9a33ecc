"""Property tests: uniqueness survives arbitrary adversarial schedules.

Hypothesis drives the adaptive adversary: it draws crash rounds,
victims, and mid-send delivery prefixes, and the invariant checked is
the paper's deterministic correctness claim -- surviving nodes always
hold distinct names in ``[1, n]``, under *every* schedule.
"""

import math
from random import Random

from hypothesis import given, settings, strategies as st

from repro.adversary.crash import BudgetedAdaptiveCrash, ScheduledCrash
from repro.baselines.obg_halving import run_obg_halving
from repro.core.crash_renaming import CrashRenamingConfig, run_crash_renaming

CONFIG = CrashRenamingConfig(election_constant=4)


def schedule_strategy(n: int, max_rounds: int):
    """Random (round -> victims) schedules plus delivery prefixes."""
    victims = st.lists(
        st.integers(0, n - 1), unique=True, max_size=n - 1
    )
    return st.tuples(
        victims,
        st.lists(st.integers(1, max_rounds), min_size=n, max_size=n),
        st.lists(st.integers(0, n), min_size=n, max_size=n),
    )


def build_schedule(drawn, n):
    victims, rounds, prefixes = drawn
    schedule: dict[int, list[int]] = {}
    deliver_prefix = {}
    for victim in victims:
        schedule.setdefault(rounds[victim], []).append(victim)
        deliver_prefix[victim] = prefixes[victim]
    return ScheduledCrash(schedule, deliver_prefix=deliver_prefix)


class TestCrashRenamingUnderSchedules:
    N = 16

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10**6))
    def test_uniqueness_under_any_schedule(self, data, seed):
        n = self.N
        max_rounds = 9 * math.ceil(math.log2(n))
        adversary = build_schedule(
            data.draw(schedule_strategy(n, max_rounds)), n
        )
        result = run_crash_renaming(
            range(1, n + 1), adversary=adversary, seed=seed, config=CONFIG,
        )
        outputs = result.outputs_by_uid()
        values = list(outputs.values())
        assert len(set(values)) == len(values)
        assert all(1 <= value <= n for value in values)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), burst_round=st.integers(1, 40),
           burst_size=st.integers(1, 15))
    def test_burst_crashes(self, seed, burst_round, burst_size):
        n = self.N
        rng = Random(seed)
        victims = rng.sample(range(n), min(burst_size, n - 1))
        adversary = ScheduledCrash({burst_round: victims})
        result = run_crash_renaming(
            range(1, n + 1), adversary=adversary, seed=seed, config=CONFIG,
        )
        outputs = result.outputs_by_uid()
        assert len(set(outputs.values())) == len(outputs)


class TestAdaptiveWorstCase:
    """A white-box adaptive policy that crashes the busiest sender each
    round, delivering a prefix of its traffic -- maximal view splitting."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), keep=st.integers(0, 8))
    def test_busiest_sender_assassin(self, seed, keep):
        n = 16

        def policy(round_no, proposed, alive, remaining):
            if remaining == 0 or not proposed:
                return {}
            busiest = max(proposed, key=lambda v: (len(proposed[v]), v))
            if not proposed[busiest]:
                return {}
            return {busiest: range(min(keep, len(proposed[busiest])))}

        adversary = BudgetedAdaptiveCrash(n - 2, policy)
        result = run_crash_renaming(
            range(1, n + 1), adversary=adversary, seed=seed, config=CONFIG,
        )
        outputs = result.outputs_by_uid()
        values = list(outputs.values())
        assert len(set(values)) == len(values)
        assert all(1 <= value <= n for value in values)


class TestBaselineUnderSchedules:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 10**6))
    def test_obg_uniqueness_under_any_schedule(self, data, seed):
        n = 16
        max_rounds = math.ceil(math.log2(n))
        adversary = build_schedule(
            data.draw(schedule_strategy(n, max_rounds)), n
        )
        result = run_obg_halving(
            range(1, n + 1), adversary=adversary, seed=seed
        )
        outputs = result.outputs_by_uid()
        values = list(outputs.values())
        assert len(set(values)) == len(values)
        assert all(1 <= value <= n for value in values)
