"""Tests for the Table 1 baseline algorithms."""

import math
from random import Random

import pytest

from repro.adversary.crash import MidSendPartitioner, RandomCrash, ScheduledCrash
from repro.analysis.experiments import (
    byzantine_config_for,
    default_namespace,
    sample_uids,
)
from repro.baselines.balls_into_slots import run_balls_into_slots
from repro.baselines.collect_rank import run_collect_rank
from repro.baselines.obg_halving import run_obg_halving
from repro.core.byzantine_renaming import run_byzantine_renaming
from repro.faults.channels import CorruptingChannel
from repro.faults.degradation import (
    CRASHED,
    SAFE_STALLED,
    SAFE_TERMINATED,
    classify_outcome,
)


def assert_strong(result, n):
    outputs = result.outputs_by_uid()
    values = list(outputs.values())
    assert len(set(values)) == len(values)
    assert all(1 <= value <= n for value in values)


class TestObgHalvingFailureFree:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 32, 100])
    def test_exact_renaming(self, n):
        result = run_obg_halving(range(5, 5 + 2 * n, 2), seed=n)
        outputs = result.outputs_by_uid()
        assert sorted(outputs.values()) == list(range(1, n + 1))

    def test_round_count_is_exactly_log_n(self):
        for n in (2, 3, 16, 33):
            result = run_obg_halving(range(1, n + 1), seed=1)
            assert result.rounds == math.ceil(math.log2(n))

    def test_message_count_is_n_squared_per_round(self):
        n = 24
        result = run_obg_halving(range(1, n + 1), seed=1)
        assert result.metrics.correct_messages == n * n * result.rounds

    def test_all_to_all_regardless_of_failures(self):
        """The baseline's defining flaw: cost does not adapt to f."""
        n = 24
        quiet = run_obg_halving(range(1, n + 1), seed=1)
        per_node_quiet = quiet.metrics.correct_messages / n
        noisy = run_obg_halving(
            range(1, n + 1),
            adversary=RandomCrash(4, 0.05, Random(2)), seed=1,
        )
        survivors = n - len(noisy.crashed)
        per_node_noisy = noisy.metrics.correct_messages / max(survivors, 1)
        assert per_node_noisy == pytest.approx(per_node_quiet, rel=0.25)


class TestObgHalvingUnderCrashes:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_crashes(self, seed):
        n = 32
        result = run_obg_halving(
            range(1, n + 1),
            adversary=RandomCrash(n // 2, 0.2, Random(seed)), seed=seed,
        )
        assert_strong(result, n)

    @pytest.mark.parametrize("seed", range(6))
    def test_view_splitting_crashes(self, seed):
        n = 32
        result = run_obg_halving(
            range(1, n + 1),
            adversary=MidSendPartitioner(n // 2, Random(seed), per_round=4),
            seed=seed,
        )
        assert_strong(result, n)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            run_obg_halving([2, 2])


class TestCorruptInputIsClassified:
    """A bit-flipping channel may stall an all-to-all baseline -- a node
    whose own report arrives corrupted cannot rank itself, a ball can
    find every slot claimed by forged claims -- but somebody getting no
    name is a classified outcome, never a traceback; the same holds for
    Byzantine renaming.  (Fault-free and crash-only counts are pinned by
    ``tests/test_golden_digests.py``.)"""

    RUNS = {"obg": run_obg_halving, "balls": run_balls_into_slots,
            "collect": run_collect_rank}

    def _outcome(self, baseline, seed, n=24):
        namespace = default_namespace(n)
        uids = sample_uids(n, namespace, Random(seed))
        return classify_outcome(lambda: self.RUNS[baseline](
            uids, namespace=namespace, seed=seed,
            fault_model=CorruptingChannel(0.1, seed=seed)))

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("baseline", sorted(RUNS))
    def test_corrupting_channel_never_crashes_a_baseline(self, baseline,
                                                         seed):
        outcome, detail = self._outcome(baseline, seed)
        assert outcome != CRASHED, detail
        assert outcome in (SAFE_STALLED, SAFE_TERMINATED)
        if baseline == "collect":
            # A knowledge set has no integer field for the channel to
            # flip (`corrupt_message`): the gossip arrives as sent.
            assert outcome == SAFE_TERMINATED

    @pytest.mark.parametrize("seed", range(10))
    def test_corrupting_channel_stalls_byzantine_renaming(self, seed):
        # The last algorithm of ROADMAP 1(d).  Its fault-free run takes
        # 46 rounds at n=24; with one message in ten corrupted it is
        # still running at round 200, and the round cap ends it.
        n = 24
        namespace = default_namespace(n)
        uids = sample_uids(n, namespace, Random(seed))
        outcome, detail = classify_outcome(lambda: run_byzantine_renaming(
            uids, namespace=namespace, config=byzantine_config_for(n, 1),
            seed=seed, max_rounds=200,
            fault_model=CorruptingChannel(0.1, seed=seed)))
        assert outcome == SAFE_STALLED, detail
        assert (detail["invariant"], detail["round"]) == ("max-rounds", 200)

    @pytest.mark.parametrize("baseline, seed, message", [
        ("obg", 0, "node 602: own report missing"),
        ("balls", 5, "node 2659: no free slots left"),
    ])
    def test_the_stall_names_the_node_left_without_a_name(
            self, baseline, seed, message):
        outcome, detail = self._outcome(baseline, seed)
        assert outcome == SAFE_STALLED
        assert detail["error"] == "RenamingFailure"
        assert detail["message"].startswith(message)


class TestCollectRankFailureFree:
    def test_names_are_identity_ranks(self):
        uids = [50, 7, 99, 23]
        result = run_collect_rank(uids, seed=1, assumed_faults=2)
        assert result.outputs_by_uid() == {7: 1, 23: 2, 50: 3, 99: 4}

    def test_order_preserving(self):
        uids = list(range(100, 0, -7))
        result = run_collect_rank(uids, seed=1, assumed_faults=3)
        outputs = result.outputs_by_uid()
        ordered = sorted(outputs)
        assert all(outputs[a] < outputs[b] for a, b in zip(ordered, ordered[1:]))

    def test_rounds_grow_with_assumed_faults_not_actual(self):
        uids = list(range(1, 21))
        light = run_collect_rank(uids, assumed_faults=2, seed=1)
        heavy = run_collect_rank(uids, assumed_faults=15, seed=1)
        assert light.rounds == 3
        assert heavy.rounds == 16

    def test_default_provisioning_is_n_minus_one(self):
        uids = list(range(1, 11))
        result = run_collect_rank(uids, seed=1)
        assert result.rounds == 10

    def test_messages_carry_linear_bits(self):
        n = 20
        result = run_collect_rank(range(1, n + 1), seed=1, assumed_faults=2)
        # After the first round every gossip carries ~n identities.
        assert result.metrics.max_message_bits >= n * 5

    def test_invalid_assumed_faults(self):
        with pytest.raises(ValueError):
            run_collect_rank([1, 2, 3], assumed_faults=3)


class TestCollectRankUnderCrashes:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_crashes_within_provisioning(self, seed):
        n = 24
        budget = 8
        result = run_collect_rank(
            range(1, n + 1),
            adversary=RandomCrash(budget, 0.15, Random(seed)),
            assumed_faults=budget, seed=seed,
        )
        assert_strong(result, n)

    def test_chain_of_mid_send_crashes(self):
        # A relay chain: each round one node crashes mid-broadcast,
        # leaking its knowledge to exactly one survivor.
        n = 10
        schedule = {r: [r - 1] for r in range(1, 6)}
        prefix = {victim: 1 for victim in range(5)}
        result = run_collect_rank(
            range(1, n + 1),
            adversary=ScheduledCrash(schedule, deliver_prefix=prefix),
            assumed_faults=6, seed=3,
        )
        assert_strong(result, n)

    def test_exhausted_provisioning_can_break_uniqueness(self):
        """Anti-test: crash budget beyond the provisioned bound may
        leave inconsistent knowledge -- the reason this family must
        provision for the worst case (and pay Theta(n) rounds)."""
        n = 8
        # 4 crashes but provisioning for 1 (2 rounds): build a hiding
        # chain for identity 1: node 0 tells only node 1, which tells
        # only node 2, which dies too.
        schedule = {1: [0], 2: [1]}
        prefix = {0: 2, 1: 3}
        result = run_collect_rank(
            range(1, n + 1),
            adversary=ScheduledCrash(schedule, deliver_prefix=prefix),
            assumed_faults=1, seed=5,
        )
        outputs = result.outputs_by_uid()
        values = list(outputs.values())
        # Not asserting failure (the chain may misfire), only that the
        # run completes; uniqueness is NOT guaranteed here by design.
        assert len(values) == n - 2
