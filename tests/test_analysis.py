"""Tests for complexity envelopes, statistics, and experiment drivers."""

import math

import pytest

from repro.analysis.complexity import (
    byzantine_message_envelope,
    byzantine_round_envelope,
    crash_message_envelope,
    crash_round_bound,
    fit_loglog_slope,
    gossip_bit_envelope,
    obg_message_envelope,
)
from repro.analysis.experiments import (
    check_renaming,
    crash_run_summary,
    default_namespace,
    gossip_run_summary,
    make_crash_adversary,
    obg_run_summary,
    sample_uids,
    summary,
    table1_rows,
)
from repro.analysis.stats import replicate, summarize


class TestEnvelopes:
    def test_crash_round_bound(self):
        assert crash_round_bound(1) == 0
        assert crash_round_bound(16) == 36
        assert crash_round_bound(17) == 45

    def test_crash_messages_grow_with_f(self):
        assert crash_message_envelope(64, 10) > crash_message_envelope(64, 0)

    def test_byzantine_rounds_floor_at_one_log(self):
        assert byzantine_round_envelope(64, 0, 4096) == math.log2(64)

    def test_byzantine_messages_linear_term_dominates_honest_runs(self):
        n = 1024
        assert byzantine_message_envelope(n, 0, 5 * n * n) == n * math.log2(n)

    def test_obg_is_quadratic(self):
        assert obg_message_envelope(100) / obg_message_envelope(50) > 3.5

    def test_gossip_is_cubic(self):
        ratio = gossip_bit_envelope(100, 10**5, 99) / gossip_bit_envelope(
            50, 10**5, 49
        )
        assert ratio > 14


class TestSlopeFitting:
    def test_exact_power_law(self):
        xs = [2, 4, 8, 16, 32]
        ys = [x ** 2 for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(2.0)

    def test_linear(self):
        xs = [10, 100, 1000]
        ys = [3 * x for x in xs]
        assert fit_loglog_slope(xs, ys) == pytest.approx(1.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([1], [1])
        with pytest.raises(ValueError):
            fit_loglog_slope([1, 2], [0, 1])
        with pytest.raises(ValueError):
            fit_loglog_slope([1, 2, 3], [1, 2])
        with pytest.raises(ValueError):
            fit_loglog_slope([2, 2], [1, 2])


class TestStats:
    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.std == pytest.approx(1.0)
        assert summary.count == 3

    def test_single_sample_has_zero_std(self):
        assert summarize([5.0]).std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_replicate_groups_by_key(self):
        outcome = replicate(lambda seed: {"x": seed, "y": 2 * seed}, [1, 2, 3])
        assert outcome["x"].mean == 2.0
        assert outcome["y"].mean == 4.0

    def test_replicate_needs_seeds(self):
        with pytest.raises(ValueError):
            replicate(lambda seed: {"x": 1}, [])

    def test_as_dict(self):
        assert summarize([2.0]).as_dict()["mean"] == 2.0


class TestDrivers:
    def test_default_namespace_regime(self):
        assert default_namespace(10) == 500
        assert default_namespace(1) == 16

    def test_sample_uids_distinct_and_in_range(self):
        from random import Random

        uids = sample_uids(20, 500, Random(1))
        assert len(set(uids)) == 20
        assert all(1 <= uid <= 500 for uid in uids)

    def test_sample_uids_needs_room(self):
        from random import Random

        with pytest.raises(ValueError):
            sample_uids(10, 5, Random(1))

    def test_unknown_adversary_kind(self):
        from random import Random

        with pytest.raises(ValueError):
            make_crash_adversary("nuclear", 3, Random(1))

    def test_crash_summary_row(self):
        row = crash_run_summary(16, 4, seed=1)
        assert row["unique"] and row["strong"]
        assert row["n"] == 16
        assert row["f_actual"] <= 4
        assert row["rounds"] == 36

    def test_obg_summary_row(self):
        row = obg_run_summary(16, 2, seed=1)
        assert row["unique"] and row["strong"]
        assert row["rounds"] == 4

    def test_gossip_summary_row(self):
        row = gossip_run_summary(12, 2, seed=1)
        assert row["unique"] and row["strong"] and row["order_preserving"]

    def test_byzantine_summary_row(self):
        row = summary("byzantine", 10, 1, 1, consensus_iterations=8)
        assert row["unique"] and row["strong"] and row["order_preserving"]
        assert row["f_actual"] == 1

    def test_check_renaming_detects_duplicates(self):
        class Fake:
            def outputs_by_uid(self):
                return {1: 1, 2: 1}

        checks = check_renaming(Fake(), 2)
        assert not checks["unique"]

    @pytest.mark.slow
    def test_table1_rows_all_correct(self):
        rows = table1_rows(24, 3, seed=1)
        assert len(rows) == 6
        assert all(row["unique"] and row["strong"] for row in rows)
