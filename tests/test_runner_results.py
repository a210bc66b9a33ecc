"""Tests for ExecutionResult bookkeeping and edge semantics."""

import pytest

from repro.sim.messages import CostModel
from repro.sim.node import IdleProcess
from repro.sim.runner import ExecutionResult, run_network
from tests.test_network import Chatter


class TestCorrectResults:
    def test_excludes_byzantine_outputs(self):
        class FinishingByz(IdleProcess):
            byzantine = True

            def program(self, ctx):
                yield []
                return "junk"

        processes = [Chatter(uid=1, rounds=1), FinishingByz(uid=2)]
        result = run_network(processes, CostModel(n=2, namespace=10))
        assert result.correct_results == {0: 1}
        assert result.results.get(1) == "junk"
        assert result.outputs_by_uid() == {1: 1}

    def test_excludes_crashed_nodes(self):
        from repro.adversary.crash import ScheduledCrash

        processes = [Chatter(uid=1, rounds=2), Chatter(uid=2, rounds=2)]
        result = run_network(
            processes, CostModel(n=2, namespace=10),
            crash_adversary=ScheduledCrash({1: [1]}),
        )
        # Link 1 (uid 2) crashed: absent from correct results; the
        # survivor uid 1 keeps its output.
        assert 1 not in result.correct_results
        assert result.outputs_by_uid() == {1: 1}

    def test_manual_construction(self):
        result = ExecutionResult(
            results={0: "a", 1: "b"},
            metrics=None,
            crashed={1},
            byzantine=set(),
            rounds=3,
            processes=[IdleProcess(uid=7), IdleProcess(uid=8)],
        )
        assert result.correct_results == {0: "a"}
        assert result.outputs_by_uid() == {7: "a"}


class TestSeededReplays:
    def test_network_seed_controls_private_rngs(self):
        class CoinFlipper(IdleProcess):
            def program(self, ctx):
                yield []
                return ctx.rng.random()

        def run(seed):
            processes = [CoinFlipper(uid=i + 1) for i in range(3)]
            return run_network(processes, CostModel(n=3, namespace=10),
                               seed=seed)

        assert run(5).results == run(5).results
        assert run(5).results != run(6).results

    def test_per_node_streams_are_independent(self):
        class CoinFlipper(IdleProcess):
            def program(self, ctx):
                yield []
                return ctx.rng.random()

        processes = [CoinFlipper(uid=i + 1) for i in range(4)]
        result = run_network(processes, CostModel(n=4, namespace=10), seed=1)
        values = list(result.results.values())
        assert len(set(values)) == len(values)
