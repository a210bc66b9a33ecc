"""Per-round ledger accounting and ExecutionResult exclusion semantics.

The engine's run store persists ``messages_per_round``/``bits_per_round``
as the round-resolved ground truth of an execution, so these ledgers
must tie out exactly against the scalar totals.
"""

from dataclasses import dataclass
from random import Random

import pytest

from repro.analysis.experiments import (
    byzantine_run_summary,
    crash_run_summary,
    default_namespace,
    sample_uids,
)
from repro.core.byzantine_renaming import run_byzantine_renaming
from repro.core.crash_renaming import run_crash_renaming
from repro.adversary import byzantine as byz
from repro.adversary.crash import RandomCrash
from repro.sim.messages import (
    CostModel,
    Message,
    Send,
    bit_length_of_domain,
)
from repro.sim.metrics import Metrics
from repro.sim.node import IdleProcess
from repro.sim.runner import ExecutionResult, run_network
from repro.sim.trace import Trace


@dataclass(frozen=True)
class _Blob(Message):
    bits: int

    def payload_bits(self, cost: CostModel) -> int:
        return self.bits


class TestPerRoundLedgers:
    def _crash_result(self, n=12, f=3, seed=4):
        namespace = default_namespace(n)
        uids = sample_uids(n, namespace, Random(seed))
        return run_crash_renaming(
            uids, namespace=namespace,
            adversary=RandomCrash(f, rate=0.1, rng=Random(seed + 1)),
            seed=seed + 2,
        )

    def test_crash_ledgers_sum_to_totals(self):
        metrics = self._crash_result().metrics
        assert sum(metrics.messages_per_round) == metrics.total_messages
        assert sum(metrics.bits_per_round) == metrics.total_bits
        assert len(metrics.messages_per_round) == metrics.rounds
        assert len(metrics.bits_per_round) == metrics.rounds

    def test_byzantine_ledgers_include_byzantine_traffic(self):
        n, seed = 8, 2
        namespace = default_namespace(n)
        uids = sample_uids(n, namespace, Random(seed))
        result = run_byzantine_renaming(
            uids, namespace=namespace,
            byzantine={uids[1]: byz.make_withholder(0.5, salt=seed)},
            shared_seed=seed, seed=seed + 1,
        )
        metrics = result.metrics
        # The per-round ledger records every transmitted message, both
        # ledgers' worth -- correct and Byzantine senders alike.
        assert metrics.byzantine_messages > 0
        assert sum(metrics.messages_per_round) == metrics.total_messages
        assert sum(metrics.bits_per_round) == metrics.total_bits

    def test_max_message_bits_monotone_and_exact(self):
        metrics = Metrics(cost=CostModel(n=4, namespace=16))
        sizes = [10, 3, 25, 25, 7, 40, 1]
        seen_max = 0
        for round_no, size in enumerate(sizes):
            metrics.begin_round()
            metrics.record_send(0, _Blob(size), byzantine=False)
            expected = _Blob(size).bit_size(metrics.cost)
            seen_max = max(seen_max, expected)
            # Monotone: the watermark never decreases...
            assert metrics.max_message_bits == seen_max
        # ...and ends exactly at the largest message transmitted.
        assert metrics.max_message_bits == max(
            _Blob(size).bit_size(metrics.cost) for size in sizes
        )

    def test_include_rounds_rows_match_scalar_totals(self):
        row = crash_run_summary(10, 2, seed=3, include_rounds=True)
        # Crash runs have no Byzantine senders, so the ledger total is
        # exactly the correct-message count the row reports.
        assert sum(row["messages_per_round"]) == row["messages"]
        assert sum(row["bits_per_round"]) == row["bits"]
        assert len(row["messages_per_round"]) == row["rounds"]

    def test_include_rounds_default_off(self):
        row = byzantine_run_summary(8, 1, seed=2, strategy="silent")
        assert "messages_per_round" not in row
        assert "bits_per_round" not in row


@dataclass(frozen=True)
class _Chirp(Message):
    def payload_bits(self, cost: CostModel) -> int:
        return cost.id_bits + cost.depth_bits


class TestOneFlushPerSender:
    def test_three_runs_of_two_types_match_one_by_one_charging(self):
        """The engine flushes a sender's round once; the ledgers must
        equal ``record_send`` called send by send."""
        big, small, chirp = _Blob(30), _Blob(2), _Chirp()
        script = [Send(1, big), Send(2, big), Send(0, chirp),
                  Send(2, small), Send(2, small), Send(1, small)]

        class Talker(IdleProcess):
            def program(self, ctx):
                yield list(script) if ctx.index == 1 else []
                return None

        cost = CostModel(n=3, namespace=50)
        engine = run_network([Talker(uid) for uid in (5, 6, 7)], cost).metrics
        singles = Metrics(cost=cost)
        singles.begin_round()
        for send in script:
            singles.record_send(1, send.message, byzantine=False)
        assert engine == singles
        assert engine.sends_by_type == {"_Blob": 5, "_Chirp": 1}
        assert engine.sends_by_node == {1: 6}
        assert engine.max_message_bits == big.bit_size(cost)

    def test_flush_before_begin_round_raises(self):
        metrics = Metrics(cost=CostModel(n=4, namespace=16))
        with pytest.raises(RuntimeError, match="begin_round"):
            metrics.flush(0, 2, 14, 7, [(_Blob, 2)], byzantine=False)
        with pytest.raises(RuntimeError, match="begin_round"):
            metrics.record_sends(0, _Blob(3), 2, byzantine=True)


class TestCostModelWordSizes:
    def test_identity_is_the_two_fields_only(self):
        cost, twin = CostModel(12, 700), CostModel(12, 700)
        before = (repr(cost), hash(cost))
        assert cost.id_bits and cost.digest_bits  # now cached on `cost`
        assert cost == twin and hash(cost) == hash(twin)
        assert (repr(cost), hash(cost)) == before
        assert repr(cost) == "CostModel(n=12, namespace=700)"
        assert cost != CostModel(12, 701)

    @pytest.mark.parametrize("n, namespace", [
        (1, 1), (2, 2), (96, 5 * 96 * 96), (2**53, 2**53 + 1),
        (2**53 + 1, 2**64 + 1), (2**63, 2**64),
    ])
    def test_word_sizes_are_the_documented_domains(self, n, namespace):
        cost = CostModel(n, namespace)
        for _ in range(2):  # first read computes, second reads the cache
            assert cost.id_bits == bit_length_of_domain(namespace)
            assert cost.index_bits == bit_length_of_domain(n)
            assert cost.counter_bits == bit_length_of_domain(n)
            assert cost.depth_bits == bit_length_of_domain(
                bit_length_of_domain(n) + 1)
            assert cost.digest_bits == 6 * bit_length_of_domain(namespace)
        assert CostModel(2**53 + 1, 2**53 + 1).index_bits == 54


class TestOutputsByUidExclusion:
    def test_excludes_both_crashed_and_byzantine(self):
        result = ExecutionResult(
            results={0: "crashed-late", 1: "honest", 2: "junk"},
            metrics=None,
            crashed={0},
            byzantine={2},
            rounds=1,
            trace=Trace(enabled=False),
            processes=[IdleProcess(uid=10), IdleProcess(uid=20),
                       IdleProcess(uid=30)],
        )
        assert result.correct_results == {1: "honest"}
        assert result.outputs_by_uid() == {20: "honest"}

    def test_node_both_crashed_and_byzantine_counted_once(self):
        result = ExecutionResult(
            results={0: "x", 1: "y"},
            metrics=None,
            crashed={0},
            byzantine={0},
            rounds=1,
            trace=Trace(enabled=False),
            processes=[IdleProcess(uid=5), IdleProcess(uid=6)],
        )
        assert result.outputs_by_uid() == {6: "y"}

    def test_live_execution_excludes_byzantine_index(self):
        class FinishingByz(IdleProcess):
            byzantine = True

            def program(self, ctx):
                yield []
                return "forged"

        class Finisher(IdleProcess):
            def program(self, ctx):
                yield []
                return self.uid * 100

        processes = [Finisher(uid=1), FinishingByz(uid=2), Finisher(uid=3)]
        result = run_network(processes, CostModel(n=3, namespace=10))
        assert set(result.outputs_by_uid()) == {1, 3}
        assert result.outputs_by_uid() == {1: 100, 3: 300}
