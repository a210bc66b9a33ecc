"""Tests for the per-round invariant monitors."""

import pytest

from repro.adversary.base import CrashAdversary, NoCrashes
from repro.falsify.monitors import (
    CrashBudget,
    InvariantViolation,
    LedgerMonotone,
    NamespaceBounds,
    RoundBudget,
    UniqueNames,
    decided_correct,
    default_monitors,
    default_watchdog_rounds,
)
from repro.falsify.scenarios import (
    DEFAULT_SCENARIOS,
    make_adversary,
    monitors_for,
    resolve_scenario,
    run_scenario,
)
from repro.sim.messages import CostModel
from repro.sim.node import IdleProcess
from repro.sim.runner import run_network


class FakeProcess:
    def __init__(self, byzantine=False):
        self.byzantine = byzantine


class FakeMetrics:
    def __init__(self, messages_per_round=(), bits_per_round=(),
                 max_message_bits=0, rounds=None):
        self.messages_per_round = list(messages_per_round)
        self.bits_per_round = list(bits_per_round)
        self.total_messages = sum(self.messages_per_round)
        self.total_bits = sum(self.bits_per_round)
        self.max_message_bits = max_message_bits
        self.rounds = rounds if rounds is not None else len(
            self.messages_per_round)


class FakeNetwork:
    """Just enough of SyncNetwork for a monitor's on_round hook."""

    def __init__(self, n=4, finished=None, crashed=(), byzantine=(),
                 adversary=None, metrics=None, round_no=1):
        self.n = n
        self.finished = dict(finished or {})
        self.crashed = set(crashed)
        self.processes = [FakeProcess(i in set(byzantine)) for i in range(n)]
        self.adversary = adversary or NoCrashes()
        self.metrics = metrics or FakeMetrics()
        self.round_no = round_no


class TestInvariantViolation:
    def test_message_and_attributes(self):
        error = InvariantViolation(
            "unique-names", "duplicate 7", round_no=3, nodes=[2, 1],
            detail={"7": [1, 2]},
        )
        assert str(error) == "[unique-names] round 3: duplicate 7"
        assert error.invariant == "unique-names"
        assert error.round_no == 3
        assert error.nodes == (2, 1)
        assert error.detail == {"7": [1, 2]}
        assert isinstance(error, AssertionError)


class TestDecidedCorrect:
    def test_excludes_crashed_and_byzantine(self):
        network = FakeNetwork(
            n=4, finished={0: 1, 1: 2, 2: 3, 3: 4},
            crashed={1}, byzantine={2},
        )
        assert decided_correct(network) == {0: 1, 3: 4}


class TestUniqueNames:
    def test_passes_on_distinct_names(self):
        UniqueNames().on_round(FakeNetwork(finished={0: 1, 1: 2}))

    def test_fails_on_duplicates(self):
        network = FakeNetwork(finished={0: 5, 1: 5, 2: 6}, round_no=4)
        with pytest.raises(InvariantViolation) as info:
            UniqueNames().on_round(network)
        assert info.value.invariant == "unique-names"
        assert info.value.round_no == 4
        assert info.value.nodes == (0, 1)

    def test_crashed_holder_does_not_count(self):
        network = FakeNetwork(finished={0: 5, 1: 5}, crashed={1})
        UniqueNames().on_round(network)

    def test_none_outputs_ignored(self):
        UniqueNames().on_round(FakeNetwork(finished={0: None, 1: None}))


class TestNamespaceBounds:
    def test_contracts(self):
        assert (NamespaceBounds.strong(8).lo,
                NamespaceBounds.strong(8).hi) == (1, 8)
        assert NamespaceBounds.tight(8, 3).hi == 11
        assert NamespaceBounds.loose(8).hi == 64

    def test_in_range_passes(self):
        NamespaceBounds.strong(4).on_round(FakeNetwork(finished={0: 1, 1: 4}))

    @pytest.mark.parametrize("bad", [0, 9, -1, "3", 2.0, True])
    def test_out_of_range_fails(self, bad):
        network = FakeNetwork(n=8, finished={0: 1, 1: bad})
        with pytest.raises(InvariantViolation) as info:
            NamespaceBounds.strong(8).on_round(network)
        assert info.value.invariant == "namespace-bounds"
        assert info.value.nodes == (1,)

    def test_empty_namespace_rejected(self):
        with pytest.raises(ValueError, match="empty namespace"):
            NamespaceBounds(0)


class TestCrashBudget:
    def test_within_budget_passes(self):
        adversary = CrashAdversary(budget=2)
        adversary.crashed = {0}
        CrashBudget().on_round(FakeNetwork(crashed={0}, adversary=adversary))

    def test_budget_overrun(self):
        adversary = CrashAdversary(budget=1)
        adversary.crashed = {0, 1}
        network = FakeNetwork(crashed={0, 1}, adversary=adversary)
        with pytest.raises(InvariantViolation, match="exceed budget"):
            CrashBudget().on_round(network)

    def test_ledger_drift(self):
        adversary = CrashAdversary(budget=4)
        adversary.crashed = {0}
        network = FakeNetwork(crashed={0, 1}, adversary=adversary)
        with pytest.raises(InvariantViolation, match="disagree"):
            CrashBudget().on_round(network)

    def test_revival_detected(self):
        adversary = CrashAdversary(budget=4)
        adversary.crashed = {0}
        monitor = CrashBudget()
        monitor.on_round(FakeNetwork(crashed={0}, adversary=adversary))
        adversary.crashed = set()
        with pytest.raises(InvariantViolation, match="back to life"):
            monitor.on_round(FakeNetwork(crashed=set(), adversary=adversary))


class TestLedgerMonotone:
    def test_growing_ledgers_pass(self):
        monitor = LedgerMonotone()
        monitor.on_round(FakeNetwork(metrics=FakeMetrics([3], [24], 8)))
        monitor.on_round(FakeNetwork(metrics=FakeMetrics([3, 2], [24, 16], 8)))

    def test_decreasing_totals_fail(self):
        monitor = LedgerMonotone()
        monitor.on_round(FakeNetwork(metrics=FakeMetrics([5], [40], 8)))
        with pytest.raises(InvariantViolation, match="decreased"):
            monitor.on_round(FakeNetwork(metrics=FakeMetrics([1], [8], 8)))

    def test_sum_mismatch_fails(self):
        metrics = FakeMetrics([3], [24], 8)
        metrics.total_bits = 99
        with pytest.raises(InvariantViolation, match="sum to"):
            LedgerMonotone().on_round(FakeNetwork(metrics=metrics))

    def test_entry_count_mismatch_fails(self):
        metrics = FakeMetrics([3, 2], [24, 16], 8, rounds=5)
        with pytest.raises(InvariantViolation, match="ledger entries"):
            LedgerMonotone().on_round(FakeNetwork(metrics=metrics))

    def test_shrinking_max_message_fails(self):
        monitor = LedgerMonotone()
        monitor.on_round(FakeNetwork(metrics=FakeMetrics([1], [8], 32)))
        with pytest.raises(InvariantViolation, match="shrank"):
            monitor.on_round(FakeNetwork(metrics=FakeMetrics([1, 1], [8, 8], 8)))


class TestRoundBudget:
    def test_watchdog_fires_before_hard_cap(self):
        cost = CostModel(n=1, namespace=10)
        with pytest.raises(InvariantViolation) as info:
            run_network([IdleProcess(uid=1)], cost, max_rounds=1_000,
                        monitors=(RoundBudget(5),))
        assert info.value.invariant == "round-budget"
        assert info.value.round_no == 6
        assert info.value.nodes == (0,)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="max_rounds"):
            RoundBudget(0)


class TestDefaultSuite:
    def test_composition_and_bounds(self):
        monitors = default_monitors(8, 2, bound="tight")
        names = [monitor.name for monitor in monitors]
        assert names == ["unique-names", "namespace-bounds", "crash-budget",
                         "ledger-monotone", "round-budget"]
        assert monitors[1].hi == 10
        assert monitors[4].max_rounds == default_watchdog_rounds(8)

    def test_unknown_bound_rejected(self):
        with pytest.raises(ValueError, match="unknown bound"):
            default_monitors(8, bound="weird")

    @pytest.mark.parametrize("bound, hi", [
        ("strong", 8), ("tight", 10), ("loose", 64)])
    def test_each_bound_builds_its_namespace_monitor(self, bound, hi):
        monitor = default_monitors(8, 2, bound=bound)[1]
        assert (monitor.label, monitor.lo, monitor.hi) == (bound, 1, hi)

    def test_unknown_bound_is_the_one_lookup_error(self):
        from repro.analysis.experiments import lookup

        with pytest.raises(ValueError) as wording:
            lookup({"loose": 0, "strong": 0, "tight": 0}, "bound", "weird")
        with pytest.raises(ValueError) as raised:
            default_monitors(8, bound="weird")
        assert str(raised.value) == str(wording.value) == (
            "unknown bound 'weird'; known: loose, strong, tight")

    def test_only_the_selected_bound_is_built(self, monkeypatch):
        def unwanted(*args):
            raise AssertionError("built a bound nobody selected")

        for name in ("tight", "loose"):
            monkeypatch.setattr(NamespaceBounds, name, unwanted)
        assert default_monitors(8, 2, bound="strong")[1].label == "strong"


class TestScenariosUnderFullSuite:
    """Every real driver must pass the whole monitor suite."""

    @pytest.mark.parametrize("scenario", DEFAULT_SCENARIOS)
    @pytest.mark.parametrize("adversary_kind", ["none", "random",
                                                "partitioner"])
    def test_clean_scenarios_pass(self, scenario, adversary_kind):
        n, f, seed = 8, 2, 1
        spec = resolve_scenario(scenario)
        adversary = make_adversary(adversary_kind, f, seed)
        result = run_scenario(
            scenario, n, f, seed,
            adversary=adversary, monitors=monitors_for(spec, n, f),
        )
        assert len(result.results) == n - len(result.crashed)
        assert len(result.crashed) <= f

    def test_crash_scenario_integration_seed(self):
        # The heavier configuration tests/test_integration.py exercises.
        n, f, seed = 24, 6, 4
        spec = resolve_scenario("crash")
        result = run_scenario(
            "crash", n, f, seed,
            adversary=make_adversary("partitioner", f, seed),
            monitors=monitors_for(spec, n, f),
        )
        assert len(result.results) == n - len(result.crashed)
