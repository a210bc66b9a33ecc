"""The family contract: one way to run a named protocol.

Parametrised over ``repro.analysis.experiments.FAMILIES`` (and the
entry points beside it), so a new family is held to the contract by
being in the table:

* every ``run_*`` checks its identities the same way and takes every
  ``run_network`` keyword;
* a family's driver row, through the engine, equals a row assembled
  here by hand.  The seeding rule is written out again below on
  purpose — identities from ``Random(seed)`` over ``N = 5 n^2``, the
  adversary on ``Random(seed + 1)``, the network on ``seed + 2`` — as
  the reference that does not move when ``execute`` does;
* a family's scenario and its summary are the same execution.
"""

import inspect
from random import Random

import pytest

from repro.adversary.crash import CommitteeHunter, RandomCrash
from repro.analysis.experiments import (
    FAMILIES,
    execute,
    make_crash_adversary,
    summary,
)
from repro.consensus.approx_agreement import run_approximate_agreement
from repro.core.byzantine_renaming import run_byzantine_renaming
from repro.core.crash_renaming import CrashRenamingConfig
from repro.engine.pool import run_requests
from repro.engine.sweeps import RunRequest, resolve_driver, table1_requests
from repro.falsify.scenarios import SCENARIOS, run_scenario
from repro.sim.runner import ExecutionResult, run_network


def _approx(uids, **keywords):
    return run_approximate_agreement(
        [(uid, float(uid)) for uid in uids], 0.5, **keywords)


#: Every ``run_*`` in ``src/``: the families' (the falsifier's planted
#: one included), then the two that are run outside the table.
ENTRY_POINTS = {
    **{scenario.family.name: scenario.family.run
       for scenario in SCENARIOS.values()},
    **{name: family.run for name, family in FAMILIES.items()},
    "byzantine": run_byzantine_renaming,
    "approx-agreement": _approx,
}

entry_point = pytest.mark.parametrize(
    "run", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))


class TestEntryPoints:
    @entry_point
    def test_rejects_duplicate_identities(self, run):
        with pytest.raises(ValueError, match="must be distinct"):
            run([5, 9, 5, 12])

    @entry_point
    def test_rejects_identities_below_one(self, run):
        with pytest.raises(ValueError, match=r"must lie in \[1, 12\]"):
            run([0, 5, 9, 12])

    @entry_point
    def test_rejects_identities_above_the_namespace(self, run):
        if run is _approx:
            pytest.skip("takes no namespace: it is the largest identity")
        with pytest.raises(ValueError, match=r"must lie in \[1, 16\]"):
            run([5, 9, 12, 40], namespace=16)

    @entry_point
    def test_takes_every_run_network_keyword(self, run):
        keywords = [
            parameter for parameter
            in inspect.signature(run_network).parameters.values()
            if parameter.kind is parameter.KEYWORD_ONLY
        ]
        assert {"monitors", "max_rounds", "fault_model"} <= {
            parameter.name for parameter in keywords}
        for parameter in keywords:
            # The crash adversary is spelled ``adversary`` up here; the
            # Byzantine algorithm has none and builds ``shared`` itself.
            name = {"crash_adversary": "adversary"}.get(
                parameter.name, parameter.name)
            if run is run_byzantine_renaming and name in ("adversary",
                                                          "shared"):
                continue
            result = run([5, 9, 12, 40], **{name: parameter.default})
            assert isinstance(result, ExecutionResult), name
            assert len(result.outputs_by_uid()) == 4, name

    @entry_point
    def test_network_keywords_reach_the_network(self, run):
        class CountRounds:
            rounds = 0

            def on_start(self, network):
                pass

            def on_round(self, network):
                self.rounds += 1

            on_finish = on_start

        monitor = CountRounds()
        result = run([5, 9, 12, 40], monitors=(monitor,), trace=True)
        assert monitor.rounds == result.rounds > 0
        assert result.trace.enabled


# -- the reference: the seeding rule, written out a second time ---------

ADVERSARIES = {
    "hunter": lambda f, rng: CommitteeHunter(f, rng),
    "random": lambda f, rng: RandomCrash(f, rate=0.05, rng=rng),
}

#: What the four families of today hand their entry point and call
#: themselves; a family added later is checked against its own entry.
KEYWORDS = {"crash": {"config": CrashRenamingConfig(election_constant=2.0)}}
LABELS = {
    "crash": "crash-renaming (this work)",
    "obg": "all-to-all halving [34]-style",
    "balls": "balls-into-slots [3]-style",
    "gossip": "full-information gossip [20]-style",
}


def reference_run(family, n, f, seed, **network):
    namespace = max(5 * n * n, 16)
    uids = sorted(Random(seed).sample(range(1, namespace + 1), n))
    adversary = (ADVERSARIES[family.adversary](f, Random(seed + 1))
                 if f else None)
    return family.run(uids, namespace=namespace, adversary=adversary,
                      seed=seed + 2, **KEYWORDS.get(family.name, {}),
                      **network)


def reference_row(family, n, f, result):
    outputs = result.outputs_by_uid()
    names = [outputs[uid] for uid in sorted(outputs)]
    return {
        "algorithm": LABELS.get(family.name, family.label),
        "n": n,
        "f_budget": f,
        "f_actual": len(result.crashed),
        "rounds": result.rounds,
        "messages": result.metrics.correct_messages,
        "bits": result.metrics.correct_bits,
        "max_message_bits": result.metrics.max_message_bits,
        "unique": len(set(names)) == len(names),
        "strong": all(1 <= name <= n for name in names),
        "order_preserving": (not family.order_preserving
                             or names == sorted(names)),
    }


GRID = [(12, 0, 0), (16, 2, 1), (24, 6, 5)]

family = pytest.mark.parametrize("name", list(FAMILIES))


class TestFamilyRows:
    @family
    @pytest.mark.parametrize("n, f, seed", GRID)
    def test_driver_row_is_the_hand_assembled_row(self, name, n, f, seed):
        (done,) = run_requests([RunRequest.make(name, n, f, seed)])
        assert done.ok, done.error
        reference = reference_run(FAMILIES[name], n, f, seed)
        expected = reference_row(FAMILIES[name], n, f, reference)
        assert done.row == expected
        assert list(done.row) == list(expected)  # column order too
        assert done.messages_per_round == list(
            reference.metrics.messages_per_round)
        assert done.bits_per_round == list(reference.metrics.bits_per_round)
        assert f == 0 or done.row["f_actual"] > 0

    @family
    def test_named_summary_and_registered_driver_are_one_function(self, name):
        import repro.analysis.experiments as experiments

        row = summary(name, 12, 2, 3)
        assert getattr(experiments, f"{name}_run_summary")(12, 2, 3) == row
        assert resolve_driver(name)(12, 2, seed=3) == row

    @family
    def test_adversary_param_overrides_the_default_kind(self, name):
        quiet = summary(name, 12, 3, 1, adversary=None)
        assert quiet["f_actual"] == 0
        assert quiet == summary(name, 12, 0, 1) | {"f_budget": 3}

    @family
    def test_unknown_param_is_a_type_error(self, name):
        with pytest.raises(TypeError, match="no_such_param"):
            summary(name, 8, 0, 0, no_such_param=1)

    def test_table1_has_a_row_per_family_then_the_byzantine_pair(self):
        requests = table1_requests(16, 2, seed=1)
        assert [r.driver for r in requests] == [*FAMILIES, "byzantine",
                                                "byzantine"]
        assert all((r.n, r.f, r.seed) == (16, 2, 1)
                   for r in requests[:len(FAMILIES)])


def counted(result):
    return (result.rounds, result.metrics.correct_messages,
            result.metrics.correct_bits, result.outputs_by_uid())


class TestScenarioIsTheSummarysExecution:
    @family
    @pytest.mark.parametrize("n, f, seed", GRID)
    def test_same_adversary_same_execution(self, name, n, f, seed):
        entry = FAMILIES[name]
        assert SCENARIOS[name].family is entry

        def adversary():
            return make_crash_adversary(entry.adversary, f, Random(seed + 1))

        probed = run_scenario(name, n, f, seed, adversary=adversary())
        assert probed.trace.enabled
        assert counted(probed) == counted(
            execute(entry, n, f, seed, adversary=adversary(), trace=True))
        assert counted(probed) == counted(
            reference_run(entry, n, f, seed, trace=True))
        row = summary(name, n, f, seed)
        assert counted(probed)[:3] == (
            row["rounds"], row["messages"], row["bits"])

    def test_scenario_params_a_family_does_not_take_are_ignored(self):
        # A campaign's params reach every scenario it probes.
        params = {"election_constant": 3.0, "assumed_faults": 1}
        assert counted(run_scenario("obg", 8, 0, 1, params=params)) == (
            counted(run_scenario("obg", 8, 0, 1)))
        assert counted(run_scenario("crash", 8, 0, 1, params=params)) != (
            counted(run_scenario("crash", 8, 0, 1)))

    @pytest.mark.parametrize("name", ["gossip-faults", "gossip-dup",
                                      "crash-dup"])
    def test_default_faults_apply_unless_faults_are_given(self, name):
        scenario = SCENARIOS[name]
        spec = scenario.default_faults(12)
        plain = scenario.family.name
        assert run_scenario(name, 12, 0, 2).fault_stats is not None
        assert counted(run_scenario(name, 12, 0, 2)) == counted(
            run_scenario(plain, 12, 0, 2, params={"faults": spec}))
        other = [{"kind": "omission", "p": 0.02}]
        assert counted(run_scenario(name, 12, 0, 2,
                                    params={"faults": other})) == counted(
            run_scenario(plain, 12, 0, 2, params={"faults": other}))
