"""The family contract: one way to run a named protocol.

Parametrised over ``repro.analysis.experiments.FAMILIES`` (and the
entry points beside it), so a new family is held to the contract by
being in the table:

* every ``run_*`` checks its identities the same way and takes every
  ``run_network`` keyword;
* a family's driver row, through the engine, equals a row assembled
  here by hand.  The seeding rule is written out again below on
  purpose — identities from ``Random(seed)`` over ``N = 5 n^2``, the
  adversary on ``Random(seed + 1)``, the network on ``seed + 2``; for
  Byzantine renaming the corrupt set on ``Random(seed + 1)``, shared
  randomness ``seed + 3``, the network ``seed + 4`` and withholders
  salted by ``seed`` — as the reference that does not move when
  ``execute`` does;
* a family's scenario and its summary are the same execution.
"""

import inspect
import math
from random import Random

import pytest

from repro.adversary.byzantine import make_withholder
from repro.adversary.crash import CommitteeHunter, RandomCrash
from repro.analysis.experiments import (
    FAMILIES,
    byzantine_attack,
    execute,
    make_crash_adversary,
    summary,
)
from repro.consensus.approx_agreement import run_approximate_agreement
from repro.core.byzantine_renaming import (
    ByzantineRenamingConfig,
    run_byzantine_renaming,
)
from repro.core.crash_renaming import CrashRenamingConfig
from repro.engine.pool import run_requests
from repro.engine.sweeps import RunRequest, resolve_driver, table1_requests
from repro.falsify.scenarios import SCENARIOS, run_scenario
from repro.obs import EventRecorder
from repro.sim.runner import ExecutionResult, run_network


def _approx(uids, **keywords):
    return run_approximate_agreement(
        [(uid, float(uid)) for uid in uids], 0.5, **keywords)


#: Every ``run_*`` in ``src/``: the families' (the falsifier's planted
#: one included), then the one that is run outside the table.
ENTRY_POINTS = {
    **{scenario.family.name: scenario.family.run
       for scenario in SCENARIOS.values()},
    **{name: family.run for name, family in FAMILIES.items()},
    "approx-agreement": _approx,
}

entry_point = pytest.mark.parametrize(
    "name, run", ENTRY_POINTS.items(), ids=list(ENTRY_POINTS))


class TestEntryPoints:
    @entry_point
    def test_rejects_duplicate_identities(self, name, run):
        with pytest.raises(ValueError, match="must be distinct"):
            run([5, 9, 5, 12])

    @entry_point
    def test_rejects_identities_below_one(self, name, run):
        with pytest.raises(ValueError, match=r"must lie in \[1, 12\]"):
            run([0, 5, 9, 12])

    @entry_point
    def test_rejects_identities_above_the_namespace(self, name, run):
        if run is _approx:
            pytest.skip("takes no namespace: it is the largest identity")
        with pytest.raises(ValueError, match=r"must lie in \[1, 16\]"):
            run([5, 9, 12, 40], namespace=16)

    @entry_point
    def test_takes_every_run_network_keyword(self, name, run):
        keywords = [
            parameter for parameter
            in inspect.signature(run_network).parameters.values()
            if parameter.kind is parameter.KEYWORD_ONLY
        ]
        assert {"monitors", "max_rounds", "fault_model"} <= {
            parameter.name for parameter in keywords}
        # A Byzantine family's adversary is its corrupt set, not a
        # crash adversary, and it builds ``shared`` itself.
        byzantine = (name in FAMILIES
                     and FAMILIES[name].attack is byzantine_attack)
        for parameter in keywords:
            # The crash adversary is spelled ``adversary`` up here.
            keyword = {"crash_adversary": "adversary"}.get(
                parameter.name, parameter.name)
            if byzantine and keyword in ("adversary", "shared"):
                continue
            result = run([5, 9, 12, 40], **{keyword: parameter.default})
            assert isinstance(result, ExecutionResult), keyword
            assert len(result.outputs_by_uid()) == 4, keyword

    @entry_point
    def test_network_keywords_reach_the_network(self, name, run):
        class CountRounds:
            rounds = 0

            def on_start(self, network):
                pass

            def on_round(self, network):
                self.rounds += 1

            on_finish = on_start

        monitor = CountRounds()
        recorder = EventRecorder()
        result = run([5, 9, 12, 40], monitors=(monitor,), observer=recorder)
        assert monitor.rounds == result.rounds > 0
        assert len(recorder.events("round.end")) == result.rounds


# -- the reference: the seeding rule, written out a second time ---------

ADVERSARIES = {
    "hunter": lambda f, rng: CommitteeHunter(f, rng),
    "random": lambda f, rng: RandomCrash(f, rate=0.05, rng=rng),
}

#: What the families of today hand their entry point and call
#: themselves; a family added later is checked against its own entry.
KEYWORDS = {"crash": {"config": CrashRenamingConfig(election_constant=2.0)}}
LABELS = {
    "crash": "crash-renaming (this work)",
    "obg": "all-to-all halving [34]-style",
    "balls": "balls-into-slots [3]-style",
    "gossip": "full-information gossip [20]-style",
    "byzantine": "byzantine-renaming (this work)",
    "byzantine-full": "byzantine-renaming, full committee",
}

#: The Byzantine families' committee lottery at ``n``: ``4 log2 n / n``
#: candidates, or everyone.
LOTTERY = {
    "byzantine": lambda n: min(1.0, 4.0 * max(1.0, math.log2(n)) / n),
    "byzantine-full": lambda n: 1.0,
}


def reference_run(family, n, f, seed, **network):
    namespace = max(5 * n * n, 16)
    uids = sorted(Random(seed).sample(range(1, namespace + 1), n))
    if family.name in LOTTERY:
        # Carlo corrupts f withholders before the shared randomness.
        corrupt = sorted(Random(seed + 1).sample(uids, f))
        config = ByzantineRenamingConfig(
            max_byzantine=max(f, 1),
            candidate_probability=LOTTERY[family.name](n),
            consensus_iterations=10)
        return run_byzantine_renaming(
            uids, namespace=namespace,
            byzantine={uid: make_withholder(0.5, salt=seed)
                       for uid in corrupt},
            config=config, shared_seed=seed + 3, seed=seed + 4, **network)
    adversary = (ADVERSARIES[family.adversary](f, Random(seed + 1))
                 if f else None)
    return family.run(uids, namespace=namespace, adversary=adversary,
                      seed=seed + 2, **KEYWORDS.get(family.name, {}),
                      **network)


def own_columns(family, result):
    """The counters a family adds: re-election's for the crash
    algorithm, the recursion's splits for the Byzantine one."""
    processes = result.processes
    if family.name == "crash":
        p_values = [process.final_p for index, process
                    in enumerate(processes) if index not in result.crashed]
        return {"max_p": max(p_values),
                "p_spread": max(p_values) - min(p_values),
                "ever_elected": sum(p.ever_elected for p in processes)}
    if family.name in LOTTERY:
        return {"segments_split": max(
            [p.segments_split for p in processes
             if getattr(p, "was_committee", False) and not p.byzantine]
            or [0])}
    return {}


def reference_row(family, n, f, result):
    outputs = result.outputs_by_uid()
    names = [outputs[uid] for uid in sorted(outputs)]
    return {
        "algorithm": LABELS.get(family.name, family.label),
        "n": n,
        "f_budget": f,
        "f_actual": len(result.crashed) + len(result.byzantine),
        "rounds": result.rounds,
        "messages": result.metrics.correct_messages,
        "bits": result.metrics.correct_bits,
        "max_message_bits": result.metrics.max_message_bits,
        **own_columns(family, result),
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
        binding = getattr(experiments, f"{name}_run_summary", None)
        assert binding is None or binding(12, 2, 3) == row
        assert resolve_driver(name)(12, 2, seed=3) == row

    @family
    def test_adversary_param_overrides_the_default_kind(self, name):
        # A Byzantine config is provisioned for the budget: pinned, so
        # that only the adversary differs.
        pinned = ({"f_assumed": 3} if "f_assumed" in FAMILIES[name].params
                  else {})
        quiet = summary(name, 12, 3, 1, adversary=None, **pinned)
        assert quiet["f_actual"] == 0
        assert quiet == summary(name, 12, 3, 1, adversary="none", **pinned)
        assert quiet == summary(name, 12, 0, 1, **pinned) | {"f_budget": 3}

    @family
    def test_unknown_param_is_a_type_error(self, name):
        with pytest.raises(TypeError, match="no_such_param"):
            summary(name, 8, 0, 0, no_such_param=1)

    def test_table1_has_a_row_per_family_then_the_byzantine_pair(self):
        requests = table1_requests(32, 4, seed=1)
        assert [r.driver for r in requests] == list(FAMILIES)
        assert requests[-2:] == [RunRequest.make("byzantine", 32, 2, 1),
                                 RunRequest.make("byzantine-full", 32, 2, 1)]
        assert all((r.n, r.f, r.seed, r.params) == (32, 4, 1, ())
                   for r in requests[:-2])


def counted(result):
    return (result.rounds, result.metrics.correct_messages,
            result.metrics.correct_bits, result.outputs_by_uid())


#: The families the falsifier probes: its scenarios are crash schedules.
scenario_family = pytest.mark.parametrize(
    "name", [name for name in FAMILIES if name in SCENARIOS])


class TestScenarioIsTheSummarysExecution:
    def test_only_the_byzantine_families_have_no_scenario(self):
        assert [name for name in FAMILIES if name not in SCENARIOS] == [
            "byzantine", "byzantine-full"]

    @scenario_family
    @pytest.mark.parametrize("n, f, seed", GRID)
    def test_same_adversary_same_execution(self, name, n, f, seed):
        entry = FAMILIES[name]
        assert SCENARIOS[name].family is entry

        def adversary():
            return make_crash_adversary(entry.adversary, f, Random(seed + 1))

        probed = run_scenario(name, n, f, seed, adversary=adversary())
        assert counted(probed) == counted(
            execute(entry, n, f, seed, adversary=adversary()))
        assert counted(probed) == counted(reference_run(entry, n, f, seed))
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


class TestUnknownNames:
    """Every name table rejects an unknown name the same way: one
    ``ValueError`` naming the noun and listing the known names."""

    @staticmethod
    def tables():
        from repro.analysis.experiments import (
            BYZANTINE_STRATEGIES,
            CRASH_ADVERSARIES,
        )
        from repro.engine.sweeps import DRIVERS, resolve_driver
        from repro.falsify.scenarios import SCENARIOS, resolve_scenario

        resolve_driver("crash")  # fills the lazy driver table
        return [
            ("scenario", SCENARIOS, resolve_scenario),
            ("driver", DRIVERS, resolve_driver),
            ("adversary", CRASH_ADVERSARIES,
             lambda kind: make_crash_adversary(kind, 1, Random(0))),
            ("strategy", BYZANTINE_STRATEGIES,
             lambda kind: byzantine_attack(kind, [1, 2, 3, 4], 1, 0)),
        ]

    def test_one_wording(self):
        for noun, table, resolve in self.tables():
            known = ", ".join(sorted(table))
            with pytest.raises(ValueError) as raised:
                resolve("nope")
            assert str(raised.value) == (
                f"unknown {noun} 'nope'; known: {known}")

    def test_none_and_an_empty_budget_are_no_adversary(self):
        # None, "none" and an empty budget are no adversary; an unknown
        # kind is rejected even when it would crash nobody.
        rng = Random(0)
        assert make_crash_adversary(None, 3, rng) is None
        assert make_crash_adversary("none", 3, rng) is None
        assert make_crash_adversary("hunter", 0, rng) is None
        assert rng.getstate() == Random(0).getstate()
        with pytest.raises(ValueError, match="unknown adversary 'nope'"):
            make_crash_adversary("nope", 0, rng)
        assert isinstance(make_crash_adversary("random", 2, rng), RandomCrash)
        assert isinstance(make_crash_adversary("hunter", 2, rng),
                          CommitteeHunter)
