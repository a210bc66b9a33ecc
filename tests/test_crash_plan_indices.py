"""A crash plan is kept *indices*: same draws, same schedules, no ``Send``.

The four built-in strategies answer ``plan_round`` with positions into
the victim's proposed fan-out (DESIGN decision 15).  They must draw the
same numbers from the same ``Random`` in the same order as when they
kept ``Send`` objects, so the schedules a ``RecordingAdversary`` writes
down are pinned here by digest -- recorded at the parent commit, where
the recorder still mapped kept ``Send``s back to indices by identity --
over the three shapes a victim's proposal takes: a lazy ``Broadcast`` /
``Multicast``, a lazy ``Scatter``, and a plain ``Send`` list holding
duplicate identical sends.

The rest is the contract around the plan value: the network validates
indices atomically, delivers the kept part as a fan-out in the plan's
order, and still accepts ``Send`` lists from a programmable policy --
through the one resolution function (``repro.adversary.base.
kept_indices``) the recorder and the tests' ``ReferenceNetwork`` share.
"""

import hashlib
import json
from random import Random

import pytest

from repro.adversary.base import CrashAdversary, CrashPlanError, kept_indices
from repro.adversary.crash import (
    BudgetedAdaptiveCrash,
    CommitteeHunter,
    MidSendPartitioner,
    RandomCrash,
    ScheduledCrash,
)
from repro.analysis.experiments import default_namespace, sample_uids
from repro.baselines.obg_halving import run_obg_halving
from repro.core.crash_renaming import run_crash_renaming
from repro.falsify.replay import (
    RecordingAdversary,
    ReplayAdversary,
    schedule_to_json,
)
from repro.sim.messages import (
    Broadcast,
    CostModel,
    Fanout,
    Multicast,
    Scatter,
    Send,
)
from repro.sim.network import SyncNetwork
from repro.sim.node import Process
from repro.sim.runner import run_network
from tests.test_fastpath_ab import (
    ReferenceNetwork,
    engine_observables,
    reference_observables,
)
from tests.test_network import Chatter, Ping, PlanScript, cost_for



def schedule_digest(schedule) -> str:
    text = json.dumps(schedule_to_json(schedule), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Wrapped(CrashAdversary):
    """``inner``'s plans and budget, with room to look or to wait."""

    def __init__(self, inner):
        super().__init__(inner.budget)
        self.inner = inner

    def plan_round(self, round_no, proposed, alive):
        return self.inner.plan_round(round_no, proposed, alive)

    def note_crashes(self, victims):
        super().note_crashes(victims)
        self.inner.note_crashes(victims)


class _FromRound(_Wrapped):
    """``inner``, asleep before ``first_round``: the hunter would spend
    itself on round 1's announcements and never meet a ``Scatter``."""

    def __init__(self, first_round, inner):
        super().__init__(inner)
        self.first_round = first_round

    def plan_round(self, round_no, proposed, alive):
        if round_no < self.first_round:
            return {}
        return super().plan_round(round_no, proposed, alive)


STRATEGIES = {
    "random": lambda: RandomCrash(4, rate=0.15, rng=Random(11)),
    # Round 1: a Broadcast victim; 3: a Scatter; 5: a Multicast, with a
    # prefix longer than its fan-out.
    "scheduled": lambda: ScheduledCrash(
        {1: [2], 3: [5], 5: [1]}, deliver_prefix={2: 3, 5: 2, 1: 40}),
    "partitioner": lambda: MidSendPartitioner(3, rng=Random(5)),
    # On `crash` this is "the hunter on round 3": Scatter victims.
    "hunter": lambda: _FromRound(3, CommitteeHunter(
        3, rng=Random(7), deliver_fraction=0.5)),
}


class _DupLister(Process):
    """Four rounds of a plain ``Send`` list opening with three equal
    sends (distinct objects: the parent's recorder told positions apart
    by identity), then one message per link."""

    def program(self, ctx):
        for round_no in range(4):
            yield [*[Send(0, Ping(round_no)) for _ in range(3)],
                   *[Send(to, Ping(to)) for to in range(ctx.n)]]
        return self.uid


def _population(n, seed):
    namespace = default_namespace(n)
    return sample_uids(n, namespace, Random(seed)), namespace


def _run_crash(adversary):
    uids, namespace = _population(12, 3)
    return run_crash_renaming(uids, namespace=namespace, adversary=adversary,
                              seed=5)


def _run_obg(adversary):
    uids, namespace = _population(13, 4)
    return run_obg_halving(uids, namespace=namespace, adversary=adversary,
                           seed=6)


def _run_lists(adversary):
    return run_network([_DupLister(uid + 1) for uid in range(8)],
                       CostModel(n=8, namespace=64),
                       crash_adversary=adversary, seed=7)


RUNS = {"crash": _run_crash, "obg": _run_obg, "lists": _run_lists}


def _synthetic(n=10):
    """One round's ``proposed`` holding every shape at once."""
    return {
        0: Broadcast(n, Ping(0)),
        1: Scatter(range(n), [Ping(k) for k in range(n)]),
        2: [*[Send(1, Ping(1)) for _ in range(3)],
            *[Send(to, Ping(2)) for to in range(n)]],
        3: Multicast((4, 4, 0, 9, 2, 7), Ping(3)),
        4: [],
    }


#: (strategy, run) -> (schedule digest, total messages), recorded at the
#: parent commit (`python -m tests.test_crash_plan_indices` prints them).
PINNED = {
    ("random", "crash"): ("1116118c72444072", 2783),
    ("random", "obg"): ("139a6344eb3dd704", 533),
    ("random", "lists"): ("4fde1ce03ec101f4", 277),
    ("random", "synthetic"): ("41758c6ad9d2ae16", 2),
    ("scheduled", "crash"): ("f042e353aa41034e", 3380),
    ("scheduled", "obg"): ("1bcf6ad1ac4df982", 603),
    ("scheduled", "lists"): ("1bcf6ad1ac4df982", 291),
    ("scheduled", "synthetic"): ("82735845e5a1fb9d", 2),
    ("partitioner", "crash"): ("208333f7c1c9ed39", 3328),
    ("partitioner", "obg"): ("2ba2c647776c1b1c", 577),
    ("partitioner", "lists"): ("f5fb811395b5c751", 268),
    ("partitioner", "synthetic"): ("f6b3c98668c3bcbb", 3),
    ("hunter", "crash"): ("5cedca7d9147d062", 3384),
    ("hunter", "obg"): ("e47247e8cf7d61a5", 616),
    ("hunter", "lists"): ("f6780acc5e45c9fc", 301),
    ("hunter", "synthetic"): ("c52aafd389d90b96", 3),
}


def _observe(strategy, run):
    recorder = RecordingAdversary(STRATEGIES[strategy]())
    if run == "synthetic":
        proposed = _synthetic()
        for round_no in range(1, 6):
            alive = frozenset(proposed) - recorder.crashed
            plan = recorder.plan_round(
                round_no, {v: proposed[v] for v in alive}, alive)
            recorder.note_crashes(set(plan))
        return schedule_digest(recorder.schedule), len(recorder.crashed)
    result = RUNS[run](recorder)
    assert result.crashed == recorder.crashed
    return schedule_digest(recorder.schedule), result.metrics.total_messages


CASES = [(strategy, run) for strategy in STRATEGIES
         for run in (*RUNS, "synthetic")]


class TestSchedulesArePinned:
    @pytest.mark.parametrize("strategy, run", CASES)
    def test_the_recorded_schedule_is_the_parents(self, strategy, run):
        assert _observe(strategy, run) == PINNED[strategy, run]

    def test_every_shape_of_victim_is_met(self):
        shapes = set()

        class Spy(_Wrapped):
            def plan_round(self, round_no, proposed, alive):
                plan = super().plan_round(round_no, proposed, alive)
                shapes.update(type(proposed[victim]) for victim in plan)
                return plan

        for strategy, run in CASES:
            if run != "synthetic":
                RUNS[run](Spy(STRATEGIES[strategy]()))
        assert shapes == {Broadcast, Multicast, Scatter, list}

    @pytest.mark.parametrize("strategy, run", [
        case for case in CASES if case[1] != "synthetic"])
    def test_a_recorded_schedule_replays_to_the_same_run(self, strategy, run):
        recorder = RecordingAdversary(STRATEGIES[strategy]())
        first = RUNS[run](recorder)
        second = RUNS[run](ReplayAdversary(recorder.schedule, strict=True))
        assert engine_observables(second) == engine_observables(first)


def no_send_is_built(monkeypatch) -> list:
    """The (empty, one hopes) list of fan-outs made to build their
    ``Send`` objects from here on."""
    expanded = []
    materialize = Fanout._materialize
    monkeypatch.setattr(
        Fanout, "_materialize",
        lambda self: expanded.append(type(self)) or materialize(self))
    return expanded


class TestStrategiesBuildNoSend:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_plans_are_indices_and_no_fanout_is_expanded(
            self, strategy, monkeypatch):
        expanded = no_send_is_built(monkeypatch)
        adversary = STRATEGIES[strategy]()
        proposed = _synthetic()
        seen = 0
        for round_no in range(1, 6):
            alive = frozenset(proposed) - adversary.crashed
            plan = adversary.plan_round(round_no, proposed, alive)
            for victim, kept in plan.items():
                assert all(type(index) is int for index in kept)
                assert kept_indices(kept, proposed[victim]) == tuple(kept)
                seen += 1
            adversary.note_crashes(set(plan))
        assert seen and expanded == []
        for run in ("crash", "obg"):
            RUNS[run](STRATEGIES[strategy]())
        assert expanded == []


class _Announcer(Process):
    """Round 1: everybody broadcasts; then one quiet round."""

    def __init__(self, uid):
        super().__init__(uid)
        self.heard = None

    def program(self, ctx):
        inbox = yield Broadcast(ctx.n, Ping(ctx.index))
        self.heard = sorted(envelope.sender for envelope in inbox)
        yield []
        return self.uid


class TestKeptPartIsAFanout:
    def _first_round(self, adversary, processes, n):
        network = SyncNetwork(processes, cost_for(n),
                              crash_adversary=adversary)
        network._start()
        network.round_no = 1
        return network, network._apply_crash_plan(network._pending.copy())

    def test_the_partitioners_shuffled_order_is_the_delivered_order(self):
        n = 9
        recorder = RecordingAdversary(MidSendPartitioner(1, rng=Random(2)))
        network, delivered = self._first_round(
            recorder, [_Announcer(uid + 1) for uid in range(n)], n)
        (victim, kept), = recorder.schedule[1].items()
        assert len(kept) == n // 2 and list(kept) != sorted(kept)
        part = delivered[victim]
        assert type(part) is Multicast and part.targets == kept
        assert part.message == Ping(victim) and part._sends is None

    def test_a_scatter_stays_a_scatter_and_a_list_a_list(self):
        proposals = {
            0: Scatter((2, 1, 0), (Ping(7), Ping(8), Ping(9))),
            1: [Send(0, Ping(1)), Send(2, Ping(2)), Send(0, Ping(1))],
            2: Multicast((1, 1, 0), Ping(3), claim=5),
        }

        class Fixed(Process):
            def program(self, ctx):
                yield proposals[ctx.index]
                return self.uid

        adversary = PlanScript(3, {0: (2, 0), 1: [2, 1], 2: range(1, 3)})
        network, delivered = self._first_round(
            adversary, [Fixed(uid + 1) for uid in range(3)], 3)
        assert type(delivered[0]) is Scatter
        assert delivered[0].targets == (0, 2)
        assert delivered[0].messages == (Ping(9), Ping(7))
        assert delivered[1] == [proposals[1][2], proposals[1][1]]
        assert delivered[1][0] is proposals[1][2]
        assert type(delivered[2]) is Multicast
        assert (delivered[2].targets, delivered[2].claim) == ((1, 0), 5)
        assert all(isinstance(part, list) or part._sends is None
                   for part in delivered.values())
        assert network.crashed == adversary.crashed == {0, 1, 2}

    def test_what_was_kept_is_what_is_read(self):
        n = 5
        processes = [_Announcer(uid + 1) for uid in range(n)]
        run_network(processes, cost_for(n),
                    crash_adversary=PlanScript(1, {3: (4, 0)}))
        heard_three = [index for index, process in enumerate(processes)
                       if process.heard is not None and 3 in process.heard]
        assert heard_three == [0, 4]


class TestIndexPlansAreValidatedAtomically:
    def run_rejected(self, plan, match, budget=2, n=3):
        adversary = PlanScript(budget, plan)
        network = SyncNetwork([Chatter(uid=i + 1, rounds=2) for i in range(n)],
                              cost_for(n), crash_adversary=adversary)
        with pytest.raises(CrashPlanError, match=match):
            network.run()
        assert network.crashed == set()
        assert adversary.crashed == set()
        assert sorted(network._pending) == list(range(n))

    def test_index_out_of_range(self):
        self.run_rejected({0: [0, 3]}, "victim 0.*outside")

    def test_negative_index(self):
        self.run_rejected({1: [-1]}, "victim 1.*outside")

    def test_repeated_index(self):
        self.run_rejected({0: [1, 1]}, "victim 0.*twice")

    def test_a_valid_victim_does_not_leak_through_an_invalid_plan(self):
        self.run_rejected({0: [0], 1: [5]}, "victim 1.*outside")

    def test_non_alive_victim(self):
        self.run_rejected({99: [0]}, "non-alive")

    def test_over_budget(self):
        self.run_rejected({0: [0], 1: [1]}, "budget", budget=1)

    def test_neither_an_index_nor_a_send(self):
        self.run_rejected({0: [0, "x"]}, "never proposed")

    def test_kept_indices_itself(self):
        proposed = Broadcast(4, Ping(0))
        assert kept_indices([3, 0], proposed) == (3, 0)
        assert kept_indices(range(2), proposed) == (0, 1)
        assert kept_indices((), proposed) == ()
        assert proposed._sends is None
        for bad in ([4], [-1], [0, 0]):
            with pytest.raises(CrashPlanError):
                kept_indices(bad, proposed)


class TestPoliciesMayStillKeepSends:
    def _policy_run(self, keep):
        def policy(round_no, proposed, alive, remaining):
            if round_no == 1 and 1 in alive:
                return {1: keep(proposed[1])}
            return {}

        recorder = RecordingAdversary(BudgetedAdaptiveCrash(1, policy))
        result = run_network([_DupLister(uid + 1) for uid in range(4)],
                             CostModel(n=4, namespace=64),
                             crash_adversary=recorder, seed=0)
        return recorder.schedule, result

    def test_by_identity_then_by_equality(self):
        by_identity, first = self._policy_run(
            lambda sends: [sends[1], sends[4]])
        assert by_identity == {1: {1: (1, 4)}}
        # A fresh-but-equal send names the first unused equal position.
        by_equality, second = self._policy_run(
            lambda sends: [Send(0, Ping(0)), Send(0, Ping(0))])
        assert by_equality == {1: {1: (0, 1)}}
        by_index, third = self._policy_run(lambda sends: (1, 4))
        assert by_index == by_identity
        assert engine_observables(third) == engine_observables(first)
        assert (first.metrics.messages_per_round[0]
                == second.metrics.messages_per_round[0] == 3 * 7 + 2)

    def test_sends_kept_from_a_lazy_fanout(self):
        def policy(round_no, proposed, alive, remaining):
            if round_no == 1:
                return {0: [proposed[0][2], proposed[0][0]]}
            return {}

        recorder = RecordingAdversary(BudgetedAdaptiveCrash(1, policy))
        processes = [_Announcer(uid + 1) for uid in range(4)]
        run_network(processes, cost_for(4), crash_adversary=recorder)
        assert recorder.schedule == {1: {0: (2, 0)}}
        assert [0 in process.heard for process in processes[1:]] == [
            False, True, False]


class TestReferenceNetworkResolvesTheSameWay:
    """Both plan shapes, through ``kept_indices``, on the oracle."""

    @pytest.mark.parametrize("keep", [
        lambda sends: (4, 1), lambda sends: [sends[4], sends[1]],
    ], ids=["indices", "sends"])
    def test_both_plan_shapes(self, keep):
        def adversary():
            return BudgetedAdaptiveCrash(
                1, lambda round_no, proposed, alive, remaining:
                {2: keep(proposed[2])} if round_no == 2 else {})

        def processes():
            return [_DupLister(uid + 1) for uid in range(5)]

        cost = CostModel(n=5, namespace=64)
        oracle = ReferenceNetwork(processes(), cost,
                                  crash_adversary=adversary(), seed=1)
        oracle.run()
        engine = run_network(processes(), cost, crash_adversary=adversary(),
                             seed=1)
        assert reference_observables(oracle) == engine_observables(engine)
        assert oracle.crashed == {2}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_the_built_in_strategies_on_the_oracle(self, strategy):
        def processes():
            return [_DupLister(uid + 1) for uid in range(8)]

        cost = CostModel(n=8, namespace=64)
        oracle = ReferenceNetwork(processes(), cost, seed=7,
                                  crash_adversary=STRATEGIES[strategy]())
        oracle.run()
        engine = run_network(processes(), cost, seed=7,
                             crash_adversary=STRATEGIES[strategy]())
        assert reference_observables(oracle) == engine_observables(engine)

    def test_an_invalid_index_plan_is_rejected_there_too(self):
        oracle = ReferenceNetwork(
            [Chatter(uid=i + 1) for i in range(3)], cost_for(3),
            crash_adversary=PlanScript(1, {0: [7]}))
        with pytest.raises(CrashPlanError, match="outside"):
            oracle.run()


if __name__ == "__main__":  # pragma: no cover - prints the table to pin
    for case in CASES:
        print(f"    {case!r}: {_observe(*case)!r},")
