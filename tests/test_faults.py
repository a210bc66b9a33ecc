"""Tests for the link-level fault-injection layer (`repro.faults`).

Covers the verdict vocabulary, the concrete channel models, spec
building, the network's faulted delivery path (charging invariance,
zero-cost `None`, observer events), strict replay of a composed
omission + partition + mid-send-crash scenario, the degradation
classifier, and the `faults` engine driver.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from random import Random

import pytest

from repro.adversary.crash import ScheduledCrash
from repro.core.crash_renaming import RenamingFailure
from repro.falsify.monitors import InvariantViolation, RoundBudget
from repro.faults import (
    CORRUPT,
    DROP,
    DUPLICATE,
    HOLD,
    ComposedFaults,
    CorruptingChannel,
    DuplicateDelivery,
    FaultModel,
    FaultPlanError,
    FaultVerdict,
    NoFaults,
    OmissionFaults,
    TransientPartition,
    build_fault_model,
    corrupt_message,
    drop,
    duplicate,
    hold,
    normalize_spec,
    spec_to_json,
    validate_plan,
)
from repro.faults.degradation import (
    CRASHED,
    SAFE_STALLED,
    SAFE_TERMINATED,
    SAFETY_VIOLATED,
    FaultTap,
    classify_outcome,
    default_ladder,
    degradation_frontier,
    summarize_frontier,
)
from repro.faults.driver import faults_run_summary
from repro.sim.messages import CostModel, Message, Send, broadcast
from repro.sim.network import NonTerminationError
from repro.sim.node import Process
from repro.sim.runner import run_network


@dataclass(frozen=True)
class Tick(Message):
    value: int = 0
    tag: int = 0

    def payload_bits(self, cost):
        return 16


class Beacon(Process):
    """Broadcasts `rounds` ticks; records every inbox; sends do not
    depend on the inbox, so the proposed traffic is identical under any
    fault model — which makes charging assertions exact."""

    def __init__(self, uid, rounds=2):
        super().__init__(uid)
        self.rounds = rounds
        self.inboxes = []

    def program(self, ctx):
        for i in range(self.rounds):
            inbox = yield broadcast(ctx.n, Tick(i))
            self.inboxes.append(list(inbox))
        return self.uid


def cost_for(n):
    return CostModel(n=n, namespace=max(n, 100))


def beacons(n, rounds=2):
    return [Beacon(uid=i + 1, rounds=rounds) for i in range(n)]


class PlanOnce(FaultModel):
    """Issues one fixed plan in one round."""

    def __init__(self, round_no, plan):
        self.round_no = round_no
        self.plan = plan

    def plan_round(self, round_no, delivered, alive):
        return self.plan if round_no == self.round_no else {}


# ---------------------------------------------------------------------------
# Verdicts, corruption, plan validation


class TestVerdicts:
    def test_helpers(self):
        assert drop().kind == DROP
        assert duplicate(3) == FaultVerdict(DUPLICATE, copies=3)
        assert hold(7).release_round == 7
        assert FaultVerdict(CORRUPT, salt=5).salt == 5

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultVerdict("teleport")

    def test_duplicate_needs_positive_copies(self):
        with pytest.raises(FaultPlanError, match="copies"):
            FaultVerdict(DUPLICATE, copies=0)


class TestCorruptMessage:
    def test_flips_one_bit_of_one_int_field(self):
        message = Tick(value=0b100, tag=9)
        mutated = corrupt_message(message, salt=0)
        assert mutated != message
        # salt=0 picks the first int field and flips bit 0.
        assert mutated.value == 0b101 and mutated.tag == 9

    def test_salt_selects_field_and_bit(self):
        message = Tick(value=1, tag=1)
        a = corrupt_message(message, salt=2)   # field 0, bit 2
        b = corrupt_message(message, salt=3)   # field 1, bit 3
        assert a.value == 1 ^ 4 and a.tag == 1
        assert b.value == 1 and b.tag == 1 ^ 8

    def test_deterministic(self):
        message = Tick(value=123, tag=45)
        assert corrupt_message(message, 11) == corrupt_message(message, 11)

    def test_no_int_fields_passes_through(self):
        @dataclass(frozen=True)
        class SetMsg(Message):
            known: frozenset = frozenset()

            def payload_bits(self, cost):
                return 1

        message = SetMsg(known=frozenset({1, 2}))
        assert corrupt_message(message, 3) is message


class TestValidatePlan:
    DELIVERED = {0: [Send(0, Tick(0)), Send(1, Tick(0))]}

    def test_unknown_sender(self):
        with pytest.raises(FaultPlanError, match="resolved no sends"):
            validate_plan({9: {0: drop()}}, 1, self.DELIVERED)

    def test_index_out_of_range(self):
        with pytest.raises(FaultPlanError, match="outside"):
            validate_plan({0: {2: drop()}}, 1, self.DELIVERED)

    def test_non_verdict_rejected(self):
        with pytest.raises(FaultPlanError, match="FaultVerdict"):
            validate_plan({0: {0: "drop"}}, 1, self.DELIVERED)

    def test_hold_must_release_in_future(self):
        with pytest.raises(FaultPlanError, match="not in the future"):
            validate_plan({0: {0: hold(1)}}, 1, self.DELIVERED)

    def test_good_plan_accepted(self):
        validate_plan({0: {0: drop(), 1: hold(2)}}, 1, self.DELIVERED)


# ---------------------------------------------------------------------------
# Channel models


def _delivered(n, count):
    return {s: [Send(t, Tick(0)) for t in range(count)] for s in range(n)}


class TestOmissionFaults:
    def test_budget_caps_total_drops(self):
        model = OmissionFaults(1.0, seed=1, budget=5)
        total = 0
        for round_no in range(1, 4):
            plan = model.plan_round(round_no, _delivered(4, 4),
                                    frozenset(range(4)))
            total += sum(len(v) for v in plan.values())
        assert total == 5 and model.issued == 5 and model.remaining == 0

    def test_same_seed_same_decisions(self):
        a = OmissionFaults(0.3, seed=9)
        b = OmissionFaults(0.3, seed=9)
        for round_no in (1, 2, 3):
            assert (a.plan_round(round_no, _delivered(5, 5), frozenset())
                    == b.plan_round(round_no, _delivered(5, 5), frozenset()))

    def test_zero_rate_plans_nothing(self):
        model = OmissionFaults(0.0, seed=1)
        assert model.plan_round(1, _delivered(3, 3), frozenset()) == {}

    def test_probability_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            OmissionFaults(1.5)
        with pytest.raises(ValueError, match="budget"):
            OmissionFaults(0.5, budget=-1)


class TestDuplicateDelivery:
    def test_verdicts_carry_copies(self):
        model = DuplicateDelivery(1.0, copies=2, seed=0, budget=3)
        plan = model.plan_round(1, _delivered(2, 2), frozenset())
        verdicts = [v for vs in plan.values() for v in vs.values()]
        assert verdicts and all(
            v.kind == DUPLICATE and v.copies == 2 for v in verdicts)

    def test_copies_validated(self):
        with pytest.raises(ValueError, match="copies"):
            DuplicateDelivery(0.5, copies=0)


class TestCorruptingChannel:
    def test_salts_are_seeded(self):
        a = CorruptingChannel(1.0, seed=4)
        b = CorruptingChannel(1.0, seed=4)
        plan_a = a.plan_round(1, _delivered(3, 2), frozenset())
        plan_b = b.plan_round(1, _delivered(3, 2), frozenset())
        assert plan_a == plan_b
        salts = [v.salt for vs in plan_a.values() for v in vs.values()]
        assert len(set(salts)) > 1  # not a constant salt


class TestTransientPartition:
    def test_holds_only_cross_cut_sends_in_window(self):
        model = TransientPartition(2, 4, left=[0, 1])
        delivered = {s: [Send(t, Tick(0)) for t in range(4)]
                     for s in range(4)}
        for round_no, expect_any in ((1, False), (2, True), (3, True),
                                     (4, False)):
            plan = model.plan_round(round_no, delivered, frozenset())
            assert bool(plan) is expect_any
            for sender, verdicts in plan.items():
                for index, verdict in verdicts.items():
                    assert verdict.kind == HOLD
                    assert verdict.release_round == 4
                    crosses = (sender in {0, 1}) != (index in {0, 1})
                    assert crosses

    def test_window_validated(self):
        with pytest.raises(ValueError, match="start"):
            TransientPartition(0, 3, left=[0])
        with pytest.raises(ValueError, match="empty"):
            TransientPartition(3, 3, left=[0])


class TestComposedFaults:
    def test_first_verdict_wins(self):
        first = PlanOnce(1, {0: {0: drop()}})
        second = PlanOnce(1, {0: {0: duplicate(), 1: hold(2)}})
        merged = ComposedFaults([first, second]).plan_round(
            1, _delivered(1, 2), frozenset())
        assert merged[0][0].kind == DROP
        assert merged[0][1].kind == HOLD

    def test_describe_joins(self):
        text = ComposedFaults([NoFaults(), NoFaults()]).describe()
        assert text == "NoFaults + NoFaults"


# ---------------------------------------------------------------------------
# Specs


class TestSpec:
    def test_normalize_shapes(self):
        entry = {"kind": "omission", "p": 0.1}
        assert normalize_spec(None) == []
        assert normalize_spec("") == []
        assert normalize_spec(entry) == [entry]
        assert normalize_spec([entry]) == [entry]
        assert normalize_spec(json.dumps([entry])) == [entry]

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError, match="not JSON"):
            normalize_spec("{nope")

    def test_entry_needs_kind(self):
        with pytest.raises(ValueError, match="'kind'"):
            normalize_spec([{"p": 0.5}])

    def test_spec_to_json_is_stable(self):
        spec = [{"p": 0.1, "kind": "omission"}]
        assert spec_to_json(spec) == spec_to_json(json.loads(
            spec_to_json(spec)))

    def test_build_each_kind(self):
        n = 8
        assert build_fault_model(None, n) is None
        assert build_fault_model([], n) is None
        assert isinstance(
            build_fault_model([{"kind": "omission"}], n), OmissionFaults)
        assert isinstance(
            build_fault_model([{"kind": "duplicate", "copies": 2}], n),
            DuplicateDelivery)
        assert isinstance(
            build_fault_model([{"kind": "corrupt"}], n), CorruptingChannel)
        partition = build_fault_model(
            [{"kind": "partition", "start": 2, "end": 6}], n)
        assert isinstance(partition, TransientPartition)
        assert partition.left == frozenset(range(4))  # left_frac 0.5
        assert isinstance(build_fault_model([{"kind": "none"}], n), NoFaults)
        composed = build_fault_model(
            [{"kind": "omission"}, {"kind": "partition"}], n)
        assert isinstance(composed, ComposedFaults)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            build_fault_model([{"kind": "teleport"}], 8)

    def test_seed_offsets_differ_per_entry(self):
        composed = build_fault_model(
            [{"kind": "omission", "p": 0.5},
             {"kind": "omission", "p": 0.5}], 8, seed=3)
        a, b = composed.models
        rolls_a = [a.rng.random() for _ in range(4)]
        rolls_b = [b.rng.random() for _ in range(4)]
        assert rolls_a != rolls_b  # entries never share coins

    def test_explicit_entry_seed_wins(self):
        a = build_fault_model([{"kind": "omission", "seed": 42}], 8, seed=0)
        b = build_fault_model([{"kind": "omission", "seed": 42}], 8, seed=99)
        assert [a.rng.random() for _ in range(4)] == [
            b.rng.random() for _ in range(4)]

    def test_partition_left_frac_validated(self):
        with pytest.raises(ValueError, match="left_frac"):
            build_fault_model(
                [{"kind": "partition", "left_frac": 1.0}], 8)


# ---------------------------------------------------------------------------
# The faulted network path


class TestNetworkFaults:
    def test_none_and_nofaults_and_p0_identical(self):
        """`fault_model=None`, NoFaults(), and a 0-rate channel agree on
        every counted quantity and every output."""
        n = 6
        baseline = run_network(beacons(n), cost_for(n))
        for model in (NoFaults(), OmissionFaults(0.0, seed=1)):
            result = run_network(beacons(n), cost_for(n), fault_model=model)
            assert result.metrics.summary() == baseline.metrics.summary()
            assert list(result.metrics.messages_per_round) == list(
                baseline.metrics.messages_per_round)
            assert list(result.metrics.bits_per_round) == list(
                baseline.metrics.bits_per_round)
            assert result.results == baseline.results
            assert result.fault_stats.total == 0
        assert baseline.fault_stats is None

    def test_drops_are_charged_but_not_delivered(self):
        n = 4
        baseline = run_network(beacons(n), cost_for(n))
        processes = beacons(n)
        result = run_network(
            processes, cost_for(n),
            fault_model=OmissionFaults(1.0, seed=0))
        # Beacon sends are inbox-independent, so the full fault-free
        # traffic is still charged...
        assert result.metrics.summary() == baseline.metrics.summary()
        # ...but nothing ever arrives.
        assert all(not inbox
                   for process in processes for inbox in process.inboxes)
        assert result.fault_stats.dropped == n * n * 2

    def test_duplicates_deliver_copies_but_charge_once(self):
        n = 3
        baseline = run_network(beacons(n, rounds=1), cost_for(n))
        processes = beacons(n, rounds=1)
        result = run_network(
            processes, cost_for(n),
            fault_model=DuplicateDelivery(1.0, copies=2, seed=0))
        assert result.metrics.summary() == baseline.metrics.summary()
        for process in processes:
            (inbox,) = process.inboxes
            assert len(inbox) == n * 3  # every message in triplicate
            # A duplicated link reads its row's one envelope three times.
            assert len({id(env) for env in inbox}) == n
            assert all(inbox[k] is inbox[k + 1] is inbox[k + 2]
                       for k in range(0, 3 * n, 3))
        assert result.fault_stats.duplicated == n * n * 2

    def test_corruption_flips_received_copy_only(self):
        n = 2
        processes = beacons(n, rounds=1)
        result = run_network(
            processes, cost_for(n),
            fault_model=CorruptingChannel(1.0, seed=5))
        received = [env.message for p in processes for env in p.inboxes[0]]
        assert all(isinstance(m, Tick) for m in received)
        assert any(m != Tick(0) for m in received)
        assert result.fault_stats.corrupted == n * n
        # Charged bits are the original's (same size here, but the
        # ledger path never sees the mutated copy).
        baseline = run_network(beacons(n, rounds=1), cost_for(n))
        assert result.metrics.summary() == baseline.metrics.summary()

    def test_hold_defers_delivery_to_release_round(self):
        n = 4
        processes = beacons(n, rounds=3)
        model = TransientPartition(1, 3, left=[0, 1])
        result = run_network(processes, cost_for(n), fault_model=model)
        # Rounds 1-2 partition {0,1} from {2,3}; round 3 heals.
        for index, process in enumerate(processes):
            mine = {0, 1} if index < 2 else {2, 3}
            for inbox in process.inboxes[:2]:
                assert {env.sender for env in inbox} == mine
            healed = process.inboxes[2]
            # Round 3 delivers the held cross-cut backlog of rounds 1-2
            # (two senders x two rounds) plus the round-3 traffic.
            held = [env for env in healed if env.sender not in mine]
            assert len(held) == 2 * 2 + 2
            assert all(env.round_no == 3 for env in healed)
        stats = result.fault_stats
        assert stats.held == 2 * (2 * 2 * 2)  # two rounds of cross traffic
        assert stats.released == stats.held
        baseline = run_network(beacons(n, rounds=3), cost_for(n))
        assert result.metrics.summary() == baseline.metrics.summary()

    def test_held_mail_to_retired_node_vanishes(self):
        n = 3
        model = TransientPartition(1, 3, left=[0])
        adversary = ScheduledCrash({2: [0]})
        result = run_network(
            beacons(n, rounds=3), cost_for(n),
            crash_adversary=adversary, fault_model=model)
        assert result.crashed == {0}
        assert result.fault_stats.released < result.fault_stats.held

    def test_release_to_dead_receiver_is_counted(self):
        """Regression: mail held for a receiver that crashed before the
        release round used to vanish from the ledger; now every held
        message is accounted for: ``held == released + released_to_dead``
        at run end (nothing left in flight)."""
        from repro.obs import EventRecorder, validate_events

        n = 3
        model = TransientPartition(1, 3, left=[0])
        adversary = ScheduledCrash({2: [0]})
        recorder = EventRecorder()
        result = run_network(
            beacons(n, rounds=3), cost_for(n),
            crash_adversary=adversary, fault_model=model, observer=recorder)
        stats = result.fault_stats
        assert result.crashed == {0}
        assert stats.released_to_dead > 0
        assert stats.held == stats.released + stats.released_to_dead
        assert stats.in_flight() == 0 and stats.expired == 0
        assert stats.as_dict()["released_to_dead"] == stats.released_to_dead
        events = recorder.events("fault")
        assert validate_events(events) == []
        dead_releases = [
            event for event in events
            if event["kind"] == "fault.release"
            and event.get("data", {}).get("dead")
        ]
        assert len(dead_releases) == stats.released_to_dead

    def test_held_mail_past_termination_expires(self):
        """Regression: a partition whose heal round exceeds the run
        length used to leave held mail in the queue forever with no
        ledger trace; the run-end drain now expires it."""
        from repro.obs import EventRecorder, validate_events

        n = 4
        # Beacons finish after round 2; the cut heals at round 10.
        model = TransientPartition(1, 10, left=[0, 1])
        recorder = EventRecorder()
        processes = beacons(n, rounds=2)
        result = run_network(processes, cost_for(n), fault_model=model,
                             observer=recorder)
        stats = result.fault_stats
        assert stats.held == 2 * (2 * 2 * 2)  # two rounds of cross traffic
        assert stats.released == 0 and stats.released_to_dead == 0
        assert stats.in_flight() == stats.held
        assert stats.expired == stats.in_flight()
        assert stats.as_dict()["expired"] == stats.expired
        # The cross-cut mail really never arrived.
        for index, process in enumerate(processes):
            mine = {0, 1} if index < 2 else {2, 3}
            for inbox in process.inboxes:
                assert {env.sender for env in inbox} <= mine
        events = recorder.events("fault")
        assert validate_events(events) == []
        expire_events = [event for event in events
                         if event["kind"] == "fault.expire"]
        assert len(expire_events) == stats.expired

    def test_bad_plan_rejected_atomically(self):
        model = PlanOnce(1, {0: {99: drop()}})
        with pytest.raises(FaultPlanError, match="outside"):
            run_network(beacons(3), cost_for(3), fault_model=model)

    def test_fault_events_emitted_and_schema_valid(self):
        from repro.obs import EventRecorder, validate_events

        recorder = EventRecorder()
        model = ComposedFaults([
            OmissionFaults(0.3, seed=1),
            DuplicateDelivery(0.3, seed=2),
            CorruptingChannel(0.3, seed=3),
            TransientPartition(1, 2, left=[0, 1]),
        ])
        run_network(beacons(4, rounds=3), cost_for(4),
                    fault_model=model, observer=recorder)
        events = recorder.events()
        assert validate_events(events) == []
        kinds = {event["kind"] for event in events}
        assert {"fault.drop", "fault.dup", "fault.corrupt",
                "fault.hold", "fault.release"} <= kinds
        assert {"round.begin", "round.end"} <= kinds

    def test_fault_model_with_monitors(self):
        # Monitors run on the faulted path too.
        with pytest.raises(InvariantViolation, match="round-budget"):
            run_network(
                beacons(3, rounds=9), cost_for(3),
                fault_model=NoFaults(), monitors=(RoundBudget(4),))


# ---------------------------------------------------------------------------
# Strict replay of a composed fault scenario (acceptance criterion)


def _fault_events(recorder):
    return [(e["kind"], e.get("round"), e.get("node"), e.get("data"))
            for e in recorder.events("fault")]


class TestComposedScenarioReplay:
    SPEC = json.dumps([
        {"kind": "omission", "p": 0.08, "budget": 24},
        {"kind": "partition", "start": 3, "end": 6},
    ])
    N, F, SEED = 12, 2, 1

    def _run(self, adversary, observer=None):
        from repro.falsify.monitors import LedgerMonotone
        from repro.falsify.scenarios import run_scenario

        return run_scenario(
            "gossip", self.N, self.F, self.SEED,
            adversary=adversary, monitors=(LedgerMonotone(),),
            params={"faults": self.SPEC}, observer=observer,
        )

    def test_record_then_strict_replay_identical(self):
        from repro.falsify.replay import RecordingAdversary, ReplayAdversary
        from repro.falsify.scenarios import make_adversary
        from repro.obs import EventRecorder

        recorder = RecordingAdversary(
            make_adversary("partitioner", self.F, self.SEED))
        obs_a = EventRecorder()
        recorded = self._run(recorder, observer=obs_a)
        assert recorded.fault_stats.total > 0  # faults actually fired
        assert recorded.crashed  # the mid-send crash actually fired

        obs_b = EventRecorder()
        replayed = self._run(
            ReplayAdversary(recorder.schedule, strict=True), observer=obs_b)

        assert replayed.metrics.summary() == recorded.metrics.summary()
        assert list(replayed.metrics.messages_per_round) == list(
            recorded.metrics.messages_per_round)
        assert list(replayed.metrics.bits_per_round) == list(
            recorded.metrics.bits_per_round)
        assert replayed.results == recorded.results
        assert replayed.crashed == recorded.crashed
        assert replayed.fault_stats.as_dict() == (
            recorded.fault_stats.as_dict())
        assert _fault_events(obs_b) == _fault_events(obs_a)

    def test_artifact_params_rebuild_the_channel(self, tmp_path):
        """The spec travels through a JSON artifact and rebuilds an
        identical fault model on the other side."""
        from repro.falsify.replay import ReproArtifact

        artifact = ReproArtifact(
            scenario="gossip", n=self.N, f=self.F, seed=self.SEED,
            params={"faults": self.SPEC}, schedule={},
            invariant="none", violation_round=0, nodes=(),
            detail=None, code_version="x",
        )
        loaded = ReproArtifact.load(artifact.save(tmp_path / "a.json"))
        assert loaded.params["faults"] == self.SPEC
        first = self._run(None)
        from repro.falsify.scenarios import run_scenario

        second = run_scenario(
            "gossip", loaded.n, loaded.f, loaded.seed,
            params=loaded.params)
        assert second.metrics.summary() == first.metrics.summary()


# ---------------------------------------------------------------------------
# Degradation classifier


class TestClassifyOutcome:
    def test_clean_run(self):
        outcome, detail = classify_outcome(lambda: "ok")
        assert outcome == SAFE_TERMINATED and detail["result"] == "ok"

    def test_round_budget_is_a_stall(self):
        def stall():
            raise InvariantViolation("round-budget", "too slow",
                                     round_no=9, nodes=(1,))

        outcome, detail = classify_outcome(stall)
        assert outcome == SAFE_STALLED and detail["round"] == 9

    def test_non_termination_is_a_stall(self):
        def hang():
            raise NonTerminationError("hang", round_no=7, pending=(0, 1))

        outcome, detail = classify_outcome(hang)
        assert outcome == SAFE_STALLED and detail["round"] == 7

    def test_safety_violation(self):
        def violate():
            raise InvariantViolation("unique-names", "dup",
                                     round_no=3, nodes=(2, 4))

        outcome, detail = classify_outcome(violate)
        assert outcome == SAFETY_VIOLATED
        assert detail["invariant"] == "unique-names"

    def test_crash(self):
        def boom():
            raise ValueError("kaput")

        outcome, detail = classify_outcome(boom)
        assert outcome == CRASHED and detail["error"] == "ValueError"

    def test_renaming_failure_is_a_stall(self):
        def no_name():
            raise RenamingFailure("node 59 finished with interval [1,8]")

        outcome, detail = classify_outcome(no_name)
        assert outcome == SAFE_STALLED
        assert detail["error"] == "RenamingFailure"
        assert "node 59" in detail["message"]


class TestFaultTap:
    def test_counts_issued_verdicts(self):
        tap = FaultTap(PlanOnce(1, {0: {0: drop(), 1: duplicate()}}))
        tap.plan_round(1, _delivered(1, 2), frozenset())
        tap.plan_round(2, _delivered(1, 2), frozenset())
        assert tap.issued == {DROP: 1, DUPLICATE: 1}


class TestFrontier:
    def test_default_ladder_starts_with_control(self):
        ladder = default_ladder(8)
        assert ladder[0].label == "none" and ladder[0].spec == ()
        assert len(ladder) >= 6
        for rung in ladder:
            json.loads(rung.spec_json)  # every rung serializes

    def test_gossip_frontier_all_safe(self):
        ladder = [rung for rung in default_ladder(8)
                  if rung.label in ("none", "omission-5%", "partition-3r")]
        rows = degradation_frontier(
            ["gossip"], 8, 0, 1, ladder=ladder, watchdog_rounds=200)
        assert [row["outcome"] for row in rows] == [SAFE_TERMINATED] * 3
        assert rows[1]["dropped"] > 0
        assert rows[2]["held"] > 0
        (summary,) = summarize_frontier(rows)
        assert summary["worst_outcome"] == SAFE_TERMINATED
        assert summary["first_unsafe_rung"] is None

    def test_crash_renaming_violates_under_omission(self):
        """The measured frontier: committee renaming genuinely loses
        unique-names on a lossy channel (it assumes reliable links)."""
        rows = degradation_frontier(
            ["crash"], 16, 0, 1,
            ladder=[rung for rung in default_ladder(16)
                    if rung.label in ("none", "omission-5%")],
            watchdog_rounds=800)
        control, lossy = rows
        assert control["outcome"] == SAFE_TERMINATED
        assert lossy["outcome"] == SAFETY_VIOLATED
        assert "unique-names" in lossy["detail"]

    def test_crash_renaming_under_corruption_is_classified(self):
        """Regression (F15 `corrupt-10%`): a bit-flipped ``p`` used to
        overflow ``election_probability`` and the row read CRASHED."""
        (row,) = degradation_frontier(
            ["crash"], 16, 0, 1,
            ladder=[rung for rung in default_ladder(16)
                    if rung.label == "corrupt-10%"])
        assert row["outcome"] == SAFE_STALLED
        assert row["corrupted"] > 0
        detail = json.loads(row["detail"])
        assert detail["error"] == "RenamingFailure"
        assert detail["message"].startswith("node ")

    def test_fault_scenario_control_rung_is_fault_free(self):
        # The explicit NoFaults control overrides gossip-faults'
        # default spec: zero faults issued on the "none" rung.
        rows = degradation_frontier(
            ["gossip-faults"], 8, 0, 1,
            ladder=default_ladder(8)[:1], watchdog_rounds=200)
        (row,) = rows
        assert row["outcome"] == SAFE_TERMINATED
        assert row["dropped"] == 0 and row["held"] == 0


# ---------------------------------------------------------------------------
# Engine driver + code-version coverage


class TestFaultsDriver:
    def test_registered_with_engine(self):
        from repro.engine.sweeps import resolve_driver

        assert resolve_driver("faults") is faults_run_summary

    def test_terminated_row_with_ledgers(self):
        row = faults_run_summary(
            8, 0, 1, scenario="gossip",
            faults='[{"kind": "omission", "p": 0.1}]',
            watchdog_rounds=200, include_rounds=True)
        assert row["outcome"] == SAFE_TERMINATED
        assert row["dropped"] > 0
        assert len(row["messages_per_round"]) == row["rounds"]
        assert "_result" not in row

    def test_violating_row_has_no_ledgers(self):
        row = faults_run_summary(
            16, 0, 1, scenario="crash",
            faults='[{"kind": "omission", "p": 0.05}]',
            watchdog_rounds=800, include_rounds=True)
        assert row["outcome"] == SAFETY_VIOLATED
        assert "messages_per_round" not in row
        assert row["messages"] is None

    def test_rows_are_json_scalars_plus_ledgers(self):
        from repro.engine.sweeps import LEDGER_KEYS

        row = faults_run_summary(
            8, 0, 1, scenario="gossip",
            faults='[{"kind": "duplicate", "p": 0.2}]',
            watchdog_rounds=200)
        for key, value in row.items():
            if key in LEDGER_KEYS:
                continue
            assert value is None or isinstance(value, (str, int, float, bool))


class TestCodeVersionCoversFaults:
    def test_faults_sources_inside_hashed_root(self):
        import repro
        import repro.faults

        root = Path(repro.__file__).resolve().parent
        faults_dir = Path(repro.faults.__file__).resolve().parent
        assert root in faults_dir.parents
        assert list(faults_dir.glob("*.py"))

    def test_hash_changes_when_a_faults_file_changes(self, tmp_path,
                                                     monkeypatch):
        """Regression: the content hash must cover subpackages, so
        cached rows invalidate when fault semantics change."""
        import repro

        from repro.engine.store import code_version

        package = tmp_path / "repro"
        (package / "faults").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "faults" / "base.py").write_text("A = 1\n")
        monkeypatch.setattr(repro, "__file__",
                            str(package / "__init__.py"))
        before = code_version.__wrapped__()
        (package / "faults" / "base.py").write_text("A = 2\n")
        after = code_version.__wrapped__()
        assert before != after
