"""Tests for crash-adversary strategies."""

from random import Random

import pytest

from repro.adversary.base import CrashAdversary, NoCrashes
from repro.adversary.crash import (
    BudgetedAdaptiveCrash,
    CommitteeHunter,
    MidSendPartitioner,
    RandomCrash,
    ScheduledCrash,
)
from repro.sim.messages import Broadcast, Multicast, Scatter, Send
from tests.test_network import Ping


def proposed_for(fanouts):
    """Fake per-node proposed sends with the given fanouts."""
    return {
        node: [Send(to=t, message=Ping(t)) for t in range(fanout)]
        for node, fanout in fanouts.items()
    }




class TestNoCrashes:
    def test_never_crashes(self):
        adversary = NoCrashes()
        plan = adversary.plan_round(1, proposed_for({0: 3}), frozenset({0}))
        assert plan == {}
        assert adversary.budget == 0


class TestRandomCrash:
    def test_budget_respected(self):
        adversary = RandomCrash(budget=2, rate=1.0, rng=Random(1))
        plan = adversary.plan_round(
            1, proposed_for({i: 2 for i in range(10)}),
            frozenset(range(10)))
        assert len(plan) == 2

    def test_rate_zero_never_crashes(self):
        adversary = RandomCrash(budget=5, rate=0.0, rng=Random(1))
        plan = adversary.plan_round(
            1, proposed_for({i: 2 for i in range(10)}),
            frozenset(range(10)))
        assert plan == {}

    def test_kept_messages_are_subset(self):
        adversary = RandomCrash(budget=5, rate=1.0, rng=Random(3))
        proposed = proposed_for({0: 10})
        plan = adversary.plan_round(1, proposed, frozenset({0}))
        kept = plan[0]
        assert 0 < len(kept) < 10 and kept == sorted(set(kept))
        assert all(type(index) is int and 0 <= index < 10 for index in kept)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            RandomCrash(budget=1, rate=1.5, rng=Random(0))

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            RandomCrash(budget=-1, rate=0.5, rng=Random(0))


class TestScheduledCrash:
    def test_budget_inferred_from_schedule(self):
        adversary = ScheduledCrash({1: [0, 2], 3: [5]})
        assert adversary.budget == 3

    def test_fires_only_in_scheduled_round(self):
        adversary = ScheduledCrash({2: [0]})
        assert adversary.plan_round(1, proposed_for({0: 1}), frozenset({0})) == {}
        plan = adversary.plan_round(2, proposed_for({0: 1}), frozenset({0}))
        assert set(plan) == {0}

    def test_skips_already_dead_victims(self):
        adversary = ScheduledCrash({2: [0]})
        plan = adversary.plan_round(2, proposed_for({1: 1}), frozenset({1}))
        assert plan == {}

    def test_duplicate_victims_rejected(self):
        with pytest.raises(ValueError):
            ScheduledCrash({1: [0], 2: [0]})

    def test_deliver_prefix(self):
        adversary = ScheduledCrash({1: [0]}, deliver_prefix={0: 2})
        proposed = proposed_for({0: 5})
        plan = adversary.plan_round(1, proposed, frozenset({0}))
        assert plan[0] == range(2)

    def test_explicit_budget_pins_f(self):
        adversary = ScheduledCrash({1: [0]}, budget=4)
        assert adversary.budget == 4

    def test_schedule_over_budget_rejected_at_construction(self):
        from repro.adversary.base import CrashPlanError

        # Rounds 1-2 stay within f=2; round 5 brings the cumulative
        # count to 3.  Validation must name that round, not merely
        # under-deliver crashes mid-execution.
        with pytest.raises(CrashPlanError, match="budget f=2 at round 5"):
            ScheduledCrash({1: [0], 2: [3], 5: [7]}, budget=2)

    def test_budget_exactly_met_is_fine(self):
        adversary = ScheduledCrash({1: [0], 2: [3]}, budget=2)
        assert adversary.budget == 2


class TestMidSendPartitioner:
    def test_targets_highest_fanout(self):
        adversary = MidSendPartitioner(budget=1, rng=Random(1), per_round=1)
        plan = adversary.plan_round(
            1, proposed_for({0: 2, 1: 10, 2: 3}), frozenset({0, 1, 2}))
        assert set(plan) == {1}

    def test_delivers_half(self):
        adversary = MidSendPartitioner(budget=1, rng=Random(1))
        plan = adversary.plan_round(
            1, proposed_for({0: 10}), frozenset({0}))
        assert len(plan[0]) == 5

    def test_ignores_low_fanout(self):
        adversary = MidSendPartitioner(budget=1, rng=Random(1), min_fanout=5)
        plan = adversary.plan_round(
            1, proposed_for({0: 2}), frozenset({0}))
        assert plan == {}


class TestCommitteeHunter:
    def test_kills_broadcasters_only(self):
        adversary = CommitteeHunter(budget=5, rng=Random(1))
        plan = adversary.plan_round(
            1, proposed_for({0: 10, 1: 1, 2: 10, 3: 0}),
            frozenset({0, 1, 2, 3}))
        assert set(plan) == {0, 2}
        assert list(plan[0]) == [] and list(plan[2]) == []

    def test_budget_limits_kills(self):
        adversary = CommitteeHunter(budget=1, rng=Random(1))
        plan = adversary.plan_round(
            1, proposed_for({0: 10, 1: 10}), frozenset({0, 1}))
        assert len(plan) == 1

    def test_deliver_fraction_leaks_traffic(self):
        adversary = CommitteeHunter(budget=1, rng=Random(1), deliver_fraction=0.5)
        plan = adversary.plan_round(
            1, proposed_for({0: 10}), frozenset({0}))
        assert len(plan[0]) == 5

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            CommitteeHunter(budget=1, rng=Random(1), deliver_fraction=2.0)


class TestBudgetedAdaptiveCrash:
    def test_policy_sees_remaining_budget(self):
        seen = []

        def policy(round_no, proposed, alive, remaining):
            seen.append(remaining)
            return {}

        adversary = BudgetedAdaptiveCrash(3, policy)
        adversary.plan_round(1, {}, frozenset())
        adversary.note_crashes({0, 1})
        adversary.plan_round(2, {}, frozenset())
        assert seen == [3, 1]


class _FanoutSlicer(CrashAdversary):
    """Crashes the first node whose proposal is a lazy fan-out of type
    ``fanout`` mid-send, keeping every other position (a strict
    subset)."""

    def __init__(self, fanout=Broadcast):
        super().__init__(budget=1)
        self.fanout = fanout
        self.captured = None  # (round_no, victim, proposed_seq, kept)

    def plan_round(self, round_no, proposed, alive):
        if self.crashed:
            return {}
        for victim in sorted(alive):
            sends = proposed.get(victim)
            if type(sends) is self.fanout and len(sends) >= 4:
                kept = list(range(0, len(sends), 2))
                self.captured = (round_no, victim, sends, kept)
                self.proposed = dict(proposed)
                return {victim: kept}
        return {}


class TestBroadcastMidSendCrash:
    """Regression: ``plan_round`` receives lazy ``Broadcast`` sequences
    (not lists) for broadcasting nodes; a mid-send crash keeping a
    strict subset must record by position and replay exactly."""

    def test_broadcast_materialization_is_identity_stable(self):
        bc = Broadcast(6, Ping(0))
        assert bc[2] is bc[2]  # cached; repeated access → same instance
        assert list(bc.kept((1, 4))) == [bc[1], bc[4]]

    def test_mid_send_crash_of_broadcaster_records_and_replays(self):
        from repro.core.crash_renaming import run_crash_renaming
        from repro.falsify.replay import RecordingAdversary, ReplayAdversary

        uids, n, seed = [3, 8, 1, 12, 7, 5, 10, 2], 8, 4
        slicer = _FanoutSlicer()
        recorder = RecordingAdversary(slicer)
        first = run_crash_renaming(
            uids, namespace=16, adversary=recorder, seed=seed,
        )

        # The victim really was broadcasting and really kept a strict
        # subset, recorded as its positions in the Broadcast.
        assert slicer.captured is not None
        round_no, victim, sends, kept = slicer.captured
        assert isinstance(sends, Broadcast)
        assert 0 < len(kept) < len(sends)
        assert recorder.schedule[round_no][victim] == tuple(
            range(0, len(sends), 2))
        assert victim in first.crashed

        # Survivors still end with unique names despite the partial
        # delivery.
        outputs = first.outputs_by_uid()
        assert len(set(outputs.values())) == len(outputs)

        # Strict replay of the recorded schedule is byte-identical:
        # same outputs, same round count, same per-round ledgers.
        replayer = ReplayAdversary(recorder.schedule, strict=True)
        second = run_crash_renaming(
            uids, namespace=16, adversary=replayer, seed=seed,
        )
        assert second.outputs_by_uid() == outputs
        assert second.rounds == first.rounds
        assert second.crashed == first.crashed
        assert (list(second.metrics.messages_per_round)
                == list(first.metrics.messages_per_round))
        assert (list(second.metrics.bits_per_round)
                == list(first.metrics.bits_per_round))


def _assert_sliced_fanout_records_and_replays(fanout):
    """Crash renaming's first victim proposing a lazy ``fanout`` is cut
    mid-send to every other send: recorded by index and strictly
    replayed to the same golden digest."""
    from repro.core.crash_renaming import run_crash_renaming
    from repro.falsify.replay import RecordingAdversary, ReplayAdversary
    from tests.test_golden_digests import digest

    uids, seed = [3, 8, 1, 12, 7, 5, 10, 2], 4
    slicer = _FanoutSlicer(fanout)
    recorder = RecordingAdversary(slicer)
    first = run_crash_renaming(
        uids, namespace=16, adversary=recorder, seed=seed)

    round_no, victim, sends, kept = slicer.captured
    assert type(sends) is fanout
    assert 0 < len(kept) < len(sends)
    assert recorder.schedule == {
        round_no: {victim: tuple(range(0, len(sends), 2))}}
    assert first.crashed == {victim}
    # The named subset is what was charged: a plain list on the run path.
    assert first.metrics.messages_per_round[round_no - 1] == (
        sum(len(proposed) for node, proposed in slicer.proposed.items()
            if node != victim) + len(kept))
    outputs = first.outputs_by_uid()
    assert len(set(outputs.values())) == len(outputs) == len(uids) - 1

    second = run_crash_renaming(
        uids, namespace=16, seed=seed,
        adversary=ReplayAdversary(recorder.schedule, strict=True))
    assert second.crashed == first.crashed
    assert second.metrics.sends_by_node == first.metrics.sends_by_node
    assert digest(second) == digest(first)


class TestMulticastMidSendCrash:
    """The twin of :class:`TestBroadcastMidSendCrash` for a targeted
    fan-out: a victim whose proposal is a lazy ``Multicast`` (its status
    report to the committee) crashes keeping a strict subset."""

    def test_multicast_materialization_is_identity_stable(self):
        fanout = Multicast([4, 1, 4, 0], Ping(0))
        assert fanout[2] is fanout[2]
        # Equal sends to the duplicated link are kept by position.
        assert list(fanout.kept((2, 3))) == [fanout[2], fanout[3]]

    def test_mid_send_crash_of_multicaster_records_and_replays(self):
        _assert_sliced_fanout_records_and_replays(Multicast)


class TestScatterMidSendCrash:
    """The same for a per-link fan-out: a committee member crashes while
    answering its reporters (a lazy ``Scatter``, one ``Response`` each)."""

    def test_scatter_materialization_is_identity_stable(self):
        fanout = Scatter([4, 1, 4], [Ping(7), Ping(8), Ping(7)])
        assert fanout[2] is fanout[2]
        assert list(fanout) == [Send(4, Ping(7)), Send(1, Ping(8)),
                                Send(4, Ping(7))]
        # Equal sends over the repeated link are kept by position.
        assert list(fanout.kept((2, 0))) == [fanout[2], fanout[0]]

    def test_mid_send_crash_of_scatterer_records_and_replays(self):
        _assert_sliced_fanout_records_and_replays(Scatter)

    def test_members_sharing_one_decision_are_cut_one_at_a_time(self):
        """Every member answers with the one ``Scatter`` derived on its
        view (the same object, and so the same ``Send``s): cutting one
        member mid-answer charges the named subset to the victim only
        and leaves every other member's delivery whole."""
        from repro.core.crash_renaming import run_crash_renaming
        from repro.falsify.replay import RecordingAdversary, ReplayAdversary
        from repro.obs import EventRecorder
        from tests.test_golden_digests import digest

        uids, seed = [3, 8, 1, 12, 7, 5, 10, 2], 4
        slicer = _FanoutSlicer(Scatter)
        recorder = RecordingAdversary(slicer)
        events = EventRecorder()
        first = run_crash_renaming(uids, namespace=16, adversary=recorder,
                                   seed=seed, observer=events)

        round_no, victim, sends, kept = slicer.captured
        others = {node: proposed
                  for node, proposed in slicer.proposed.items()
                  if node != victim and type(proposed) is Scatter}
        assert len(others) == len(uids) - 1  # paper constants: everyone
        for proposed in others.values():
            # One decision, one fan-out object: the engine charges and
            # files it once; a plan names a victim's kept part by
            # position, so the victim's cut is its own.
            assert proposed is sends
        assert recorder.schedule == {
            round_no: {victim: tuple(range(0, len(sends), 2))}}

        # Charged: the victim's named subset, everybody else in full.
        assert first.metrics.messages_per_round[round_no - 1] == (
            sum(map(len, others.values())) + len(kept))
        bits = sends.messages[0].bit_size(first.metrics.cost)
        assert first.metrics.bits_per_round[round_no - 1] == bits * (
            sum(map(len, others.values())) + len(kept))
        # Delivered: all of it, except what was addressed to the victim.
        fanout, = [event["data"] for event in events.events("deliver.fanout")
                   if event["round"] == round_no]
        assert fanout["envelopes"] == sum(
            send.to != victim
            for proposed in [*others.values(), [sends[i] for i in kept]]
            for send in proposed)
        survivors = first.outputs_by_uid()
        assert len(set(survivors.values())) == len(survivors) == len(uids) - 1

        second = run_crash_renaming(
            uids, namespace=16, seed=seed,
            adversary=ReplayAdversary(recorder.schedule, strict=True))
        assert second.crashed == first.crashed == {victim}
        assert second.metrics.sends_by_node == first.metrics.sends_by_node
        assert digest(second) == digest(first)
