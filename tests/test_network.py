"""Tests for the synchronous network engine."""

from dataclasses import dataclass

import pytest

from repro.adversary.base import CrashPlanError
from repro.adversary.crash import BudgetedAdaptiveCrash, ScheduledCrash
from repro.crypto.auth import Authenticator
from repro.sim.messages import CostModel, Message, Send, broadcast
from repro.sim.network import NonTerminationError, SyncNetwork
from repro.sim.node import IdleProcess, Process
from repro.sim.runner import run_network


@dataclass(frozen=True)
class Ping(Message):
    payload: int = 0

    def payload_bits(self, cost):
        return 8


class Chatter(Process):
    """Broadcasts `rounds` pings, records every inbox, returns them."""

    def __init__(self, uid, rounds=2):
        super().__init__(uid)
        self.rounds = rounds
        self.inboxes = []

    def program(self, ctx):
        for i in range(self.rounds):
            inbox = yield broadcast(ctx.n, Ping(i))
            self.inboxes.append(list(inbox))
        return self.uid


def cost_for(n):
    return CostModel(n=n, namespace=max(n, 100))


class TestDeliverySemantics:
    def test_same_round_delivery(self):
        processes = [Chatter(uid=i + 1, rounds=1) for i in range(3)]
        result = run_network(processes, cost_for(3))
        for process in processes:
            (inbox,) = process.inboxes
            assert sorted(env.sender for env in inbox) == [0, 1, 2]
            assert all(env.round_no == 1 for env in inbox)

    def test_self_link_delivery(self):
        processes = [Chatter(uid=7, rounds=1)]
        run_network(processes, cost_for(1))
        (inbox,) = processes[0].inboxes
        assert len(inbox) == 1 and inbox[0].sender == 0

    def test_sender_uid_is_stamped(self):
        processes = [Chatter(uid=11, rounds=1), Chatter(uid=22, rounds=1)]
        run_network(processes, cost_for(2))
        uids = {env.sender: env.sender_uid for env in processes[0].inboxes[0]}
        assert uids == {0: 11, 1: 22}

    def test_envelopes_are_immutable_rows_shared_by_their_recipients(self):
        processes = [Chatter(uid=i + 1, rounds=1) for i in range(3)]
        run_network(processes, cost_for(3))
        inboxes = [process.inboxes[0] for process in processes]
        # One envelope per broadcast, the same instance in every inbox.
        assert all(mine is theirs for inbox in inboxes[1:]
                   for mine, theirs in zip(inboxes[0], inbox))
        envelope = inboxes[0][0]
        assert not hasattr(envelope, "to")
        for field in ("sender", "round_no", "message", "sender_uid"):
            with pytest.raises(AttributeError):
                setattr(envelope, field, 0)
        with pytest.raises(AttributeError):
            envelope.to = 2

    def test_results_collected(self):
        processes = [Chatter(uid=i + 1) for i in range(4)]
        result = run_network(processes, cost_for(4))
        assert result.results == {0: 1, 1: 2, 2: 3, 3: 4}
        assert result.outputs_by_uid() == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_rounds_counted(self):
        result = run_network([Chatter(uid=1, rounds=5)], cost_for(1))
        assert result.rounds == 5

    def test_out_of_range_link_rejected(self):
        class Bad(Process):
            def program(self, ctx):
                yield [Send(to=99, message=Ping())]

        with pytest.raises(ValueError, match="addressed link 99"):
            run_network([Bad(uid=1)], cost_for(1))

    def test_non_termination_guard(self):
        with pytest.raises(NonTerminationError):
            run_network([IdleProcess(uid=1)], cost_for(1), max_rounds=10)

    def test_needs_at_least_one_process(self):
        with pytest.raises(ValueError):
            SyncNetwork([], cost_for(1))


class TestCrashSemantics:
    def test_scheduled_crash_silences_victim(self):
        processes = [Chatter(uid=i + 1, rounds=2) for i in range(3)]
        adversary = ScheduledCrash({2: [0]})
        result = run_network(processes, cost_for(3), crash_adversary=adversary)
        assert result.crashed == {0}
        # Round 2 inboxes of survivors contain only the two survivors.
        for survivor in (1, 2):
            senders = {env.sender for env in processes[survivor].inboxes[1]}
            assert senders == {1, 2}

    def test_mid_send_partial_delivery(self):
        processes = [Chatter(uid=i + 1, rounds=1) for i in range(3)]
        # Victim 0 crashes in round 1 but its first two proposed messages
        # (to links 0 and 1) still go out; the one to link 2 is lost.
        adversary = ScheduledCrash({1: [0]}, deliver_prefix={0: 2})
        run_network(processes, cost_for(3), crash_adversary=adversary)
        assert any(env.sender == 0 for env in processes[1].inboxes[0])
        assert not any(env.sender == 0 for env in processes[2].inboxes[0])

    def test_crashed_node_produces_no_result(self):
        processes = [Chatter(uid=i + 1, rounds=2) for i in range(2)]
        result = run_network(
            processes, cost_for(2), crash_adversary=ScheduledCrash({1: [1]})
        )
        assert 1 not in result.results
        assert result.correct_results == {0: 1}

    def test_budget_violation_detected(self):
        def greedy(round_no, proposed, alive, trace, remaining):
            return {victim: [] for victim in alive}

        adversary = BudgetedAdaptiveCrash(1, greedy)
        processes = [Chatter(uid=i + 1) for i in range(3)]
        with pytest.raises(CrashPlanError, match="budget"):
            run_network(processes, cost_for(3), crash_adversary=adversary)

    def test_fabricated_kept_message_detected(self):
        def forger(round_no, proposed, alive, trace, remaining):
            if round_no == 1:
                return {0: [Send(to=0, message=Ping(payload=999))]}
            return {}

        adversary = BudgetedAdaptiveCrash(1, forger)
        with pytest.raises(CrashPlanError, match="never proposed"):
            run_network(
                [Chatter(uid=1), Chatter(uid=2)], cost_for(2),
                crash_adversary=adversary,
            )

    def test_double_crash_detected(self):
        def repeat_offender(round_no, proposed, alive, trace, remaining):
            return {0: []} if round_no <= 2 else {}

        adversary = BudgetedAdaptiveCrash(5, repeat_offender)
        # Round 2 names node 0 again, but it is no longer alive, so the
        # plan is rejected as naming a non-alive victim.
        with pytest.raises(CrashPlanError):
            run_network(
                [Chatter(uid=1, rounds=3), Chatter(uid=2, rounds=3)],
                cost_for(2), crash_adversary=adversary,
            )


class TestMetricsAccounting:
    def test_message_and_bit_totals(self):
        processes = [Chatter(uid=i + 1, rounds=2) for i in range(3)]
        result = run_network(processes, cost_for(3))
        # 3 nodes x 3 links x 2 rounds
        assert result.metrics.correct_messages == 18
        per_message = Ping().bit_size(cost_for(3))
        assert result.metrics.correct_bits == 18 * per_message
        assert result.metrics.max_message_bits == per_message

    def test_byzantine_ledger_is_separate(self):
        class Spammer(IdleProcess):
            byzantine = True

            def program(self, ctx):
                while True:
                    yield broadcast(ctx.n, Ping())

        processes = [Chatter(uid=1, rounds=2), Spammer(uid=2)]
        result = run_network(processes, cost_for(2))
        assert result.metrics.correct_messages == 4
        assert result.metrics.byzantine_messages == 4
        assert result.byzantine == {1}

    def test_suppressed_sends_not_counted(self):
        processes = [Chatter(uid=i + 1, rounds=1) for i in range(4)]
        adversary = ScheduledCrash({1: [2]})
        result = run_network(processes, cost_for(4), crash_adversary=adversary)
        assert result.metrics.correct_messages == 12  # 3 survivors x 4 links

    def test_per_round_series(self):
        result = run_network([Chatter(uid=1, rounds=3)], cost_for(1))
        assert result.metrics.messages_per_round == [1, 1, 1]


class TestByzantineFaultContainment:
    def test_byzantine_exception_silences_node(self):
        class Crasher(IdleProcess):
            byzantine = True

            def program(self, ctx):
                yield broadcast(ctx.n, Ping())
                raise RuntimeError("adversary bug")

        processes = [Chatter(uid=1, rounds=3), Crasher(uid=2)]
        result = run_network(processes, cost_for(2), trace=True)
        assert result.results[0] == 1
        assert any(e.kind == "byzantine-fault" for e in result.trace)

    def test_correct_exception_propagates(self):
        class Buggy(Process):
            def program(self, ctx):
                yield []
                raise RuntimeError("real bug")

        with pytest.raises(RuntimeError, match="real bug"):
            run_network([Buggy(uid=1)], cost_for(1))


class TestAuthentication:
    class Forger(IdleProcess):
        byzantine = True

        def program(self, ctx):
            yield [Send(to=0, message=Ping(), claim=777)]
            while True:
                yield []

    def test_spoof_discarded_under_authentication(self):
        victim = Chatter(uid=1, rounds=1)
        run_network([victim, self.Forger(uid=2)], cost_for(2))
        forged = [env for env in victim.inboxes[0] if env.sender == 1]
        assert forged and forged[0].sender_uid == 2
        assert forged[0].claimed_sender is None

    def test_spoof_succeeds_without_authentication(self):
        victim = Chatter(uid=1, rounds=1)
        run_network(
            [victim, self.Forger(uid=2)], cost_for(2),
            authenticator=Authenticator(enabled=False),
        )
        forged = [env for env in victim.inboxes[0] if env.sender == 1]
        assert forged and forged[0].sender_uid == 777
        assert forged[0].claimed_sender == 777


class TestTrace:
    def test_crash_events_recorded(self):
        processes = [Chatter(uid=i + 1, rounds=2) for i in range(2)]
        result = run_network(
            processes, cost_for(2),
            crash_adversary=ScheduledCrash({1: [1]}), trace=True,
        )
        crashes = result.trace.crashes()
        assert len(crashes) == 1 and crashes[0].node == 1

    def test_terminate_events_recorded(self):
        result = run_network([Chatter(uid=1)], cost_for(1), trace=True)
        assert any(e.kind == "terminate" for e in result.trace)

    def test_disabled_trace_records_nothing(self):
        result = run_network([Chatter(uid=1)], cost_for(1), trace=False)
        assert len(result.trace) == 0

    def test_round_query(self):
        result = run_network(
            [Chatter(uid=1), Chatter(uid=2)], cost_for(2),
            crash_adversary=ScheduledCrash({2: [0]}), trace=True,
        )
        round2 = list(result.trace.in_round(2))
        assert any(e.kind == "crash" for e in round2)


class TestNonTerminationState:
    def test_error_carries_partial_execution_state(self):
        with pytest.raises(NonTerminationError) as info:
            run_network([IdleProcess(uid=1), Chatter(uid=2, rounds=2)],
                        cost_for(2), max_rounds=10, trace=True)
        error = info.value
        assert error.round_no == 10
        assert error.pending == (0,)  # the idle node never terminates
        assert error.trace is not None and len(error.trace) > 0
        assert error.metrics is not None and error.metrics.rounds == 10

    def test_defaults_are_empty(self):
        error = NonTerminationError("stuck")
        assert error.round_no == 0
        assert error.pending == ()
        assert error.trace is None and error.metrics is None


class RecordingMonitor:
    """Counts every hook invocation the network makes."""

    name = "recording"

    def __init__(self):
        self.starts = 0
        self.rounds = []
        self.finishes = 0

    def on_start(self, network):
        self.starts += 1

    def on_round(self, network):
        self.rounds.append(network.round_no)

    def on_finish(self, network):
        self.finishes += 1


class TestMonitorHooks:
    def test_hooks_fire_in_order(self):
        monitor = RecordingMonitor()
        run_network([Chatter(uid=1, rounds=3)], cost_for(1),
                    monitors=(monitor,))
        assert monitor.starts == 1
        assert monitor.rounds == [1, 2, 3]
        assert monitor.finishes == 1

    def test_no_monitors_by_default(self):
        network = SyncNetwork([Chatter(uid=1)], cost_for(1))
        assert network.monitors == ()

    def test_monitor_exception_aborts_the_run(self):
        class Tripwire(RecordingMonitor):
            def on_round(self, network):
                raise AssertionError("invariant down")

        with pytest.raises(AssertionError, match="invariant down"):
            run_network([Chatter(uid=1, rounds=3)], cost_for(1),
                        monitors=(Tripwire(),))

    def test_on_finish_not_called_after_violation(self):
        class TripAtTwo(RecordingMonitor):
            def on_round(self, network):
                super().on_round(network)
                if network.round_no == 2:
                    raise AssertionError("round two")

        monitor = TripAtTwo()
        with pytest.raises(AssertionError):
            run_network([Chatter(uid=1, rounds=5)], cost_for(1),
                        monitors=(monitor,))
        assert monitor.rounds == [1, 2]
        assert monitor.finishes == 0


class PlanScript(BudgetedAdaptiveCrash):
    """Adversary whose round-1 plan is handed in verbatim."""

    def __init__(self, budget, plan):
        super().__init__(
            budget,
            lambda round_no, proposed, alive, trace, remaining:
                plan if round_no == 1 else {},
        )


class TestCrashPlanRejectionIsAtomic:
    """Rejected plans must leave both crash ledgers untouched."""

    def run_rejected(self, adversary, match, n=3):
        processes = [Chatter(uid=i + 1, rounds=2) for i in range(n)]
        network = SyncNetwork(processes, cost_for(n),
                              crash_adversary=adversary)
        with pytest.raises(CrashPlanError, match=match):
            network.run()
        assert network.crashed == set()
        assert adversary.crashed == set()

    def test_non_alive_victim(self):
        self.run_rejected(PlanScript(2, {99: []}), "non-alive")

    def test_budget_overrun(self):
        self.run_rejected(PlanScript(1, {0: [], 1: []}), "budget")

    def test_kept_message_never_proposed(self):
        bogus = [Send(to=0, message=Ping(payload=777))]
        self.run_rejected(PlanScript(2, {0: bogus}), "never proposed")

    def test_valid_victim_does_not_leak_through_invalid_plan(self):
        # Victim 0's entry is valid on its own; victim 1 keeps a message
        # it never proposed.  The whole plan must be rejected with no
        # partial mutation -- node 0 stays alive.
        bogus = [Send(to=0, message=Ping(payload=777))]
        self.run_rejected(PlanScript(2, {0: [], 1: bogus}), "never proposed")

    def test_re_crash_rejected_without_mutation(self):
        def twice(round_no, proposed, alive, trace, remaining):
            return {0: []} if round_no <= 2 else {}

        adversary = BudgetedAdaptiveCrash(5, twice)
        processes = [Chatter(uid=i + 1, rounds=3) for i in range(3)]
        network = SyncNetwork(processes, cost_for(3),
                              crash_adversary=adversary)
        with pytest.raises(CrashPlanError, match="non-alive"):
            network.run()
        # The round-1 crash stands; the rejected round-2 re-crash
        # changed nothing.
        assert network.crashed == {0}
        assert adversary.crashed == {0}
