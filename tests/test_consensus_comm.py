"""Unit tests for the committee communication layer (vote filtering)."""

from repro.consensus.comm import CommitteeComm, SubVote, exchange
from repro.sim.messages import CostModel, Envelope, Multicast


def envelope(sender, message, round_no=1):
    return Envelope(sender=sender, round_no=round_no, message=message)


class TestCollect:
    def make(self):
        comm = CommitteeComm(view=[0, 1, 2], b_max=1)
        comm.step = 5
        return comm

    def test_accepts_matching_votes(self):
        comm = self.make()
        inbox = [envelope(1, SubVote(5, "x", 7, 4))]
        assert comm.collect(inbox, "x") == {1: 7}

    def test_rejects_stale_step(self):
        comm = self.make()
        inbox = [envelope(1, SubVote(4, "x", 7, 4))]
        assert comm.collect(inbox, "x") == {}

    def test_rejects_wrong_kind(self):
        comm = self.make()
        inbox = [envelope(1, SubVote(5, "y", 7, 4))]
        assert comm.collect(inbox, "x") == {}

    def test_rejects_senders_outside_view(self):
        comm = self.make()
        inbox = [envelope(9, SubVote(5, "x", 7, 4))]
        assert comm.collect(inbox, "x") == {}

    def test_first_vote_per_sender_wins(self):
        comm = self.make()
        inbox = [
            envelope(1, SubVote(5, "x", 7, 4)),
            envelope(1, SubVote(5, "x", 8, 4)),
        ]
        assert comm.collect(inbox, "x") == {1: 7}

    def test_ignores_non_subvote_messages(self):
        from tests.test_network import Ping

        comm = self.make()
        inbox = [envelope(1, Ping())]
        assert comm.collect(inbox, "x") == {}


class TestSends:
    def test_one_send_per_view_member(self):
        comm = CommitteeComm(view=[3, 1, 1, 2], b_max=0)
        comm.step = 1
        sends = comm.sends("x", 9, width=4)
        assert [send.to for send in sends] == [1, 2, 3]
        assert all(send.message.value == 9 for send in sends)

    def test_honest_fan_out_carries_one_vote_object(self):
        """One object per fan-out: the engine charges it in one step and
        the hook is not called per link."""
        comm = CommitteeComm(view=[5, 0, 3, 3], b_max=1)
        comm.step = 3
        sends = comm.sends("x", (17, 2), width=4)
        assert type(sends) is Multicast
        assert sends.targets == (0, 3, 5)
        assert sends.message == SubVote(3, "x", (17, 2), 4)
        assert [send.to for send in sends] == [0, 3, 5]
        assert all(send.message is sends.message for send in sends)

    def test_hook_patched_on_the_instance_is_still_called_per_link(self):
        comm = CommitteeComm(view=range(3), b_max=0)
        comm.outgoing_value = lambda kind, value, receiver: value + receiver
        sends = comm.sends("x", 10, width=4)
        assert [send.message.value for send in sends] == [10, 11, 12]

    def test_override_with_unhashable_values_gets_an_object_per_link(self):
        class Lists(CommitteeComm):
            def outgoing_value(self, kind, value, receiver):
                return [value, receiver % 2]

        sends = Lists(view=range(4), b_max=1).sends("x", 9, width=4)
        assert [send.message.value for send in sends] == [
            [9, 0], [9, 1], [9, 0], [9, 1]]
        assert len({id(send.message) for send in sends}) == 4

    def test_override_shares_one_object_per_distinct_value(self):
        class Parity(CommitteeComm):
            def outgoing_value(self, kind, value, receiver):
                # Equal tuples built afresh per link: shared by value.
                return (value, receiver % 2)

        comm = Parity(view=range(5), b_max=1)
        comm.step = 1
        sends = comm.sends("x", 9, width=4)
        assert [send.message.value for send in sends] == [
            (9, 0), (9, 1), (9, 0), (9, 1), (9, 0)]
        assert sends[0].message is sends[2].message is sends[4].message
        assert sends[1].message is sends[3].message
        assert sends[0].message is not sends[1].message

    def test_equal_values_of_different_types_stay_apart(self):
        class BoolToOdd(CommitteeComm):
            def outgoing_value(self, kind, value, receiver):
                return True if receiver % 2 else 1

        comm = BoolToOdd(view=range(4), b_max=1)
        sent = [send.message.value for send in comm.sends("x", 1, width=1)]
        assert [type(value) for value in sent] == [int, bool, int, bool]

    def test_unhashable_value_still_sends(self):
        comm = CommitteeComm(view=range(3), b_max=0)
        comm.step = 2
        sends = comm.sends("x", [1, 2], width=4)
        assert [send.to for send in sends] == [0, 1, 2]
        assert all(send.message.value == [1, 2] for send in sends)
        assert all(send.message.step == 2 for send in sends)

    def test_subvote_bit_cost(self):
        cost = CostModel(n=8, namespace=64)
        vote = SubVote(step=1, kind="x", value=1, width=10)
        assert vote.payload_bits(cost) == 10 + 2 * cost.counter_bits


class TestExchange:
    def test_exchange_advances_step_and_round_trips(self):
        comm = CommitteeComm(view=[0], b_max=0)

        def program():
            votes = yield from exchange(comm, "x", 42, width=8)
            return votes

        gen = program()
        sends = next(gen)
        assert comm.step == 1
        assert len(sends) == 1 and sends[0].to == 0
        inbox = [envelope(0, sends[0].message)]
        try:
            gen.send(inbox)
        except StopIteration as stop:
            assert stop.value == {0: 42}
        else:  # pragma: no cover
            raise AssertionError("exchange should finish after one round")
