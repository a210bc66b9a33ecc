"""Tests for the message model and bit-cost accounting."""

from collections.abc import Sequence

import pytest
from hypothesis import given, strategies as st

from repro.core.byzantine_renaming import Elect, IdAnnounce, NewId
from repro.core.crash_renaming import CommitteeNotice, Done, Response, Status
from repro.core.intervals import Interval
from repro.sim.messages import (
    HEADER_BITS,
    Broadcast,
    CostModel,
    Fanout,
    Multicast,
    Scatter,
    Send,
    bit_length_of_domain,
    broadcast,
    multicast,
)


class TestBitLength:
    def test_domain_of_one(self):
        assert bit_length_of_domain(1) == 1

    def test_power_of_two(self):
        assert bit_length_of_domain(1024) == 10

    def test_non_power_rounds_up(self):
        assert bit_length_of_domain(1025) == 11

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bit_length_of_domain(0)

    @given(size=st.integers(2, 10**9))
    def test_covers_domain(self, size):
        bits = bit_length_of_domain(size)
        assert 2 ** bits >= size
        assert 2 ** (bits - 1) < size

    @pytest.mark.parametrize("k", [10, 53, 60])
    def test_boundaries_are_exact(self, k):
        # float log2 rounds 2**53 + 1 down to exactly 53.0, so the old
        # ceil(log2(size)) implementation undercounted by one bit right
        # above every large power of two.  The integer implementation
        # must be exact at both sides of the boundary.
        assert bit_length_of_domain(2 ** k) == k
        assert bit_length_of_domain(2 ** k + 1) == k + 1

    def test_double_precision_regression(self):
        # The headline case: (2**53 + 1) is the first integer a double
        # cannot represent, where math.ceil(math.log2(size)) == 53.
        assert bit_length_of_domain(2 ** 53 + 1) == 54

    @given(size=st.integers(1, 2 ** 70))
    def test_matches_integer_bit_length(self, size):
        assert bit_length_of_domain(size) == max(1, (size - 1).bit_length())


class TestCostModel:
    def test_id_bits_follow_namespace(self):
        cost = CostModel(n=16, namespace=1 << 20)
        assert cost.id_bits == 20

    def test_index_bits_follow_n(self):
        cost = CostModel(n=100, namespace=10_000)
        assert cost.index_bits == 7

    def test_namespace_must_cover_n(self):
        with pytest.raises(ValueError):
            CostModel(n=10, namespace=9)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            CostModel(n=0, namespace=10)

    def test_digest_is_logarithmic_in_namespace(self):
        cost = CostModel(n=8, namespace=1 << 16)
        assert cost.digest_bits == 6 * 16

    def test_depth_bits_are_loglog(self):
        cost = CostModel(n=1 << 16, namespace=1 << 20)
        # depths go up to 16, so 5 bits address them
        assert cost.depth_bits == 5


class TestMessageSizes:
    """Every message must fit the paper's O(log N) bit budget."""

    @pytest.fixture
    def cost(self):
        return CostModel(n=64, namespace=5 * 64 * 64)

    def test_committee_notice_is_header_only(self, cost):
        assert CommitteeNotice().bit_size(cost) == HEADER_BITS

    def test_status_message_fields(self, cost):
        message = Status(uid=17, interval=Interval(1, 64), depth=0, p=0)
        expected = (HEADER_BITS + cost.id_bits + 2 * cost.index_bits
                    + cost.depth_bits + cost.counter_bits)
        assert message.bit_size(cost) == expected

    def test_response_same_size_as_status(self, cost):
        status = Status(uid=17, interval=Interval(1, 64), depth=0, p=0)
        response = Response(uid=17, interval=Interval(1, 32), depth=1, p=2)
        assert status.bit_size(cost) == response.bit_size(cost)

    def test_elect_and_announce_carry_one_identity(self, cost):
        assert Elect(uid=3).bit_size(cost) == HEADER_BITS + cost.id_bits
        assert IdAnnounce(uid=3).bit_size(cost) == HEADER_BITS + cost.id_bits

    def test_new_id_carries_one_index(self, cost):
        assert NewId(value=5).bit_size(cost) == HEADER_BITS + cost.index_bits + 1
        assert NewId(value=None).bit_size(cost) == NewId(value=7).bit_size(cost)

    @given(n=st.integers(2, 4096))
    def test_all_protocol_messages_are_order_log_n(self, n):
        """With N = 5n^2, every message is O(log n) bits."""
        import math

        cost = CostModel(n=n, namespace=5 * n * n)
        status = Status(uid=1, interval=Interval(1, n), depth=0, p=0)
        budget = 20 * max(1.0, math.log2(n))
        assert status.bit_size(cost) <= budget
        assert Elect(uid=1).bit_size(cost) <= budget
        assert NewId(value=1).bit_size(cost) <= budget


class TestSends:
    def test_send_validates_link(self):
        with pytest.raises(ValueError):
            Send(to=-1, message=CommitteeNotice())

    def test_broadcast_hits_every_link_including_self(self):
        sends = broadcast(5, CommitteeNotice())
        assert [send.to for send in sends] == [0, 1, 2, 3, 4]

    def test_multicast_targets(self):
        sends = multicast([4, 1], CommitteeNotice())
        assert [send.to for send in sends] == [4, 1]

    def test_claim_defaults_to_none(self):
        assert Send(to=0, message=CommitteeNotice()).claim is None


class TestFanoutIsASequence:
    """``Fanout`` is registered with ``Sequence``, not derived from it, so
    the engine's ``isinstance`` checks on it are plain class checks."""

    def test_fanout_is_a_plain_class(self):
        assert type(Fanout) is type
        for shape in (Multicast, Broadcast, Scatter):
            assert type(shape) is type

    @pytest.mark.parametrize("make", [
        lambda: Broadcast(3, CommitteeNotice()),
        lambda: Multicast((2, 0, 2), CommitteeNotice()),
        lambda: Scatter((1, 2, 0), (Done(), CommitteeNotice(), Done())),
    ], ids=["broadcast", "multicast", "scatter"])
    def test_every_shape_still_behaves_as_its_send_list(self, make):
        fanout = make()
        sends = list(fanout)
        assert isinstance(fanout, Sequence)
        assert len(fanout) == len(sends) == 3
        assert [fanout[at] for at in range(3)] == sends
        assert fanout[-1] is sends[-1] and fanout[1:] == sends[1:]
        assert sends[1] in fanout and Send(9, Done()) not in fanout
        assert list(reversed(fanout)) == sends[::-1]
        assert fanout.index(sends[1]) == 1
        assert fanout.count(sends[0]) == sends.count(sends[0])
