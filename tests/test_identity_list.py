"""Unit and property tests for the sparse identity bit vector."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.identity_list import IdentityList
from repro.crypto.hashing import Fingerprinter


def dense(identity_list: IdentityList) -> list[int]:
    """Reference dense representation (1-indexed positions)."""
    return [identity_list[i] for i in range(1, identity_list.namespace + 1)]


class TestBits:
    def test_starts_empty(self):
        ids = IdentityList(10)
        assert ids.total_ones == 0
        assert dense(ids) == [0] * 10

    def test_set_and_get(self):
        ids = IdentityList(10)
        ids.set_bit(3)
        assert ids[3] == 1
        assert ids[4] == 0

    def test_set_is_idempotent(self):
        ids = IdentityList(10)
        ids.set_bit(3)
        ids.set_bit(3)
        assert ids.total_ones == 1

    def test_clear(self):
        ids = IdentityList(10)
        ids.set_bit(3)
        ids.clear_bit(3)
        assert ids[3] == 0

    def test_clear_missing_is_noop(self):
        ids = IdentityList(10)
        ids.clear_bit(3)
        assert ids.total_ones == 0

    def test_bounds_checked(self):
        ids = IdentityList(10)
        with pytest.raises(IndexError):
            ids.set_bit(0)
        with pytest.raises(IndexError):
            ids.set_bit(11)
        with pytest.raises(IndexError):
            _ = ids[11]

    def test_namespace_must_be_positive(self):
        with pytest.raises(ValueError):
            IdentityList(0)

    def test_bulk_load_from_a_shared_sorted_registry(self):
        registry = (2, 5, 9)
        ids = IdentityList(10, registry)
        assert ids == IdentityList(10, [9, 5, 2, 5])
        ids.set_bit(7)  # a member's own copy: the shared tuple is kept
        assert registry == (2, 5, 9) and ids.ones() == [2, 5, 7, 9]
        assert IdentityList(10, ()) == IdentityList(10)
        for outside in [(0, 3), (3, 11)]:
            with pytest.raises(IndexError):
                IdentityList(10, outside)


class TestSegments:
    def test_ones_in_segment(self):
        ids = IdentityList(20)
        for position in (2, 5, 9, 15):
            ids.set_bit(position)
        assert ids.ones_in(3, 10) == [5, 9]
        assert ids.ones_in(1, 20) == [2, 5, 9, 15]
        assert ids.ones_in(6, 8) == []

    def test_count_matches_ones(self):
        ids = IdentityList(20)
        for position in (2, 5, 9, 15):
            ids.set_bit(position)
        assert ids.count_ones_in(3, 10) == 2
        assert ids.count_ones_in(1, 1) == 0

    def test_empty_segment_rejected(self):
        ids = IdentityList(20)
        with pytest.raises(ValueError):
            ids.ones_in(5, 4)


class TestRank:
    def test_ranks_are_one_based_and_order_preserving(self):
        ids = IdentityList(100)
        for position in (7, 30, 64):
            ids.set_bit(position)
        assert ids.rank_of(7) == 1
        assert ids.rank_of(30) == 2
        assert ids.rank_of(64) == 3

    def test_rank_requires_set_bit(self):
        ids = IdentityList(100)
        with pytest.raises(ValueError):
            ids.rank_of(7)

    @given(st.sets(st.integers(1, 200), min_size=1, max_size=40))
    def test_ranks_enumerate_1_to_k(self, positions):
        ids = IdentityList(200)
        for position in positions:
            ids.set_bit(position)
        ranks = [ids.rank_of(position) for position in sorted(positions)]
        assert ranks == list(range(1, len(positions) + 1))


class TestReplaceSegment:
    def test_replaces_with_left_packed_ones(self):
        ids = IdentityList(20)
        for position in (3, 6, 8, 12):
            ids.set_bit(position)
        ids.replace_segment(5, 10, 2)
        assert ids.ones() == [3, 5, 6, 12]

    def test_count_is_preserved_globally(self):
        ids = IdentityList(50)
        for position in (3, 20, 22, 27, 40):
            ids.set_bit(position)
        before_outside = ids.count_ones_in(1, 19) + ids.count_ones_in(31, 50)
        ids.replace_segment(20, 30, 3)
        assert ids.count_ones_in(20, 30) == 3
        after_outside = ids.count_ones_in(1, 19) + ids.count_ones_in(31, 50)
        assert before_outside == after_outside

    def test_rejects_overfull(self):
        ids = IdentityList(20)
        with pytest.raises(ValueError):
            ids.replace_segment(5, 7, 4)

    def test_zero_ones_clears_segment(self):
        ids = IdentityList(20)
        ids.set_bit(6)
        ids.replace_segment(5, 10, 0)
        assert ids.count_ones_in(5, 10) == 0


class TestFingerprints:
    HASHER = Fingerprinter(prime=(1 << 61) - 1, point=123_456_789)

    def test_equal_segments_hash_equal(self):
        a, b = IdentityList(64), IdentityList(64)
        for position in (3, 9, 17):
            a.set_bit(position)
            b.set_bit(position)
        assert a.fingerprint(self.HASHER, 1, 32) == b.fingerprint(self.HASHER, 1, 32)

    def test_shifted_segments_with_same_pattern_hash_equal(self):
        # The digest is relative to the segment start, as the recursion
        # requires when comparing equal-length segments.
        a, b = IdentityList(64), IdentityList(64)
        a.set_bit(3)
        b.set_bit(35)
        assert a.fingerprint(self.HASHER, 1, 32) == b.fingerprint(self.HASHER, 33, 64)

    def test_different_segments_hash_differently(self):
        a, b = IdentityList(64), IdentityList(64)
        a.set_bit(3)
        b.set_bit(4)
        assert a.fingerprint(self.HASHER, 1, 32) != b.fingerprint(self.HASHER, 1, 32)

    @settings(max_examples=50)
    @given(
        ones_a=st.sets(st.integers(1, 64), max_size=16),
        ones_b=st.sets(st.integers(1, 64), max_size=16),
    )
    def test_fingerprint_equality_iff_segment_equality(self, ones_a, ones_b):
        a, b = IdentityList(64), IdentityList(64)
        for position in ones_a:
            a.set_bit(position)
        for position in ones_b:
            b.set_bit(position)
        equal_digests = (
            a.fingerprint(self.HASHER, 1, 64) == b.fingerprint(self.HASHER, 1, 64)
        )
        assert equal_digests == (sorted(ones_a) == sorted(ones_b))


class TestEquality:
    def test_equal_lists(self):
        a, b = IdentityList(10), IdentityList(10)
        a.set_bit(4)
        b.set_bit(4)
        assert a == b

    def test_unequal_namespace(self):
        assert IdentityList(10) != IdentityList(11)

    def test_not_implemented_for_other_types(self):
        assert IdentityList(10).__eq__(42) is NotImplemented
