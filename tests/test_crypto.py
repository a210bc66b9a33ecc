"""Tests for shared randomness, fingerprints, and authentication."""

from collections.abc import MutableSet, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.auth import Authenticator
from repro.crypto.hashing import DEFAULT_PRIME, FingerprintFamily, Fingerprinter
from repro.crypto.shared_randomness import SharedRandomness


class TestSharedRandomness:
    def test_same_seed_same_stream(self):
        a, b = SharedRandomness(42), SharedRandomness(42)
        assert [a.stream("x").random() for _ in range(3)] == [
            b.stream("x").random() for _ in range(3)
        ]

    def test_different_seeds_differ(self):
        a, b = SharedRandomness(1), SharedRandomness(2)
        assert a.stream("x").random() != b.stream("x").random()

    def test_labels_are_independent(self):
        shared = SharedRandomness(7)
        assert shared.bits("a", 64) != shared.bits("b", 64)

    def test_bits_are_bits(self):
        shared = SharedRandomness(7)
        assert set(shared.bits("a", 256)) <= {0, 1}

    def test_coin_is_deterministic_per_label(self):
        shared = SharedRandomness(9)
        assert shared.coin("flip:1") == shared.coin("flip:1")

    def test_coins_vary_across_labels(self):
        shared = SharedRandomness(9)
        coins = {shared.coin(f"flip:{i}") for i in range(64)}
        assert coins == {0, 1}

    def test_uniform_int_range(self):
        shared = SharedRandomness(5)
        values = [shared.uniform_int(f"u:{i}", 10, 20) for i in range(100)]
        assert all(10 <= value <= 20 for value in values)

    def test_uniform_int_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SharedRandomness(5).uniform_int("u", 3, 2)


class TestBernoulliSubset:
    def test_identical_on_every_node(self):
        a, b = SharedRandomness(3), SharedRandomness(3)
        assert a.bernoulli_subset("lot", 10_000, 0.01) == b.bernoulli_subset(
            "lot", 10_000, 0.01
        )

    def test_zero_probability_is_empty(self):
        assert SharedRandomness(3).bernoulli_subset("lot", 100, 0.0) == set()

    def test_one_probability_is_everything(self):
        assert SharedRandomness(3).bernoulli_subset("lot", 5, 1.0) == {1, 2, 3, 4, 5}

    def test_members_lie_in_universe(self):
        chosen = SharedRandomness(3).bernoulli_subset("lot", 1000, 0.05)
        assert all(1 <= member <= 1000 for member in chosen)

    def test_size_concentrates_near_mean(self):
        sizes = [
            len(SharedRandomness(seed).bernoulli_subset("lot", 10_000, 0.02))
            for seed in range(30)
        ]
        mean = sum(sizes) / len(sizes)
        assert 150 < mean < 250  # expectation 200

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            SharedRandomness(3).bernoulli_subset("lot", 100, 1.5)

    def test_drawn_once_per_query_and_shared_immutably(self, monkeypatch):
        labels = []
        stream = SharedRandomness.stream
        monkeypatch.setattr(
            SharedRandomness, "stream",
            lambda self, label: labels.append(label) or stream(self, label))
        shared = SharedRandomness(3)
        first = shared.bernoulli_subset("lot", 10_000, 0.01)
        assert shared.bernoulli_subset("lot", 10_000, 0.01) is first
        # Immutable, with a stable hash: it can key a memo.
        assert isinstance(first, Set) and not isinstance(first, MutableSet)
        assert not hasattr(first, "add") and not hasattr(first, "discard")
        assert hash(first) == hash(first)
        assert labels == ["lot"]
        # Another label, universe or probability is another query.
        assert shared.bernoulli_subset("lot", 10_000, 0.02) != first
        assert shared.bernoulli_subset("lot", 5_000, 0.01) <= first
        assert shared.bernoulli_subset("pot", 10_000, 0.01) != first
        assert labels == ["lot", "lot", "lot", "pot"]
        assert first == SharedRandomness(3).bernoulli_subset(
            "lot", 10_000, 0.01)
        assert hash(first) == hash(SharedRandomness(3).bernoulli_subset(
            "lot", 10_000, 0.01))

    @given(seed=st.integers(0, 1000), p=st.floats(0.001, 0.999))
    @settings(max_examples=25)
    def test_deterministic_under_hypothesis(self, seed, p):
        a = SharedRandomness(seed).bernoulli_subset("x", 500, p)
        b = SharedRandomness(seed).bernoulli_subset("x", 500, p)
        assert a == b


class TestFingerprinter:
    def test_point_bounds_enforced(self):
        with pytest.raises(ValueError):
            Fingerprinter(prime=101, point=1)
        with pytest.raises(ValueError):
            Fingerprinter(prime=101, point=100)

    def test_rejects_positions_outside_segment(self):
        hasher = Fingerprinter(prime=(1 << 61) - 1, point=7)
        with pytest.raises(ValueError):
            hasher.digest_segment([5], lo=6, hi=10)

    def test_rejects_empty_segment(self):
        hasher = Fingerprinter(prime=(1 << 61) - 1, point=7)
        with pytest.raises(ValueError):
            hasher.digest_segment([], lo=6, hi=5)

    def test_order_independent(self):
        hasher = Fingerprinter(prime=(1 << 61) - 1, point=7)
        assert hasher.digest_segment([3, 9, 4], 1, 10) == hasher.digest_segment(
            [9, 3, 4], 1, 10
        )

    def test_length_is_bound_into_digest(self):
        hasher = Fingerprinter(prime=(1 << 61) - 1, point=7)
        assert hasher.digest_segment([3], 1, 10) != hasher.digest_segment([3], 1, 20)

    @settings(max_examples=60)
    @given(
        ones_a=st.sets(st.integers(1, 128), max_size=20),
        ones_b=st.sets(st.integers(1, 128), max_size=20),
        seed=st.integers(0, (1 << 32) - 1),
        label=st.text(max_size=8),
    )
    def test_no_collision_between_distinct_segments(self, ones_a, ones_b,
                                                    seed, label):
        """Fact 3.2's guarantee: distinct segments collide only with
        vanishing probability over the *drawn* point; across these
        sampled draws, never."""
        hasher = FingerprintFamily(
            SharedRandomness(seed), prime=(1 << 61) - 1).draw(label)
        digest_a = hasher.digest_segment(sorted(ones_a), 1, 128)
        digest_b = hasher.digest_segment(sorted(ones_b), 1, 128)
        if ones_a != ones_b:
            assert digest_a != digest_b
        else:
            assert digest_a == digest_b

    def test_low_order_point_collides(self):
        """Why the point must be drawn: 2 has multiplicative order 61
        modulo 2^61 - 1, so ones 61 positions apart hash alike under it."""
        prime = (1 << 61) - 1
        assert pow(2, 61, prime) == 1
        hasher = Fingerprinter(prime=prime, point=2)
        ones_a = [1, 2, 39, 97, 98, 99, 101]
        ones_b = [1, 2, 97, 98, 99, 100, 101]
        assert hasher.digest_segment(ones_a, 1, 128) == hasher.digest_segment(
            ones_b, 1, 128)


class TestFingerprintFamily:
    def test_all_nodes_draw_same_function(self):
        a = FingerprintFamily(SharedRandomness(11)).draw("seg:1")
        b = FingerprintFamily(SharedRandomness(11)).draw("seg:1")
        assert a == b

    def test_labels_draw_different_functions(self):
        family = FingerprintFamily(SharedRandomness(11))
        assert family.draw("seg:1") != family.draw("seg:2")

    def test_default_prime_exceeds_sixth_power_of_namespace(self):
        assert DEFAULT_PRIME > (2_000_000) ** 6

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            FingerprintFamily(SharedRandomness(1), prime=3)


class TestAuthenticator:
    def test_enabled_discards_claims(self):
        assert Authenticator().resolve(3, 99) == (3, None)

    def test_disabled_honours_claims(self):
        assert Authenticator(enabled=False).resolve(3, 99) == (99, 99)

    def test_disabled_without_claim_is_truthful(self):
        assert Authenticator(enabled=False).resolve(3, None) == (3, None)
