"""Kept answers are the answers: the shared-randomness memo and the
fingerprint power table against fresh computation.

A run hands every node the same :class:`SharedRandomness`, and so does
``ReferenceNetwork`` -- the oracle A/B tests run both executors over one
instance and cannot see a memo that answers wrongly.  These tests hold
the memo to what a *fresh* instance answers to each single query, and a
warm :class:`Fingerprinter` to the polynomial it stands for.
"""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import (
    DEFAULT_PRIME,
    FingerprintFamily,
    Fingerprinter,
)
from repro.crypto.shared_randomness import SharedRandomness

LABELS = st.sampled_from(["a", "b", "lottery", "consensus:bit:3:0", "hash:x"])

#: One query: (method, label, *arguments), drawn from small pools so
#: that labels repeat, and label and arguments meet across methods.
SMALL = st.integers(-1, 3)
QUERIES = st.one_of(
    st.tuples(st.just("coin"), LABELS),
    st.tuples(st.just("uniform_int"), LABELS, SMALL,
              st.one_of(SMALL, st.integers(-3, 40))),
    st.tuples(st.just("bernoulli_subset"), LABELS,
              st.one_of(SMALL, st.integers(0, 300)),
              st.sampled_from([0.0, 0.01, 0.3, 0.5, 1.0, 1, 0])),
    st.tuples(st.just("bits"), LABELS, st.integers(0, 20)),
    st.tuples(st.just("stream"), LABELS),
)


def _ask(shared, query):
    """The answer to ``query``, or the type of what it raised."""
    method, *args = query
    try:
        answer = getattr(shared, method)(*args)
    except ValueError as error:
        return type(error)
    if method == "stream":
        return answer.getstate()
    return answer


class TestTheMemoAnswersAsAFreshInstance:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), queries=st.lists(QUERIES, max_size=40))
    def test_interleaved_and_repeated_queries(self, seed, queries):
        shared = SharedRandomness(seed)
        # Every query asked twice in a row, and the list once more
        # after: first, repeated and late answers all come from the memo.
        for query in [*queries, *queries]:
            for _ in range(2):
                assert _ask(shared, query) == _ask(SharedRandomness(seed),
                                                   query)

    @given(seed=st.integers(0, 2**32), label=LABELS)
    def test_one_label_and_arguments_through_every_method(self, seed, label):
        queries = [("coin", label), ("uniform_int", label, 0, 1),
                   ("bernoulli_subset", label, 0, 1),
                   ("bernoulli_subset", label, 1, 1.0),
                   ("uniform_int", label, 1, 1)]
        shared = SharedRandomness(seed)
        for query in [*queries, *reversed(queries)]:
            assert _ask(shared, query) == _ask(SharedRandomness(seed), query)

    @given(seed=st.integers(0, 2**32), label=LABELS,
           low=st.integers(-5, 5), gap=st.integers(1, 5))
    def test_an_empty_range_raises_on_every_call(self, seed, label, low, gap):
        shared = SharedRandomness(seed)
        for _ in range(3):
            with pytest.raises(ValueError):
                shared.uniform_int(label, low, low - gap)
            # A valid query under the same label is unaffected.
            assert shared.uniform_int(label, low, low + gap) == \
                SharedRandomness(seed).uniform_int(label, low, low + gap)
            with pytest.raises(ValueError):
                shared.bernoulli_subset(label, 10, 1.5)

    def test_a_repeat_is_the_same_object(self):
        shared = SharedRandomness(3)
        pool = shared.bernoulli_subset("lottery", 10_000, 0.05)
        assert shared.bernoulli_subset("lottery", 10_000, 0.05) is pool
        # `bits` is a fresh, mutable list every time: never kept.
        assert shared.bits("a", 8) is not shared.bits("a", 8)
        assert shared.stream("a") is not shared.stream("a")


def _digest(point, prime, ones, lo, hi):
    """Fact 3.2's polynomial, computed from scratch."""
    return sum(pow(point, q - lo, prime) for q in ones) * (hi - lo + 1) % prime


@st.composite
def _segments(draw):
    lo = draw(st.integers(1, 200))
    hi = draw(st.integers(lo, lo + 300))
    ones = draw(st.lists(st.integers(lo, hi), max_size=30))
    # Any order, repeats included: a repeat counts twice, as it did.
    return lo, hi, draw(st.permutations(ones))


class TestAWarmFingerprinter:
    @settings(max_examples=200, deadline=None)
    @given(point=st.integers(2, DEFAULT_PRIME - 2),
           segments=st.lists(_segments(), min_size=1, max_size=12))
    def test_equals_the_polynomial(self, point, segments):
        hasher = Fingerprinter(prime=DEFAULT_PRIME, point=point)
        for lo, hi, ones in [*segments, *segments]:
            assert hasher.digest_segment(ones, lo, hi) == _digest(
                point, DEFAULT_PRIME, ones, lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(point=st.integers(2, (1 << 61) - 3),
           segments=st.lists(_segments(), min_size=1, max_size=8),
           outside=st.sampled_from([-1, 1]), data=st.data())
    def test_a_rejected_position_leaves_it_right(self, point, segments,
                                                 outside, data):
        prime = (1 << 61) - 1
        hasher = Fingerprinter(prime=prime, point=point)
        for lo, hi, ones in segments:
            # Warm the table, then name a position past one end: the
            # table holds exponents up to the widest segment so far.
            hasher.digest_segment(ones, lo, hi)
            stray = lo - 1 if outside < 0 else hi + 1
            bad = list(ones)
            bad.insert(data.draw(st.integers(0, len(bad))), stray)
            with pytest.raises(ValueError):
                hasher.digest_segment(bad, lo, hi)
        for lo, hi, ones in segments:
            assert hasher.digest_segment(ones, lo, hi) == _digest(
                point, prime, ones, lo, hi)


class TestOneFamilyPerRun:
    def test_every_member_is_handed_the_same_fingerprinter(self):
        shared = SharedRandomness(11)
        family = FingerprintFamily.of(shared)
        assert FingerprintFamily.of(shared) is family
        first = family.draw("segment:1")
        assert FingerprintFamily.of(shared).draw("segment:1") is first
        first.digest_segment([3, 5], 1, 9)
        second = family.draw("segment:2")
        # A new label is a new function with a table of its own, drawn
        # as a fresh family draws it.
        assert second is not first and not second._powers
        assert second == FingerprintFamily(SharedRandomness(11)).draw(
            "segment:2")
        assert family.draw("segment:1") == first

    def test_the_kept_family_does_not_keep_the_run_alive(self):
        shared = SharedRandomness(5)
        FingerprintFamily.of(shared).draw("segment:1")
        alive = weakref.ref(shared)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del shared
            # Freed by its reference count: no cycle left to collect.
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_draws_are_those_of_a_fresh_family(self):
        rng = random.Random(0)
        shared = SharedRandomness(21)
        labels = [f"segment:{rng.randint(1, 6)}" for _ in range(40)]
        for label in labels:
            assert FingerprintFamily.of(shared).draw(label) == \
                FingerprintFamily(SharedRandomness(21)).draw(label)
