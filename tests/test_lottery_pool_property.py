"""A Byzantine run keeps only what it reads, and reads the same answers.

Three things changed shape without changing a draw, and each is held
here to the shape it replaced, kept in this file as the oracle:

* the committee lottery (``SharedRandomness.bernoulli_subset``) is a
  :class:`SortedInts` over one ascending ``array('q')``, not a
  ``frozenset``: the same members, drawn from the same stream;
* a member's identity list is one sorted bulk load, and its answers
  are one merge (``IdentityList.ranks``) over the registered uids, the
  one-bits and the dirty intervals, not a probe per uid;
* a node's private coins (``Context.rng``) are built on first read: the
  same stream as an eager ``Random(seed)``, and none for a Byzantine
  run, which never flips one.
"""

import math
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.experiments import FAMILIES, execute
from repro.core.byzantine_renaming import _committee_view
from repro.core.identity_list import IdentityList
from repro.crypto.shared_randomness import SharedRandomness, SortedInts
from repro.sim.messages import CostModel
from repro.sim.network import SyncNetwork
from repro.sim.node import Context, IdleProcess


def frozen_pool(seed, label, universe, probability):
    """The pool as it was drawn before: a generator into a frozenset."""
    def draw():
        if probability == 0.0:
            return
        if probability == 1.0:
            yield from range(1, universe + 1)
            return
        stream = SharedRandomness(seed).stream(label)
        log_q = math.log1p(-probability)
        position = 0
        while True:
            position += 1 + int(math.log(1.0 - stream.random()) / log_q)
            if position > universe:
                return
            yield position
    return frozenset(draw())


PROBABILITIES = st.one_of(
    st.sampled_from([0, 0.0, 1, 1.0]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(0.0005, 0.05),
)
QUERIES = dict(seed=st.integers(0, 2**64), label=st.text(max_size=8),
               universe=st.integers(-3, 4_000), probability=PROBABILITIES)


def both(seed, label, universe, probability):
    """The pool and the oracle's frozenset; where the oracle raises (a
    subnormal ``p`` overflows a gap), the pool is still drawn, within
    the universe: an infinite gap ends the draw."""
    try:
        oracle = frozen_pool(seed, label, universe, probability)
    except OverflowError:
        pool = SharedRandomness(seed).bernoulli_subset(label, universe,
                                                       probability)
        assert isinstance(pool, SortedInts)
        assert all(1 <= member <= universe for member in pool)
        assert not SharedRandomness(seed).bernoulli_subset("x", 0, 5e-324)
        assume(False)
    return SharedRandomness(seed).bernoulli_subset(
        label, universe, probability), oracle


class TestThePoolIsTheFrozenset:
    @pytest.mark.parametrize("universe", [0, 10**6])
    @pytest.mark.parametrize("probability", [5e-324, 1e-310])
    def test_subnormal_probability_draws_an_empty_pool(self, universe,
                                                       probability):
        # The first gap is infinite: it lies past any universe.
        pool = SharedRandomness(0).bernoulli_subset("x", universe,
                                                    probability)
        assert isinstance(pool, SortedInts) and not pool

    @settings(max_examples=300, deadline=None)
    @given(**QUERIES)
    def test_same_members_ascending(self, seed, label, universe, probability):
        pool, oracle = both(seed, label, universe, probability)
        assert isinstance(pool, SortedInts)
        assert pool == oracle and oracle == pool
        assert not pool != oracle
        assert len(pool) == len(oracle)
        assert list(pool) == sorted(oracle)

    @settings(max_examples=200, deadline=None)
    @given(**QUERIES, probes=st.lists(st.integers(-10, 4_010), max_size=30))
    def test_membership(self, seed, label, universe, probability, probes):
        pool, oracle = both(seed, label, universe, probability)
        members = list(oracle)[:30]
        odd = [None, "7", (1,), 1.5, float("nan"), -1, 0, universe + 1,
               2**70, -2**70, True, 3.0, b"1", frozenset()]
        for value in [*members, *probes, *odd]:
            assert (value in pool) == (value in oracle), value

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), label=st.text(max_size=4),
           universe=st.integers(0, 4_000), probability=PROBABILITIES)
    def test_equal_pools_hash_equal(self, seed, label, universe, probability):
        a, _ = both(seed, label, universe, probability)
        b = SharedRandomness(seed).bernoulli_subset(label, universe,
                                                    probability)
        assert a is not b and a == b and hash(a) == hash(b)
        assert {a: "kept"}[b] == "kept"

    def test_hashing_a_million_members_does_not_walk_them(self, monkeypatch):
        pool = SharedRandomness(1).bernoulli_subset("lot", 10**6, 1.0)
        assert len(pool) == 10**6

        def walked(*args):
            raise AssertionError("the pool was walked")

        for name in ("__iter__", "__contains__", "__len__", "__eq__"):
            monkeypatch.setattr(SortedInts, name, walked)
        assert hash(pool) == hash(pool)
        # The view's memo key, as `derive(inbox, _committee_view, pool)`
        # builds it for every inbox.
        memo = {(_committee_view, pool): "view"}
        assert memo[_committee_view, pool] == "view"

    def test_set_algebra_answers_frozensets(self):
        pool = SharedRandomness(2).bernoulli_subset("lot", 50, 1.0)
        assert pool & {3, 99} == frozenset({3})
        assert pool - set(range(2, 51)) == frozenset({1})
        assert isinstance(pool | {99}, frozenset)
        assert pool.isdisjoint({0, 51}) and not pool.isdisjoint({50})
        assert SharedRandomness(2).bernoulli_subset("lot", 20, 1.0) <= pool


def _disjoint_intervals(draw, namespace):
    """Ascending, disjoint ``(lo, hi)`` inside ``[1, namespace]``."""
    cuts = sorted(set(draw(st.lists(st.integers(1, namespace), max_size=12))))
    return list(zip(cuts[::2], cuts[1::2]))


@st.composite
def repaired_lists(draw):
    """An identity list bulk-loaded from announcements, repaired on random
    dirty intervals, and the ascending uids that registered."""
    namespace = draw(st.integers(1, 300))
    announced = draw(st.lists(st.integers(1, namespace), max_size=80))
    identity_list = IdentityList(namespace, announced)
    dirty = _disjoint_intervals(draw, namespace)
    for lo, hi in dirty:
        if draw(st.booleans()):
            identity_list.replace_segment(
                lo, hi, draw(st.integers(0, hi - lo + 1)))
    for position in draw(st.lists(st.integers(1, namespace), max_size=5)):
        identity_list.set_bit(position)
    for position in draw(st.lists(st.integers(1, namespace), max_size=5)):
        identity_list.clear_bit(position)
    extra = draw(st.lists(st.integers(1, namespace), max_size=20))
    return identity_list, sorted(set(announced) | set(extra)), dirty


class TestTheMergeIsThePerUidProbe:
    @settings(max_examples=300, deadline=None)
    @given(case=repaired_lists())
    def test_ranks_against_the_probes(self, case):
        identity_list, uids, dirty = case
        oracle = [
            None if any(lo <= uid <= hi for lo, hi in dirty)
            or not identity_list[uid] else identity_list.rank_of(uid)
            for uid in uids
        ]
        assert list(identity_list.ranks(uids, dirty)) == oracle

    @settings(max_examples=200, deadline=None)
    @given(namespace=st.integers(1, 500), data=st.data())
    def test_bulk_load_is_one_set_bit_per_announcement(self, namespace, data):
        announced = data.draw(st.lists(st.integers(1, namespace),
                                       max_size=60))
        one_by_one = IdentityList(namespace)
        for position in announced:
            one_by_one.set_bit(position)
        assert IdentityList(namespace, announced) == one_by_one
        assert IdentityList(namespace, announced).ones() == sorted(
            set(announced))

    @pytest.mark.parametrize("position", [0, 11, -1])
    def test_bulk_load_checks_the_namespace(self, position):
        with pytest.raises(IndexError):
            IdentityList(10, [3, position])


def _holds_coins(ctx):
    """Whether ``ctx`` has built its private ``Random`` (read without
    building it)."""
    return isinstance(ctx._rng, Random)


class _KeepNetwork:
    """A monitor that keeps the network it watched."""

    def on_start(self, network):
        self.network = network

    def on_round(self, network):
        pass

    def on_finish(self, network):
        pass


class TestCoinsOnDemand:
    @given(seed=st.integers(0, 2**64 - 1), draws=st.integers(1, 50))
    def test_a_lazy_coin_is_the_eager_stream(self, seed, draws):
        cost = CostModel(n=4, namespace=100)
        ctx = Context(n=4, namespace=100, index=0, rng=seed, cost=cost)
        eager = Random(seed)
        assert ctx.rng is ctx.rng
        assert [ctx.rng.random() for _ in range(draws)] == [
            eager.random() for _ in range(draws)]

    def test_a_given_random_is_used_as_it_is(self):
        cost = CostModel(n=4, namespace=100)
        assert not _holds_coins(
            Context(n=4, namespace=100, index=0, rng=5, cost=cost))
        given_rng = Random(5)
        ctx = Context(n=4, namespace=100, index=0, rng=given_rng, cost=cost)
        assert ctx.rng is given_rng

    @given(seed=st.integers(0, 2**32), n=st.integers(1, 20))
    def test_each_node_gets_the_seed_drawn_in_index_order(self, seed, n):
        cost = CostModel(n=n, namespace=4 * n)
        network = SyncNetwork([IdleProcess(uid) for uid in range(1, n + 1)],
                              cost, seed=seed)
        root = Random(seed)
        eager = [Random(root.getrandbits(64)) for _ in range(n)]
        # Read out of order: a node's stream does not depend on who
        # read first.
        for index in reversed(range(n)):
            assert network.contexts[index].rng.getstate() == \
                eager[index].getstate()

    @pytest.mark.parametrize("family, adversary", [
        ("byzantine", "withholder"), ("byzantine", "equivocator"),
        ("byzantine-full", "none"), ("obg", "random")])
    def test_a_run_that_flips_no_coin_builds_none(self, family, adversary):
        monitor = _KeepNetwork()
        result = execute(FAMILIES[family], 24, 2, 3, adversary=adversary,
                         monitors=[monitor])
        assert result.rounds > 0
        assert not any(map(_holds_coins, monitor.network.contexts))

    def test_a_run_that_flips_coins_builds_them(self):
        monitor = _KeepNetwork()
        execute(FAMILIES["crash"], 24, 2, 3, adversary="random",
                monitors=[monitor])
        assert any(map(_holds_coins, monitor.network.contexts))
