"""A node-round pays only for its own send and its own answer, invisibly.

Four moves take the fixed cost out of a round of the crash algorithm,
where every node is resumed in every round of every phase:

- (a) fan-outs built in one call: ``Multicast``, ``Broadcast`` and
  ``Scatter`` each set their slots in one ``__init__``, and
  ``multicast`` / ``broadcast`` are the classes themselves.  On random
  targets (lists, tuples, ranges, generators, links named twice) every
  fan-out is the ``Send`` list it denotes, its targets the ``range``
  itself or a tuple snapshot; a malformed one raises as before;
- (b) sizing by class: the charge reads a fixed-width message's size
  off the run's class memo, and a scatter of one fixed-width class is
  sized once, count x width.  Random rounds of scatters of one
  fixed-width class, of two, of a class whose size reads a field, of
  both mixed, yielded by one sender or shared by several, beside
  multicasts and ``Send`` lists, under mid-send crashes and link
  faults, charge every ledger as the per-send oracle
  ``ReferenceNetwork`` does.  White-box: the paper-constant crash run
  calls ``Metrics.message_bits`` once per class (three times) and
  ``Fanout.__len__`` never, and an F1 ``hunter`` run hands
  ``_validated`` no empty list after its first round;
- (c) grouping kept per shape: runs cycling through up to
  ``KEPT_SHAPES + 2`` shapes, with crashes, finishes and held mail,
  read alike on the engine and the oracle, every round's views those
  of its own blocks; white-box, a cycle of at most ``KEPT_SHAPES``
  shapes walks each once, a longer one walks every round, a change of
  the alive set walks again, and the paper-constant crash run walks
  twice in 63 rounds;
- (d) answers by position: ``ColumnarRound._by_recipient`` equals the
  per-block formula kept here as the oracle on random rounds, and
  ``distinct`` -- one row, several groups, a link named twice, with
  and without broadcast rows -- is the identity dedupe of what the
  recipient reads.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

from collections.abc import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.columnar import (
    KEPT_SHAPES,
    LazyInbox,
    distinct,
    messages,
)
from repro.sim.messages import (
    Broadcast,
    CostModel,
    Fanout,
    Message,
    Multicast,
    Scatter,
    Send,
    broadcast,
    multicast,
    record,
)
from repro.sim.metrics import Metrics
from repro.sim.network import SyncNetwork
from repro.sim.node import Process
from repro.sim.runner import run_network
from tests import test_golden_digests as golden
from tests.support import play_round
from tests.test_blocks_property import Letter, _dedupe, _ids
from tests.test_fastpath_ab import (
    ReferenceNetwork,
    _PlannedCrashes,
    _PlannedFaults,
    engine_observables,
    reference_observables,
)
from tests.test_grouping_reuse_property import _counting, _run
from tests.test_position_reads_property import _fill, columns

# ---------------------------------------------------------------------------
# (a) fan-outs built in one call


def _as(kind, targets):
    """``targets`` handed over as a list, a tuple, a generator or as is."""
    if kind == "list":
        return list(targets)
    if kind == "tuple":
        return tuple(targets)
    if kind == "generator":
        return (to for to in targets)
    return targets


TARGETS = st.one_of(st.lists(st.integers(0, 9), max_size=8),
                    st.builds(range, st.integers(0, 3), st.integers(0, 9)))


class TestFanoutsInOneCall:
    def test_the_lower_case_names_are_the_classes(self):
        assert multicast is Multicast and broadcast is Broadcast
        # No shared constructor to chain to: each sets its own slots.
        assert "__init__" not in vars(Fanout)

    @settings(max_examples=200, deadline=None)
    @given(TARGETS, st.sampled_from(["list", "tuple", "generator", "as is"]),
           st.sampled_from([None, 7]))
    def test_a_multicast_is_the_list_it_denotes(self, targets, kind, claim):
        message = Letter(1)
        fanout = Multicast(_as(kind, targets), message, claim)
        expected = [Send(to, message, claim) for to in targets]
        if type(targets) is range and kind == "as is":
            assert fanout.targets is targets
        else:
            assert type(fanout.targets) is tuple
            assert fanout.targets == tuple(targets)
        assert fanout._sends is None
        assert (fanout.message, fanout.claim) == (message, claim)
        assert isinstance(fanout, Sequence)
        assert len(fanout) == len(expected) and list(fanout) == expected
        assert list(multicast(_as(kind, targets), message)) == [
            Send(to, message) for to in targets]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 9), st.sampled_from([None, 3]))
    def test_a_broadcast_is_the_multicast_to_every_link(self, n, claim):
        message = Letter(2)
        fanout = Broadcast(n, message, claim)
        assert fanout.targets == range(n) and fanout.n == n
        assert fanout._sends is None
        assert list(fanout) == list(Multicast(range(n), message, claim))
        assert list(broadcast(n, message)) == [
            Send(to, message) for to in range(n)]

    @settings(max_examples=200, deadline=None)
    @given(TARGETS, st.sampled_from(["list", "tuple", "generator", "as is"]))
    def test_a_scatter_is_the_list_it_denotes(self, links, kind):
        replies = [Letter(at) for at in range(len(links))]
        fanout = Scatter(_as(kind, links), _as(kind, replies))
        assert fanout.targets == (links if type(links) is range
                                  and kind == "as is" else tuple(links))
        assert fanout.messages == tuple(replies) and fanout._sends is None
        assert list(fanout) == [Send(to, reply)
                                for to, reply in zip(links, replies)]

    def test_a_malformed_fanout_still_raises(self):
        with pytest.raises(ValueError, match="scatter of 1 messages over 2"):
            Scatter((0, 1), (Letter(0),))
        with pytest.raises(ValueError, match="non-negative"):
            Broadcast(-1, Letter(0))
        with pytest.raises(TypeError):
            Multicast(5, Letter(0))


# ---------------------------------------------------------------------------
# (b) sizing by class


@record
class _Narrow(Message, fixed_width=True):
    """Fixed width: its size reads the cost model only."""

    value: int

    def payload_bits(self, cost):
        return cost.index_bits


@record
class _Pair(Message, fixed_width=True):
    """A second fixed-width class, of another width."""

    value: int

    def payload_bits(self, cost):
        return 2 * cost.id_bits + 1


@record
class _Wide(Message):
    """Not fixed width: its size reads its field."""

    value: int

    def payload_bits(self, cost):
        return 3 + self.value % 7


#: What a scatter carries, link by link.
SCATTER_KINDS = {
    "narrow": lambda at, value: _Narrow(value + at),
    "two fixed": lambda at, value: (_Narrow, _Pair)[at % 2](value),
    "varying": lambda at, value: _Wide(value + at),
    "mixed": lambda at, value: (_Narrow, _Wide)[at % 2](value + at),
}


class _Sizer(Process):
    """Plays ``script`` -- per round (kind, pool slot, value) -- and
    returns what it read: sender, class and value of every envelope."""

    def __init__(self, uid, script, world):
        super().__init__(uid)
        self.script = script
        self.world = world

    def program(self, ctx):
        read = []
        for round_no, op in enumerate(self.script, start=1):
            inbox = yield self.world.sends(op, round_no)
            read.append(tuple((env.sender, type(env.message).__name__,
                               env.message.value) for env in inbox))
        return tuple(read)


class _SizingWorld:
    """The pool's link tuples, and the scatters several senders share:
    one object per (round, kind, slot), built by the first that asks."""

    def __init__(self, pool):
        self.pool = pool
        self._shared = {}

    def sends(self, op, round_no):
        kind, slot, value = op
        links = self.pool[slot]
        if kind in SCATTER_KINDS:
            make = SCATTER_KINDS[kind]
            return Scatter(links, [make(at, value)
                                   for at in range(len(links))])
        if kind.startswith("shared "):
            key = (round_no, kind, slot)
            if key not in self._shared:
                make = SCATTER_KINDS[kind[len("shared "):]]
                self._shared[key] = Scatter(
                    links, [make(at, round_no) for at in range(len(links))])
            return self._shared[key]
        if kind == "multicast":
            return multicast(links, (_Narrow, _Wide)[value % 2](value))
        if kind == "list":
            return [Send(to, (_Narrow, _Pair, _Wide)[at % 3](value))
                    for at, to in enumerate(links)]
        return []


SIZING_OPS = st.tuples(
    st.sampled_from([*SCATTER_KINDS, *(f"shared {kind}"
                                       for kind in SCATTER_KINDS),
                     "multicast", "list", "quiet"]),
    st.integers(0, 1), st.integers(0, 9))


@st.composite
def _sizing_runs(draw):
    n = draw(st.integers(2, 6))
    link = st.integers(0, n - 1)
    # Links may repeat; a tuple is never empty (an empty one sends nothing).
    pool = [tuple(draw(st.lists(link, min_size=1, max_size=n + 2)))
            for _ in range(2)]
    rounds = draw(st.integers(1, 3))
    scripts = [draw(st.lists(SIZING_OPS, min_size=rounds, max_size=rounds))
               for _ in range(n)]
    when = st.tuples(st.integers(1, rounds), st.integers(0, n - 1))
    crashes = draw(st.dictionaries(
        when, st.sampled_from(["none", "first", "odd", "all"]), max_size=2))
    faults = draw(st.dictionaries(when, st.integers(0, 4), max_size=2))
    return n, pool, scripts, crashes, faults


def _sized(n, pool, scripts, crashes, faults, reference=False):
    world = _SizingWorld(pool)
    processes = [_Sizer(index + 1, scripts[index], world)
                 for index in range(n)]
    options = dict(crash_adversary=_PlannedCrashes(crashes, n),
                   fault_model=_PlannedFaults(faults))
    cost = CostModel(n=n, namespace=64 * n)
    if reference:
        network = ReferenceNetwork(processes, cost, **options)
        network.run()
        observed = reference_observables(network)
    else:
        network = run_network(processes, cost, **options)
        observed = engine_observables(network)
    observed["fault_stats"] = network.fault_stats.as_dict()
    return observed


@pytest.fixture
def calls(monkeypatch):
    """Counts ``message_bits``, ``Fanout.__len__`` and the empty lists
    ``_validated`` is handed after a run's first round."""
    counts = {"message_bits": 0, "len": 0, "empty": 0}
    message_bits, length = Metrics.message_bits, Fanout.__len__
    validated = SyncNetwork._validated

    def counting_message_bits(self, message):
        counts["message_bits"] += 1
        return message_bits(self, message)

    def counting_len(self):
        counts["len"] += 1
        return length(self)

    def counting_validated(self, index, sends):
        if self.round_no and type(sends) is list and not sends:
            counts["empty"] += 1
        return validated(self, index, sends)

    monkeypatch.setattr(Metrics, "message_bits", counting_message_bits)
    monkeypatch.setattr(Fanout, "__len__", counting_len)
    monkeypatch.setattr(SyncNetwork, "_validated", counting_validated)
    return counts


class TestSizingByClass:
    @settings(max_examples=200, deadline=None)
    @given(_sizing_runs())
    def test_every_ledger_as_the_oracle(self, run):
        assert _sized(*run) == _sized(*run, reference=True)

    @pytest.mark.parametrize("kind", sorted(SCATTER_KINDS))
    def test_one_scatter_of_each_kind_shared_by_three(self, kind):
        # Three senders yield one scatter object, a fourth its own.
        pool = [(0, 1, 2, 1), (3, 0)]
        scripts = [[(f"shared {kind}", 0, 0)]] * 3 + [[(kind, 1, 4)]]
        run = (4, pool, scripts, {}, {})
        engine = _sized(*run)
        assert engine == _sized(*run, reference=True)
        assert engine["summary"]["correct_messages"] == 3 * 4 + 2

    def test_the_paper_run_sizes_each_class_once(self, calls):
        """4,053 ``message_bits`` calls at the parent -- one per filing
        of a ``CommitteeNotice``, ``Status`` or ``Response`` object --
        and 4,032 ``Fanout.__len__`` calls, one per scatter sender."""
        result = golden.CASES["crash-paper-n96"]()
        assert golden.digest(result) == golden.GOLDEN["crash-paper-n96"]
        assert calls["message_bits"] == 3
        # The empty-send test reads a fan-out's targets: no `len` call.
        assert calls["len"] == 0

    def test_an_f1_hunter_run_validates_no_empty_list(self, calls):
        """10,275 at the parent: every idle non-member, every round."""
        result = golden.hunter_case(256, 0)
        assert len(result.outputs_by_uid()) == 256 - len(result.crashed)
        assert calls["empty"] == 0


# ---------------------------------------------------------------------------
# (c) grouping kept per shape


def _shape(j):
    """Node 0's op of shape ``j``: a multicast, then a scatter, to one of
    the three pool tuples -- ``(tuple, stride)`` differs for j < 6."""
    return ("scatter" if j >= 3 else "multicast", j % 3)


def _cycle(n, shapes, rounds, finish=None):
    """Scripts cycling through ``shapes`` shapes; node ``n - 1`` finishes
    after round ``finish``."""
    scripts = [[_shape(r % shapes) if node == 0 else ("quiet", 0)
                for r in range(rounds)] for node in range(n)]
    if finish is not None:
        scripts[n - 1] = scripts[n - 1][:finish]
    return scripts


POOL = [(0, 1, 1, 2), (2, 3), (3, 0, 4)]


@st.composite
def _cycling_runs(draw):
    n = draw(st.integers(3, 6))
    link = st.integers(0, n - 1)
    pool = [tuple(draw(st.lists(link, max_size=n + 2))) for _ in range(3)]
    ops = st.tuples(st.sampled_from(["multicast", "scatter", "copy",
                                     "share", "broadcast", "list", "quiet"]),
                    st.integers(0, 2))
    shapes = [[draw(ops) for _ in range(n)]
              for _ in range(draw(st.integers(1, KEPT_SHAPES + 2)))]
    rounds = draw(st.integers(len(shapes), 3 * len(shapes)))
    lengths = [rounds] + [draw(st.integers(1, rounds)) for _ in range(n - 1)]
    scripts = [[shapes[r % len(shapes)][node] for r in range(lengths[node])]
               for node in range(n)]
    when = st.tuples(st.integers(1, rounds), st.integers(1, n - 1))
    crashes = draw(st.dictionaries(
        when, st.sampled_from(["none", "first", "odd", "all"]), max_size=2))
    holds = draw(st.sets(when, max_size=2))
    return n, pool, scripts, crashes, holds


class TestGroupingPerShape:
    @settings(max_examples=150, deadline=None)
    @given(_cycling_runs())
    def test_cycling_shapes_read_as_the_oracle(self, run):
        # `_run` checks every round's views against its own blocks.
        assert _run(*run) == _run(*run, reference=True)

    @pytest.mark.parametrize("shapes", range(1, KEPT_SHAPES + 1))
    def test_a_cycle_the_run_keeps_walks_each_shape_once(
            self, monkeypatch, shapes):
        calls = _counting(monkeypatch)
        run = (5, POOL, _cycle(5, shapes, 3 * shapes), {}, set())
        assert _run(*run) == _run(*run, reference=True)
        assert calls["_group"] == 3 * shapes
        assert calls["walked"] == list(range(1, shapes + 1))

    def test_a_longer_cycle_walks_every_round(self, monkeypatch):
        calls = _counting(monkeypatch)
        shapes = KEPT_SHAPES + 1  # each shape evicted before it returns
        run = (5, POOL, _cycle(5, shapes, 2 * shapes), {}, set())
        assert _run(*run) == _run(*run, reference=True)
        assert calls["walked"] == list(range(1, 2 * shapes + 1))

    def test_a_new_alive_set_walks_again(self, monkeypatch):
        calls = _counting(monkeypatch)
        # Node 4 finishes after round 4; node 3 crashes in round 7.
        run = (5, POOL, _cycle(5, 2, 10, finish=4), {(7, 3): "first"},
               set())
        assert _run(*run) == _run(*run, reference=True)
        # 1-2 walk; 5 and 6 (one node less) walk again, as do 7 and 8
        # (a crash leaves the alive set before its round is read).
        assert calls["walked"] == [1, 2, 5, 6, 7, 8]

    def test_the_paper_run_walks_twice(self, monkeypatch):
        """42 walks at the parent: rounds 1 and 2 of every phase, each
        of the other's shape (round 3 is read by position)."""
        calls = _counting(monkeypatch)
        result = golden.CASES["crash-paper-n96"]()
        assert golden.digest(result) == golden.GOLDEN["crash-paper-n96"]
        assert calls["_group"] == 42 and calls["walked"] == [1, 2]


# ---------------------------------------------------------------------------
# (d) answers read by position


def _index_oracle(column):
    """``_by_recipient`` as one formula for every group: per attached
    listing, each kept block's row at the listing's offset."""
    index = {}
    for (targets, stride), firsts in column._groups.items():
        kept = column._once.get(id(firsts))
        if kept is not None:
            firsts = list(kept.values())
        for position, to in enumerate(targets):
            if to in column._wanted:
                index.setdefault(to, []).extend(
                    first + stride * position for first in firsts)
    return index


class TestAnswersByPosition:
    @settings(max_examples=300, deadline=None)
    @given(columns())
    def test_the_index_is_the_per_block_formula(self, scenario):
        n, pool, answers, filings, gone, _ = scenario
        column = _fill(n, pool, answers, filings, gone)
        assert dict(column._by_recipient()) == _index_oracle(column)
        for recipient in range(n + 1):
            inbox = LazyInbox(column, recipient)
            assert _ids(distinct(inbox)) == _ids(_dedupe(messages(inbox)))

    @pytest.mark.parametrize("broadcast_row", [False, True],
                             ids=["no broadcast", "broadcast"])
    def test_one_row_several_groups_and_a_link_named_twice(
            self, broadcast_row):
        decision = (Letter(1), Letter(2), Letter(3))
        other = (Letter(4), Letter(5))
        # Three members answer from one decision: one kept block; a
        # member of another view, over other links.
        answer = Scatter((2, 0, 2), decision)
        proposals = {0: answer, 1: answer, 2: answer,
                     3: Scatter((1, 2), other)}
        tail = ()
        if broadcast_row:  # the last sender's: read after the answers
            tail = (Letter(0),)
            proposals[4] = Broadcast(5, tail[0])
        column = play_round(proposals, 5 if broadcast_row else 4)
        read = {to: distinct(LazyInbox(column, to)) for to in range(4)}
        for to in range(4):
            inbox = LazyInbox(column, to)
            assert _ids(read[to]) == _ids(_dedupe(messages(inbox)))
            assert type(read[to]) is tuple
        assert read[0] == (decision[1], *tail)      # one row
        assert read[1] == (other[0], *tail)         # one row, other group
        # Link 2: named twice by the decision, once by the other group.
        assert _ids(read[2]) == _ids((decision[0], decision[2], other[1],
                                      *tail))
        assert read[3] == tail                      # no row of its own
