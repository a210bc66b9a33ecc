"""The distribution is read as a tally, and the tally is the row read.

``ByzantineRenamingNode._await_new_id`` adopts the first value more than
``b_max`` view members report, each member's first answer counting, in
delivery order.  It reads an inbox as :func:`repro.sim.columnar.runs`:
one ``(message, senders)`` pair per stretch of rows carrying one message
object -- every member repeating one distribution ``Scatter`` is one
run -- and tallies a run's new view members at once.  That must return
what the row-by-row read (``zip(senders, messages)``, one vote per
row, kept below as the oracle) returns, in the same round:

- on random rounds of shared and equivocating scatters (one message
  tuple repeated by several senders, tuples of their own with other
  values), ``None`` answers, links named twice, ``NewId`` multicasts
  and ``Send`` lists, other message types, senders outside the view,
  several values crossing the bar in one read, over several rounds;
- on the engine (``LazyInbox``) and on the per-envelope oracle
  executor's plain lists alike.

An inbox of several groups -- Byzantine members split the committee's
views, so members answer over link tuples of their own -- is read row
by row.  On random rounds played through the engine (scatters from
shared, copied and own tuples, repeats, runs, links named twice, held
mail, broadcast rows) the runs of every link's inbox, expanded sender
by sender, are its rows in order, and on a view of several groups they
are the row-by-row runs themselves.  A hand-made distribution whose members interleave over two
link tuples adopts what the row-by-row read adopts.

White-box: a Byzantine run at f = 0 resolves no repeat record into a
row (``ColumnarRound._resolve``; each member's answer was resolved for
every reader before).

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

from types import MappingProxyType, SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import summary
from repro.core.byzantine_renaming import ByzantineRenamingNode, NewId
from repro.sim.columnar import (
    ColumnarRound,
    LazyInbox,
    messages,
    runs,
    senders,
)
from repro.sim.messages import (
    UNTIL_MAIL,
    CostModel,
    Message,
    Scatter,
    Send,
    multicast,
    record,
)
from repro.sim.node import Process
from repro.sim.runner import run_network
from tests.test_fastpath_ab import ReferenceNetwork
from tests.test_position_reads_property import _fill, columns

VALUES = (None, 0, 1, 2)


@record
class _Other(Message, fixed_width=True):
    """Not an answer: a reader skips it."""

    value: int

    def payload_bits(self, cost):
        return 4


def _row_by_row(b_max, view):
    """The distribution read row by row, one vote per row: the oracle."""
    counts = {}
    answered = set()
    inbox = yield UNTIL_MAIL
    while True:
        for sender, message in zip(senders(inbox), messages(inbox)):
            if (isinstance(message, NewId) and sender in view
                    and sender not in answered):
                answered.add(sender)
                if message.value is not None:
                    counts[message.value] = counts.get(message.value, 0) + 1
        for value, count in counts.items():
            if count >= b_max + 1:
                return value
        inbox = yield UNTIL_MAIL


class _World:
    """The scatters of a round that several senders yield: one object
    per ``(round, slot)``, built by the first sender that asks."""

    def __init__(self, pool):
        self.pool = pool  # slot -> (links, values)
        self._shared = {}

    def sends(self, op, round_no):
        kind, slot, shift = op
        links, values = self.pool[slot]
        if kind == "share":
            key = (round_no, slot)
            if key not in self._shared:
                self._shared[key] = Scatter(links, map(NewId, values))
            return self._shared[key]
        if kind == "equivocate":  # a tuple of its own, values shifted
            return Scatter(links, [NewId(None if value is None
                                         else (value + shift) % 3)
                                   for value in values])
        if kind == "multicast":
            return multicast(links, NewId(VALUES[shift % len(VALUES)]))
        if kind == "list":  # an answer, then something else, per link
            return [send for link in links for send in (
                Send(link, NewId(VALUES[shift % len(VALUES)])),
                Send(link, _Other(shift)))]
        return []


class _Member(Process):
    """Answers by its script and reads every round's inbox both ways:
    returns, per way, ``(round, value)`` of the adoption, or ``None``."""

    def __init__(self, uid, script, world, view, b_max):
        super().__init__(uid)
        self.script = script
        self.world = world
        self.view = view
        self.b_max = b_max

    def program(self, ctx):
        params = SimpleNamespace(b_max=self.b_max)
        ways = [ByzantineRenamingNode._await_new_id(
                    self, params, self.view, first_inbox=None),
                _row_by_row(self.b_max, self.view)]
        for way in ways:
            assert next(way) is UNTIL_MAIL
        adopted = [None, None]
        for round_no in range(1, len(self.script) + 2):
            op = (self.script[round_no - 1] if round_no <= len(self.script)
                  else ("quiet", 0, 0))
            inbox = yield self.world.sends(op, round_no)
            for at, way in enumerate(ways):
                if adopted[at] is None:
                    try:
                        assert way.send(inbox) is UNTIL_MAIL
                    except StopIteration as stop:
                        adopted[at] = (round_no, stop.value)
        return tuple(adopted)


_OPS = st.tuples(
    st.sampled_from(["share", "share", "share", "equivocate", "multicast",
                     "list", "quiet"]),
    st.integers(0, 1), st.integers(0, 3))


@st.composite
def _rounds(draw):
    n = draw(st.integers(2, 9))
    link = st.integers(0, n - 1)
    pool = []
    for _ in range(2):
        # Links may repeat: a link named twice reads two answers.
        links = draw(st.lists(link, min_size=1, max_size=n + 2))
        values = [draw(st.sampled_from(VALUES)) for _ in links]
        pool.append((tuple(links), tuple(values)))
    rounds = draw(st.integers(1, 3))
    scripts = [draw(st.lists(_OPS, min_size=1, max_size=rounds))
               for _ in range(n)]
    view = draw(st.sets(link, min_size=1))  # the rest answer from outside
    b_max = draw(st.integers(0, 2))
    return n, pool, scripts, view, b_max


def _adoptions(n, pool, scripts, view, b_max, reference=False):
    world = _World(pool)
    view = MappingProxyType({link: 100 + link for link in sorted(view)})
    processes = [_Member(index + 1, scripts[index], world, view, b_max)
                 for index in range(n)]
    cost = CostModel(n=n, namespace=4 * n)
    if reference:
        network = ReferenceNetwork(processes, cost)
        network.run()
        return dict(network.finished)
    return dict(run_network(processes, cost).results)


class TestTheTallyIsTheRowRead:

    @settings(max_examples=300, deadline=None)
    @given(_rounds())
    def test_on_the_engine_and_on_the_oracle(self, scenario):
        engine = _adoptions(*scenario)
        for tallied, rows in engine.values():
            assert tallied == rows
        assert engine == _adoptions(*scenario, reference=True)

    def test_the_first_value_over_the_bar_wins_a_tie(self):
        # Two values cross the bar in one read of one scatter group: the
        # one whose first counted row came first wins.  Node 0, outside
        # the view, sends the other tuple first: a tally per distinct
        # tuple, not per run, would count that tuple's value first.
        pool = [((0, 1, 2), (1, 2, 0)), ((0, 1, 2), (2, 1, 0))]
        scripts = [[("share", 1, 0)],          # node 0: 2 1 0, outside
                   [("share", 0, 0)],          # node 1: 1 2 0
                   [("share", 1, 0)],          # node 2: 2 1 0
                   [("share", 0, 0)],          # node 3: 1 2 0
                   [("share", 1, 0)]]          # node 4: 2 1 0
        scenario = (5, pool, scripts, {1, 2, 3, 4}, 1)
        engine = _adoptions(*scenario)
        assert engine[0] == ((1, 1), (1, 1))
        assert engine[1] == ((1, 2), (1, 2))
        assert engine[2] == ((1, 0), (1, 0))
        assert engine == _adoptions(*scenario, reference=True)


def _row_runs(inbox):
    """The inbox read row by row, as runs: the oracle of ``runs``."""
    read = []
    for sender, message in zip(senders(inbox), messages(inbox)):
        if read and read[-1][0] is message:
            read[-1][1].append(sender)
        else:
            read.append((message, [sender]))
    return [(message, tuple(sent_by)) for message, sent_by in read]


def _expanded(read):
    return [(id(message), sender) for message, sent_by in read
            for sender in sent_by]


class TestSeveralGroupsInOneView:

    @settings(max_examples=400, deadline=None)
    @given(columns())
    def test_the_merged_runs_are_the_rows(self, scenario):
        n, pool, answers, filings, gone, _ = scenario
        column = _fill(n, pool, answers, filings, gone)
        read = {to: runs(LazyInbox(column, to)) for to in range(n + 1)}
        for to in range(n + 1):
            inbox = LazyInbox(column, to)
            rows = _row_runs(inbox)
            assert _expanded(read[to]) == _expanded(rows)
            if len(inbox._resolve().blocks) > 1:
                assert [(id(message), sent_by)
                        for message, sent_by in read[to]] == [
                    (id(message), sent_by) for message, sent_by in rows]

    def test_a_distribution_over_two_link_tuples(self):
        # Members answer over two link tuples, both naming every node,
        # interleaved in send order; the odd ones share one scatter of
        # each tuple, node 4 a tuple of its own.
        pool = [((0, 1, 2, 3, 4, 0), (1, 2, 0, 0, 1, 2)),
                ((4, 3, 2, 1, 0), (2, 2, 1, 0, None))]
        scripts = [[("share", 0, 0)], [("share", 1, 0)], [("share", 0, 0)],
                   [("share", 1, 0)], [("equivocate", 0, 1)]]
        scenario = (5, pool, scripts, {0, 1, 2, 3, 4}, 1)
        engine = _adoptions(*scenario)
        for tallied, rows in engine.values():
            assert tallied == rows
        assert engine == _adoptions(*scenario, reference=True)


class TestNoRowIsResolved:

    def test_a_byzantine_run_reads_its_answers_as_runs(self, monkeypatch):
        resolved = []
        resolve = ColumnarRound._resolve

        def counting_resolve(self, record, offset):
            resolved.append(record)
            return resolve(self, record, offset)

        monkeypatch.setattr(ColumnarRound, "_resolve", counting_resolve)
        called = []

        def counting_runs(inbox):
            called.append(1)
            return runs(inbox)

        from repro.core import byzantine_renaming
        monkeypatch.setattr(byzantine_renaming, "runs", counting_runs)
        row = summary("byzantine", 256, 0, 1)
        assert row["unique"] and row["order_preserving"]
        assert called and resolved == []
