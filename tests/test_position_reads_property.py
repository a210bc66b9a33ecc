"""``distinct`` reads by position, and that is invisible.

``distinct(inbox)`` on a :class:`~repro.sim.columnar.LazyInbox` reads
the recipient's rows from the round's ``recipient -> rows`` index
(``ColumnarRound._by_recipient``): one pass over the round's groups,
the first block of each message tuple a scatter group repeats, the
broadcast rows merged in -- no view, no grouping.  None of that may be
observable:

- (a) on random columns -- scatters answering from one tuple, from
  copies of it and from tuples of their own, a later sender's repeat of
  a fan-out, multicasts, broadcast rows, links named twice, held mail,
  faulted single deliveries -- ``distinct`` of every link's inbox,
  attached or not, and read before or after its view exists, is the
  identity dedupe of ``messages(inbox)`` and of its envelopes, in order
  of first occurrence;
- (b) real fan-outs on ``SyncNetwork`` and on the per-envelope oracle
  ``ReferenceNetwork``, under mid-send crashes and link faults: every
  node's ``distinct`` reads the same objects in the same order on both;
- (c) white-box: the crash algorithm's answer rounds (round 3 of every
  phase) make no view and call ``ColumnarRound._group`` zero times, in
  the paper-constant run and in an F1 ``hunter`` run.  At the parent
  commit every such round grouped.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import EXPERIMENT_ELECTION_CONSTANT, summary
from repro.core import crash_renaming
from repro.sim.columnar import ColumnarRound, LazyInbox, distinct, messages
from repro.sim.messages import Envelope
from tests import test_golden_digests as golden
from tests.test_blocks_property import (
    Letter,
    ShapedNode,
    _dedupe,
    _execute,
    _ids,
    scenarios,
)

# ---------------------------------------------------------------------------
# (a) random columns, every link


#: One filing: a scatter from the pool's shared tuple, from a copy of
#: it, from letters of its own, a later sender's repeat of the last
#: fan-out filed, a multicast run, a broadcast row, held mail and a
#: faulted single delivery.
FILINGS = ("shared", "copied", "own", "repeat", "run", "broadcast", "held",
           "single")


@st.composite
def columns(draw):
    n = draw(st.integers(1, 6))
    link = st.integers(0, n - 1)
    letters = [Letter(value) for value in range(draw(st.integers(1, 4)))]
    letter = st.sampled_from(letters)
    # Two target tuples (links may repeat), each with two message tuples
    # that several scatters answer from.
    pool = [tuple(draw(st.lists(link, min_size=1, max_size=n + 2)))
            for _ in range(2)]
    answers = [[tuple(draw(st.lists(letter, min_size=len(targets),
                                    max_size=len(targets))))
                for _ in range(2)] for targets in pool]
    filings = draw(st.lists(st.tuples(
        st.sampled_from(FILINGS), st.integers(0, 1), st.integers(0, 1),
        letter, st.lists(link, max_size=n + 1), link), max_size=14))
    attached = draw(st.sets(link))
    # The view of some links is made before `distinct` reads them.
    grouped_first = draw(st.sets(link))
    return n, pool, answers, filings, attached, grouped_first


def _fill(pool, answers, filings):
    column = ColumnarRound(3)
    last = None  # (messages, group) of the last fan-out filed
    for sender, (kind, slot, which, letter, targets, to) in enumerate(
            filings):
        header = (sender, 100 + sender, None)
        if kind in ("shared", "copied", "own"):
            links = pool[slot] if which else list(pool[slot])
            replies = answers[slot][which]
            if kind == "copied":
                replies = tuple(list(replies))
            elif kind == "own":
                replies = tuple(Letter(10 + at) for at in range(len(links)))
            last = replies, column.add_scatter(header, replies, links)
        elif kind == "repeat":
            if last is not None:
                column.add_repeat(header, *last)
        elif kind == "run":
            last = (letter,), column.add_run((header, letter), tuple(targets))
        elif kind == "broadcast":
            column.add_broadcast((header, letter))
        elif kind == "held":  # stamped in the round it was held
            column.add_run(Envelope(sender, 2, letter, 100 + sender),
                           tuple(targets))
        else:  # a faulted sender's send: a row and a block of its own
            column.add_run((header, letter), (to,))
    return column


class TestRandomColumns:
    @settings(max_examples=400, deadline=None)
    @given(columns())
    def test_it_is_the_identity_dedupe_of_every_links_read(self, scenario):
        n, pool, answers, filings, attached, grouped_first = scenario
        column = _fill(pool, answers, filings)
        column.attach(attached)
        for recipient in sorted(grouped_first):
            messages(LazyInbox(column, recipient))
        # Every link, attached or not, and one the network never had.
        for recipient in range(n + 1):
            once = distinct(LazyInbox(column, recipient))
            assert type(once) is tuple
            inbox = LazyInbox(column, recipient)
            envelopes = list(inbox)
            assert _ids(once) == _ids(_dedupe(messages(inbox))) == _ids(
                _dedupe([envelope.message for envelope in envelopes]))
            # The oracle reads its inbox as a plain sequence.
            assert _ids(distinct(envelopes)) == _ids(once)
            assert _ids(distinct(LazyInbox(column, recipient))) == _ids(once)
            if recipient not in attached:  # the broadcast rows alone
                assert _ids(once) == _ids(_dedupe(
                    [column.msg[row] for row in column.b_seq]))

    def test_an_index_is_built_once_per_round_and_skips_repeats(self):
        links = (2, 0, 2)  # link 2 is listed twice
        decision = (Letter(1), Letter(2), Letter(3))
        column = ColumnarRound(3)
        group = column.add_scatter((0, 100, None), decision, links)
        column.add_repeat((1, 101, None), decision, group)
        column.add_scatter((2, 102, None), decision, links)
        column.add_run(((3, 103, None), Letter(4)), (2,))
        column.attach({0, 1, 2})
        index = column._by_recipient()
        assert column._by_recipient() is index
        # One block of the three that answer from `decision`, twice for
        # the link listed twice, then the single delivery (row 7: the
        # repeat is one record).
        assert sorted(index[2]) == [0, 2, 7]
        assert index[0] == [1] and 1 not in index
        assert column._views is None  # no view was made
        assert _ids(distinct(LazyInbox(column, 2))) == _ids(
            [decision[0], decision[2], column.msg[7]])


# ---------------------------------------------------------------------------
# (b) both executors


class DistinctReader(ShapedNode):
    """Plays the script's fan-outs and reads each inbox through
    ``distinct`` first -- before any view of the round exists at the
    engine -- then, as the script says, through its view."""

    def program(self, ctx):
        received = []
        serial = self.world.serial
        for round_no, op in enumerate(self.script, start=1):
            inbox = yield self._outgoing(op, ctx, round_no)
            once = distinct(inbox)
            seen = tuple(map(serial, once))
            if op[3] % 2:
                assert _ids(once) == _ids(_dedupe(messages(inbox)))
            if op[3] > 1:
                assert _ids(once) == _ids(
                    _dedupe([envelope.message for envelope in inbox]))
            received.append(seen)
        return tuple(received)


class TestAgainstTheOracle:
    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_every_node_reads_the_same_objects_in_the_same_order(
            self, scenario):
        engine, _ = _execute(*scenario, node=DistinctReader)
        assert engine == _execute(*scenario, reference=True,
                                  node=DistinctReader)[0]


# ---------------------------------------------------------------------------
# (c) white-box: answer rounds group nothing


@pytest.fixture
def grouped(monkeypatch):
    """`_group` calls -- the one maker of views -- per round of a phase
    (1: announcements, 2: reports, 0: answers)."""
    counts = Counter()
    group = ColumnarRound._group

    def counting_group(self):
        counts[self.round_no % 3] += 1
        return group(self)

    monkeypatch.setattr(ColumnarRound, "_group", counting_group)
    return counts


@pytest.fixture
def decisions(monkeypatch):
    """Every `_committee_decision` and every `_status_reports` taken."""
    counts = Counter()
    decide, report = (crash_renaming._committee_decision,
                      crash_renaming._status_reports)

    def counting_decide(statuses, p_self):
        counts["decisions"] += 1
        return decide(statuses, p_self)

    def counting_report(inbox):
        counts["reports"] += 1
        return report(inbox)

    monkeypatch.setattr(crash_renaming, "_committee_decision",
                        counting_decide)
    monkeypatch.setattr(crash_renaming, "_status_reports", counting_report)
    return counts


class TestAnswerRounds:
    def test_the_paper_run_groups_no_answer_round(self, grouped, decisions):
        result = golden.CASES["crash-paper-n96"]()
        assert golden.digest(result) == golden.GOLDEN["crash-paper-n96"]
        # 21 phases; rounds 1 and 2 of each still group, round 3 never
        # (21 groupings and 2,016 views at the parent).
        assert grouped == {1: 21, 2: 21}
        # One decision per phase, from the view's one set of reports.
        assert decisions == {"decisions": 21, "reports": 21}

    def test_an_f1_hunter_run_groups_no_answer_round(
            self, grouped, decisions):
        row = summary("crash", 128, 16, 0, adversary="hunter",
                      election_constant=EXPERIMENT_ELECTION_CONSTANT)
        assert (row["rounds"], row["messages"]) == (63, 154_880)
        assert row["unique"] and row["strong"]
        assert grouped[0] == 0 and grouped[2] > 0
        # Each view decides from the reports it derived once (40 report
        # scans for these 20 decisions at the parent).
        assert decisions == {"decisions": 20, "reports": 20}
