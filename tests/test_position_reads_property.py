"""``distinct`` reads by position, and that is invisible.

``distinct(inbox)`` on a :class:`~repro.sim.columnar.LazyInbox` reads
the recipient's rows from the round's ``recipient -> rows`` index
(``ColumnarRound._by_recipient``): one pass over the round's groups,
the first block of each message tuple a scatter group repeats, the
broadcast rows merged in -- no view, no grouping.  None of that may be
observable:

- (a) on random rounds played through the engine -- scatters answering
  from one tuple, from copies of it and from tuples of their own, a
  later sender's repeat of a fan-out, multicasts, broadcast rows, links
  named twice, held mail, faulted sends -- ``distinct`` of every link's
  inbox, attached or not, and read before or after its view exists, is
  the identity dedupe of ``messages(inbox)`` and of its envelopes, in
  order of first occurrence;
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
from repro.sim.messages import Scatter, Send
from tests import test_golden_digests as golden
from tests.support import play_round
from tests.test_blocks_property import (
    Letter,
    ShapedNode,
    _dedupe,
    _execute,
    _ids,
    scenarios,
)
from tests.test_repeat_records_property import _plan, rounds

# ---------------------------------------------------------------------------
# (a) random columns, every link


@st.composite
def columns(draw):
    """A random round (``test_repeat_records_property.rounds``), and
    the links whose view is made before ``distinct`` reads them."""
    n, pool, answers, filings, gone, _ = draw(rounds())
    grouped_first = draw(st.sets(st.integers(0, n - 1)))
    return n, pool, answers, filings, gone, grouped_first


def _fill(n, pool, answers, filings, gone):
    """The drawn round, played through the engine."""
    proposals, held, verdicts, _, _ = _plan(n, pool, answers, filings, gone)
    return play_round(proposals, n, held=held, gone=gone, verdicts=verdicts)


class TestRandomColumns:
    @settings(max_examples=400, deadline=None)
    @given(columns())
    def test_it_is_the_identity_dedupe_of_every_links_read(self, scenario):
        n, pool, answers, filings, gone, grouped_first = scenario
        column = _fill(n, pool, answers, filings, gone)
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
            if recipient not in column._wanted:  # the broadcast rows
                assert _ids(once) == _ids(_dedupe(
                    [column.msg[row] for row in column.b_seq]))

    def test_an_index_is_built_once_per_round_and_skips_repeats(self):
        links = (2, 0, 2)  # link 2 is listed twice
        decision = (Letter(1), Letter(2), Letter(3))
        answer = Scatter(links, decision)
        column = play_round({0: answer, 1: answer, 2: Scatter(links, decision),
                             3: [Send(2, Letter(4))]}, 4)
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
