"""A lockstep committee round pays per member only for its resume.

Four moves take what grew with the number of members out of a vote
round and out of the crash algorithm's announcement round; none may be
visible:

- (a) a tally reads runs: ``comm._tally`` folds
  :func:`repro.sim.columnar.runs` -- the members that repeat one vote
  are one run, its senders not heard yet counted at once.  On random
  vote rounds played through the engine
  (:func:`tests.support.play_round`) -- several groups in one view,
  broadcast rows, held mail, a link named twice, claimed headers, an
  equivocator's vote per link, repeats of a multicast, non-members, a
  wrong step or kind, other message types, ``1`` beside ``True`` --
  every link's tally, under every ``without``, is the row rule
  (``_collect``'s first vote per member, then ``plurality``) over its
  ``LazyInbox`` and over its plain envelope list, value type included;
  through ``CommitteeComm.tally`` too, where a view's readers find the
  value their view last derived;
- (b) a repeat is filed in place: the charge loop appends a later
  sender's record itself, one record per later sender of a fan-out
  object -- counted as the records a column holds when it is attached
  beyond the rows its ``_row`` / ``add_scatter`` filed -- with the
  digests of ``byz-withholder-n48`` and ``crash-paper-n96`` unchanged;
- (c) one announcement object per network size: every crash committee
  member yields the same ``Broadcast``, its later senders are repeats
  of the fast branch, and the advance loop knows its range valid, so
  ``crash-paper-n96`` calls ``SyncNetwork._validated`` 158 times (2,058
  at the parent);
- (d) no coin that cannot decide: with the paper's constants every
  election probability is 1, so no node of ``crash-paper-n96`` builds
  its private ``Random`` (96 at the parent) and its digest holds.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import default_namespace, sample_uids
from repro.consensus import comm as comm_module
from repro.consensus.comm import (
    CommitteeComm,
    SubVote,
    _collect,
    _tally,
    members_of,
    plurality,
)
from repro.core.byzantine_renaming import NewId
from repro.core.crash_renaming import announcement, run_crash_renaming
from repro.sim.columnar import ColumnarRound, LazyInbox
from repro.sim.messages import Broadcast, Multicast, Send
from repro.sim.network import SyncNetwork
from tests import test_golden_digests as golden
from tests.support import play_round

KINDS = ("x", "y")
#: ``1``, ``True`` and ``1.0`` are one value to a tally, first seen kept.
VALUES = (0, 1, True, 1.0, "__bottom__", (7, 2))
WITHOUT = (None, "__bottom__", 0, 1, True)


# ---------------------------------------------------------------------------
# (a) random vote columns


@st.composite
def vote_rounds(draw):
    n = draw(st.integers(1, 8))
    link = st.integers(0, n - 1)
    vote = st.builds(SubVote, st.integers(1, 2), st.sampled_from(KINDS),
                     st.sampled_from(VALUES), st.just(4))
    message = st.one_of(vote, vote, vote, st.builds(NewId, st.integers(0, 3)))
    # Per link (how, message, targets, claim): a multicast row; a repeat
    # of the last unclaimed one; an equivocator's vote per link (a row
    # and a block of its own each, its value shifted per link); a
    # broadcast row; held mail.  Target tuples vary, so a view reads
    # several groups, and a link may be named twice.
    filings = draw(st.lists(st.tuples(
        st.sampled_from(("run", "run", "repeat", "repeat", "per-link",
                         "broadcast", "held")),
        message, st.lists(link, min_size=1, max_size=n + 1),
        st.sampled_from([None, None, 0])), min_size=n, max_size=n))
    members = draw(st.sets(link, min_size=1))
    gone = draw(st.sets(link)) - {draw(link)}
    step = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(KINDS))
    return n, filings, members, gone, step, kind


def _play(n, filings, gone):
    """The filings' round, as the network files it: what each link
    proposes, its mail held from round 1 apart; a link that leaves
    proposes nothing then (a claim is a forged sender identity; the
    link stays the sender's)."""
    proposals, held = {}, {}
    last = None  # the last unclaimed multicast
    for sender, (how, message, targets, claim) in enumerate(filings):
        if how == "held":
            held[sender] = Multicast(targets, message)
        elif sender in gone:
            continue
        elif how == "run":
            proposals[sender] = Multicast(targets, message, claim)
            if claim is None:
                last = proposals[sender]
        elif how == "repeat" and last is not None:
            proposals[sender] = last
        elif how == "per-link" and type(message) is SubVote:
            at = VALUES.index(message.value)
            proposals[sender] = [
                Send(to, SubVote(message.step, message.kind,
                                 VALUES[(at + shift) % len(VALUES)], 4),
                     claim)
                for shift, to in enumerate(targets)]
        elif how == "broadcast":
            proposals[sender] = Broadcast(n, message)
    return play_round(proposals, n, held=held, gone=gone)


def _row_rule(inbox, step, kind, members, without):
    """The tally as rows: each member's first vote, then ``plurality``."""
    votes = list(_collect(inbox, step, kind, members).values())
    counted = [value for value in votes
               if without is None or value != without]
    if not counted:
        return len(votes), None, 0
    return (len(votes), *plurality(counted))


def _typed(tallied):
    heard, value, count = tallied
    return heard, type(value), value, count


class TestATallyReadsRuns:
    @settings(max_examples=400, deadline=None)
    @given(vote_rounds())
    def test_every_links_tally_is_the_row_rule(self, scenario):
        n, filings, members, gone, step, kind = scenario
        column = _play(n, filings, gone)
        plain = _play(n, filings, gone)  # the envelopes, of their own round
        view = members_of(sorted(members))
        for to in range(n + 1):  # and a link the network never had
            listed = list(LazyInbox(plain, to))
            for without in WITHOUT:
                expected = _typed(_row_rule(listed, step, kind, members,
                                            without))
                assert _typed(_tally(LazyInbox(column, to), step, kind,
                                     view, without)) == expected
                assert _typed(_tally(listed, step, kind, members,
                                     without)) == expected

    @settings(max_examples=200, deadline=None)
    @given(vote_rounds())
    def test_readers_of_one_view_asking_in_turn(self, scenario):
        # The attached links ask in turn, each turn the next `without`:
        # a reader finds what its view derived last only for the same
        # question.  Every filing names every link, so the attached links
        # share views (an equivocator's votes still split them).
        n, filings, members, gone, step, kind = scenario
        filings = [(how, message, list(range(n)), claim)
                   for how, message, _, claim in filings]
        column = _play(n, filings, gone)
        plain = _play(n, filings, gone)
        view = members_of(sorted(members))
        readers = sorted(column._wanted) * len(WITHOUT)
        for turn, to in enumerate(readers):
            without = WITHOUT[turn % len(WITHOUT)]
            comm = CommitteeComm(view, 0)
            comm.step = step
            expected = _row_rule(list(LazyInbox(plain, to)), step, kind,
                                 members, without)
            assert _typed(comm.tally(LazyInbox(column, to), kind,
                                     without)) == _typed(expected)


def test_a_tie_is_broken_by_repr_whatever_the_order():
    column = ColumnarRound(5)
    for sender, value in enumerate((1, 0, 1, 0)):
        column.add_run(((sender, 100 + sender, None),
                        SubVote(1, "x", value, 1)), (4,))
    column.attach({4})
    members = members_of(range(5))
    assert _tally(LazyInbox(column, 4), 1, "x", members, None) == (4, 0, 2)
    assert _tally(LazyInbox(column, 4), 1, "x", members, 0) == (4, 1, 2)


def test_a_lockstep_vote_is_one_run_counted_at_once(monkeypatch):
    # Five members repeat one multicast.
    targets = (0, 1, 2, 3, 4, 5)
    vote = Multicast(targets, SubVote(1, "x", 1, 1))
    column = play_round(dict.fromkeys(range(5), vote), 6)
    counted = []
    intersection = comm_module._Members.intersection

    class Counting(comm_module._Members):
        __slots__ = ()

        def intersection(self, *others):
            counted.append(others)
            return intersection(self, *others)

    members = Counting(targets)
    assert _tally(LazyInbox(column, 5), 1, "x", members, None) == (5, 1, 5)
    assert counted == [((0, 1, 2, 3, 4),)]


# ---------------------------------------------------------------------------
# (b) - (d) white-box pins on the run path


@pytest.fixture
def counts(monkeypatch):
    """Counts repeat records and ``_validated`` calls: a column's records
    when it is attached, less the rows ``_row`` and ``add_scatter``
    filed (a later read's resolved rows come after ``attach``)."""
    counted = {"repeats": 0, "validated": 0}
    filed: dict[int, int] = {}
    row, scatter = ColumnarRound._row, ColumnarRound.add_scatter
    attach, validated = ColumnarRound.attach, SyncNetwork._validated

    def counting_row(self, *args):
        filed[id(self)] = filed.get(id(self), 0) + 1
        return row(self, *args)

    def counting_scatter(self, header, messages, links):
        filed[id(self)] = filed.get(id(self), 0) + len(messages)
        return scatter(self, header, messages, links)

    def counting_attach(self, alive):
        counted["repeats"] += len(self.msg) - filed.pop(id(self), 0)
        return attach(self, alive)

    def counting_validated(self, index, sends):
        counted["validated"] += 1
        return validated(self, index, sends)

    monkeypatch.setattr(ColumnarRound, "_row", counting_row)
    monkeypatch.setattr(ColumnarRound, "add_scatter", counting_scatter)
    monkeypatch.setattr(ColumnarRound, "attach", counting_attach)
    monkeypatch.setattr(SyncNetwork, "_validated", counting_validated)
    return counted


def test_a_withholder_run_files_every_repeat_in_place(counts):
    result = golden.CASES["byz-withholder-n48"]()
    assert golden.digest(result) == golden.GOLDEN["byz-withholder-n48"]
    # A record per later sender: 34,552 sender-rounds over 1,745 fan-out
    # objects (32,790 while step 1's votes were each member's own).
    assert counts["repeats"] == 32_807


def test_the_paper_run_announces_with_one_object(counts):
    assert announcement(96) is announcement(96)
    assert announcement(96).targets == range(96)
    result = golden.CASES["crash-paper-n96"]()
    assert golden.digest(result) == golden.GOLDEN["crash-paper-n96"]
    # 21 announcement and 21 answer rounds, 95 later senders each.
    assert counts == {"repeats": 3_990, "validated": 158}


class _Contexts:
    """A monitor that keeps the network's contexts when the run ends."""

    def on_start(self, network):
        pass

    def on_round(self, network):
        pass

    def on_finish(self, network):
        self.contexts = network.contexts


def test_the_paper_run_builds_no_private_stream():
    # `golden.crash_case(96, 1)`, watched.
    n, seed = 96, 1
    namespace = default_namespace(n)
    watched = _Contexts()
    result = run_crash_renaming(
        sample_uids(n, namespace, Random(seed)), namespace=namespace,
        seed=seed + 2, monitors=[watched])
    assert golden.digest(result) == golden.GOLDEN["crash-paper-n96"]
    assert len(watched.contexts) == n
    assert all(type(context._rng) is int for context in watched.contexts)
