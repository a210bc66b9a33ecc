"""A committee vote round reads rows and shares its vote object.

A member's vote round is the Byzantine algorithm's unit of work: one
``Multicast`` of one :class:`~repro.consensus.comm.SubVote` out, one
vote table in.  Three things keep it cheap, and none may be visible:

- (a) ``CommitteeComm.collect`` reads an inbox as rows --
  ``zip(senders(inbox), messages(inbox))`` -- and ``tally`` as runs of
  them (:func:`repro.sim.columnar.runs`: members repeating one vote are
  one run), so no vote round builds an ``Envelope``; the runs against
  the row rule are ``tests/test_vote_runs_property.py``'s.  On random
  vote rounds played through the engine (steps, kinds, a sender voting
  more than once, non-members, forged votes under a claimed header,
  other message types, repeats of a multicast, held mail) every
  member's ``collect`` and ``tally`` over its ``LazyInbox`` equal the
  same call over a plain envelope list and a per-envelope rule written
  here.
- (b) an honest ``sends`` keeps the step's vote under ``(step, kind,
  type(value), value, width)`` on its member set, whatever it read
  last: members of one member set that vote alike get one object, ``1``
  and ``True`` stay apart, an unhashable vote is never shared, and a
  new step empties the keep.
- (c) the member set is one object per derived committee view.

White-box, in ``byz-withholder-n48``: at most 70 envelopes are built
(35,497 when votes and answers were read as envelopes), every honest
comm of one view holds one member-set object, and every vote round,
the first included, builds one ``SubVote`` per distinct ``(member set,
vote)``.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

from collections import Counter, defaultdict

from hypothesis import given, settings, strategies as st

from repro.consensus import comm as comm_module
from repro.consensus.comm import CommitteeComm, SubVote, members_of, plurality
from repro.core.byzantine_renaming import ByzantineRenamingNode, NewId
from repro.sim.columnar import ColumnarRound, LazyInbox
from repro.sim.messages import Broadcast, Envelope, Multicast, Send
from tests import test_golden_digests as golden
from tests.support import play_round

KINDS = ("x", "y")
VALUES = (0, 1, True, "__bottom__", (7, 2))


# ---------------------------------------------------------------------------
# (a) + (b) random vote columns


@st.composite
def vote_rounds(draw):
    n = draw(st.integers(1, 8))
    link = st.integers(0, n - 1)
    vote = st.builds(SubVote, st.integers(1, 2), st.sampled_from(KINDS),
                     st.sampled_from(VALUES), st.just(4))
    message = st.one_of(vote, vote, st.builds(NewId, st.integers(0, 3)))
    # Per link (how, message, targets, claim): a multicast row; a repeat
    # of the last unclaimed one; a send list of a row per message (a
    # sender voting more than once); a broadcast row; held mail.
    filings = draw(st.lists(st.tuples(
        st.sampled_from(("run", "run", "repeat", "sends", "broadcast",
                         "held")),
        st.lists(message, min_size=1, max_size=3),
        st.lists(link, min_size=1, max_size=n + 1),
        st.sampled_from([None, 0])), min_size=n, max_size=n))
    members = draw(st.sets(link, min_size=1))
    gone = draw(st.sets(link)) - {draw(link)}
    step = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(KINDS))
    without = draw(st.sampled_from([None, "__bottom__", 0]))
    order = draw(st.permutations(range(n)))
    return n, filings, members, gone, step, kind, without, order


def _proposed(n, filings, gone):
    """What each link proposes in the played round, its mail held from
    round 1 apart; a link that leaves proposes nothing then (a claim is
    a forged sender identity; the link stays the sender's)."""
    proposals, held = {}, {}
    last = None  # the last unclaimed multicast
    for sender, (how, said, targets, claim) in enumerate(filings):
        if how == "held":
            held[sender] = Multicast(targets, said[0])
        elif sender in gone:
            continue
        elif how == "run":
            proposals[sender] = Multicast(targets, said[0], claim)
            if claim is None:
                last = proposals[sender]
        elif how == "repeat" and last is not None:
            proposals[sender] = last
        elif how == "sends":
            proposals[sender] = [Send(to, message, claim)
                                 for message in said for to in targets]
        elif how == "broadcast":
            proposals[sender] = Broadcast(n, said[0])
    return proposals, held


def _play(n, filings, gone):
    """The filings' round, as the network files it."""
    proposals, held = _proposed(n, filings, gone)
    return play_round(proposals, n, held=held, gone=gone)


def _first_votes(envelopes, step, kind, members):
    """The rule, one envelope at a time: each member's first vote."""
    votes = {}
    for envelope in envelopes:
        message = envelope.message
        if (type(message) is SubVote and message.step == step
                and message.kind == kind and envelope.sender in members):
            votes.setdefault(envelope.sender, message.value)
    return votes


class TestRandomVoteColumns:
    @settings(max_examples=300, deadline=None)
    @given(vote_rounds())
    def test_collect_and_tally_read_rows_as_the_plain_call(self, scenario):
        n, filings, members, gone, step, kind, without, order = scenario
        column = _play(n, filings, gone)
        held = len(column.env)
        plain = _play(n, filings, gone)  # the oracle's envelopes
        view = members_of(sorted(members))
        for to in order:
            lazy, mine = LazyInbox(column, to), CommitteeComm(view, 0)
            listed, theirs = list(LazyInbox(plain, to)), CommitteeComm(
                sorted(members), 0)
            mine.step = theirs.step = step
            expected = _first_votes(listed, step, kind, members)
            assert dict(mine.collect(lazy, kind)) == expected
            assert dict(theirs.collect(listed, kind)) == expected
            tallied = mine.tally(lazy, kind, without)
            assert tallied == theirs.tally(listed, kind, without)
            counted = [value for value in expected.values()
                       if without is None or value != without]
            assert tallied == ((len(expected), *plurality(counted))
                               if counted else (len(expected), None, 0))
        # Only held mail, stamped when it was held, is an envelope: the
        # votes were read as rows.
        assert len(column.env) == held

    @settings(max_examples=150, deadline=None)
    @given(vote_rounds(), st.lists(st.sampled_from(VALUES), min_size=1,
                                   max_size=6))
    def test_a_round_builds_one_vote_per_member_set_and_value(
            self, scenario, values):
        n, filings, members, gone, step, kind, _, order = scenario
        column = _play(n, filings, gone)
        view = members_of(sorted(members))
        other = members_of(sorted(members | {n}))
        comms = [CommitteeComm(view, 0) for _ in order] + [
            CommitteeComm(other, 0) for _ in order]
        sent = []
        for at, (comm, to) in enumerate(zip(comms, order + order)):
            comm.step = step
            comm.collect(LazyInbox(column, to), kind)
            comm.step += 1
            value = values[at % len(values)]
            sent.append((id(comm._members), type(value), value,
                         comm.sends("z", value, width=2)))
        fanouts = defaultdict(set)
        for members_id, cls, value, fanout in sent:
            assert fanout.targets == comms[0 if members_id == id(view)
                                           else -1].view
            assert fanout.message == SubVote(step + 1, "z", value, 2)
            fanouts[members_id, cls, value].add(id(fanout))
        # One object per (member set, vote); `1` and `True` apart.
        assert all(len(ids) == 1 for ids in fanouts.values())
        assert len({id(fanout) for *_, fanout in sent}) == len(fanouts)
        unhashable = [comm.sends("z", [1], width=2) for comm in comms[:2]]
        assert unhashable[0].message is not unhashable[1].message


def test_a_members_first_vote_of_the_step_is_the_one_counted():
    column = ColumnarRound(5)
    for value in (1, 0, 0):  # link 0 votes three times, to link 1
        column.add_run(((0, 100, None), SubVote(1, "x", value, 1)), (1,))
    column.attach({1})
    comm = CommitteeComm(members_of((0, 1)), 0)
    comm.step = 1
    assert comm.collect(LazyInbox(column, 1), "x") == {0: 1}
    assert comm.tally(LazyInbox(column, 1), "x") == (1, 1, 1)


def test_a_vote_after_a_plain_read_is_shared_by_its_member_set():
    members = members_of((0, 1))
    comms = [CommitteeComm(members, 0) for _ in range(2)]
    for comm in comms:
        comm.step = 1
        comm.collect([Envelope(0, 1, SubVote(1, "x", 1, 1), 100)], "x")
        comm.step = 2
    first, second = (comm.sends("x", 1, width=1) for comm in comms)
    assert first is second and first.message == SubVote(2, "x", 1, 1)
    # A new step empties the keep: step 2's vote is not held any more.
    comms[0].step = 3
    third = comms[0].sends("x", 1, width=1)
    assert third is not first and list(members.kept.values()) == [third]


# ---------------------------------------------------------------------------
# (c) and the white-box pins, on the run path


def test_a_withholder_run_builds_at_most_seventy_envelopes(monkeypatch):
    built = []
    build = ColumnarRound._build

    def counting_build(self, rows):
        before = len(self.env)
        build(self, rows)
        built.append(len(self.env) - before)

    monkeypatch.setattr(ColumnarRound, "_build", counting_build)
    result = golden.CASES["byz-withholder-n48"]()
    assert golden.digest(result) == golden.GOLDEN["byz-withholder-n48"]
    # Only the `Elect` and `IdAnnounce` rounds read `sender_uid`.
    assert sum(built) <= 70


def test_one_member_set_per_view_and_one_vote_per_distinct_value(
        monkeypatch):
    comms, built, voted = [], [], set()
    make_comm = ByzantineRenamingNode._make_comm
    init, sends = SubVote.__init__, CommitteeComm.sends

    def recording_make_comm(self, links, params):
        made = make_comm(self, links, params)
        if not self.byzantine:
            comms.append(made)
        return made

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.step)

    def recording_sends(self, kind, value, width):
        voted.add((self.step, id(self._members), kind, type(value), value))
        return sends(self, kind, value, width)

    monkeypatch.setattr(ByzantineRenamingNode, "_make_comm",
                        recording_make_comm)
    monkeypatch.setattr(SubVote, "__init__", counting_init)
    monkeypatch.setattr(comm_module.CommitteeComm, "sends", recording_sends)
    result = golden.CASES["byz-withholder-n48"]()
    assert golden.digest(result) == golden.GOLDEN["byz-withholder-n48"]
    by_view = defaultdict(set)
    for made in comms:
        by_view[made.view].add(id(made._members))
    assert len(comms) == 21
    assert all(len(ids) == 1 for ids in by_view.values())
    # The committee is in lockstep and a step is one round: each builds
    # one vote per distinct (member set, vote), the first one too.
    distinct = Counter(step for step, *_ in voted)
    counted = Counter(built)
    assert counted[1] == distinct[1] == 4
    assert len(distinct) > 1000
    assert all(counted[step] == distinct[step] for step in distinct)
