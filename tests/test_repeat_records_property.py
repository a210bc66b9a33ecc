"""A repeat is one record, and that is invisible.

A later sender of a fan-out that another sender of the round already
filed -- a committee member answering from the decision its view
shared, a member broadcasting the one announcement -- is filed by
``SyncNetwork.step`` as one record: its header, and for a scatter the
message tuple it repeats.  Its rows are resolved only when somebody
reads them.  The column as it was filled before, every repeat
extending ``hdr`` / ``msg`` by the rows it stands for, is kept here as
the oracle (:class:`EagerRound`), and nothing may tell the two apart:

- (a) on random rounds played through the engine
  (:func:`tests.support.play_round`) -- broadcasts, runs, scatters from
  a shared tuple, from a copy of it and from letters of their own,
  scatter repeats, multicast repeats, broadcasts of one message by
  several senders, held mail, faulted sends, links named twice --
  every link's inbox, attached or not and read in any order, gives the
  oracle's ``len``, envelopes, ``messages``, ``senders``, ``tally`` and
  ``distinct``; a row read through two views is one envelope on both
  sides, and held mail keeps the envelope it was stamped with;
- (b) white-box: in the paper-constant run at n = 96 an answer round's
  column holds at most n + committee records (committee x n = 9,216 at
  the parent), and stands for the rows it did.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.base import duplicate
from repro.sim.columnar import (
    ColumnarRound,
    LazyInbox,
    distinct,
    messages,
    sender_uids,
    senders,
    tally,
)
from repro.sim.messages import Broadcast, Envelope, Multicast, Scatter, Send
from tests import test_golden_digests as golden
from tests.support import play_round
from tests.test_blocks_property import Letter, _ids


class EagerRound(ColumnarRound):
    """The oracle: a repeat filed as every row it stands for."""

    def add_copies(self, header, messages, group):
        group.append(len(self.msg))
        self.hdr.extend([header] * len(messages))
        self.msg.extend(messages)


# ---------------------------------------------------------------------------
# (a) random rounds, every link


#: What a link proposes: a scatter from the pool's shared tuple, from a
#: copy of it and from letters of its own; the last unclaimed scatter or
#: run an earlier link proposed (a repeat); a run; a broadcast; the last
#: broadcast (a repeat); a one-send list; mail held from round 1; a
#: faulted run (filed send by send, its first link duplicated); nothing.
FILINGS = ("shared", "copied", "own", "repeat", "run", "broadcast",
           "rebroadcast", "single", "held", "faulted", "silent")

#: Every way of reading an inbox.
READS = ("len", "read", "messages", "senders", "sender_uids", "tally",
         "distinct")


@st.composite
def rounds(draw):
    n = draw(st.integers(1, 8))
    link = st.integers(0, n - 1)
    letters = [Letter(value) for value in range(draw(st.integers(1, 4)))]
    letter = st.sampled_from(letters)
    pool = [tuple(draw(st.lists(link, min_size=1, max_size=n + 2)))
            for _ in range(2)]
    answers = [[tuple(draw(st.lists(letter, min_size=len(targets),
                                    max_size=len(targets))))
                for _ in range(2)] for targets in pool]
    filings = draw(st.lists(st.tuples(
        st.sampled_from(FILINGS), st.integers(0, 1), st.integers(0, 1),
        letter, st.lists(link, max_size=n + 1), link,
        st.sampled_from([None, 70])), min_size=n, max_size=n))
    gone = draw(st.sets(link)) - {draw(link)}
    reads = draw(st.permutations([(to, how) for to in range(n + 1)
                                  for how in READS]))
    return n, pool, answers, filings, gone, reads


def _plan(n, pool, answers, filings, gone):
    """What each link proposes, and the oracle's calls in the order the
    engine files them: held mail first, then the senders ascending."""
    proposals, held, verdicts = {}, {}, {}
    releases, calls = [], []
    last = spoken = None  # (fan-out, its first call) of the last repeatable
    for sender, (kind, slot, which, letter, targets, to, claim) in enumerate(
            filings):
        header = (sender, 100 + sender, None)
        if kind == "held":  # stamped with its release round
            held[sender] = Multicast(targets or (to,), letter)
            releases += [(Envelope(sender, 2, letter, 100 + sender), to)
                         for to in targets or (to,) if to not in gone]
            continue
        if sender in gone or kind == "silent":
            continue
        if kind in ("shared", "copied", "own"):
            links = pool[slot] if which else list(pool[slot])
            replies = answers[slot][which]
            if kind == "copied":
                replies = tuple(list(replies))
            elif kind == "own":
                replies = tuple(Letter(10 + at) for at in range(len(links)))
            sends = Scatter(links, replies)
            last = sends, len(calls)
            calls.append(("scatter", header, sends.messages, sends.targets))
        elif kind in ("repeat", "rebroadcast"):
            repeated = last if kind == "repeat" else spoken
            if repeated is None:
                continue
            sends = repeated[0]
            calls.append(("repeat", header, repeated[1]))
        elif kind == "run" and targets:
            sends = Multicast(targets, letter, claim)
            if claim is None:
                last = sends, len(calls)
            else:
                header = (sender, claim, claim)
            calls.append(("run", (header, letter), sends.targets))
        elif kind == "broadcast":
            sends = Broadcast(n, letter)
            spoken = sends, len(calls)
            calls.append(("broadcast", (header, letter)))
        elif kind == "single":
            sends = [Send(to, letter, claim)]
            if claim is not None:
                header = (sender, claim, claim)
            calls.append(("run", (header, letter), (to,)))
        elif kind == "faulted":
            sends = Multicast(targets or (to,), letter)
            verdicts[sender] = {0: duplicate()}
            calls += [("run", (header, letter), (link,) * (1 + (at == 0)))
                      for at, link in enumerate(sends.targets)]
        else:
            continue
        proposals[sender] = sends
    return proposals, held, verdicts, releases, calls


def _fill(cls, releases, calls, envelopes):
    """Play ``calls`` into a fresh ``cls`` as the network files them,
    the held mail first as ``envelopes``, the engine's own instances."""
    column = cls(2)
    for (stamp, to), envelope in zip(releases, envelopes, strict=True):
        assert envelope == stamp
        column.add_run(envelope, (to,))
    filed = []  # what every call filed: (messages, group)
    for kind, *args in calls:
        if kind == "scatter":
            header, replies, links = args
            filed.append((replies, column.add_scatter(header, replies,
                                                      links)))
        elif kind == "run":
            row, targets = args
            filed.append(((row[1],), column.add_run(row, targets)))
        elif kind == "broadcast":
            filed.append(((args[0][1],), column.add_broadcast(args[0])))
        else:
            header, first = args
            column.add_copies(header, *filed[first])
            filed.append(None)
    return column


def _message_ids(read):
    """A tally: the message ids, sorted (commutative over rows)."""
    return tuple(sorted(map(id, read)))


def _read(column, to, how):
    """What reading ``to``'s inbox ``how`` gives, as comparable values
    (envelopes kept as objects, for the identity check)."""
    inbox = LazyInbox(column, to)
    if how == "len":
        return len(inbox)
    if how == "read":
        return tuple(inbox)
    if how == "messages":
        return _ids(messages(inbox))
    if how == "senders":
        return senders(inbox)
    if how == "sender_uids":
        return sender_uids(inbox)
    if how == "tally":
        counted, own = tally(inbox, _message_ids)
        return tuple(sorted([*counted, *map(id, own)]))
    return _ids(distinct(inbox))


def _stamp(envelope):
    return (envelope.sender, envelope.round_no, id(envelope.message),
            envelope.sender_uid, envelope.claimed_sender)


class TestRandomColumns:
    @settings(max_examples=400, deadline=None)
    @given(rounds())
    def test_every_read_equals_the_eager_rows(self, scenario):
        n, pool, answers, filings, gone, reads = scenario
        proposals, held, verdicts, releases, calls = _plan(
            n, pool, answers, filings, gone)
        column = play_round(proposals, n, held=held, gone=gone,
                            verdicts=verdicts)
        held_mail = [column.env[row] for row in sorted(column.env)]
        eager = _fill(EagerRound, releases, calls, held_mail)
        eager.attach(column._wanted)
        # One record per repeat, standing for the rows it repeats.
        assert len(column.hdr) == len(column.msg) <= len(eager.msg)
        assert len(column.hdr) + column.folded == len(eager.hdr)
        mine, theirs = {}, {}
        for to, how in reads:  # the column in any order, the oracle after
            mine[to, how] = _read(column, to, how)
        for to, how in reads:
            theirs[to, how] = _read(eager, to, how)
        held_ids = set(map(id, held_mail))
        pairs = {}
        for key, value in mine.items():
            if key[1] != "read":
                assert value == theirs[key], key
                continue
            assert list(map(_stamp, value)) == list(map(_stamp, theirs[key]))
            for envelope, oracle in zip(value, theirs[key]):
                pairs.setdefault(id(oracle), set()).add(id(envelope))
                # Held mail arrives as the envelope it was stamped with.
                assert id(oracle) not in held_ids or envelope is oracle
        # A row is one envelope on each side, whichever views read it.
        assert all(len(read) == 1 for read in pairs.values())
        assert len(set.union(set(), *pairs.values())) == len(pairs)

    def test_a_scatter_repeat_is_resolved_only_when_read(self):
        links = (2, 0, 2)  # link 2 is listed twice
        decision = (Letter(1), Letter(2), Letter(3))
        answer = Scatter(links, decision)
        column = play_round({0: answer, 1: answer,
                             2: Broadcast(3, Letter(4))}, 3)
        assert (len(column.hdr), column.folded) == (5, 2)
        assert distinct(LazyInbox(column, 2)) == (
            decision[0], decision[2], Letter(4))
        assert len(column.hdr) == 5  # `distinct` skips the repeat
        inbox = LazyInbox(column, 2)
        assert len(inbox) == 5 and len(column.hdr) == 5
        assert [(envelope.sender, envelope.message) for envelope in inbox] == [
            (0, decision[0]), (0, decision[2]), (1, decision[0]),
            (1, decision[2]), (2, Letter(4))]
        # Link 2's two rows of the repeat, appended as it read them.
        assert len(column.hdr) == 7
        assert senders(LazyInbox(column, 0)) == (0, 1, 2)
        assert len(column.hdr) == 8


# ---------------------------------------------------------------------------
# (b) white-box: an answer round is n + committee records


@pytest.fixture
def columns_of_a_run(monkeypatch):
    """Every round's column, in round order."""
    columns = []
    attach = ColumnarRound.attach

    class Recorded(ColumnarRound):
        def attach(self, alive):
            columns.append(self)
            return attach(self, alive)

    monkeypatch.setattr("repro.sim.network.ColumnarRound", Recorded)
    return columns


class TestPaperRun:
    def test_an_answer_round_holds_n_plus_committee_records(
            self, columns_of_a_run):
        n = 96
        result = golden.CASES["crash-paper-n96"]()
        assert golden.digest(result) == golden.GOLDEN["crash-paper-n96"]
        answers = [column for column in columns_of_a_run
                   if column.round_no % 3 == 0]
        assert len(answers) == 21
        for column in answers:
            committee = len({sender for sender, _, _ in column.hdr})
            assert committee == n  # the paper constant elects everyone
            assert len(column.hdr) == len(column.msg) <= n + committee
            # ... standing for what every member sent every reporter.
            assert len(column.hdr) + column.folded == committee * n
        # The announcements: one message object, n records.
        for column in columns_of_a_run[::3]:
            assert len(column.hdr) == len(column.b_seq) == n
            assert len({id(message) for message in column.msg}) == 1
