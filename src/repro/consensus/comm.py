"""Lockstep communication between committee members.

All correct committee members execute the identical sequence of
subprotocol steps (Lemma 3.8 guarantees their segment stacks stay in
sync), so each communication step can be identified by a monotone
sequence number.  :class:`CommitteeComm` owns that counter, the
member's committee view, and the Byzantine bound ``b_max`` the
threshold logic depends on; :func:`exchange` performs one
broadcast-to-view round and collects, per view member, the first
well-formed vote for the current step.

An honest vote round is one fan-out per member; members of one view
(one :func:`members_of` set) that vote alike yield one ``Multicast`` of
one :class:`SubVote`, kept on that set for the step.  Byzantine
strategies hook :attr:`CommitteeComm.outgoing_value` to equivocate (send
different values to different receivers); only they pay per link.

Reading is replicated too.  Members that were delivered the same rows
hold the same votes, so :meth:`CommitteeComm.collect` goes through
:func:`repro.sim.columnar.derive`: the vote table of a step is computed
once per distinct inbox -- per ``(view, step, kind, members)``, from its
rows -- and the members of that view share one read-only mapping; so
does :meth:`CommitteeComm.tally`, the plurality of such a table, which
reads the inbox as :func:`~repro.sim.columnar.runs`: the members that
repeat one vote are one run, its senders counted at once, so a lockstep
round's tally costs its distinct votes, not its members.  What
varies between members (the step a desynchronised Byzantine member
believes in, its committee view) is an argument, never hidden state; an
equivocator or withholder splits the committee into several views, each
still computed once.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.sim.columnar import derive, messages, runs, senders
from repro.sim.messages import (
    CostModel,
    Envelope,
    Message,
    Send,
    multicast,
    record,
)


@record
class SubVote(Message):
    """One vote inside an in-committee subprotocol.

    ``step`` identifies the communication step (stale or replayed votes
    are ignored by receivers); ``kind`` names the subprotocol round;
    ``width`` is the payload's bit width under the cost model, declared
    by the sender and identical at every correct node because it is a
    function of public parameters only.
    """

    step: int
    kind: str
    value: object
    width: int

    def payload_bits(self, cost: CostModel) -> int:
        # payload + step counter framing; the kind tag rides in the header.
        return self.width + 2 * cost.counter_bits


class CommitteeComm:
    """One committee member's view of in-committee communication."""

    def __init__(self, view: Iterable[int], b_max: int):
        members = view if type(view) is _Members else members_of(view)
        self._members, self.view = members, members.links
        if b_max < 0:
            raise ValueError(f"b_max must be >= 0, got {b_max}")
        self.b_max = b_max
        self.step = 0

    #: The hook for equivocators: ``outgoing_value(kind, value,
    #: receiver)`` is the value actually sent to ``receiver``.  A
    #: subclass overrides it as a method, or an instance is given one;
    #: ``None`` sends ``value`` to every view member.
    outgoing_value: Optional[Callable[[str, object, int], object]] = None

    def sends(self, kind: str, value: object, width: int) -> Sequence[Send]:
        """This step's vote to every view member.

        Without an :attr:`outgoing_value` hook: one :class:`SubVote`
        multicast to the view, in :attr:`kept` (one per member set and
        distinct vote).  With one, the hook is called per link, in link
        order; links that get the same value share one ``SubVote``.
        Either way ``1`` and ``True`` stay apart (the key holds the
        type), and an unhashable value is never shared.
        """
        step = self.step
        hook = self.outgoing_value  # one test: the class's or instance's
        if hook is None:
            members = self._members  # this step's `kept`: no call
            kept = members.kept if members.step == step else self.kept
            key = (step, kind, type(value), value, width)
            try:
                return kept[key]
            except KeyError:
                vote = kept[key] = multicast(
                    self.view, SubVote(step, kind, value, width))
                return vote
            except TypeError:  # unhashable: no key to share it under
                return multicast(self.view, SubVote(step, kind, value, width))
        votes: dict[tuple[type, object], SubVote] = {}
        out = []
        for link in self.view:
            sent = hook(kind, value, link)
            key = (type(sent), sent)
            try:
                vote = votes[key]
            except KeyError:
                vote = votes[key] = SubVote(step, kind, sent, width)
            except TypeError:
                vote = SubVote(step, kind, sent, width)
            out.append(Send(link, vote))
        return out

    def collect(self, inbox: Sequence[Envelope], kind: str
                ) -> Mapping[int, object]:
        """First well-formed vote per view member for the current step.

        Lemma 3.8 keeps the committee in lockstep on the same votes, so
        members that received the same rows share one (read-only)
        mapping, computed once (:func:`repro.sim.columnar.derive`).
        """
        return derive(inbox, _collect, self.step, kind, self._members)

    def tally(self, inbox: Sequence[Envelope], kind: str,
              without: object = None) -> tuple[int, object, int]:
        """``(votes heard, plurality value, its count)`` of the current
        step; votes equal to ``without`` (``None``: no such votes) are
        heard but not counted for a value, and ``(heard, None, 0)`` is
        what remains of nothing.  Like :meth:`collect`, once per
        distinct inbox."""
        return derive(inbox, _tally, self.step, kind, self._members,
                      without)

    @property
    def kept(self) -> dict:
        """What the members of this comm's view build alike at the
        current step -- its votes, the distribution -- kept on their one
        member set and emptied when a member asks at a new step."""
        members = self._members
        if members.step != self.step:
            members.step, members.kept = self.step, {}
        return members.kept


class _Members(frozenset):
    """A view's members (a ``derive`` key hashed once), its sorted tuple,
    and what its members build alike at ``step`` (``kept``)."""

    __slots__ = ("links", "step", "kept")


def members_of(view: Iterable[int]) -> _Members:
    """``view``'s member set and sorted links (``view`` itself if it is
    that tuple): made once per derived view, one object for its comms."""
    links = tuple(sorted(set(view)))
    if not links:
        raise ValueError("committee view must not be empty")
    members = _Members(links)
    members.links = view if links == view else links
    members.step, members.kept = 0, {}
    return members


def _collect(inbox: Sequence[Envelope], step: int, kind: str,
             members: frozenset[int]) -> Mapping[int, object]:
    """``sender link -> value`` of the first ``kind`` vote of ``step``
    from each of ``members``; pure in its arguments."""
    votes: dict[int, object] = {}
    for sender, message in zip(senders(inbox), messages(inbox)):
        if (
            isinstance(message, SubVote)
            and message.step == step
            and message.kind == kind
            and sender in members
            and sender not in votes
        ):
            votes[sender] = message.value
    return MappingProxyType(votes)


def _tally(inbox: Sequence[Envelope], step: int, kind: str,
           members: frozenset[int], without: object
           ) -> tuple[int, object, int]:
    """:func:`plurality` over the first ``kind`` vote of ``step`` from
    each of ``members`` other than ``without``, and how many votes there
    were; pure in its arguments.

    The inbox is read as :func:`~repro.sim.columnar.runs`: the members
    that repeat one vote are one run, and a run's senders not heard yet
    are counted at once, so a lockstep round costs its distinct votes,
    not its members.  Folding the runs in order is folding the rows:
    :func:`_collect`'s first vote per member, then :func:`plurality`.
    """
    heard: set[int] = set()
    counts: dict[object, int] = {}
    for message, sent_by in runs(inbox):
        if (
            isinstance(message, SubVote)
            and message.step == step
            and message.kind == kind
        ):
            new = members.intersection(sent_by)
            if heard:
                new -= heard
            if new:
                heard |= new
                value = message.value
                if without is None or value != without:
                    counts[value] = counts.get(value, 0) + len(new)
    if not counts:
        return len(heard), None, 0
    if len(counts) == 1:  # one value: no tie to break
        (value, count), = counts.items()
        return len(heard), value, count
    return (len(heard), *_most(counts))


def exchange(comm: CommitteeComm, kind: str, value: object, width: int):
    """One synchronous all-to-view vote round (generator sub-program).

    Yields the member's sends for this round and returns the mapping
    ``sender link -> value`` of votes received from its view.
    """
    comm.step += 1
    inbox = yield comm.sends(kind, value, width)
    return comm.collect(inbox, kind)


def plurality(votes: Iterable[object]) -> tuple[object, int]:
    """The most frequent value and its count, with a deterministic
    tie-break (lexicographic on ``repr``) so replays are stable."""
    counts: dict[object, int] = {}
    for value in votes:
        counts[value] = counts.get(value, 0) + 1
    if not counts:
        raise ValueError("no votes to take a plurality of")
    return _most(counts)


def _most(counts: Mapping[object, int]) -> tuple[object, int]:
    """The tie-break of :func:`plurality` over ``value -> count``."""
    return min(counts.items(), key=lambda item: (-item[1], repr(item[0])))
