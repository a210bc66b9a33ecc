"""Lockstep communication between committee members.

All correct committee members execute the identical sequence of
subprotocol steps (Lemma 3.8 guarantees their segment stacks stay in
sync), so each communication step can be identified by a monotone
sequence number.  :class:`CommitteeComm` owns that counter, the
member's committee view, and the Byzantine bound ``b_max`` the
threshold logic depends on; :func:`exchange` performs one
broadcast-to-view round and collects, per view member, the first
well-formed vote for the current step.

An honest vote round is one fan-out: one :class:`SubVote` multicast to
the view.  Byzantine strategies hook :meth:`CommitteeComm.outgoing_value`
to equivocate (send different values to different receivers) without
having to re-implement the lockstep schedule; only they pay per link.

Reading is replicated too.  Members that were delivered the same rows
hold the same votes, so :meth:`CommitteeComm.collect` goes through
:func:`repro.sim.columnar.derive`: the vote table of a step is computed
once per distinct inbox -- per ``(view, step, kind, members)`` -- and
the members of that view share one read-only mapping; so does
:meth:`CommitteeComm.tally`, the plurality of such a table.  What varies
between members (the step a desynchronised Byzantine member believes in,
its committee view) is an argument, never hidden state; an equivocator
or withholder splits the committee into several views, each still
computed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from repro.sim.columnar import derive
from repro.sim.messages import CostModel, Envelope, Message, Send, multicast


@dataclass(frozen=True)
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
        self.view = tuple(sorted(set(view)))
        if not self.view:
            raise ValueError("committee view must not be empty")
        self._members = frozenset(self.view)
        if b_max < 0:
            raise ValueError(f"b_max must be >= 0, got {b_max}")
        self.b_max = b_max
        self.step = 0

    def outgoing_value(self, kind: str, value: object, receiver: int) -> object:
        """The value actually sent to ``receiver`` (hook for equivocators)."""
        return value

    def sends(self, kind: str, value: object, width: int) -> Sequence[Send]:
        """This step's vote to every view member.

        Without an :meth:`outgoing_value` override: one
        :class:`SubVote` multicast to the view.  With one, the hook is
        called per link, in link order; links that get the same value
        share one ``SubVote`` (``1`` and ``True`` stay apart: the key
        holds the type), an unhashable value gets an object per link.
        """
        step = self.step
        hook = self.outgoing_value
        if getattr(hook, "__func__", None) is CommitteeComm.outgoing_value:
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
        return derive(inbox, _tally, self.step, kind, self._members, without)


def _collect(envelopes: Sequence[Envelope], step: int, kind: str,
             members: frozenset[int]) -> Mapping[int, object]:
    """``sender link -> value`` of the first ``kind`` vote of ``step``
    from each of ``members``; pure in its arguments."""
    votes: dict[int, object] = {}
    for envelope in envelopes:
        message = envelope.message
        if (
            isinstance(message, SubVote)
            and message.step == step
            and message.kind == kind
            and envelope.sender in members
            and envelope.sender not in votes
        ):
            votes[envelope.sender] = message.value
    return MappingProxyType(votes)


def _tally(envelopes: Sequence[Envelope], step: int, kind: str,
           members: frozenset[int], without: object
           ) -> tuple[int, object, int]:
    """:func:`plurality` over :func:`_collect`'s votes other than
    ``without``, and how many votes there were; pure in its arguments."""
    votes = _collect(envelopes, step, kind, members).values()
    counted = (votes if without is None
               else [value for value in votes if value != without])
    if not counted:
        return len(votes), None, 0
    return (len(votes), *plurality(counted))


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
    best = min(counts.items(), key=lambda item: (-item[1], repr(item[0])))
    return best[0], best[1]
