"""Columnar round representation — how every round is delivered.

The paper's model charges messages and bits, never the local work of
reading them, and its subquadratic-bits claim (PODC 2025) only
separates from quadratic baselines at n = 10k-100k.  An object per
delivered message cannot reach that scale: an all-to-all round would
cost ``n**2`` constructor calls even when every program ignores its
inbox.  So :meth:`repro.sim.network.SyncNetwork.step` stores a round's
delivery in a :class:`ColumnarRound`, in every configuration (observer,
profiler and fault model included), and a fan-out stays whole from
``yield`` to the inbox that reads it.

**Rows.**  A row is one sent message: a ``(header, message)`` pair,
``header = (sender, perceived uid, claim)``, appended in global send
order.  A :class:`~repro.sim.messages.Multicast` is one row however
many links it names, each maximal constant-``(message, claim)`` run of
a ``Send`` list is one row, a :class:`~repro.sim.messages.Scatter` is
one row per message, all under the sender's one header.  *An envelope
exists once somebody reads its row*: it is built on the first read and
kept on the row, so the same row read through two views -- or twice
through a duplicated link -- is the same immutable instance, and a row
nobody reads as an envelope never becomes one.  (Held mail arrives with
the envelope it was stamped with when it was held; such a row keeps
it.)

**Blocks and groups.**  Who reads a row is kept per fan-out, not per
delivery.  A whole-network fan-out is a *broadcast row* (``b_seq``) and
nothing else.  Any other delivery is a *block* ``(targets, first,
stride)`` filed under its target tuple: with stride 0 every target
reads row ``first`` (a multicast, a closed run, a faulted or released
single delivery), with stride 1 target ``i`` reads row ``first + i``
(a scatter); a link named twice reads once per listing.  Blocks
naming the same targets with the same stride form one *group*; a
committee answering from a shared decision, or reporters addressing the
committee tuple ``derive`` handed all of them, name the very same tuple
object, so a group is found by ``id(targets)`` first and by value only
on a miss.  An ``id`` names an object only while it is alive, and a
fill creates temporaries (a closed run's tuple, a released letter's
``(to,)``) whose ids the allocator would reuse within the same fill:
the column pins every tuple it has keyed by ``id`` until it dies
itself.  Link faults are blocks too: a dropped send files nothing, a
corrupted one a row carrying the bit-flipped message, a duplicated one
a block naming its link ``1 + copies`` times.

**Views.**  An inbox is made for a node the engine resumes (a node
parked on ``UNTIL_MAIL`` that no row names gets none), read per *view*,
and only when a program reads its inbox at the ``program.send()``
boundary.  The first read of a round walks each *distinct* target
tuple once -- a round in which every sender names the same committee
costs its size, not senders x size -- and notes for every attached
recipient the blocks it is in.  Recipients in the same stride-0
groups, as often, were delivered the same rows in the same order and
share one view; a scatter's recipient reads rows of
its own (``first + position`` per block) and so a view of its own.  A
view's rows, its envelope tuple (broadcast and targeted rows merged in
global send order) and its message tuple are each computed when first
asked for, once, whoever asks.  A :class:`LazyInbox` is a read-only
:class:`~collections.abc.Sequence` over its view whose ``len()`` is
answered from the block counts alone, so a listener polling an empty
inbox builds nothing.

**Reading without envelopes.**  A protocol that never looks at
``sender`` / ``sender_uid`` says so with :func:`messages`:
``messages(inbox)`` is the inbox's messages in delivery order, one
tuple per view, and no envelope is built for it.

**Reading once.**  A committee is a replicated object: every member
that received the same rows takes the same decision from them.
:func:`derive` lets a protocol say so: ``derive(inbox, fn, *args)`` is
``fn(envelopes, *args)``, computed once per ``(view, fn, args)`` and
kept on the round's :class:`ColumnarRound` -- it dies with the round;
there is no module-level cache.  The contract for what goes through it:

- ``fn`` is a module-level function, pure in ``(envelopes, args)``: no
  ``self``, no ``ctx.rng``, no node state.  ``args`` are hashable.
- its result is read-only (tuple / ``frozenset`` /
  ``MappingProxyType``), because the nodes of a view share it.
- a view with one reader caches nothing -- the value would only be
  retained, never reused (a mid-send crash round has nearly one view
  per recipient, each holding an O(n) table).
- a view holds no reference back to its column, so refcounting alone
  frees a round once its inboxes are dropped.

**Counting once.**  ``derive`` shares between the readers of one view,
and a mid-send crash leaves nearly one view per recipient: every view
holds the round's broadcast rows plus the few targeted rows of its own
-- what the <= f victims still got out.  A protocol whose rule is a
*tally*, commutative over rows, says so with :func:`tally`:
``tally(inbox, fn, *args)`` is ``(fn(common, *args), own)``, where
``common`` are the messages of the rows every view of the round reads
and ``own`` the messages of the inbox's other rows.  ``fn(common,
*args)`` is computed once per round (kept in the same memo, under the
view of those who read nothing else) and the caller folds ``own`` on
top, so an all-to-all round under crashes costs one tabulation plus its
crashes' rows, not one tabulation per recipient.  The contract is
``derive``'s, plus one clause:

- what the caller makes of ``(fn(common), own)`` equals what it would
  make of ``(fn(common + own in any order), ())`` -- nothing may depend
  on where a row stood in the inbox, nor on who sent it (a tally sees
  messages, and builds no envelope).

On any other sequence -- a test's list, the per-envelope oracle's inbox
-- ``derive`` is a plain call, ``messages`` a plain comprehension and
``tally`` the plain call over all the messages with nothing left to
fold, which makes ``ReferenceNetwork`` the unshared oracle for
everything read through them.  A program that calls none of them reads
the ``Sequence[Envelope]`` it always has.

Charging is not done here: the network charges every resolved send
while it fills the rows (one ``Metrics.record_sends`` per multicast,
one ``Metrics.flush`` per scatter or ``Send`` list).  Every counted
quantity is held to the naive per-envelope oracle ``ReferenceNetwork``
(``tests/test_fastpath_ab.py``, ``tests/test_columnar_property.py``,
``tests/test_multicast_property.py``,
``tests/test_shared_views_property.py``,
``tests/test_blocks_property.py``).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence, Set as AbstractSet
from typing import Callable, Optional, Union

from repro.sim.messages import Envelope, Message

#: What every row of one sender shares: (sender, perceived uid, claim).
Header = tuple[int, Optional[int], Optional[int]]


class _View:
    """One distinct inbox of a round: the blocks its readers are in --
    ``(first rows of a group's blocks, offset into each)`` pairs -- how
    many targeted rows that makes, how many attached recipients read it,
    and its rows, envelope tuple and message tuple once somebody asked.
    Plain data -- the column does the work, so a view never points back
    at it."""

    __slots__ = ("blocks", "size", "readers", "_rows", "envelopes",
                 "messages")

    def __init__(self, blocks: tuple[tuple[list[int], int], ...] = (),
                 readers: int = 0):
        self.blocks = blocks
        self.size = sum([len(firsts) for firsts, _ in blocks])
        self.readers = readers
        self._rows: Optional[tuple[int, ...]] = None
        self.envelopes: Optional[tuple[Envelope, ...]] = None
        self.messages: Optional[tuple[Message, ...]] = None

    @property
    def rows(self) -> tuple[int, ...]:
        """The targeted rows the view reads, ascending (a link named
        twice reads its row twice): the canonical name of the view."""
        rows = self._rows
        if rows is None:
            found = [first + offset
                     for firsts, offset in self.blocks for first in firsts]
            if len(self.blocks) > 1:
                found.sort()
            rows = self._rows = tuple(found)
        return rows


class ColumnarRound:
    """One round's delivery as rows, broadcast rows and blocks.

    Rows are appended by the network in *delivery order* (senders in
    ``delivered.items()`` order, runs in send order), so a row's index
    totally orders broadcast rows against targeted ones and a merged
    inbox lists its rows in global send order.
    """

    __slots__ = ("round_no", "hdr", "msg", "env", "b_seq", "_groups",
                 "_by_id", "_pinned", "_wanted", "_views", "_common",
                 "_memo", "__weakref__")

    def __init__(self, round_no: int = 0):
        self.round_no = round_no
        #: Per row: its header, its message, its envelope once read.
        self.hdr: list[Header] = []
        self.msg: list[Message] = []
        self.env: list[Optional[Envelope]] = []
        self.b_seq: list[int] = []
        #: (targets, stride) -> first rows of the group's blocks.
        self._groups: dict[tuple[tuple[int, ...], int], list[int]] = {}
        #: (id(targets), stride) -> the same lists; `_pinned` keeps
        #: every such `targets` alive, and so its id its own.
        self._by_id: dict[tuple[int, int], list[int]] = {}
        self._pinned: list[Sequence[int]] = []
        self._wanted: frozenset[int] = frozenset()
        self._views: Optional[dict[int, _View]] = None
        self._common: Optional[_View] = None
        #: (view, fn, args) -> what `derive` computed for the view, or
        #: `tally` for the common one.
        self._memo: dict = {}

    # ------------------------------------------------------------------
    # Filling (called by the network while it charges the ledgers)

    def _row(self, row: Union[tuple[Header, Message], Envelope]) -> int:
        """Append one row; returns its index."""
        if type(row) is Envelope:  # held mail: stamped when it was held
            header = (row.sender, row.sender_uid, row.claimed_sender)
            message, envelope = row.message, row
        else:
            header, message = row
            envelope = None
        self.hdr.append(header)
        self.msg.append(message)
        self.env.append(envelope)
        return len(self.env) - 1

    def _file(self, targets: Sequence[int], first: int,
              stride: int = 0) -> None:
        """File the block ``(targets, first, stride)`` under its group."""
        key = (id(targets), stride)
        firsts = self._by_id.get(key)
        if firsts is None:
            self._pinned.append(targets)
            firsts = self._by_id[key] = self._groups.setdefault(
                (tuple(targets), stride), [])
        firsts.append(first)

    def add_broadcast(self, row) -> None:
        """One whole-network fan-out: a single row, no block."""
        self.b_seq.append(self._row(row))

    def add_run(self, row, targets: Sequence[int]) -> None:
        """One row read by every link of ``targets`` (a repeated link
        reads it once more)."""
        self._file(targets, self._row(row))

    def add_scatter(self, header: Header, messages: Sequence[Message],
                    links: Sequence[int]) -> None:
        """One row per link: ``messages[k]`` is read by ``links[k]``."""
        first = len(self.env)
        self.hdr.extend([header] * len(messages))
        self.msg.extend(messages)
        self.env.extend([None] * len(messages))
        self._file(links, first, 1)

    def attach(self, alive: Iterable[int]) -> None:
        """Freeze the alive set: the links whose :class:`LazyInbox`
        reads this round.

        Messages addressed to links outside ``alive`` vanish (they were
        still charged).  An inbox is made where it is handed over, so a
        recipient nobody resumes costs nothing here.
        """
        self._wanted = frozenset(alive)

    def named(self, links: AbstractSet[int]) -> set[int]:
        """Those of ``links`` that some row of the round names.

        Any broadcast row names them all; otherwise one pass over the
        distinct target tuples, whatever number of blocks each holds.
        """
        if self.b_seq:
            return set(links)
        found: set[int] = set()
        for targets, _ in self._groups:
            found.update(links.intersection(targets))
        return found

    def attached_envelopes(self) -> int:
        """How many inbox entries the attached recipients would read.

        Counted from the groups; no inbox is materialized.
        """
        wanted = self._wanted
        return len(self.b_seq) * len(wanted) + sum(
            len(firsts) * sum([to in wanted for to in targets])
            for (targets, _), firsts in self._groups.items())

    # ------------------------------------------------------------------
    # Reading (lazy, per view)

    def _group(self) -> dict[int, _View]:
        """Attached recipient id -> its view, for every recipient some
        block names; the rest share ``_common``.

        Built once, on the first read of the round; a round nobody
        reads never pays for grouping.  Each distinct target tuple is
        walked once, whatever number of blocks it holds.  A recipient's
        key lists ``(group, offset)`` once per listing of its link, in
        group order: equal keys are the same rows in the same order.
        """
        wanted = self._wanted
        keys: dict[int, list[tuple[int, int]]] = defaultdict(list)
        groups = list(self._groups.items())
        for index, ((targets, stride), _) in enumerate(groups):
            for position, to in enumerate(targets):
                if to in wanted:
                    keys[to].append((index, stride * position))
        views: dict[int, _View] = {}
        by_key: dict[tuple, _View] = {}
        for recipient, entries in keys.items():
            key = tuple(entries)
            view = by_key.get(key)
            if view is None:
                view = by_key[key] = _View(tuple(
                    [(groups[index][1], offset) for index, offset in key]))
            view.readers += 1
            views[recipient] = view
        self._common = _View((), len(wanted) - len(views))
        self._views = views
        return views

    def view_of(self, recipient: int) -> _View:
        """The view ``recipient`` shares with every attached recipient
        of the same rows."""
        views = self._views
        if views is None:
            views = self._group()
        return views.get(recipient, self._common)

    def _rows_of(self, view: _View) -> Sequence[int]:
        """The view's rows, broadcast and targeted, in send order."""
        if not view.blocks:
            return self.b_seq
        if not self.b_seq:
            return view.rows
        # Two ascending runs: the sort is one linear merge.
        return sorted([*self.b_seq, *view.rows])

    def _build(self, rows: Sequence[int]) -> None:
        """Give each of ``rows`` its envelope, unless it has one."""
        env, hdr, msg, round_no = self.env, self.hdr, self.msg, self.round_no
        for row in rows:
            if env[row] is None:
                sender, uid, claim = hdr[row]
                env[row] = Envelope(sender, round_no, msg[row], uid, claim)

    def read(self, view: _View) -> tuple[Envelope, ...]:
        """The view's envelopes in global send order, built once per
        view; each is its row's own, built the first time any view
        reads the row."""
        envelopes = view.envelopes
        if envelopes is None:
            if view.blocks:
                # Every view reads every broadcast row: they are built
                # once, with the view of those who read nothing else.
                self.read(self._common)
                self._build(view.rows)
            else:
                self._build(self.b_seq)
            env = self.env
            envelopes = view.envelopes = tuple(
                [env[row] for row in self._rows_of(view)])
        return envelopes

    def messages(self, view: _View) -> tuple[Message, ...]:
        """The view's messages in global send order, built once per
        view; no envelope is."""
        messages = view.messages
        if messages is None:
            msg = self.msg
            messages = view.messages = tuple(
                [msg[row] for row in self._rows_of(view)])
        return messages


class LazyInbox(Sequence):
    """A recipient's inbox: its view, resolved on first read.

    Behaves exactly like a per-recipient envelope tuple in send order,
    except that the tuple and its envelopes are the view's own, shared
    with every other recipient of the same rows.
    """

    __slots__ = ("_column", "_recipient", "_view")

    def __init__(self, column: ColumnarRound, recipient: int):
        self._column = column
        self._recipient = recipient
        self._view: Optional[_View] = None

    def _resolve(self) -> _View:
        view = self._view
        if view is None:
            view = self._view = self._column.view_of(self._recipient)
        return view

    def _materialize(self) -> tuple[Envelope, ...]:
        return self._column.read(self._resolve())

    def __len__(self) -> int:
        # From the counts: an idle listener builds no envelope list.
        return len(self._column.b_seq) + self._resolve().size

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        view = self._view
        state = ("unread" if view is None or view.envelopes is None
                 else f"{len(view.envelopes)} envelopes")
        return f"LazyInbox(to={self._recipient}, {state})"


def derive(inbox: Sequence[Envelope], fn: Callable, *args):
    """``fn(envelopes, *args)``, computed once per distinct inbox.

    On a :class:`LazyInbox` the value is memoised per ``(view, fn,
    args)`` on the round's column, so the nodes of a view share one
    computation and one (read-only) result; a view with a single reader
    caches nothing.  On any other sequence it is a plain call.  See the
    module docstring for what ``fn`` must promise.
    """
    if type(inbox) is not LazyInbox:
        return fn(inbox, *args)
    column = inbox._column
    view = inbox._resolve()
    if view.readers < 2:
        return fn(column.read(view), *args)
    memo = column._memo
    key = (view, fn, args)
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = fn(column.read(view), *args)
        return value


def tally(inbox: Sequence[Envelope], fn: Callable, *args
          ) -> tuple[object, Sequence[Message]]:
    """``(fn(common, *args), own)`` for a rule commutative over rows.

    On a :class:`LazyInbox`, ``common`` is the messages of the rows
    every view of the round reads -- ``fn(common, *args)`` is computed
    once per round and ``(fn, args)``, memoised on the column under the
    common view -- and ``own`` the messages of the inbox's targeted
    rows, for the caller to fold on top: O(own) per reader.  On any
    other sequence it is ``fn`` of all the messages and nothing to
    fold.  No envelope is built.  See the module docstring for what
    ``fn`` and the caller must promise.
    """
    if type(inbox) is not LazyInbox:
        return fn(messages(inbox), *args), ()
    column = inbox._column
    view = inbox._resolve()
    common = column._common
    memo = column._memo
    key = (common, fn, args)
    try:
        counted = memo[key]
    except KeyError:
        counted = memo[key] = fn(column.messages(common), *args)
    if not view.blocks:
        return counted, ()
    msg = column.msg
    return counted, [msg[row] for row in view.rows]


def messages(inbox: Sequence[Envelope]) -> tuple[Message, ...]:
    """The inbox's messages in delivery order, for a protocol that
    never reads ``sender`` / ``sender_uid``.

    On a :class:`LazyInbox` it is one tuple per view and no envelope is
    built for it; on any other sequence it is ``tuple(e.message for e
    in inbox)``.
    """
    if type(inbox) is not LazyInbox:
        return tuple([envelope.message for envelope in inbox])
    return inbox._column.messages(inbox._resolve())
