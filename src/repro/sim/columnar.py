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
one row per message, all under the sender's one header -- except for a
*repeat*, a later sender of the same fan-out, which is one record: its
header, and a scatter's the message tuple it repeats, whose rows are
resolved only when read, each a row of its own in the repeat's place
in send order (the tuple's message at its offset).  *An envelope
exists once somebody reads its row*: it is built on the first read and
kept in the column's sparse ``env`` (row -> envelope), so the same row
read through two views -- or twice through a duplicated link -- is the
same immutable instance, and a row nobody reads as an envelope (a
scatter's answers, read through :func:`distinct`) never gets one, nor
a slot.  (Held mail arrives with the envelope it was stamped with when
it was held; such a row keeps it.)

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
itself.  Each ``add_*`` returns its group (``b_seq`` for a broadcast
row); a repeat is one record the network's charge loop appends there
unfiled, its header in ``hdr`` and its message (a scatter's tuple) in
``msg``, a scatter's rows beyond one counted in ``folded``.
Link faults are blocks too: a dropped send files nothing, a corrupted
one a row carrying the bit-flipped message, a duplicated one a block
naming its link ``1 + copies`` times.

**Views.**  An inbox is made for a node the engine resumes (a node
parked on ``UNTIL_MAIL`` that no row names gets none), read per *view*,
and only when a program reads its inbox at the ``program.send()``
boundary.  The first read of a round sorts the attached recipients
into classes by the blocks they are in, walking each *distinct* target
tuple once -- a round in which every sender names the same committee
costs its size, not senders x size -- or none at all when the round's
``(targets, stride)`` keys, its *shape*, and alive set equal those of
one of the run's last few groupings, whose classes the network keeps
per shape (never a column or a view): a lockstep vote round reuses the
one before, and the crash algorithm's three alternating rounds reuse
theirs from the phase before.  Recipients in the same stride-0 groups,
as often, were delivered the same rows in the same order and share one
view; a scatter's recipient reads rows of its own
(``first + position`` per block) and so a view of its own.  A
view's rows, its envelope tuple (broadcast and targeted rows merged in
global send order) and its message tuple are each computed when first
asked for, once, whoever asks.  A :class:`LazyInbox` is a read-only
:class:`~collections.abc.Sequence` over its view whose ``len()`` is
answered from the block counts alone, so a listener polling an empty
inbox builds nothing.

**Reading without envelopes.**  A protocol that never looks at
``sender`` / ``sender_uid`` says so with :func:`messages`:
``messages(inbox)`` is the inbox's messages in delivery order, one
tuple per view, and no envelope is built for it; :func:`senders` and
:func:`sender_uids` are the same rows' sender links and perceived
identities.  A rule that also ignores repeats (a min,
a max, a flag) reads :func:`distinct`: the message *objects*, each
once, in order of first occurrence; a repeat is the same object, never
an equal one.  It reads by position, from a ``recipient -> rows`` index
the round's first ``distinct`` builds in one pass over the groups --
no view -- which leaves out a scatter's block whose message tuple an
earlier block of its group carried (another member answering from the
decision ``derive`` shared).  A rule that folds rows in order but reads
only who sent what reads :func:`runs`: ``(message, senders)`` per
stretch of rows carrying one message object -- on a scatter recipient's
inbox, the group's stretches found once per round, so the members that
repeat one ``Scatter`` are one run and no repeat is resolved.

**Reading once.**  A committee is a replicated object: every member
that received the same rows takes the same decision from them.
:func:`derive` lets a protocol say so: ``derive(inbox, fn, *args)`` is
``fn(inbox, *args)``, computed once per ``(view, fn, args)`` and kept
on the round's :class:`ColumnarRound` -- it dies with the round; there
is no module-level cache.  ``fn`` reads the inbox as it likes, through
another ``derive`` too.  The contract for what goes through it:

- ``fn`` is a module-level function, pure in ``(inbox, args)``: no
  ``self``, no ``ctx.rng``, no node state.  ``args`` are hashable.
- its result is read-only (tuple / ``frozenset`` /
  ``MappingProxyType``), because the nodes of a view share it, and
  holds no reference to the inbox.
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
-- ``derive`` is a plain call, ``messages`` a plain comprehension
(``distinct`` its identity dedupe) and ``tally`` the plain call over
all the messages with nothing left to fold, which makes
``ReferenceNetwork`` the unshared oracle for everything read through
them.  A program that calls none of them reads the
``Sequence[Envelope]`` it always has.

Charging is not done here: the network sums every resolved send while
it fills the rows and advances the ledgers once per round (one
``Metrics.flush``; a faulted sender's sends one ``record_send`` each).
Every counted quantity is held to the naive per-envelope oracle
``ReferenceNetwork`` (``tests/test_fastpath_ab.py``,
``tests/test_columnar_property.py``, ``tests/test_multicast_property.py``,
``tests/test_shared_views_property.py``, ``tests/test_blocks_property.py``).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence, Set as AbstractSet
from typing import Callable, Optional, Union

from repro.sim.messages import Envelope, Message

#: What every row of one sender shares: (sender, perceived uid, claim).
Header = tuple[int, Optional[int], Optional[int]]

#: How many round shapes' groupings a run keeps (``ColumnarRound._group``).
KEPT_SHAPES = 4


class _View:
    """One distinct inbox of a round: the blocks its readers are in --
    ``(first rows of a group's blocks, offset into each)`` pairs -- how
    many targeted rows that makes, how many attached recipients read it,
    its rows, envelope tuple and message tuple once somebody asked, and
    the ``(fn, args, value)`` a ``derive`` of it computed or found last.
    Plain data -- the column does the work, so a view never points back
    at it."""

    __slots__ = ("blocks", "size", "readers", "_rows", "envelopes",
                 "messages", "last")

    def __init__(self, blocks: tuple, readers: int):
        self.blocks = blocks
        self.size = sum([len(firsts) for firsts, _ in blocks])
        self.readers = readers
        self._rows: Optional[tuple[int, ...]] = None
        self.envelopes: Optional[tuple[Envelope, ...]] = None
        self.messages: Optional[tuple[Message, ...]] = None
        self.last: Optional[tuple] = None

    @property
    def rows(self) -> tuple[int, ...]:
        """The targeted rows the view reads, ascending (a link named
        twice reads its row twice): the canonical name of the view
        (:meth:`ColumnarRound._targeted` resolves a repeat's)."""
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

    __slots__ = ("round_no", "hdr", "msg", "env", "b_seq", "folded",
                 "_groups", "_by_id", "_pinned", "_once", "_index",
                 "_place", "_wanted", "_views", "_common", "_memo",
                 "_runs", "_kept", "__weakref__")

    def __init__(self, round_no: int = 0, kept: Optional[list] = None):
        self.round_no = round_no
        self._kept = kept or [None, {}, None]  # the run's, for `_group`
        #: Per record: its header and its message (a scatter repeat's
        #: tuple, ``folded`` rows more); row -> its envelope, for the
        #: rows read as envelopes and held mail only.
        self.hdr: list[Header] = []
        self.msg: list[Union[Message, tuple[Message, ...]]] = []
        self.env: dict[int, Envelope] = {}
        self.b_seq: list[int] = []
        self.folded = 0
        #: (targets, stride) -> first rows of the group's blocks.
        self._groups: dict[tuple[tuple[int, ...], int], list[int]] = {}
        #: (id(targets), stride) -> the same lists; `_pinned` keeps
        #: every such `targets` alive, and so its id its own.
        self._by_id: dict[tuple[int, int], list[int]] = {}
        self._pinned: list[Sequence] = []
        #: id(a scatter group's list) -> {id(message tuple): its first
        #: block}, the blocks `distinct` reads; `_pinned` holds the tuples.
        self._once: dict[int, dict[int, int]] = {}
        #: Attached recipient -> the rows `distinct` reads for it.
        self._index: Optional[dict[int, list[int]]] = None
        #: A resolved row -> the (repeat record, offset) it stands for.
        self._place: dict[int, tuple[int, int]] = {}
        self._wanted: frozenset[int] = frozenset()
        self._views: Optional[dict[int, _View]] = None
        self._common: Optional[_View] = None
        #: id(a group's list) -> its runs, once `runs` asked for them.
        self._runs: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        #: (view, fn, args) -> what `derive` computed for the view, or
        #: `tally` for the common one.
        self._memo: dict = {}

    # ------------------------------------------------------------------
    # Filling (called by the network while it charges the ledgers)

    def _row(self, row: Union[tuple[Header, Message], Envelope]) -> int:
        """Append one row; returns its index."""
        index = len(self.msg)
        if type(row) is Envelope:  # held mail: stamped when it was held
            header = (row.sender, row.sender_uid, row.claimed_sender)
            message = row.message
            self.env[index] = row
        else:
            header, message = row
        self.hdr.append(header)
        self.msg.append(message)
        return index

    def _file(self, targets: Sequence[int], first: int,
              stride: int = 0) -> list[int]:
        """File the block ``(targets, first, stride)``; returns its group."""
        key = (id(targets), stride)
        firsts = self._by_id.get(key)
        if firsts is None:
            self._pinned.append(targets)
            firsts = self._by_id[key] = self._groups.setdefault(
                (tuple(targets), stride), [])
        firsts.append(first)
        return firsts

    def add_broadcast(self, row) -> list[int]:
        """One whole-network fan-out: a single row, no block."""
        self.b_seq.append(self._row(row))
        return self.b_seq

    def add_run(self, row, targets: Sequence[int]) -> list[int]:
        """One row read by every link of ``targets`` (a repeated link
        reads it once more)."""
        return self._file(targets, self._row(row))

    def add_scatter(self, header: Header, messages: Sequence[Message],
                    links: Sequence[int]) -> list[int]:
        """One row per link: ``messages[k]`` is read by ``links[k]``."""
        first = len(self.msg)
        self.hdr.extend([header] * len(messages))
        self.msg.extend(messages)
        firsts = self._file(links, first, 1)
        self._once.setdefault(id(firsts), {}).setdefault(id(messages), first)
        self._pinned.append(messages)
        return firsts

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

        Built once, on the first read of the round; a round nobody reads
        pays nothing.  The classes depend only on the round's shape --
        its groups' ``(targets, stride)`` keys, in order -- and on the
        alive set, so the run keeps the last :data:`KEPT_SHAPES` shapes'
        classes (``_kept``, the network's ``[alive set, {shape:
        classes}, (last shape read, its classes)]``, emptied when the
        alive set changes): a round of a kept shape -- the crash
        algorithm's three rounds alternate three -- only makes its
        views.
        """
        wanted = self._wanted
        kept = self._kept
        if kept[0] is not wanted:
            kept[:] = wanted, {}, None
        shape = tuple(self._groups)
        last = kept[2]
        if last is not None and last[0] == shape:
            # The shape of the last round read: compared by identity
            # first, element by element, where hashing would walk it.
            classes = last[1]
        else:
            shapes = kept[1]
            classes = shapes.get(shape)
            if classes is None:
                classes = self._classes(shape)
                if len(shapes) >= KEPT_SHAPES:
                    del shapes[next(iter(shapes))]
                shapes[shape] = classes
            kept[2] = shape, classes
        groups = list(self._groups.values())
        views: dict[int, _View] = {}
        for key, recipients in classes.items():
            view = _View(tuple([(groups[index], offset)
                                for index, offset in key]), len(recipients))
            if len(recipients) == 1:
                views[recipients[0]] = view
            else:
                views.update(dict.fromkeys(recipients, view))
        self._common = _View((), len(wanted) - len(views))
        self._views = views
        return views

    def _classes(self, shape: tuple) -> dict[tuple, list[int]]:
        """The attached recipients of a round of ``shape``, by the rows
        they read: one walk of each target tuple.  A recipient's key
        lists ``(group, offset)`` per listing of its link, in group
        order: equal keys are the same rows in the same order, one
        class."""
        wanted = self._wanted
        keys: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for index, (targets, stride) in enumerate(shape):
            for position, to in enumerate(targets):
                if to in wanted:
                    keys[to].append((index, stride * position))
        classes: dict[tuple, list[int]] = {}
        for recipient, entries in keys.items():
            classes.setdefault(tuple(entries), []).append(recipient)
        return classes

    def view_of(self, recipient: int) -> _View:
        """The view ``recipient`` shares with every attached recipient
        of the same rows."""
        views = self._views
        if views is None:
            views = self._group()
        return views.get(recipient, self._common)

    def _targeted(self, view: _View) -> tuple[int, ...]:
        """``view.rows``, a repeat record's resolved first: in a round
        with one, each ``(record, offset)`` it reads is a row of its own
        (:meth:`_resolve`), put in send order by :meth:`_order`."""
        if self.folded and view._rows is None:
            msg, resolve = self.msg, self._resolve
            view._rows = tuple(sorted([
                first + offset if type(msg[first]) is not tuple
                else resolve(first, offset)
                for firsts, offset in view.blocks for first in firsts],
                key=self._order))
        return view.rows

    def _resolve(self, record: int, offset: int) -> int:
        """Append the row of repeat ``record`` at ``offset`` (one link,
        so one view, reads it): the message its tuple holds there."""
        row = self._row((self.hdr[record], self.msg[record][offset]))
        self._place[row] = (record, offset)
        return row

    def _order(self, row: int) -> tuple[int, ...]:
        """Where ``row`` was sent: a resolved row at its record."""
        return self._place.get(row, (row,))

    def _rows_of(self, view: _View) -> Sequence[int]:
        """The view's rows, broadcast and targeted, in send order."""
        if not view.blocks:
            return self.b_seq
        rows = self._targeted(view)
        if not self.b_seq:
            return rows
        # Two ascending runs: the sort is one linear merge.
        return sorted([*self.b_seq, *rows],
                      key=self._order if self.folded else None)

    def _build(self, rows: Sequence[int]) -> None:
        """Give each of ``rows`` its envelope, unless it has one."""
        env, hdr, msg, round_no = self.env, self.hdr, self.msg, self.round_no
        for row in rows:
            if row not in env:
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
                self._build(self._targeted(view))
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

    def _group_runs(self, firsts: list[int]
                   ) -> list[tuple[int, tuple[int, ...]]]:
        """The blocks of group ``firsts`` as runs, once per round: one
        ``(first block, sender links)`` per stretch of consecutive
        blocks that carry one message object -- one message tuple in a
        scatter's group, its first sender's rows and every repeat of it
        -- so a reader at any offset of the group reads one run per
        distinct fan-out, not one row per sender."""
        runs = self._runs.get(id(firsts))
        if runs is None:
            hdr, msg = self.hdr, self.msg
            once = self._once.get(id(firsts))
            if once is None:  # not a scatter's: a block is one message
                message = msg[firsts[0]]
                for first in firsts:
                    if msg[first] is not message:
                        break
                else:  # one fan-out and its repeats -- a lockstep vote
                    runs = self._runs[id(firsts)] = [(firsts[0], tuple(
                        [hdr[first][0] for first in firsts]))]
                    return runs
            # A scatter's first block -> id of its message tuple.
            carried = {first: key for key, first in (once or {}).items()}
            runs = self._runs[id(firsts)] = []
            last = stretch = None
            for first in firsts:
                item = msg[first]
                carrier = (id(item) if type(item) is tuple or not carried
                           else carried.get(first, -1 - first))
                if carrier != last:
                    last, stretch = carrier, []
                    runs.append((first, stretch))
                stretch.append(hdr[first][0])
            runs[:] = [(first, tuple(stretch)) for first, stretch in runs]
        return runs

    def _by_recipient(self) -> dict[int, list[int]]:
        """Attached recipient id -> the targeted rows :func:`distinct`
        reads (a scatter group's first block per message tuple), in
        group order: one pass over the round's groups, no view."""
        index = self._index
        if index is None:
            wanted, once = self._wanted, self._once
            index = self._index = defaultdict(list)
            for (targets, stride), firsts in self._groups.items():
                kept = once.get(id(firsts))
                if kept is not None:
                    firsts = list(kept.values())
                if len(firsts) == 1:
                    # One kept block -- every member answered from one
                    # decision: one row per listing.
                    first, = firsts
                    for position, to in enumerate(targets):
                        if to in wanted:
                            index[to].append(first + stride * position)
                    continue
                for position, to in enumerate(targets):
                    if to in wanted:
                        offset = stride * position
                        index[to] += [first + offset for first in firsts]
        return index


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
    """``fn(inbox, *args)``, computed once per distinct inbox.

    On a :class:`LazyInbox` the value is memoised per ``(view, fn,
    args)`` on the round's column, so the nodes of a view share one
    computation and one (read-only) result; a view with a single reader
    caches nothing.  On any other sequence it is a plain call.  See the
    module docstring for what ``fn`` must promise.
    """
    if type(inbox) is not LazyInbox:
        return fn(inbox, *args)
    view = inbox._view
    if view is None:  # `LazyInbox._resolve`, inline: the first read
        column = inbox._column
        views = column._views
        if views is None:
            views = column._group()
        view = inbox._view = views.get(inbox._recipient, column._common)
    if view.readers < 2:
        return fn(inbox, *args)
    last = view.last  # the view's readers ask alike: no key to hash
    if last is not None and last[0] is fn and last[1] == args:
        return last[2]
    memo = inbox._column._memo
    key = (view, fn, args)
    try:
        value = memo[key]
    except KeyError:
        value = memo[key] = fn(inbox, *args)
    view.last = fn, args, value
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
    return counted, [msg[row] for row in column._targeted(view)]


def runs(inbox: Sequence[Envelope]
         ) -> list[tuple[Message, tuple[int, ...]]]:
    """The inbox's rows as runs, in delivery order: ``(message,
    senders)`` per stretch of consecutive rows that carry one message
    object, ``senders`` their sender links in order.

    For a rule that folds rows one by one and reads a row's sender and
    message only: folding the runs in order, each run's senders at once,
    is folding the rows.  On a :class:`LazyInbox` whose view reads one
    group at one offset and no broadcast row -- a scatter's recipient,
    the committee's distribution -- the runs are the group's
    (:meth:`ColumnarRound._group_runs`, once per round) read at the
    view's offset: O(distinct fan-outs) per reader, no row resolved, no
    envelope built.  Any other inbox is read row by row: at f > 0 the
    withholders give each committee member a view of its own, so a
    distribution reader's view holds one group per member and one row
    per group, and its rows are its runs.
    """
    if type(inbox) is LazyInbox:
        column = inbox._column
        blocks = (inbox._view or inbox._resolve()).blocks
        if len(blocks) == 1 and not column.b_seq:
            (firsts, offset), = blocks
            msg = column.msg
            read = []
            for first, sent_by in column._group_runs(firsts):
                item = msg[first]
                read.append((item[offset] if type(item) is tuple
                             else msg[first + offset], sent_by))
            return read
    read = []
    last = stretch = None
    for sender, message in zip(senders(inbox), messages(inbox)):
        if message is not last:
            last, stretch = message, []
            read.append((message, stretch))
        stretch.append(sender)
    return [(message, tuple(stretch)) for message, stretch in read]


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


def senders(inbox: Sequence[Envelope]) -> tuple[int, ...]:
    """The sender links of :func:`messages`, position by position, for
    a rule that never reads ``sender_uid``: no envelope is built."""
    return _header_field(inbox, 0, "sender")


def sender_uids(inbox: Sequence[Envelope]) -> tuple[Optional[int], ...]:
    """The ``sender_uid`` of :func:`messages`, position by position (the
    identity the receiver perceives): no envelope is built."""
    return _header_field(inbox, 1, "sender_uid")


def _header_field(inbox: Sequence[Envelope], at: int, name: str) -> tuple:
    """Field ``at`` of each row's header -- the envelopes' ``name`` --
    in delivery order."""
    if type(inbox) is not LazyInbox:
        return tuple([getattr(envelope, name) for envelope in inbox])
    column = inbox._column
    hdr = column.hdr
    return tuple([hdr[row][at] for row in column._rows_of(inbox._resolve())])


def distinct(inbox: Sequence[Envelope]) -> tuple[Message, ...]:
    """The inbox's message objects, each once (by identity, never by
    equality), in order of first occurrence: for a rule that ignores
    repeats.  A reporter answered by ``k`` members from one decision
    reads one row, not ``k``.  See the module docstring."""
    if type(inbox) is LazyInbox:  # by position: no view is made
        column = inbox._column
        rows = column._by_recipient().get(inbox._recipient, ())
        if not column.b_seq and len(rows) < 2:
            return (column.msg[rows[0]],) if rows else ()
        rows = [*rows, *column.b_seq]
        rows.sort()
        msg = column.msg
        read = [msg[row] for row in rows]
    else:
        read = messages(inbox)
    if len(read) < 2:
        return tuple(read)
    return tuple({id(message): message for message in read}.values())
