"""Columnar round representation — how every round is delivered.

Constructing one :class:`~repro.sim.messages.Envelope` per delivered
message makes an all-to-all round cost ``n**2`` constructor calls even
when every program ignores its inbox, and the paper's subquadratic-bits
claim (PODC 2025) only separates from quadratic baselines at
n = 10k-100k, a scale an object-per-message representation cannot
reach.  So :meth:`repro.sim.network.SyncNetwork.step` stores a round's
delivery as *rows*, in every configuration (observer, profiler and
fault model included).  A row is one sent message: one immutable
envelope, built when the row is filled, however many links it goes to.
``env`` lists the rows in global send order, and two kinds of entry
point into it:

- **Broadcast rows** (``b_seq``: their indices) — a whole-network
  fan-out is one row and nothing else, so a round of ``n`` broadcasts
  is ``n`` envelopes, not ``n**2``.
- **Targeted deliveries** (``t_to`` / ``t_run``: recipient id and row
  index, ``array`` of C ints, numpy views over them when numpy is
  importable and the batch is large) — a fan-out to part of the
  network and each maximal constant-``(message, claim)`` run of a
  ``Send`` list are one row with many deliveries, each message of a
  scatter one row with one.  Link faults are expressed the same way: a
  dropped send fills nothing, a corrupted one a row carrying the
  bit-flipped message, a duplicated one a row delivered to its link
  ``1 + copies`` times.

Inboxes are read per *view*, and only when a program actually reads
its inbox at the ``program.send()`` boundary.  On the first read of a
round the attached recipients are grouped by the tuple of targeted rows
they were delivered (broadcast rows are common to all): recipients of
the same rows share one view, and a view's envelope tuple -- the
broadcast rows and its targeted rows merged by row index, in global
send order -- is built once, whoever reads it.  A :class:`LazyInbox` is
a read-only :class:`~collections.abc.Sequence` over its view; it holds
*references* to the rows' envelopes, none is constructed at read time,
and its ``len()`` is answered from the row counts alone, so a listener
polling an empty inbox builds nothing.

A committee is a replicated object: every member that received the
same rows takes the same decision from them, and the model charges
messages and bits, never local computation.  :func:`derive` lets a
protocol say so: ``derive(inbox, fn, *args)`` is ``fn(envelopes,
*args)``, computed once per ``(view, fn, args)`` and kept on the
round's :class:`ColumnarRound` -- it dies with the round; there is no
module-level cache.  The contract for what goes through it:

- ``fn`` is a module-level function, pure in ``(envelopes, args)``: no
  ``self``, no ``ctx.rng``, no node state.  ``args`` are hashable.
- its result is read-only (tuple / ``frozenset`` /
  ``MappingProxyType``), because the nodes of a view share it.
- a view with one reader caches nothing -- the value would only be
  retained, never reused (a mid-send crash round has nearly one view
  per recipient, each holding an O(n) table).
- a view holds no reference back to its column, so refcounting alone
  frees a round once its inboxes are dropped.

On any other sequence -- a test's list, the per-envelope oracle's inbox
-- ``derive`` is a plain call, which makes ``ReferenceNetwork`` the
unshared oracle for everything computed through it.  A program that
never calls ``derive`` runs exactly as it would without it.

Charging is not done here: the network charges every resolved send
while it fills the rows (one ``Metrics.record_sends`` per multicast,
one ``Metrics.flush`` per scatter or ``Send`` list).  Every counted
quantity is held to the naive per-envelope oracle ``ReferenceNetwork``
(``tests/test_fastpath_ab.py``, ``tests/test_columnar_property.py``,
``tests/test_multicast_property.py``,
``tests/test_shared_views_property.py``).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Sequence
from typing import Callable, Optional

from repro.sim.messages import Envelope

try:  # optional: vectorized recipient grouping for large batches
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

#: Targeted-envelope count at which grouping switches to numpy.
NUMPY_GROUP_THRESHOLD = 4096


class _View:
    """One distinct inbox of a round: the targeted rows its readers
    were delivered, how many attached recipients read it, and its
    envelope tuple once somebody has.  Plain data -- the column does
    the work, so a view never points back at it."""

    __slots__ = ("rows", "readers", "envelopes")

    def __init__(self, rows: tuple[int, ...], readers: int = 0):
        self.rows = rows
        self.readers = readers
        self.envelopes: Optional[tuple[Envelope, ...]] = None


class ColumnarRound:
    """One round's delivery as rows of shared envelopes.

    Rows are appended by the network in *delivery order* (senders in
    ``delivered.items()`` order, runs in send order), so a row's index
    in ``env`` totally orders broadcast rows against targeted ones and
    a merged inbox lists envelopes in global send order.
    """

    __slots__ = ("env", "b_seq", "t_to", "t_run", "_wanted", "_views",
                 "_common", "_memo", "__weakref__")

    def __init__(self):
        self.env: list[Envelope] = []
        self.b_seq: list[int] = []
        self.t_to = array("i")
        self.t_run = array("i")
        self._wanted: frozenset[int] = frozenset()
        self._views: Optional[dict[int, _View]] = None
        self._common: Optional[_View] = None
        #: (view, fn, args) -> what `derive` computed for the view.
        self._memo: dict = {}

    # ------------------------------------------------------------------
    # Filling (called by the network while it charges the ledgers)

    def add_broadcast(self, envelope: Envelope) -> None:
        """One whole-network fan-out: a single row, no expansion."""
        self.b_seq.append(len(self.env))
        self.env.append(envelope)

    def open_run(self, envelope: Envelope) -> None:
        """One targeted row, no recipient yet."""
        self.env.append(envelope)

    def add_recipient(self, to: int) -> None:
        """One more delivery of the open row (a repeated link reads
        the row's envelope once more)."""
        self.t_to.append(to)
        self.t_run.append(len(self.env) - 1)

    def add_run(self, envelope: Envelope, recipients: Sequence[int]) -> None:
        """A whole run at once: one row read by all of ``recipients``."""
        self.t_to.extend(recipients)
        self.t_run.extend([len(self.env)] * len(recipients))
        self.env.append(envelope)

    def add_scatter(self, envelopes: Sequence[Envelope],
                    links: Sequence[int]) -> None:
        """One row per link: ``envelopes[k]`` is read by ``links[k]``."""
        first = len(self.env)
        self.env.extend(envelopes)
        self.t_to.extend(links)
        self.t_run.extend(range(first, len(self.env)))

    def attach(self, alive: Sequence[int]) -> dict[int, "LazyInbox"]:
        """Freeze the alive set and hand out one lazy inbox per recipient.

        Messages addressed to links outside ``alive`` vanish (they were
        still charged).
        """
        self._wanted = frozenset(alive)
        return {index: LazyInbox(self, index) for index in alive}

    def attached_envelopes(self) -> int:
        """How many inbox entries the attached recipients would read.

        Counted from the columns; no inbox is materialized.
        """
        wanted = self._wanted
        return (len(self.b_seq) * len(wanted)
                + sum(1 for to in self.t_to if to in wanted))

    # ------------------------------------------------------------------
    # Reading (lazy, per view)

    def _group(self) -> dict[int, _View]:
        """Attached recipient id -> its view, for every recipient that
        was delivered a targeted row; the rest share ``_common``.

        Built once, on the first read of the round; a round nobody
        reads never pays for grouping.  Uses a stable numpy argsort for
        large batches, a plain dict-of-lists pass otherwise -- both
        keep each recipient's rows in fill order, which is what makes
        the row tuple a canonical key (a duplicated link repeats its
        row, and so reads a view of its own).
        """
        buckets = defaultdict(list)
        t_to = self.t_to
        wanted = self._wanted
        if _np is not None and len(t_to) >= NUMPY_GROUP_THRESHOLD:
            to = _np.frombuffer(t_to, dtype=_np.intc)
            order = _np.argsort(to, kind="stable")
            sorted_to = to[order]
            runs = _np.frombuffer(self.t_run, dtype=_np.intc)[order].tolist()
            cuts = _np.flatnonzero(sorted_to[1:] != sorted_to[:-1]) + 1
            cuts = cuts.tolist()
            for start, end in zip([0, *cuts], [*cuts, len(runs)]):
                recipient = int(sorted_to[start])
                if recipient in wanted:
                    buckets[recipient] = runs[start:end]
        else:
            for recipient, run in zip(t_to, self.t_run):
                if recipient in wanted:
                    buckets[recipient].append(run)
        views: dict[int, _View] = {}
        by_rows: dict[tuple[int, ...], _View] = {}
        for recipient, rows in buckets.items():
            key = tuple(rows)
            view = by_rows.get(key)
            if view is None:
                view = by_rows[key] = _View(key)
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

    def read(self, view: _View) -> tuple[Envelope, ...]:
        """The view's envelopes in global send order: references to the
        rows' envelopes, none constructed here, built once per view."""
        envelopes = view.envelopes
        if envelopes is None:
            env = self.env
            targeted = view.rows
            # Two ascending runs: the sort is one linear merge.
            rows = sorted([*self.b_seq, *targeted]) if targeted else self.b_seq
            envelopes = view.envelopes = tuple([env[row] for row in rows])
        return envelopes


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
        # From the row counts: an idle listener builds no envelope list.
        return len(self._column.b_seq) + len(self._resolve().rows)

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
