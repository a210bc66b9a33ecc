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

Inboxes are materialized per recipient, and only when a program
actually reads its inbox at the ``program.send()`` boundary: a
:class:`LazyInbox` is a read-only :class:`~collections.abc.Sequence`
whose backing list is built on first access from the broadcast rows and
the recipient's targeted rows, merged by row index.  It holds
*references* to the rows' envelopes — none is constructed at read time,
so ``n`` rows read by ``n`` nodes cost ``n`` constructors — which is
safe because envelopes are immutable.

Charging is not done here: the network charges every resolved send
while it fills the rows (one ``Metrics.record_sends`` per multicast,
one ``Metrics.flush`` per scatter or ``Send`` list).  Every counted
quantity is held to the naive per-envelope oracle ``ReferenceNetwork``
(``tests/test_fastpath_ab.py``, ``tests/test_columnar_property.py``,
``tests/test_multicast_property.py``).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Sequence
from typing import Optional

from repro.sim.messages import Envelope

try:  # optional: vectorized recipient grouping for large batches
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

#: Targeted-envelope count at which grouping switches to numpy.
NUMPY_GROUP_THRESHOLD = 4096


class ColumnarRound:
    """One round's delivery as rows of shared envelopes.

    Rows are appended by the network in *delivery order* (senders in
    ``delivered.items()`` order, runs in send order), so a row's index
    in ``env`` totally orders broadcast rows against targeted ones and
    a merged inbox lists envelopes in global send order.
    """

    __slots__ = ("env", "b_seq", "t_to", "t_run", "_wanted", "_buckets")

    def __init__(self):
        self.env: list[Envelope] = []
        self.b_seq: list[int] = []
        self.t_to = array("i")
        self.t_run = array("i")
        self._wanted: frozenset[int] = frozenset()
        self._buckets: Optional[dict] = None

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
    # Materialization (lazy, per recipient)

    def _ensure_buckets(self) -> dict:
        """Recipient id -> ascending indices of its targeted rows.

        Built once, on the first inbox materialization of the round; a
        round nobody reads never pays for grouping.  Uses a stable
        numpy argsort for large batches, a plain dict-of-lists pass
        otherwise — both keep each recipient's rows in fill order.
        """
        buckets = self._buckets
        if buckets is not None:
            return buckets
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
        self._buckets = buckets
        return buckets

    def inbox_for(self, recipient: int) -> list[Envelope]:
        """The recipient's envelopes in global send order: references
        to the rows' envelopes, none constructed here."""
        env = self.env
        targeted = self._ensure_buckets().get(recipient)
        # Two ascending runs: the sort is one linear merge.
        rows = sorted(self.b_seq + targeted) if targeted else self.b_seq
        return [env[row] for row in rows]


class LazyInbox(Sequence):
    """A recipient's inbox, materialized on first read and then cached.

    Behaves exactly like a per-recipient envelope list in send order,
    except that it is read-only and its envelopes are the rows' own,
    shared with every other recipient of the same message.
    """

    __slots__ = ("_column", "_recipient", "_cache")

    def __init__(self, column: ColumnarRound, recipient: int):
        self._column = column
        self._recipient = recipient
        self._cache: Optional[list[Envelope]] = None

    def _materialize(self) -> list[Envelope]:
        cache = self._cache
        if cache is None:
            self._cache = cache = self._column.inbox_for(self._recipient)
        return cache

    def __len__(self) -> int:
        return len(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self):
        return iter(self._materialize())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("unmaterialized" if self._cache is None
                 else f"{len(self._cache)} envelopes")
        return f"LazyInbox(to={self._recipient}, {state})"
