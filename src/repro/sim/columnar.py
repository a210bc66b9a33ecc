"""Columnar round representation — how every round is delivered.

Constructing one :class:`~repro.sim.messages.Envelope` per delivered
message makes an all-to-all round cost ``n**2`` constructor calls even
when every program ignores its inbox, and the paper's subquadratic-bits
claim (PODC 2025) only separates from quadratic baselines at
n = 10k-100k, a scale an object-per-message representation cannot
reach.  So :meth:`repro.sim.network.SyncNetwork.step` stores a round's
delivery as *columns* instead of objects, in every configuration
(observer, profiler and fault model included):

- **Broadcast column** — a whole-network fan-out is one row ``(seq,
  sender, message, uid, claim)``; its per-recipient expansion stays
  lazy, so a round of ``n`` broadcasts is ``n`` appends, not ``n**2``
  envelopes.
- **Run columns** — a fan-out to part of the network, or each maximal
  constant-``(message, claim)`` run of a ``Send`` list, is one row; the
  per-envelope columns hold only the recipient id and the run index
  (``array`` of C ints, or numpy views over them when numpy is
  importable and the batch is large).  Link faults are expressed in
  the same rows: a dropped send fills none, a corrupted one a row
  carrying the bit-flipped message, a duplicated one a row whose
  recipient list repeats the link.

Inboxes are materialized per recipient, and only when a program
actually reads its inbox at the ``program.send()`` boundary: a
:class:`LazyInbox` is a :class:`~collections.abc.Sequence` of
envelopes whose backing list is built on first access by merging the
broadcast column with the recipient's targeted rows in global send
order (``seq``).  A program that never touches its inbox — the perf
benchmark's broadcast storm, any listen-free round — costs zero
envelope constructions; a program that reads pays one constructor call
per envelope, but only for itself and only once (the materialized list
is cached, so repeated iteration yields the *same* instances — the
engine's one-envelope-per-delivery contract).

Charging is not done here: the network charges every resolved send
while it fills the columns (one ``Metrics.record_sends`` per fan-out,
one ``Metrics.flush`` per sender's ``Send`` list).  Every counted
quantity is held to the naive per-envelope oracle ``ReferenceNetwork``
(``tests/test_fastpath_ab.py``, ``tests/test_columnar_property.py``,
``tests/test_multicast_property.py``).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Optional

from repro.sim.messages import Envelope, Message

try:  # optional: vectorized recipient grouping for large batches
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

#: Targeted-envelope count at which grouping switches to numpy.
NUMPY_GROUP_THRESHOLD = 4096


class ColumnarRound:
    """One round's delivery as parallel arrays.

    Rows are appended by the network in *delivery order* (senders in
    ``delivered.items()`` order, runs in send order); ``seq`` is a
    per-round op counter that totally orders broadcast rows against
    targeted runs, so a merged inbox lists envelopes in global send
    order.
    """

    __slots__ = (
        "round_no",
        # Whole-network broadcast column (one row per fan-out).
        "b_seq", "b_sender", "b_message", "b_uid", "b_claim",
        # Targeted-run column (one row per constant-(message, claim) run).
        "r_seq", "r_sender", "r_message", "r_uid", "r_claim",
        # Per-envelope columns (recipient id, owning run index).
        "t_to", "t_run",
        "_seq", "_wanted", "_buckets",
    )

    def __init__(self, round_no: int):
        self.round_no = round_no
        self.b_seq: list[int] = []
        self.b_sender: list[int] = []
        self.b_message: list[Message] = []
        self.b_uid: list[Optional[int]] = []
        self.b_claim: list[Optional[int]] = []
        self.r_seq = array("i")
        self.r_sender = array("i")
        self.r_message: list[Message] = []
        self.r_uid: list[Optional[int]] = []
        self.r_claim: list[Optional[int]] = []
        self.t_to = array("i")
        self.t_run = array("i")
        self._seq = 0
        self._wanted: frozenset[int] = frozenset()
        self._buckets: Optional[dict] = None

    # ------------------------------------------------------------------
    # Filling (called by the network while it charges the ledgers)

    def add_broadcast(self, sender: int, message: Message,
                      uid: Optional[int], claim: Optional[int]) -> None:
        """One whole-network fan-out: a single row, no expansion."""
        self.b_seq.append(self._seq)
        self._seq += 1
        self.b_sender.append(sender)
        self.b_message.append(message)
        self.b_uid.append(uid)
        self.b_claim.append(claim)

    def open_run(self, sender: int, message: Message, uid: Optional[int],
                 claim: Optional[int]) -> None:
        """One constant-``(message, claim)`` row, no recipient yet."""
        self.r_seq.append(self._seq)
        self._seq += 1
        self.r_sender.append(sender)
        self.r_message.append(message)
        self.r_uid.append(uid)
        self.r_claim.append(claim)

    def add_recipient(self, to: int) -> None:
        """One more recipient (a repeated link: one more envelope)."""
        self.t_to.append(to)
        self.t_run.append(len(self.r_message) - 1)

    def add_run(self, sender: int, message: Message, uid: Optional[int],
                claim: Optional[int], recipients: Sequence[int]) -> None:
        """A whole run at once: one message to all of ``recipients``."""
        self.open_run(sender, message, uid, claim)
        self.t_to.extend(recipients)
        self.t_run.extend([len(self.r_message) - 1] * len(recipients))

    def attach(self, alive: Sequence[int]) -> dict[int, "LazyInbox"]:
        """Freeze the alive set and hand out one lazy inbox per recipient.

        Messages addressed to links outside ``alive`` vanish (they were
        still charged).
        """
        self._wanted = frozenset(alive)
        return {index: LazyInbox(self, index) for index in alive}

    def attached_envelopes(self) -> int:
        """How many envelopes the attached recipients would read.

        Counted from the columns; no inbox is materialized.
        """
        wanted = self._wanted
        return (len(self.b_seq) * len(wanted)
                + sum(1 for to in self.t_to if to in wanted))

    # ------------------------------------------------------------------
    # Materialization (lazy, per recipient)

    def _ensure_buckets(self) -> dict:
        """Recipient id -> ascending positions into the t_* columns.

        Built once, on the first inbox materialization of the round; a
        round nobody reads never pays for grouping.  Uses a stable
        numpy argsort for large batches, a plain dict-of-lists pass
        otherwise — both produce ascending position sequences.
        """
        buckets = self._buckets
        if buckets is not None:
            return buckets
        buckets = {}
        t_to = self.t_to
        wanted = self._wanted
        if _np is not None and len(t_to) >= NUMPY_GROUP_THRESHOLD:
            to = _np.frombuffer(t_to, dtype=_np.intc)
            order = _np.argsort(to, kind="stable")
            sorted_to = to[order]
            cuts = _np.flatnonzero(sorted_to[1:] != sorted_to[:-1]) + 1
            starts = [0, *cuts.tolist()]
            ends = [*cuts.tolist(), len(sorted_to)]
            for start, end in zip(starts, ends):
                recipient = int(sorted_to[start])
                if recipient in wanted:
                    buckets[recipient] = order[start:end]
        else:
            for position, recipient in enumerate(t_to):
                if recipient in wanted:
                    bucket = buckets.get(recipient)
                    if bucket is None:
                        buckets[recipient] = [position]
                    else:
                        bucket.append(position)
        self._buckets = buckets
        return buckets

    def inbox_for(self, recipient: int) -> list[Envelope]:
        """The recipient's envelopes in global send order."""
        round_no = self.round_no
        out: list[Envelope] = []
        append = out.append
        b_seq = self.b_seq
        b_count = len(b_seq)
        b_sender = self.b_sender
        b_message = self.b_message
        b_uid = self.b_uid
        b_claim = self.b_claim
        positions = () if not len(self.t_to) else (
            self._ensure_buckets().get(recipient, ()))
        bi = 0
        if len(positions):
            r_seq = self.r_seq
            r_sender = self.r_sender
            r_message = self.r_message
            r_uid = self.r_uid
            r_claim = self.r_claim
            t_run = self.t_run
            for position in positions:
                run = t_run[position]
                run_seq = r_seq[run]
                while bi < b_count and b_seq[bi] < run_seq:
                    append(Envelope(b_sender[bi], recipient, round_no,
                                    b_message[bi], b_uid[bi], b_claim[bi]))
                    bi += 1
                append(Envelope(r_sender[run], recipient, round_no,
                                r_message[run], r_uid[run], r_claim[run]))
        while bi < b_count:
            append(Envelope(b_sender[bi], recipient, round_no,
                            b_message[bi], b_uid[bi], b_claim[bi]))
            bi += 1
        return out


class LazyInbox(Sequence):
    """A recipient's inbox, materialized on first read and then cached.

    Behaves exactly like a per-recipient envelope list (send order,
    fresh instances per recipient); caching preserves the identity
    contract — iterating twice yields the *same* envelope objects,
    never new copies.  Receivers must treat it as read-only, like any
    inbox.
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
