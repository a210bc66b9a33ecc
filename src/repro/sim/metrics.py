"""Communication and round accounting.

The paper's three performance metrics are rounds, messages, and bits.
:class:`Metrics` counts all three, split by whether the sender is a
correct node or an adversary-controlled (Byzantine) node: the theorems
bound the cost incurred by the *algorithm*, while Byzantine nodes can
always spam arbitrarily many messages at no charge to the protocol.

Bit accounting is memoized: messages are frozen dataclasses, so a
fan-out is many sends of a single message object, and
:meth:`Metrics.message_bits` computes its
:meth:`~repro.sim.messages.Message.bit_size` once instead of once per
link, keyed by identity (a strong reference pins the object, so an
``id`` never aliases) and dropped at every :meth:`begin_round`; a
:attr:`~repro.sim.messages.Message.fixed_width` type, once per class
and run (``_bits_by_class``, which the engine's charge loop reads
directly: one class lookup per fixed-width fan-out).  The engine sums a round's sends and advances the ledgers once
per round (:meth:`Metrics.flush`; ``sends_by_node``, a plain ``dict``
whose store is C-level -- a ``Counter``'s is not -- sender by sender).
Memoization and batching are invisible: every counted quantity equals
charging each send by :meth:`Metrics.record_send`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.sim.messages import CostModel, Message


@dataclass
class Metrics:
    """Counters accumulated by the network engine during one execution."""

    cost: CostModel
    rounds: int = 0
    correct_messages: int = 0
    correct_bits: int = 0
    byzantine_messages: int = 0
    byzantine_bits: int = 0
    max_message_bits: int = 0
    messages_per_round: list[int] = field(default_factory=list)
    bits_per_round: list[int] = field(default_factory=list)
    sends_by_node: dict[int, int] = field(default_factory=dict)
    sends_by_type: Counter = field(default_factory=Counter)
    #: id(message) -> (message, bits); the message reference keeps the
    #: object alive so the id cannot be recycled while the entry exists.
    _bits_by_id: dict = field(default_factory=dict, repr=False, compare=False)
    #: fixed-width message class -> its bits under ``cost``, for the run.
    _bits_by_class: dict = field(default_factory=dict, repr=False,
                                 compare=False)

    def _in_round(self, api: str) -> None:
        if not self.messages_per_round:
            raise RuntimeError(f"{api} before begin_round: per-round ledgers "
                               "would silently drift from the running totals")

    def begin_round(self) -> None:
        self.rounds += 1
        self.messages_per_round.append(0)
        self.bits_per_round.append(0)
        self._bits_by_id.clear()

    def message_bits(self, message: Message) -> int:
        """The memoized :meth:`~repro.sim.messages.Message.bit_size`:
        per fixed-width class and run, else per object within the round
        (a fixed-width message never reaches the per-object memo)."""
        cls = type(message)
        bits = self._bits_by_class.get(cls)
        if bits is not None:
            return bits
        if cls.fixed_width:
            bits = self._bits_by_class[cls] = message.bit_size(self.cost)
            return bits
        entry = self._bits_by_id.get(id(message))
        if entry is not None and entry[0] is message:
            return entry[1]
        bits = message.bit_size(self.cost)
        self._bits_by_id[id(message)] = (message, bits)
        return bits

    def record_send(self, sender: int, message: Message, *, byzantine: bool) -> None:
        """Charge one transmitted message to the appropriate ledger."""
        self._in_round("record_send")
        bits = self.message_bits(message)
        sent = (0, 0, 1, bits) if byzantine else (1, bits, 0, 0)
        self.flush(*sent, bits, ((type(message), 1),))
        self.sends_by_node[sender] = self.sends_by_node.get(sender, 0) + 1

    def flush(self, correct: int, correct_bits: int, byzantine: int,
              byzantine_bits: int, widest: int,
              by_type: Iterable[tuple[type, int]]) -> None:
        """Advance every ledger but ``sends_by_node`` (the caller's) by a
        batch of this round's sends: ``correct`` / ``byzantine`` messages
        totalling ``correct_bits`` / ``byzantine_bits``, the largest
        ``widest`` bits, ``by_type`` as ``(message class, count)`` pairs."""
        self._in_round("flush")
        self.correct_messages += correct
        self.correct_bits += correct_bits
        self.byzantine_messages += byzantine
        self.byzantine_bits += byzantine_bits
        if widest > self.max_message_bits:
            self.max_message_bits = widest
        self.messages_per_round[-1] += correct + byzantine
        self.bits_per_round[-1] += correct_bits + byzantine_bits
        for cls, count in by_type:
            self.sends_by_type[cls.__name__] += count

    @property
    def total_messages(self) -> int:
        """Messages sent by correct and Byzantine nodes combined."""
        return self.correct_messages + self.byzantine_messages

    @property
    def total_bits(self) -> int:
        return self.correct_bits + self.byzantine_bits

    def summary(self) -> dict:
        """A plain-dict snapshot convenient for tables and benchmarks."""
        return {
            "rounds": self.rounds,
            "correct_messages": self.correct_messages,
            "correct_bits": self.correct_bits,
            "byzantine_messages": self.byzantine_messages,
            "byzantine_bits": self.byzantine_bits,
            "max_message_bits": self.max_message_bits,
        }
