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
link.  The cache is keyed by message identity only (with a strong
reference pinning the object, so a recycled ``id`` can never alias) and
is dropped at every :meth:`begin_round` so it stays bounded by one
round's working set.  Every ledger advances in one place,
:meth:`Metrics.flush`, once per sender per round in the engine.
Memoization and batching are invisible in the ledgers: every counted
quantity is identical to charging each send individually.
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
    sends_by_node: Counter = field(default_factory=Counter)
    sends_by_type: Counter = field(default_factory=Counter)
    #: id(message) -> (message, bits); the message reference keeps the
    #: object alive so the id cannot be recycled while the entry exists.
    _bits_by_id: dict = field(default_factory=dict, repr=False, compare=False)

    def begin_round(self) -> None:
        self.rounds += 1
        self.messages_per_round.append(0)
        self.bits_per_round.append(0)
        self._bits_by_id.clear()

    def message_bits(self, message: Message) -> int:
        """The memoized :meth:`~repro.sim.messages.Message.bit_size`."""
        entry = self._bits_by_id.get(id(message))
        if entry is not None and entry[0] is message:
            return entry[1]
        bits = message.bit_size(self.cost)
        self._bits_by_id[id(message)] = (message, bits)
        return bits

    def record_send(self, sender: int, message: Message, *, byzantine: bool) -> None:
        """Charge one transmitted message to the appropriate ledger."""
        self.record_sends(sender, message, 1, byzantine=byzantine)

    def record_sends(
        self, sender: int, message: Message, count: int, *, byzantine: bool
    ) -> None:
        """Charge ``count`` transmissions of one message at once (a
        fan-out): the bit size is computed, or fetched from the cache,
        once, and every ledger ends identical to ``count`` single
        ``record_send`` calls.
        """
        bits = self.message_bits(message)
        self.flush(sender, count, bits * count, bits,
                   ((type(message), count),), byzantine=byzantine)

    def flush(self, sender: int, messages: int, bits: int, widest: int,
              by_type: Iterable[tuple[type, int]], *, byzantine: bool) -> None:
        """Advance every ledger by one sender's sends of this round:
        ``messages`` of them totalling ``bits``, the largest ``widest``
        bits, split ``by_type`` into ``(message class, count)`` pairs.
        """
        if not self.messages_per_round:
            raise RuntimeError(
                "record_send before begin_round: per-round ledgers would "
                "silently drift from the running totals"
            )
        if byzantine:
            self.byzantine_messages += messages
            self.byzantine_bits += bits
        else:
            self.correct_messages += messages
            self.correct_bits += bits
        if widest > self.max_message_bits:
            self.max_message_bits = widest
        self.messages_per_round[-1] += messages
        self.bits_per_round[-1] += bits
        self.sends_by_node[sender] += messages
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
