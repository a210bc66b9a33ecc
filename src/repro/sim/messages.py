"""Message model and bit-cost accounting.

The paper's complexity claims are stated in a model where every message
carries at most ``Theta(log N)`` bits: identities cost ``ceil(log2 N)``
bits, interval endpoints and counters over ``[n]`` cost ``ceil(log2 n)``
bits, and every message carries a small constant-size type header.  The
:class:`CostModel` encodes those word sizes so each message can report
its exact bit footprint, which makes the paper's bit-complexity claims
directly measurable.

Messages are small frozen dataclasses.  Concrete protocols subclass
:class:`Message` and implement :meth:`Message.payload_bits`.  A sent
message reaches its readers as one immutable :class:`Envelope` carrying
the (authenticated) sender link and delivery round; all of its
recipients read that same envelope.

A node yields a ``Sequence[Send]``: a plain list, or one of the two
shapes committee protocols are made of, which travel as one object from
``yield`` to the engine's column -- a :class:`Multicast` (one message to
many links; :class:`Broadcast` is its whole-network case) or a
:class:`Scatter` (one message per link), both lazy :class:`Fanout`s.
A node with nothing to send and nothing to do until it hears something
yields :data:`UNTIL_MAIL` in place of ``[]``.

Because messages are frozen (immutable) dataclasses, their bit size
under a fixed :class:`CostModel` never changes after construction.  The
engine exploits that: :meth:`repro.sim.metrics.Metrics.message_bits`
memoizes :meth:`Message.bit_size` per message *object*, so one message
sent over many links charges its size via a single ``payload_bits``
evaluation (a scatter's one-shot messages are sized directly).
``payload_bits`` implementations must therefore be pure functions of
the message's fields and the cost model — a message whose size depends
on mutable external state would defeat both the cache and the frozen
contract.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

#: Number of bits charged for the message-type tag of every message.
HEADER_BITS = 4


def bit_length_of_domain(size: int) -> int:
    """Number of bits needed to address a domain of ``size`` values.

    Computed in exact integer arithmetic as ``(size - 1).bit_length()``:
    ``ceil(log2(size))`` through ``math.log2`` rounds through a float
    and silently under-counts near 64-bit boundaries (it returns 53 for
    ``2**53 + 1``), which is precisely the large-namespace regime where
    the paper's subquadratic-bits claims are measured.

    >>> bit_length_of_domain(1)
    1
    >>> bit_length_of_domain(1024)
    10
    >>> bit_length_of_domain(2**53 + 1)
    54
    """
    if size < 1:
        raise ValueError(f"domain size must be positive, got {size}")
    return max(1, (size - 1).bit_length())


@dataclass(frozen=True)
class CostModel:
    """Word sizes used to charge message bits.

    Parameters
    ----------
    n:
        Number of participating nodes (target namespace size).
    namespace:
        Size ``N`` of the original namespace, ``N >= n``.
    """

    n: int
    namespace: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.namespace < self.n:
            raise ValueError(
                f"namespace N={self.namespace} must be at least n={self.n}"
            )

    # Word sizes are cached: ``payload_bits`` reads several per message.
    @cached_property
    def id_bits(self) -> int:
        """Bits for one original identity from ``[N]``."""
        return bit_length_of_domain(self.namespace)

    @cached_property
    def index_bits(self) -> int:
        """Bits for one value from ``[n]`` (new identities, endpoints)."""
        return bit_length_of_domain(self.n)

    @cached_property
    def depth_bits(self) -> int:
        """Bits for an interval-tree depth in ``[0, ceil(log2 n)]``."""
        return bit_length_of_domain(bit_length_of_domain(self.n) + 1)

    @cached_property
    def counter_bits(self) -> int:
        """Bits for a small counter bounded by ``n`` (e.g. ``p`` values)."""
        return bit_length_of_domain(self.n)

    @cached_property
    def digest_bits(self) -> int:
        """Bits for one fingerprint digest, ``O(log N)`` per Fact 3.2."""
        # Digests live in a field of size O(N^6) so that, union-bounded over
        # the whole execution, collisions are n^{-Theta(1)}-unlikely; that is
        # 6 * ceil(log2 N) bits, still O(log N).
        return 6 * bit_length_of_domain(self.namespace)


class Message:
    """Base class for protocol messages.

    Subclasses are expected to be frozen dataclasses.  ``payload_bits``
    charges the message's fields under a :class:`CostModel`; the envelope
    adds :data:`HEADER_BITS` for the type tag.
    """

    def payload_bits(self, cost: CostModel) -> int:
        raise NotImplementedError

    def bit_size(self, cost: CostModel) -> int:
        """Total on-wire size of this message in bits."""
        return HEADER_BITS + self.payload_bits(cost)


@dataclass(frozen=True, slots=True)
class Send:
    """An outgoing message addressed to a link (node index in ``[0, n)``).

    ``claim`` is a forged sender identity.  It only reaches the receiver
    when the network runs *without* authentication; under the paper's
    authenticated model the network discards it (see
    :class:`repro.crypto.auth.Authenticator`).
    """

    to: int
    message: Message
    claim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.to < 0:
            raise ValueError(f"link index must be non-negative, got {self.to}")


class Envelope(NamedTuple):
    """A delivered row: one sent message as every recipient of it sees it.

    ``sender`` is the link index of the true sender, stamped by the
    network.  ``sender_uid`` is the sender's original identity as the
    receiver perceives it: with authentication enabled (the paper's
    model) it is always the true identity; without authentication a
    forged ``claim`` shows up here instead, which is exactly the spoof
    the assumption rules out.  ``claimed_sender`` records the raw claim
    in the unauthenticated case (``None`` otherwise).

    The engine builds one envelope per *row* of the round's column -- a
    fan-out of one message is one row -- the first time the row is
    read, and every recipient's inbox lists that same instance (a
    duplicated link lists it ``1 + copies`` times), so envelopes are
    immutable: assignment raises.  A row read only through
    :func:`repro.sim.columnar.messages` never gets one.  There is no
    ``to`` field; the receiver is the node reading the inbox
    (``ctx.index``).
    """

    sender: int
    round_no: int
    message: Message
    sender_uid: Optional[int] = None
    claimed_sender: Optional[int] = None


class Fanout(Sequence):
    """One sender's lazily materialized ``Send`` list, one per target.

    The engine recognizes the type and handles the whole fan-out in one
    step -- one bounds check over ``targets``, one charge, no per-link
    ``Send`` -- which is what makes committee protocols cheap to
    simulate.  The ``Send`` list is materialized (and cached) only when
    someone indexes or iterates the sequence -- in practice, a crash
    adversary or fault model inspecting a sender's in-flight messages;
    ``len()`` is free.  Caching matters for correctness, not just
    speed: a policy's crash plan may name kept sends by object identity,
    so repeated access must yield the *same* ``Send`` instances.  A
    subclass says what it denotes (``_expand``) and what is left of it
    when a crash cuts it mid-send (``kept``: the same shape over the
    named positions, no ``Send`` built).
    """

    __slots__ = ("targets", "_sends")

    def __init__(self, targets):
        self.targets = targets if type(targets) is range else tuple(targets)
        self._sends: Optional[list[Send]] = None

    def _materialize(self) -> list[Send]:
        sends = self._sends
        if sends is None:  # a subclass says what it denotes: _expand()
            self._sends = sends = self._expand()
        return sends

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, index):
        return self._materialize()[index]

    def __iter__(self) -> Iterator[Send]:
        return iter(self._materialize())


class Multicast(Fanout):
    """A fan-out of one message to each of ``targets``.

    Behaves exactly like the ``[Send(t, m, claim) for t in targets]``
    list it denotes, but travels as one object from ``yield`` to one
    column row.  ``targets`` (any iterable) is snapshotted here, so
    mutating it afterwards cannot change what was sent; a link named
    twice reads the message twice.
    """

    __slots__ = ("message", "claim")

    def __init__(self, targets, message: Message, claim: Optional[int] = None):
        super().__init__(targets)
        self.message = message
        self.claim = claim

    def _expand(self) -> list[Send]:
        message, claim = self.message, self.claim
        return [Send(index, message, claim) for index in self.targets]

    def kept(self, indices: Sequence[int]) -> "Multicast":
        """The fan-out of sends ``indices``, in that order."""
        targets = self.targets
        return Multicast([targets[i] for i in indices], self.message,
                         self.claim)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.targets!r}, {self.message!r})"


class Scatter(Fanout):
    """A fan-out of one message *per link*: the dual of :class:`Multicast`.

    Behaves exactly like ``[Send(l, m) for l, m in zip(links,
    messages)]`` -- a committee member answering each reporter with its
    own reply -- but is bounds-checked, charged and filled into the
    round's column in one step.  Both iterables are snapshotted and
    must have equal length; a repeated link gets each of its messages.
    """

    __slots__ = ("messages",)

    def __init__(self, links, messages):
        super().__init__(links)
        self.messages = tuple(messages)
        if len(self.messages) != len(self.targets):
            raise ValueError(
                f"scatter of {len(self.messages)} messages over "
                f"{len(self.targets)} links"
            )

    def _expand(self) -> list[Send]:
        return list(map(Send, self.targets, self.messages))

    def kept(self, indices: Sequence[int]) -> "Scatter":
        """The fan-out of sends ``indices``, in that order."""
        targets, messages = self.targets, self.messages
        return Scatter([targets[i] for i in indices],
                       [messages[i] for i in indices])


class Broadcast(Multicast):
    """The all-links fan-out: a :class:`Multicast` to ``range(n)``."""

    __slots__ = ("n",)

    def __init__(self, n: int, message: Message, claim: Optional[int] = None):
        if n < 0:
            raise ValueError(f"link count must be non-negative, got {n}")
        super().__init__(range(n), message, claim)
        self.n = n


class _UntilMail(tuple):
    """The type of :data:`UNTIL_MAIL`: an empty tuple with a name."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNTIL_MAIL"


#: "I send nothing, and an empty inbox would change nothing I do."  An
#: empty, immutable ``Sequence[Send]``: to an adversary, a fault model
#: or any executor that does not know it, it is the ``[]`` it stands
#: for.  :meth:`repro.sim.network.SyncNetwork.step` recognises it (by
#: identity) and parks the node: it is resumed no later than the first
#: round in which it has mail, and possibly earlier with an empty inbox
#: -- which is why it is valid only where an empty inbox is a no-op.  A
#: node that acts on a timer, whatever it hears, yields ``[]``.
UNTIL_MAIL: Sequence[Send] = _UntilMail()


def broadcast(n: int, message: Message) -> Broadcast:
    """Address ``message`` to all ``n`` links (including the self link)."""
    return Broadcast(n, message)


def multicast(targets, message: Message) -> Multicast:
    """Address ``message`` to each link index in ``targets``."""
    return Multicast(targets, message)
