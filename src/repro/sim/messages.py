"""Message model and bit-cost accounting.

The paper's complexity claims are stated in a model where every message
carries at most ``Theta(log N)`` bits: identities cost ``ceil(log2 N)``
bits, interval endpoints and counters over ``[n]`` cost ``ceil(log2 n)``
bits, and every message carries a small constant-size type header.  The
:class:`CostModel` encodes those word sizes so each message can report
its exact bit footprint, which makes the paper's bit-complexity claims
directly measurable.

Messages are small frozen records.  Concrete protocols subclass
:class:`Message`, declare the subclass with :func:`record` and implement
:meth:`Message.payload_bits`.  A sent message reaches its readers as one
immutable :class:`Envelope` carrying the (authenticated) sender link and
delivery round; all of its recipients read that same envelope.

A node yields a ``Sequence[Send]``: a plain list, or one of the two
shapes committee protocols are made of, which travel as one object from
``yield`` to the engine's column -- a :class:`Multicast` (one message to
many links; :class:`Broadcast` is its whole-network case) or a
:class:`Scatter` (one message per link), both lazy :class:`Fanout`s.
A node with nothing to send and nothing to do until it hears something
yields :data:`UNTIL_MAIL` in place of ``[]``.

Because messages are frozen (immutable) records, their bit size
under a fixed :class:`CostModel` never changes after construction.  The
engine exploits that: :meth:`repro.sim.metrics.Metrics.message_bits`
memoizes :meth:`Message.bit_size` per message *object* within a round,
so one message sent over many links charges its size via a single
``payload_bits`` evaluation; a type declaring :attr:`Message.fixed_width`
(its size reads no field) is sized once per *class* and run.
``payload_bits`` implementations must therefore be pure functions of
the message's fields and the cost model — a message whose size depends
on mutable external state would defeat both memos and the frozen
contract.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import cached_property, partial
from typing import ClassVar, Iterator, NamedTuple, Optional

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


def _init0(post):
    def __init__(self):
        if post:
            post(self)
    return __init__


def _init1(post, s0):
    def __init__(self, a0):
        s0(self, a0)
        if post:
            post(self)
    return __init__


def _init2(post, s0, s1):
    def __init__(self, a0, a1):
        s0(self, a0)
        s1(self, a1)
        if post:
            post(self)
    return __init__


def _init3(post, s0, s1, s2):
    def __init__(self, a0, a1, a2):
        s0(self, a0)
        s1(self, a1)
        s2(self, a2)
        if post:
            post(self)
    return __init__


def _init4(post, s0, s1, s2, s3):
    def __init__(self, a0, a1, a2, a3):
        s0(self, a0)
        s1(self, a1)
        s2(self, a2)
        s3(self, a3)
        if post:
            post(self)
    return __init__


#: One ``__init__`` shape per field count, its parameters renamed per
#: record: a compiled function, not one generated by ``exec``.
_INITS = (_init0, _init1, _init2, _init3, _init4)


class _Retired:
    """Where :func:`record` files the class a ``class`` statement made."""

    __slots__ = ()


def _refuse_assignment(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls=None, /, *, order: bool = False):
    """Declare a protocol record: a frozen, slotted dataclass.

    ``@record`` (or ``@record(order=True)``) is ``@dataclass(frozen=True,
    slots=True, order=order)`` -- the same fields, ``replace``, eq, hash,
    order, repr, pickling and ``FrozenInstanceError`` -- except for
    ``__init__``: the generated one stores each field with one
    ``object.__setattr__`` call, while a record's binds each slot's
    member descriptor once (``cls.field.__set__``) and calls it -- 30 to
    45 % less per construction -- then runs ``__post_init__`` if the
    class has one.  Protocols build millions of messages per run, so
    this is a share of their compute, not of the engine's.  It adds no
    ``exec`` either: a record takes at most ``len(_INITS) - 1`` fields,
    each a plain default or none.

    A slotted class is a new class object.  The one the ``class``
    statement made is garbage from then on, but only a collection would
    take it out of ``Message.__subclasses__()``; so it is moved under
    :class:`_Retired` at once, and ``fixed_width``, which building the
    new class reset, is copied over.  The frozen ``__setattr__`` /
    ``__delattr__`` are plain functions that refuse any name, as a
    dataclass's do (``dataclass``'s slotted ones ask the old class).
    """
    if cls is None:
        return partial(record, order=order)
    made = dataclass(cls, frozen=True, slots=True, init=False, order=order)
    if cls.__bases__ != (object,):
        cls.__bases__ = (_Retired,)
    if "fixed_width" in cls.__dict__:
        made.fixed_width = cls.fixed_width
    made.__setattr__, made.__delattr__ = _refuse_assignment, _refuse_deletion
    declared = fields(made)
    if len(declared) >= len(_INITS) or any(
            not field.init or field.default_factory is not MISSING
            for field in declared):
        raise TypeError(f"{cls.__name__}: a record takes at most "
                        f"{len(_INITS) - 1} fields with plain defaults")
    names = tuple(field.name for field in declared)
    init = _INITS[len(names)](getattr(made, "__post_init__", None),
                              *(getattr(made, name).__set__ for name in names))
    init.__qualname__ = f"{made.__qualname__}.__init__"
    code = init.__code__
    init.__code__ = code.replace(co_varnames=("self", *names), **(
        {"co_qualname": init.__qualname__}  # 3.11+: what profilers print
        if hasattr(code, "co_qualname") else {}))
    init.__defaults__ = tuple(field.default for field in declared
                              if field.default is not MISSING) or None
    made.__init__ = init
    return made


class Message:
    """Base class for protocol messages.

    Subclasses are declared with :func:`record`.  ``payload_bits``
    charges the message's fields under a :class:`CostModel`; the envelope
    adds :data:`HEADER_BITS` for the type tag.
    """

    __slots__ = ()

    #: "My ``payload_bits`` reads only the cost model", so a run sizes
    #: the class once.  Declared as ``class M(Message, fixed_width=True)``;
    #: not inherited (a subclass's ``payload_bits`` may read a field).
    fixed_width: ClassVar[bool] = False

    def __init_subclass__(cls, fixed_width: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.fixed_width = fixed_width

    def payload_bits(self, cost: CostModel) -> int:
        raise NotImplementedError

    def bit_size(self, cost: CostModel) -> int:
        """Total on-wire size of this message in bits."""
        return HEADER_BITS + self.payload_bits(cost)


@record
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


@Sequence.register
class Fanout:
    """One sender's lazily materialized ``Send`` list, one per target.

    The engine recognizes the type and handles the whole fan-out in one
    step -- one bounds check over ``targets``, one charge, no per-link
    ``Send`` -- which is what makes committee protocols cheap to
    simulate.  The ``Send`` list is materialized (and cached) only when
    someone indexes or iterates the sequence -- in practice, a crash
    adversary or fault model inspecting a sender's in-flight messages;
    ``len()`` is free, and ``_sends`` stays ``None`` until then, which
    is how the tests see that no crash round built a ``Send``.  A
    subclass sets every slot in its one ``__init__`` -- ``targets`` a
    ``range`` or a tuple snapshot, ``_sends`` ``None`` -- with no
    ``super()`` chain (a protocol builds one fan-out per node and round),
    and says what it denotes (``_expand``) and what is left of it
    when a crash cuts it mid-send (``kept``: the same shape over the
    named positions, no ``Send`` built).  It is a ``Sequence`` by
    registration, its mixins borrowed: the engine tests every proposal's
    type, and a plain class skips ``ABCMeta``'s check.
    """

    __slots__ = ("targets", "_sends")
    __contains__ = Sequence.__contains__
    __reversed__ = Sequence.__reversed__
    index = Sequence.index
    count = Sequence.count

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
        self.targets = targets if type(targets) is range else tuple(targets)
        self._sends: Optional[list[Send]] = None
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
        self.targets = links if type(links) is range else tuple(links)
        self._sends: Optional[list[Send]] = None
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
        self.targets = range(n)
        self._sends: Optional[list[Send]] = None
        self.message = message
        self.claim = claim
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


#: ``broadcast(n, message)``: address ``message`` to all ``n`` links
#: (including the self link).  The class itself, so a protocol's fan-out
#: costs one constructor call.
broadcast = Broadcast

#: ``multicast(targets, message)``: address ``message`` to each link
#: index in ``targets``.  The class itself, as :data:`broadcast` is.
multicast = Multicast
