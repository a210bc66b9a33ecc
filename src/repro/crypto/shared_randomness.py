"""Shared randomness: a common random string readable by all correct nodes.

The paper assumes "nodes can access shared random bits" (Theorem 1.3).
Operationally this means every correct node, evaluating the same query,
obtains the same random answer, while the answers are unpredictable to
the protocol designer.  We realise it as a keyed deterministic PRG:
each *labelled query* hashes ``(seed, label)`` into a fresh
:class:`random.Random` stream, so distinct labels give independent
streams and repeated queries with the same label give identical bits on
every node.  An answer is a pure function of ``(seed, query)``: the one
instance of a run keeps it (:func:`kept`), and a committee pays once.

The static Byzantine adversary of the paper chooses the corrupt set
*before* execution, i.e. before the shared random bits are revealed;
tests model this by letting the adversary pick corruptions without
access to the :class:`SharedRandomness` instance.
"""

from __future__ import annotations

import functools
import hashlib
import math
from array import array
from bisect import bisect_left
from collections.abc import Set
from random import Random


def kept(draw):
    """``draw(shared, *args)``, computed once per instance and ``args``
    and the same object after (an exception is not kept)."""
    @functools.wraps(draw)
    def answer(shared, *args):
        answers, query = shared._answers, (draw, *args)
        if query not in answers:
            answers[query] = draw(shared, *args)
        return answers[query]
    return answer


class SharedRandomness:
    """A common random string, queried by label.

    >>> a, b = SharedRandomness(7), SharedRandomness(7)
    >>> a.stream("lottery").random() == b.stream("lottery").random()
    True
    >>> a.stream("x").random() == a.stream("y").random()
    False
    """

    def __init__(self, seed: int):
        self.seed = seed
        #: (draw, *args) -> its answer, for every `kept` query so far.
        self._answers: dict[tuple, object] = {}

    def stream(self, label: str) -> Random:
        """A fresh PRG stream for ``label``, identical on every node."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return Random(int.from_bytes(digest[:16], "big"))

    def bits(self, label: str, count: int) -> list[int]:
        """``count`` shared random bits for ``label`` (a fresh list)."""
        stream = self.stream(label)
        return [stream.getrandbits(1) for _ in range(count)]

    @kept
    def coin(self, label: str) -> int:
        """One shared random bit for ``label``."""
        return self.stream(label).getrandbits(1)

    @kept
    def uniform_int(self, label: str, low: int, high: int) -> int:
        """A shared uniform integer in ``[low, high]`` (inclusive)."""
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        return self.stream(label).randint(low, high)

    @kept
    def bernoulli_subset(self, label: str, universe: int,
                         probability: float) -> SortedInts:
        """The set ``{i in [1, universe] : r_i = 1}`` with ``P[r_i = 1] = p``.

        This is the committee lottery of the Byzantine algorithm: every
        identity in the original namespace is elected a *candidate*
        independently with probability ``p``, using shared bits, so all
        correct nodes compute the identical candidate pool.

        For small probabilities the pool is sampled via geometric skips,
        so the cost is ``O(universe * p)`` rather than ``O(universe)``;
        this keeps executions with ``N >> n`` cheap.  The pool is kept
        as 8 bytes a member (:class:`SortedInts`).
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if probability == 1.0:
            return SortedInts(array("q", range(1, universe + 1)))
        members = array("q")
        if probability > 0.0:
            append, log = members.append, math.log
            random, log_q = self.stream(label).random, math.log1p(-probability)
            # Geometric(p) gaps between successes, via inverse CDF.
            position = 1 + int(log(1.0 - random()) / log_q)
            while position <= universe:
                append(position)
                position += 1 + int(log(1.0 - random()) / log_q)
        return SortedInts(members)


class SortedInts(Set):
    """An immutable set of ints held as one ascending ``array('q')``.

    Membership is one ``bisect``; it iterates ascending and equals a
    ``frozenset`` of its members.  Its hash, ``(len, first, last)``, is
    O(1), so a memo key holding millions of members costs nothing to
    hash; it is not the equal ``frozenset``'s hash, so the two kinds do
    not share one dict.  Set algebra on it answers frozensets.
    """

    __slots__ = ("_members", "_hash")
    _from_iterable = frozenset

    def __init__(self, members: array):
        self._members = members
        self._hash = hash((len(members), *members[:1], *members[-1:]))

    def __contains__(self, value: object) -> bool:
        try:
            i = bisect_left(self._members, value)
        except TypeError:  # not comparable with an int: not a member
            return False
        return i < len(self._members) and self._members[i] == value

    def __iter__(self):
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __hash__(self) -> int:
        return self._hash
