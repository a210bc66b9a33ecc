"""Shared randomness: a common random string readable by all correct nodes.

The paper assumes "nodes can access shared random bits" (Theorem 1.3).
Operationally this means every correct node, evaluating the same query,
obtains the same random answer, while the answers are unpredictable to
the protocol designer.  We realise it as a keyed deterministic PRG:
each *labelled query* hashes ``(seed, label)`` into a fresh
:class:`random.Random` stream, so distinct labels give independent
streams and repeated queries with the same label give identical bits on
every node.

The static Byzantine adversary of the paper chooses the corrupt set
*before* execution, i.e. before the shared random bits are revealed;
tests model this by letting the adversary pick corruptions without
access to the :class:`SharedRandomness` instance.
"""

from __future__ import annotations

import hashlib
import math
from random import Random


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
        # Answers are a pure function of (seed, query): a run pays for
        # each lottery once, however many nodes read it.
        self._subsets: dict[tuple[str, int, float], frozenset[int]] = {}

    def stream(self, label: str) -> Random:
        """A fresh PRG stream for ``label``, identical on every node."""
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        return Random(int.from_bytes(digest[:16], "big"))

    def bits(self, label: str, count: int) -> list[int]:
        """``count`` shared random bits for ``label``."""
        stream = self.stream(label)
        return [stream.getrandbits(1) for _ in range(count)]

    def coin(self, label: str) -> int:
        """One shared random bit for ``label``."""
        return self.stream(label).getrandbits(1)

    def uniform_int(self, label: str, low: int, high: int) -> int:
        """A shared uniform integer in ``[low, high]`` (inclusive)."""
        if low > high:
            raise ValueError(f"empty range [{low}, {high}]")
        return self.stream(label).randint(low, high)

    def bernoulli_subset(self, label: str, universe: int,
                         probability: float) -> frozenset[int]:
        """The set ``{i in [1, universe] : r_i = 1}`` with ``P[r_i = 1] = p``.

        This is the committee lottery of the Byzantine algorithm: every
        identity in the original namespace is elected a *candidate*
        independently with probability ``p``, using shared bits, so all
        correct nodes compute the identical candidate pool.

        For small probabilities the pool is sampled via geometric skips,
        so the cost is ``O(universe * p)`` rather than ``O(universe)``;
        this keeps executions with ``N >> n`` cheap.  The pool is drawn
        once per query and the same immutable set handed to every node.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        query = (label, universe, probability)
        if query not in self._subsets:
            self._subsets[query] = frozenset(self._draw_subset(*query))
        return self._subsets[query]

    def _draw_subset(self, label: str, universe: int, probability: float):
        if probability == 0.0:
            return
        if probability == 1.0:
            yield from range(1, universe + 1)
            return
        stream = self.stream(label)
        log_q = math.log1p(-probability)
        position = 0
        while True:
            # Geometric(p) gap to the next success, via inverse CDF.
            position += 1 + int(math.log(1.0 - stream.random()) / log_q)
            if position > universe:
                return
            yield position
