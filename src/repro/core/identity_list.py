"""The length-``N`` identity bit vector of Section 3.

Every committee member ``v`` keeps an *identity list* ``L_v``: a bit
vector with ``L_v[i] = 1`` iff identity ``i`` announced itself to ``v``.
New identities are ranks in this vector, which is what makes the
Byzantine algorithm order-preserving.

The vector is stored sparsely (a sorted list of one-positions), because
``N`` may be enormous while at most ``n`` bits are ever set; all
operations the protocol needs -- segment counts, segment fingerprints,
rank queries, and the "replace segment with an arbitrary string of
exactly ``cnt`` ones" repair of dirty intervals -- cost
``O(log n + ones_in_segment)``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Iterator, Optional, Sequence

from repro.crypto.hashing import Fingerprinter


class IdentityList:
    """A sparse ``{0,1}^N`` vector addressed by positions in ``[1, N]``."""

    def __init__(self, namespace: int, ones: Iterable[int] = ()):
        """The vector with exactly the bits ``ones`` set (one sort).

        ``dict.fromkeys`` drops repeats but keeps the input's order, so
        ascending ``ones`` (a registry) sort as one run, in linear time.
        """
        if namespace < 1:
            raise ValueError(f"namespace must be positive, got {namespace}")
        self.namespace = namespace
        self._ones: list[int] = sorted(dict.fromkeys(ones))
        for position in self._ones[:1] + self._ones[-1:]:
            self._check(position)

    # -- bit access -------------------------------------------------------

    def _check(self, position: int) -> None:
        if not 1 <= position <= self.namespace:
            raise IndexError(
                f"position {position} outside [1, {self.namespace}]"
            )

    def __getitem__(self, position: int) -> int:
        self._check(position)
        i = bisect_left(self._ones, position)
        return int(i < len(self._ones) and self._ones[i] == position)

    def set_bit(self, position: int) -> None:
        self._check(position)
        i = bisect_left(self._ones, position)
        if i == len(self._ones) or self._ones[i] != position:
            self._ones.insert(i, position)

    def clear_bit(self, position: int) -> None:
        self._check(position)
        i = bisect_left(self._ones, position)
        if i < len(self._ones) and self._ones[i] == position:
            del self._ones[i]

    # -- segment queries ---------------------------------------------------

    def ones_in(self, lo: int, hi: int) -> list[int]:
        """Positions of one-bits inside ``[lo, hi]``, ascending."""
        self._check(lo)
        self._check(hi)
        if lo > hi:
            raise ValueError(f"empty segment [{lo}, {hi}]")
        return self._ones[bisect_left(self._ones, lo):bisect_right(self._ones, hi)]

    def count_ones_in(self, lo: int, hi: int) -> int:
        self._check(lo)
        self._check(hi)
        return bisect_right(self._ones, hi) - bisect_left(self._ones, lo)

    def fingerprint(self, hasher: Fingerprinter, lo: int, hi: int) -> int:
        """The ``O(log N)``-bit digest of segment ``L[lo..hi]``."""
        return hasher.digest_segment(self.ones_in(lo, hi), lo, hi)

    # -- ranks (new identities) ----------------------------------------------

    def rank_of(self, position: int) -> int:
        """1-based rank of a set position among all one-bits.

        This is the node's new identity: the number of ones at positions
        ``<= position``.  Requires ``L[position] == 1``.
        """
        if not self[position]:
            raise ValueError(f"position {position} is not set")
        return bisect_right(self._ones, position)

    def ranks(self, positions: Iterable[int],
              dirty: Sequence[tuple[int, int]]) -> Iterator[Optional[int]]:
        """:meth:`rank_of` each of the ascending ``positions``, or ``None``
        where its bit is unset or it lies in one of the ascending, disjoint
        ``dirty`` intervals: one merge over positions, ones and intervals."""
        ones, rank, d = self._ones, 0, 0
        for position in positions:
            while rank < len(ones) and ones[rank] <= position:
                rank += 1
            while d < len(dirty) and dirty[d][1] < position:
                d += 1
            clean = d == len(dirty) or position < dirty[d][0]
            yield rank if clean and rank and ones[rank - 1] == position else None

    # -- dirty-interval repair -------------------------------------------------

    def replace_segment(self, lo: int, hi: int, ones_count: int) -> None:
        """Overwrite ``L[lo..hi]`` with a canonical string of ``ones_count``
        ones (packed at the segment's left edge).

        Used when a committee member's segment hash lost the vote: the
        *number* of ones is what downstream rank arithmetic needs; the
        positions inside the (dirty) segment are deliberately arbitrary.
        """
        self._check(lo)
        self._check(hi)
        if lo > hi:
            raise ValueError(f"empty segment [{lo}, {hi}]")
        if not 0 <= ones_count <= hi - lo + 1:
            raise ValueError(
                f"cannot fit {ones_count} ones into segment [{lo}, {hi}]"
            )
        left = bisect_left(self._ones, lo)
        right = bisect_right(self._ones, hi)
        self._ones[left:right] = list(range(lo, lo + ones_count))

    # -- misc --------------------------------------------------------------------

    @property
    def total_ones(self) -> int:
        return len(self._ones)

    def ones(self) -> list[int]:
        return list(self._ones)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdentityList):
            return NotImplemented
        return self.namespace == other.namespace and self._ones == other._ones

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdentityList(N={self.namespace}, ones={self._ones!r})"
