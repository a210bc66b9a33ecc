"""The interval-halving binary tree over ``[1, n]`` (Section 2).

Imagine a binary tree whose root is labelled ``[1, n]``; a vertex
labelled ``I = [l, r]`` with more than one integer has a left child
``bot(I) = [l, floor((l+r)/2)]`` and a right child
``top(I) = [floor((l+r)/2)+1, r]``.  A node's current interval is always
a vertex of this tree, and its bookkeeping value ``d`` is the vertex's
depth.  Both the paper's crash-resilient algorithm and the
Okun-Barak-Gafni baseline walk this tree from the root to a leaf.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sized

from repro.sim.messages import record


@record(order=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` with ``lo <= hi``.

    Ordering is lexicographic on ``(lo, hi)``, which matches the
    "sort by min(I) increasing" rule of the node action in Figure 3.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def is_singleton(self) -> bool:
        return self.lo == self.hi

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Whether ``other`` is a sub-interval of ``self``."""
        return self.lo <= other.lo and other.hi <= self.hi

    def bot(self) -> "Interval":
        """The left child ``[l, floor((l+r)/2)]`` of a non-leaf vertex."""
        if self.is_singleton:
            raise ValueError(f"singleton {self} has no children")
        return Interval(self.lo, (self.lo + self.hi) // 2)

    def top(self) -> "Interval":
        """The right child ``[floor((l+r)/2)+1, r]`` of a non-leaf vertex."""
        if self.is_singleton:
            raise ValueError(f"singleton {self} has no children")
        return Interval((self.lo + self.hi) // 2 + 1, self.hi)

    def halves(self) -> tuple["Interval", "Interval"]:
        return self.bot(), self.top()

    def __repr__(self) -> str:
        return f"[{self.lo},{self.hi}]"


def root_interval(n: int) -> Interval:
    """The tree root ``[1, n]``."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return Interval(1, n)


def tree_depth_of(interval: Interval, n: int) -> int:
    """Depth of ``interval`` in the halving tree rooted at ``[1, n]``.

    Raises :class:`ValueError` if ``interval`` is not a vertex of the
    tree -- useful as a consistency oracle in tests.
    """
    current = root_interval(n)
    depth = 0
    while current != interval:
        if current.is_singleton or not current.contains_interval(interval):
            raise ValueError(f"{interval} is not a vertex of the [1,{n}] tree")
        current = current.bot() if interval.hi <= current.bot().hi else current.top()
        depth += 1
    return depth


def reports_inside_bot(
    reporters: Mapping[tuple[int, int], Sized],
    to_halve: Iterable[tuple[int, int]],
) -> dict[tuple[int, int], int]:
    """For each ``I = (lo, hi)`` of ``to_halve``: how many reports lie
    inside ``bot(I)``.

    ``reporters`` maps every reported ``(lo, hi)`` to its reports (only
    their number matters here).  One descending-``lo`` sweep: when
    ``I`` is reached, ``his`` holds the sorted upper ends of every
    report with lower end ``>= lo``, so the reports inside ``bot(I) =
    [lo, mid]`` are exactly its prefix of values ``<= mid`` --
    ``O(k log k)`` for ``k`` reports, whatever intervals they carry (a
    corrupted report need not be a tree vertex).
    """
    inside: dict[tuple[int, int], int] = {}
    by_lo = sorted(reporters, reverse=True)
    his: list[int] = []
    swept = 0
    for key in sorted(to_halve, reverse=True):
        lo, hi = key
        while swept < len(by_lo) and by_lo[swept][0] >= lo:
            reported = by_lo[swept]
            at = bisect_right(his, reported[1])
            his[at:at] = [reported[1]] * len(reporters[reported])
            swept += 1
        inside[key] = bisect_right(his, (lo + hi) // 2)
    return inside
