"""Random fingerprint family (Fact 3.2) via polynomial hashing.

The Byzantine-resilient algorithm compresses a segment
``L[l..r]`` of the length-``N`` identity bit vector into an
``O(log N)``-bit digest so that two *different* segments collide only
with polynomially small probability.  We realise the family of Fact 3.2
with Rabin-style polynomial fingerprints over a prime field:

    ``fp(b_l .. b_r) = sum_i b_{l+i} * x^i  (mod P)``

for a random evaluation point ``x`` drawn from shared randomness.  Two
distinct segments of length ``m`` collide iff ``x`` is a root of their
(non-zero) difference polynomial of degree ``< m``, which happens with
probability at most ``m / (P - 3)`` -- matching the ``1/|S|^i``
collision guarantee of Fact 3.2 once ``P`` is a sufficiently large
power of ``N``.  The point ``x`` needs ``O(log P) = O(log N)`` shared
random bits, as Fact 3.2 requires.

Segments are addressed sparsely: the caller passes the *positions of
one-bits* inside ``[l, r]`` rather than the raw bit string, so hashing a
segment costs ``O(k log m)`` for ``k`` ones instead of ``O(m)``.  This
keeps executions with ``N >> n`` cheap without changing the function
being computed.  A run's members share a label's :class:`Fingerprinter`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.crypto.shared_randomness import SharedRandomness, kept

#: Default field modulus: the Mersenne prime 2^127 - 1.  It exceeds
#: ``N**6`` for every namespace up to ``N ~ 2*10^6``, which keeps the
#: whole-execution collision probability at the ``n^{-4}`` level used in
#: the proof of Theorem 1.3.
DEFAULT_PRIME = (1 << 127) - 1


@dataclass(frozen=True)
class Fingerprinter:
    """One concrete hash function: an evaluation point in a prime field."""

    prime: int
    point: int
    _powers: dict[int, int] = field(  # exponent -> point**exponent % prime
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 2 <= self.point <= self.prime - 2:
            raise ValueError(
                f"evaluation point {self.point} outside [2, {self.prime - 2}]"
            )

    def digest_segment(self, ones: Iterable[int], lo: int, hi: int) -> int:
        """Fingerprint of the bit string whose ones inside ``[lo, hi]``
        are listed (in any order) in ``ones``.

        Positions are absolute; each position ``q`` contributes
        ``x^(q - lo)``.  Positions outside ``[lo, hi]`` are rejected so
        callers cannot silently hash the wrong segment.
        """
        if lo > hi:
            raise ValueError(f"empty segment [{lo}, {hi}]")
        powers, point, prime = self._powers, self.point, self.prime
        acc = 0
        for position in ones:
            if not lo <= position <= hi:
                raise ValueError(
                    f"one-position {position} outside segment [{lo}, {hi}]"
                )
            exponent = position - lo
            power = powers.get(exponent)
            if power is None:
                power = powers[exponent] = pow(point, exponent, prime)
            acc += power
        # Mix in the segment length so equal-content prefixes of unequal
        # declared lengths cannot be confused by construction.
        return (acc * (hi - lo + 1)) % prime


class FingerprintFamily:
    """Draws :class:`Fingerprinter` instances from shared randomness.

    All correct nodes construct the family from the same
    :class:`SharedRandomness`, hence draw identical hash functions for
    identical labels -- exactly the "hash function constructed via
    shared randomness" of Section 3.1.  A family keeps the function it
    drew last, and its table of powers ``x^e mod P`` (one ``pow`` per
    exponent, whoever asks), until it draws another label.
    """

    def __init__(self, shared: SharedRandomness, prime: int = DEFAULT_PRIME):
        if prime < 5:
            raise ValueError(f"prime too small: {prime}")
        self.shared = shared
        self.prime = prime
        self._drawn: Optional[Fingerprinter] = None

    @staticmethod
    @kept
    def of(shared: SharedRandomness, prime: int = DEFAULT_PRIME):
        """The run's family; it holds ``shared`` weakly (no cycle)."""
        return FingerprintFamily(weakref.proxy(shared), prime)

    def draw(self, label: str) -> Fingerprinter:
        point = self.shared.uniform_int(f"hash:{label}", 2, self.prime - 2)
        if self._drawn is None or self._drawn.point != point:
            self._drawn = Fingerprinter(prime=self.prime, point=point)
        return self._drawn
