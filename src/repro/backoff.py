"""Seeded jittered exponential backoff, shared by every retrying layer.

Both the serving layer (failed batches) and the sweep engine (timed-out
or broken runs) wait ``base * factor ** (attempt - 1)`` scaled by a
multiplicative jitter in ``[1, 1 + jitter)``.  The jitter stream derives
from ``hash((seed, a, b, attempt))`` — integer tuples hash identically
across processes and ``PYTHONHASHSEED`` values — so two executions of
the same schedule wait byte-identical delays, while retries that broke
together do not march back in lockstep.
"""

from __future__ import annotations

from random import Random


def jittered_backoff(base: float, factor: float, jitter: float,
                     seed: int, a: int, b: int, attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1-based).

    ``(seed, a, b)`` are the caller's integer coordinates for the thing
    being retried; they only key the jitter stream.
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    delay = base * factor ** (attempt - 1)
    if jitter == 0:
        return delay
    rng = Random(hash((seed, a, b, attempt)) & 0x7FFFFFFF)
    return delay * (1.0 + jitter * rng.random())
