"""Machine-speed samples, so that timings can be told from the machine.

The boxes this benchmark runs on are shared: identical single-threaded
work was measured to take 3.4 s or 6.9 s depending on the minute, with
CPU time tracking wall time (the guest sees no steal).  A
:class:`SpeedMeter` therefore times a small fixed kernel about ten
times a second *inside* the measured interval, from a ``SIGALRM``
handler on the main thread, and a timing is reported as seconds at
reference speed: ``(wall - time spent sampling) * mean(speed)``.
With samples uniform in time, ``wall * mean(speed)`` is exactly the
work done, however the speed moved within the interval.  On a
disturbed box this took the spread of five-rep medians from 32 % to
6-10 %; on a quiet one the factor is 1 and nothing changes.  The raw
seconds and the speed are reported beside the normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds :func:`kernel` takes on the reference machine (the fastest
#: this box was seen to run it): speed 1.0.
REFERENCE_S = 0.003
#: Seconds between samples; the kernel takes ~4 % of that.
PERIOD_S = 0.1


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def total(self) -> int:
        return self.a + self.b


def kernel() -> float:
    """Time a fixed mix of what the workloads do: small objects, method
    calls, dict traffic, integer arithmetic.  Pure Python, no repo code,
    so no change to the repo can move it."""
    start = time.perf_counter()
    table: dict[int, tuple[int, int]] = {}
    total = 0
    for index in range(8000):
        point = _Point(index, index & 7)
        table[index & 255] = (point.total(), index)
        total += table[index & 255][0]
    return time.perf_counter() - start


class SpeedMeter:
    """Samples machine speed while entered (main thread only)."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.speeds: list[float] = []
        #: Seconds the samples themselves took: not the workload's.
        self.spent = 0.0

    def sample(self, *_signal_arguments) -> None:
        took = kernel()
        self.speeds.append(REFERENCE_S / took)
        self.spent += took

    def __enter__(self) -> "SpeedMeter":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.every(self.period)
        return self

    def every(self, period: float) -> None:
        """Sample every ``period`` seconds from now on."""
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def mark(self) -> tuple[int, float]:
        """A position to :meth:`since` from."""
        return len(self.speeds), self.spent

    def window(self, mark: tuple[int, float]) -> list[float]:
        """The samples since ``mark`` and the one just before it."""
        return self.speeds[max(0, mark[0] - 1):]

    def since(self, mark: tuple[int, float], wall: float) -> tuple[float, float]:
        """``(seconds at reference speed, mean speed)`` of an interval
        of ``wall`` seconds that began at ``mark`` and ends now."""
        speed = statistics.fmean(self.window(mark))
        return (wall - (self.spent - mark[1])) * speed, speed
