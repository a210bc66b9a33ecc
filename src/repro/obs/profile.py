"""Wall-clock phase profiling for executions and sweeps.

A :class:`PhaseProfiler` accumulates ``(calls, total seconds)`` per
named phase.  The network fills it with the four phases of
:meth:`repro.sim.network.SyncNetwork.step`, all four charged once per
round in every configuration (observer or not, fault model or not):

``plan``
    proposal collection, crash-plan application, the fault model's plan
``charge``
    ledger charging and filling the round's columns (they interleave)
``deliver``
    ``ColumnarRound.attach`` (freezing the alive set) and waking the
    parked nodes the round's rows name
``advance``
    driving the awake node programs — including the lazy
    materialization of any inbox a program reads — and the monitors

The sweep engine adds ``driver:<name>`` entries from
:func:`repro.engine.sweeps.execute_request` timings.

Profiling is opt-in: attach a profiler via an observer
(``EventRecorder(profile=True)``) or pass one directly where accepted.
The timers are guarded hooks inside the engine's one round body, so a
profiled run executes the same code as a detached one and the report
describes the path that was timed.

:func:`PhaseProfiler.report` returns a self-describing dict (schema
tag, unit, per-phase calls/wall/mean) that ``benchmarks/perf.py``
embeds verbatim under the ``"phases"`` key of ``BENCH_perf.json``.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

#: Schema tag stamped into every report so downstream consumers can
#: detect format changes.
PROFILE_FORMAT = "repro.obs/profile@1"

#: The four phases of one ``SyncNetwork.step``, in execution order.
STEP_PHASES = ("plan", "charge", "deliver", "advance")


class PhaseProfiler:
    """Accumulates wall-clock time per named phase."""

    __slots__ = ("_calls", "_totals")

    def __init__(self):
        self._calls: dict[str, int] = {}
        self._totals: dict[str, float] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` of wall time to ``phase``."""
        self._calls[phase] = self._calls.get(phase, 0) + 1
        self._totals[phase] = self._totals.get(phase, 0.0) + seconds

    def time(self, phase: str) -> "_Timer":
        """Context manager charging the block's duration to ``phase``."""
        return _Timer(self, phase)

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's accumulations into this one."""
        for phase, calls in other._calls.items():
            self._calls[phase] = self._calls.get(phase, 0) + calls
            self._totals[phase] = (self._totals.get(phase, 0.0)
                                   + other._totals[phase])

    def total(self, phase: str) -> float:
        return self._totals.get(phase, 0.0)

    def calls(self, phase: str) -> int:
        return self._calls.get(phase, 0)

    def phases(self) -> list[str]:
        return list(self._calls)

    def __bool__(self) -> bool:
        return bool(self._calls)

    def report(self) -> dict:
        """The self-describing aggregation embedded in benchmarks.

        ``phases`` preserves first-charge order; every row carries the
        call count, total wall seconds, and mean seconds per call.
        """
        return {
            "schema": PROFILE_FORMAT,
            "unit": "seconds",
            "phases": {
                phase: {
                    "calls": self._calls[phase],
                    "wall_s": round(self._totals[phase], 6),
                    "mean_s": round(
                        self._totals[phase] / self._calls[phase], 9),
                }
                for phase in self._calls
            },
        }


class _Timer:
    __slots__ = ("profiler", "phase", "started")

    def __init__(self, profiler: PhaseProfiler, phase: str):
        self.profiler = profiler
        self.phase = phase

    def __enter__(self) -> "_Timer":
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.profiler.add(self.phase, time.perf_counter() - self.started)


def idle_share(events: Iterable[dict]) -> Optional[float]:
    """``1 - sum(resumed) / sum(alive)`` over a network event stream.

    The share of node-rounds in which an alive node was *not* resumed:
    ``alive`` is what ``round.begin`` counted, ``resumed`` what the
    same round's ``round.end`` did.  A run in which nobody yields
    ``UNTIL_MAIL`` reads 0 but for the round a node crashes in; ``None``
    if the stream holds no round.
    """
    alive = resumed = 0
    for event in events:
        if event["kind"] == "round.begin":
            alive += event["data"]["alive"]
        elif event["kind"] == "round.end":
            resumed += event["data"]["resumed"]
    return 1 - resumed / alive if alive else None


def profile_scenario(
    scenario: str,
    n: int,
    f: int,
    seed: int,
    *,
    adversary: Optional[str] = "random",
    observer=None,
    params: Optional[dict] = None,
):
    """Run one falsification scenario with profiling attached.

    Returns ``(result, report)`` where ``result`` is the scenario's
    :class:`~repro.sim.runner.ExecutionResult` and ``report`` is the
    profiler's self-describing dict.  When ``observer`` is ``None`` a
    fresh profiling :class:`~repro.obs.events.EventRecorder` is used
    (and discarded); pass your own recorder to keep the event stream.
    """
    from repro.falsify.scenarios import make_adversary, run_scenario
    from repro.obs.events import EventRecorder

    if observer is None:
        observer = EventRecorder(profile=True)
    if observer.profiler is None:
        raise ValueError("observer has no profiler attached; construct it "
                         "with EventRecorder(profile=True)")
    crash_adversary = make_adversary(adversary, f, seed)
    result = run_scenario(
        scenario, n, f, seed,
        adversary=crash_adversary, params=params, observer=observer,
    )
    return result, observer.profiler.report()
