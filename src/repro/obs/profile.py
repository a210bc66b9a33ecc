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
:func:`repro.engine.sweeps.execute_request` timings.  While
:meth:`PhaseProfiler.collecting` is open, ``gc.callbacks`` times each
cyclic collection into a ``gc`` row ``<place>:gen<g>``: ``loop`` if a
``SyncNetwork.run`` round loop (run with the collector off) was under
way, ``outside`` if not.

Profiling is opt-in: attach a profiler via an observer
(``EventRecorder(profile=True)``).  The timers are guarded hooks in
the engine's one round body, so a profiled run executes the same code
as a detached one.  :func:`PhaseProfiler.report` returns a
self-describing dict (schema tag, unit, per-phase calls/wall/mean, the
``gc`` rows if collected) that ``python -m repro obs profile`` prints and
``benchmarks/perf.py`` embeds under ``"phases"`` in ``BENCH_perf.json``.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Iterable, Optional

#: Schema tag stamped into every report so downstream consumers can
#: detect format changes.
PROFILE_FORMAT = "repro.obs/profile@1"

#: The four phases of one ``SyncNetwork.step``, in execution order.
STEP_PHASES = ("plan", "charge", "deliver", "advance")


class PhaseProfiler:
    """Accumulates wall-clock time per named phase and, while
    :meth:`collecting`, per collector generation."""

    __slots__ = ("_calls", "_totals", "_gc")

    def __init__(self):
        self._calls: dict[str, int] = {}
        self._totals: dict[str, float] = {}
        # "<place>:gen<g>" -> [collections, seconds]; None until collecting.
        self._gc: Optional[dict[str, list]] = None

    def add(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` of wall time to ``phase``."""
        self._calls[phase] = self._calls.get(phase, 0) + 1
        self._totals[phase] = self._totals.get(phase, 0.0) + seconds

    @contextmanager
    def collecting(self):
        """Time the process's cyclic collections while the block runs."""
        from repro.sim import network

        rows = self._gc = self._gc or {
            f"{place}:gen{gen}": [0, 0.0]
            for place in ("loop", "outside") for gen in range(3)}
        began = [0.0]

        def on_gc(phase: str, info: dict) -> None:
            if phase == "start":
                began[0] = time.perf_counter()
            else:
                place = "loop" if network.running_loops else "outside"
                row = rows[f"{place}:gen{info['generation']}"]
                row[0] += 1
                row[1] += time.perf_counter() - began[0]

        gc.callbacks.append(on_gc)
        try:
            yield self
        finally:
            gc.callbacks.remove(on_gc)

    def __bool__(self) -> bool:
        return bool(self._calls)

    def report(self) -> dict:
        """The self-describing aggregation embedded in benchmarks.

        ``phases`` preserves first-charge order; every row carries the
        call count, total wall seconds, and mean seconds per call.
        """
        report = {
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
        if self._gc is not None:
            report["gc"] = {key: {"calls": calls, "wall_s": round(spent, 6)}
                            for key, (calls, spent) in self._gc.items()}
        return report


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
    observer,
    adversary: Optional[str] = "random",
    params: Optional[dict] = None,
):
    """Run one falsification scenario with ``observer.profiler`` (an
    ``EventRecorder(profile=True)``'s) attached and collecting.

    Returns ``(result, report)`` where ``result`` is the scenario's
    :class:`~repro.sim.runner.ExecutionResult` and ``report`` is the
    profiler's self-describing dict.
    """
    from repro.falsify.scenarios import make_adversary, run_scenario

    crash_adversary = make_adversary(adversary, f, seed)
    with observer.profiler.collecting():
        result = run_scenario(
            scenario, n, f, seed,
            adversary=crash_adversary, params=params, observer=observer,
        )
    return result, observer.profiler.report()
