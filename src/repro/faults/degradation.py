"""The fault-ladder vocabulary: outcomes, rungs, ladders, frontiers.

A protocol proven correct for crash faults can fail three different
ways when the channel model is violated, and the difference matters:

``SAFE_TERMINATED``
    All correct nodes terminated and every safety monitor stayed clean
    — the algorithm absorbs this fault class outright.
``SAFE_STALLED``
    Liveness was lost (the round-budget watchdog fired, or the round
    cap was hit) but safety held for every completed round.  Losing
    only liveness is the *graceful* failure mode: the monitors run in
    order with the watchdog last, so a stall verdict certifies that
    unique-names/namespace/crash-budget/ledger invariants passed each
    round up to the stall.  The protocol's own
    :class:`~repro.core.crash_renaming.RenamingFailure` -- a node ran
    out of phases without a name -- is this outcome too.
``SAFETY_VIOLATED``
    A safety monitor fired — the algorithm produced wrong answers
    (duplicate names, out-of-range names, …) under this fault class.
``CRASHED``
    The execution raised outside the monitor/watchdog vocabulary
    (protocol assertion, malformed plan): the implementation itself
    fell over rather than degrading.

A :class:`Rung` is one step of an escalating fault ladder — the
protocol ladder :func:`default_ladder` or the serve ladder
:func:`repro.serve.chaos.default_chaos_ladder` — and its
:meth:`Rung.params` are the keywords that play it through an engine
driver (``faults`` or ``serve``).  The ``faults`` driver
(:mod:`repro.faults.driver`) classifies each execution; one row per
(scenario, rung) is the *degradation frontier*, and
:func:`summarize_frontier` folds it per scenario.  Nothing here
imports the falsifier, so the serving layer can use the vocabulary
without loading it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.faults.base import FaultModel, FaultVerdict
from repro.faults.spec import spec_to_json

SAFE_TERMINATED = "SAFE_TERMINATED"
SAFE_STALLED = "SAFE_STALLED"
SAFETY_VIOLATED = "SAFETY_VIOLATED"
CRASHED = "CRASHED"

#: Ordered best-to-worst, for frontier summaries.
OUTCOMES = (SAFE_TERMINATED, SAFE_STALLED, SAFETY_VIOLATED, CRASHED)


def outcome_rank(outcome: str) -> int:
    """Severity index into :data:`OUTCOMES` (0 best, 3 worst): the one
    rule :func:`summarize_frontier` picks a scenario's worst outcome by."""
    return OUTCOMES.index(outcome)


class FaultTap(FaultModel):
    """Wraps a fault model and tallies the verdicts it issues, so a
    frontier row can report fault pressure even when the execution
    aborts and the network's applied :class:`FaultStats` is lost."""

    def __init__(self, inner: FaultModel):
        self.inner = inner
        self.issued: dict[str, int] = {}

    def plan_round(self, round_no, delivered, alive):
        plan = self.inner.plan_round(round_no, delivered, alive)
        issued = self.issued
        for verdicts in plan.values():
            for verdict in verdicts.values():
                if isinstance(verdict, FaultVerdict):
                    issued[verdict.kind] = issued.get(verdict.kind, 0) + 1
        return plan

    def describe(self) -> str:
        return self.inner.describe()


@dataclass(frozen=True)
class Rung:
    """One step of a fault ladder.

    ``spec`` is a :mod:`repro.faults.spec` entry tuple (empty on the
    fault-free control rung); ``window`` bounds a ``serve`` rung's
    injection to the faulted shard's protocol attempts ``[start,
    stop)`` (``None`` = persistent).
    """

    label: str
    spec: tuple = ()
    window: Optional[tuple[int, int]] = None

    @property
    def spec_json(self) -> str:
        return spec_to_json(list(self.spec))

    def params(self) -> dict:
        """The driver keywords that play this rung: ``faults``, plus
        ``fault_window`` when windowed; none on the control rung."""
        if not self.spec:
            return {}
        params = {"faults": self.spec_json}
        if self.window is not None:
            params["fault_window"] = json.dumps(list(self.window))
        return params


def default_ladder(n: int) -> list[Rung]:
    """The standard escalating ladder: a fault-free control, then each
    fault class alone at increasing pressure, then a composed worst
    case.  Specs depend only on ``n`` so frontiers are comparable
    across scenarios and replayable from their JSON."""
    return [
        Rung("none"),
        Rung("omission-1%", ({"kind": "omission", "p": 0.01},)),
        Rung("omission-5%", ({"kind": "omission", "p": 0.05},)),
        Rung("omission-20%", ({"kind": "omission", "p": 0.20},)),
        Rung("omission-5%-budget2n",
             ({"kind": "omission", "p": 0.05, "budget": 2 * n},)),
        Rung("duplicate-20%", ({"kind": "duplicate", "p": 0.20},)),
        Rung("corrupt-10%", ({"kind": "corrupt", "p": 0.10},)),
        Rung("partition-3r", ({"kind": "partition", "start": 2, "end": 5},)),
        Rung("partition-8r", ({"kind": "partition", "start": 2, "end": 10},)),
        Rung("omission+partition",
             ({"kind": "omission", "p": 0.05, "budget": 2 * n},
              {"kind": "partition", "start": 3, "end": 6})),
    ]


def summarize_frontier(rows: Sequence[dict]) -> list[dict]:
    """Per-scenario frontier summary, in first-seen scenario order:
    how far up the ladder the algorithm stays fully safe, and the first
    rung (if any) where safety — not just liveness — is lost."""
    by_scenario: dict[str, list[dict]] = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], []).append(row)
    summaries = []
    for name, cells in by_scenario.items():
        outcomes = [cell["outcome"] for cell in cells]
        safe = [cell["rung"] for cell in cells
                if cell["outcome"] == SAFE_TERMINATED]
        unsafe = [cell["rung"] for cell in cells
                  if cell["outcome"] in (SAFETY_VIOLATED, CRASHED)]
        summaries.append({
            "scenario": name,
            "rungs": len(cells),
            "safe": outcomes.count(SAFE_TERMINATED),
            "stalled": outcomes.count(SAFE_STALLED),
            "violated": outcomes.count(SAFETY_VIOLATED),
            "crashed": outcomes.count(CRASHED),
            "last_safe_rung": safe[-1] if safe else None,
            "first_unsafe_rung": unsafe[0] if unsafe else None,
            "worst_outcome": max(outcomes, key=outcome_rank),
        })
    return summaries
