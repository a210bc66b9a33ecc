"""Graceful-degradation classification under an escalating fault ladder.

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

:func:`degradation_frontier` runs one or more scenarios across an
escalating fault ladder (:func:`default_ladder`) and tabulates the
outcome per rung — the *degradation frontier* of each algorithm.  All
executions are seeded and replayable: a rung is just a
:mod:`repro.faults.spec` spec, so any frontier cell can be re-run via
``params["faults"]`` in the falsify harness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.crash_renaming import RenamingFailure
from repro.falsify.monitors import (
    InvariantViolation,
    default_monitors,
    default_watchdog_rounds,
)
from repro.falsify.scenarios import (
    make_adversary,
    resolve_scenario,
    run_scenario,
)
from repro.faults.base import FaultModel, FaultVerdict, NoFaults
from repro.faults.spec import build_fault_model, spec_to_json
from repro.sim.network import NonTerminationError

SAFE_TERMINATED = "SAFE_TERMINATED"
SAFE_STALLED = "SAFE_STALLED"
SAFETY_VIOLATED = "SAFETY_VIOLATED"
CRASHED = "CRASHED"

#: Ordered best-to-worst, for frontier summaries.
OUTCOMES = (SAFE_TERMINATED, SAFE_STALLED, SAFETY_VIOLATED, CRASHED)


def outcome_rank(outcome: str) -> int:
    """Severity index into :data:`OUTCOMES` (0 best, 3 worst).

    Shared vocabulary for anything that compares degradation levels —
    the serve-level chaos harness ranks its rung outcomes with the same
    scale the protocol-level frontier uses.
    """
    return OUTCOMES.index(outcome)

#: Invariants whose violation means "liveness lost", not "wrong answer".
LIVENESS_INVARIANTS = frozenset({"round-budget"})


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
    """One step of the escalating fault ladder."""

    label: str
    spec: tuple  # normalized spec entries, as an immutable tuple

    @property
    def spec_json(self) -> str:
        return spec_to_json(list(self.spec))


def _rung(label: str, spec: Sequence[dict]) -> Rung:
    return Rung(label, tuple(dict(entry) for entry in spec))


def default_ladder(n: int) -> list[Rung]:
    """The standard escalating ladder: a fault-free control, then each
    fault class alone at increasing pressure, then a composed worst
    case.  Specs depend only on ``n`` so frontiers are comparable
    across scenarios and replayable from their JSON."""
    return [
        _rung("none", []),
        _rung("omission-1%", [{"kind": "omission", "p": 0.01}]),
        _rung("omission-5%", [{"kind": "omission", "p": 0.05}]),
        _rung("omission-20%", [{"kind": "omission", "p": 0.20}]),
        _rung("omission-5%-budget2n",
              [{"kind": "omission", "p": 0.05, "budget": 2 * n}]),
        _rung("duplicate-20%", [{"kind": "duplicate", "p": 0.20}]),
        _rung("corrupt-10%", [{"kind": "corrupt", "p": 0.10}]),
        _rung("partition-3r", [{"kind": "partition", "start": 2, "end": 5}]),
        _rung("partition-8r", [{"kind": "partition", "start": 2, "end": 10}]),
        _rung("omission+partition",
              [{"kind": "omission", "p": 0.05, "budget": 2 * n},
               {"kind": "partition", "start": 3, "end": 6}]),
    ]


def classify_outcome(execute: Callable[[], object]) -> tuple[str, dict]:
    """Run ``execute`` and fold its fate into an outcome + detail dict.

    The classification rules (see the module docstring): a liveness
    invariant, :class:`NonTerminationError` or the protocol's own
    :class:`RenamingFailure` is a stall; any other
    :class:`InvariantViolation` is a safety violation; any other
    exception is a crash; otherwise the run terminated safely.
    """
    try:
        result = execute()
    except InvariantViolation as violation:
        detail = {
            "invariant": violation.invariant,
            "round": violation.round_no,
            "nodes": list(violation.nodes)[:16],
        }
        if violation.invariant in LIVENESS_INVARIANTS:
            return SAFE_STALLED, detail
        return SAFETY_VIOLATED, detail
    except NonTerminationError as hang:
        return SAFE_STALLED, {
            "invariant": "max-rounds",
            "round": hang.round_no,
            "nodes": list(hang.pending)[:16],
        }
    except RenamingFailure as failure:
        # A node finished every phase still holding a wide interval:
        # nobody got a wrong name, somebody got none.
        return SAFE_STALLED, {
            "error": type(failure).__name__,
            "message": str(failure)[:200],
        }
    except Exception as error:  # the implementation fell over
        return CRASHED, {
            "error": type(error).__name__,
            "message": str(error)[:200],
        }
    return SAFE_TERMINATED, {"result": result}


def classify_scenario(
    scenario_name: str,
    n: int,
    f: int,
    seed: int,
    spec,
    *,
    adversary: str = "none",
    watchdog_rounds: Optional[int] = None,
) -> dict:
    """Classify one (scenario, fault spec) cell; returns a frontier row."""
    scenario = resolve_scenario(scenario_name)
    model = build_fault_model(spec, n, seed)
    # An empty spec still passes an explicit NoFaults: the explicit
    # instance overrides any default fault spec a fault scenario (e.g.
    # `gossip-faults`) would otherwise inject, so the ladder's control
    # rung is genuinely fault-free for every scenario.  NoFaults is
    # counted-result-identical to fault_model=None (A/B-tested).
    tap = FaultTap(model if model is not None else NoFaults())
    if watchdog_rounds is None:
        watchdog_rounds = default_watchdog_rounds(n)
    monitors = default_monitors(n, f, bound=scenario.bound,
                                watchdog_rounds=watchdog_rounds)

    def execute():
        return run_scenario(
            scenario_name, n, f, seed,
            adversary=make_adversary(adversary, f, seed), monitors=monitors,
            fault_model=tap,
        )

    outcome, detail = classify_outcome(execute)
    row = {
        "scenario": scenario_name,
        "adversary": adversary,
        "n": n,
        "f_budget": f,
        "seed": seed,
        "faults": spec_to_json(spec),
        "outcome": outcome,
    }
    if outcome == SAFE_TERMINATED:
        result = detail["result"]
        row["rounds"] = result.rounds
        row["messages"] = result.metrics.correct_messages
        row["bits"] = result.metrics.correct_bits
        stats = result.fault_stats
        row.update(stats.as_dict() if stats is not None else
                   {"dropped": 0, "duplicated": 0, "corrupted": 0,
                    "held": 0, "released": 0, "released_to_dead": 0,
                    "expired": 0})
        row["detail"] = None
        row["_result"] = result
    else:
        row["rounds"] = detail.get("round")
        row["messages"] = None
        row["bits"] = None
        issued = tap.issued if tap is not None else {}
        row.update({
            "dropped": issued.get("drop", 0),
            "duplicated": issued.get("duplicate", 0),
            "corrupted": issued.get("corrupt", 0),
            "held": issued.get("hold", 0),
            "released": None,
            "released_to_dead": None,
            "expired": None,
        })
        row["detail"] = json.dumps(detail, default=repr)
    return row


def degradation_frontier(
    scenarios: Sequence[str],
    n: int,
    f: int,
    seed: int,
    *,
    ladder: Optional[Sequence[Rung]] = None,
    adversary: str = "none",
    watchdog_rounds: Optional[int] = None,
) -> list[dict]:
    """The degradation-frontier table: one row per (scenario, rung).

    Rows carry a ``rung`` label plus everything
    :func:`classify_scenario` reports; internal ``_result`` handles are
    stripped so the table is JSON-friendly.
    """
    if ladder is None:
        ladder = default_ladder(n)
    rows = []
    for scenario_name in scenarios:
        for rung in ladder:
            row = classify_scenario(
                scenario_name, n, f, seed, list(rung.spec),
                adversary=adversary, watchdog_rounds=watchdog_rounds,
            )
            row.pop("_result", None)
            row["rung"] = rung.label
            rows.append(row)
    return rows


def summarize_frontier(rows: Sequence[dict]) -> list[dict]:
    """Per-scenario frontier summary, in first-seen scenario order:
    how far up the ladder the algorithm stays fully safe, and the first
    rung (if any) where safety — not just liveness — is lost."""
    order: list[str] = []
    by_scenario: dict[str, list[dict]] = {}
    for row in rows:
        name = row["scenario"]
        if name not in by_scenario:
            order.append(name)
            by_scenario[name] = []
        by_scenario[name].append(row)
    summaries = []
    for name in order:
        cells = by_scenario[name]
        last_safe = None
        first_unsafe = None
        worst = SAFE_TERMINATED
        for cell in cells:
            outcome = cell["outcome"]
            if outcome == SAFE_TERMINATED:
                last_safe = cell["rung"]
            elif (first_unsafe is None
                    and outcome in (SAFETY_VIOLATED, CRASHED)):
                first_unsafe = cell["rung"]
            if OUTCOMES.index(outcome) > OUTCOMES.index(worst):
                worst = outcome
        summaries.append({
            "scenario": name,
            "rungs": len(cells),
            "safe": sum(1 for c in cells
                        if c["outcome"] == SAFE_TERMINATED),
            "stalled": sum(1 for c in cells
                           if c["outcome"] == SAFE_STALLED),
            "violated": sum(1 for c in cells
                            if c["outcome"] == SAFETY_VIOLATED),
            "crashed": sum(1 for c in cells if c["outcome"] == CRASHED),
            "last_safe_rung": last_safe,
            "first_unsafe_rung": first_unsafe,
            "worst_outcome": worst,
        })
    return summaries
