"""The ``faults`` engine driver: classified fault executions.

One engine row = one (scenario, adversary, fault spec) execution under
the falsifier's monitors, folded by :func:`classify_outcome` into the
:mod:`repro.faults.degradation` vocabulary.  Because fault specs
travel as JSON strings, rows are content-addressed by the store like
any other driver's — the same spec under the same code version is a
cache hit.  Every fault sweep is a list of ``faults`` requests through
:func:`repro.engine.run_requests`: ``python -m repro sweep --driver
faults`` crosses one spec with ``n`` and seeds, and ``python -m repro
faults`` plays each rung of a ladder (:meth:`Rung.params
<repro.faults.degradation.Rung.params>`) per scenario — the
degradation frontier.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

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
from repro.faults.base import NoFaults
from repro.faults.degradation import (
    CRASHED,
    SAFE_STALLED,
    SAFE_TERMINATED,
    SAFETY_VIOLATED,
    FaultTap,
)
from repro.faults.spec import build_fault_model, spec_to_json
from repro.sim.network import NonTerminationError

#: Invariants whose violation means "liveness lost", not "wrong answer".
LIVENESS_INVARIANTS = frozenset({"round-budget"})


def classify_outcome(execute: Callable[[], object]) -> tuple[str, dict]:
    """Run ``execute`` and fold its fate into an outcome + detail dict.

    The classification rules (see :mod:`repro.faults.degradation`): a
    liveness invariant, :class:`NonTerminationError` or the protocol's
    own :class:`RenamingFailure` is a stall; any other
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


def faults_inputs(n, f, seed, *, scenario, adversary, faults, **_) -> tuple:
    """:func:`faults_run_summary`'s monitor bound, fault model and crash
    adversary, built: a bad param raises here, before any run."""
    return (resolve_scenario(scenario).bound,
            build_fault_model(faults, n, seed),
            make_adversary(adversary, f, seed))


def faults_run_summary(
    n: int,
    f: int,
    seed: int,
    *,
    scenario: str = "crash",
    adversary: str = "none",
    faults: str = "[]",
    watchdog_rounds: Optional[int] = None,
    include_rounds: bool = False,
) -> dict:
    """One classified fault execution as an engine driver row.

    Any outcome — including a safety violation or a protocol crash —
    is a *successful* probe (the row records it); only a harness bug
    makes the run ``failed``.  Per-round ledgers are attached only for
    ``SAFE_TERMINATED`` outcomes (aborted executions have no final
    ledger to report).
    """
    bound, model, crash_adversary = faults_inputs(
        n, f, seed, scenario=scenario, adversary=adversary, faults=faults)
    # An empty spec still passes an explicit NoFaults: the explicit
    # instance overrides any default fault spec a fault scenario (e.g.
    # `gossip-faults`) would otherwise inject, so the ladder's control
    # rung is genuinely fault-free for every scenario.  NoFaults is
    # counted-result-identical to fault_model=None (A/B-tested).
    tap = FaultTap(model if model is not None else NoFaults())
    if watchdog_rounds is None:
        watchdog_rounds = default_watchdog_rounds(n)
    monitors = default_monitors(n, f, bound=bound,
                                watchdog_rounds=watchdog_rounds)
    outcome, detail = classify_outcome(lambda: run_scenario(
        scenario, n, f, seed,
        adversary=crash_adversary, monitors=monitors,
        fault_model=tap,
    ))
    row = {
        "scenario": scenario,
        "adversary": adversary,
        "n": n,
        "f_budget": f,
        "seed": seed,
        "faults": spec_to_json(faults),
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
        if include_rounds:
            row["messages_per_round"] = list(result.metrics.messages_per_round)
            row["bits_per_round"] = list(result.metrics.bits_per_round)
    else:
        issued = tap.issued
        row.update({
            "rounds": detail.get("round"),
            "messages": None,
            "bits": None,
            "dropped": issued.get("drop", 0),
            "duplicated": issued.get("duplicate", 0),
            "corrupted": issued.get("corrupt", 0),
            "held": issued.get("hold", 0),
            "released": None,
            "released_to_dead": None,
            "expired": None,
            "detail": json.dumps(detail, default=repr),
        })
    return row
