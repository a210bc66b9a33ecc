"""The ``faults`` sweep-engine driver: classified fault executions.

One engine row = one (scenario, adversary, fault spec) execution,
classified by :func:`repro.faults.degradation.classify_scenario`.
Because fault specs travel as JSON strings, rows are content-addressed
by the store like any other driver's — the same spec under the same
code version is a cache hit.  A sweep of it is a
``SweepSpec(...).requests()`` list through
:func:`repro.engine.run_requests` (``python -m repro sweep --driver
faults``); the ``faults`` CLI subcommand does not use this driver, it
walks the ladder through
:func:`repro.faults.degradation.degradation_frontier`.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.degradation import SAFE_TERMINATED, classify_scenario


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
    row = classify_scenario(
        scenario, n, f, seed, faults,
        adversary=adversary, watchdog_rounds=watchdog_rounds,
    )
    result = row.pop("_result", None)
    if include_rounds and row["outcome"] == SAFE_TERMINATED:
        row["messages_per_round"] = list(result.metrics.messages_per_round)
        row["bits_per_round"] = list(result.metrics.bits_per_round)
    return row
