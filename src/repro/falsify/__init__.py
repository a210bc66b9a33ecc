"""Falsification harness: invariant monitors, schedule replay, shrinking.

Three layers, bottom to top:

* :mod:`repro.falsify.monitors` — per-round safety invariants hooked
  into the network via ``run_network(..., monitors=...)``; violations
  raise a structured :class:`InvariantViolation`.
* :mod:`repro.falsify.replay` / :mod:`repro.falsify.shrink` — record a
  failing execution's adversary schedule, serialize it to a JSON repro
  artifact, replay it deterministically, and delta-debug it down to
  the smallest execution that still fails.
* :mod:`repro.falsify.campaign` — the ``python -m repro falsify``
  campaign runner: randomized probes fanned out through the sweep
  engine, every finding shrunk and verified to replay.
"""

from repro.falsify.campaign import (
    CampaignConfig,
    CampaignResult,
    Finding,
    artifact_from_row,
    falsify_run_summary,
    replay_artifact,
    run_campaign,
    save_findings,
)
from repro.falsify.monitors import (
    CrashBudget,
    InvariantViolation,
    LedgerMonotone,
    Monitor,
    NamespaceBounds,
    RoundBudget,
    UniqueNames,
    default_monitors,
)
from repro.falsify.replay import (
    RecordingAdversary,
    ReplayAdversary,
    ReplayMismatch,
    ReproArtifact,
)
from repro.falsify.scenarios import (
    SCENARIOS,
    Scenario,
    make_adversary,
    register_scenario,
    run_scenario,
)
from repro.falsify.shrink import ShrinkReport, probe, shrink_artifact

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CrashBudget",
    "Finding",
    "InvariantViolation",
    "LedgerMonotone",
    "Monitor",
    "NamespaceBounds",
    "RecordingAdversary",
    "ReplayAdversary",
    "ReplayMismatch",
    "ReproArtifact",
    "RoundBudget",
    "SCENARIOS",
    "Scenario",
    "ShrinkReport",
    "UniqueNames",
    "artifact_from_row",
    "default_monitors",
    "falsify_run_summary",
    "make_adversary",
    "probe",
    "register_scenario",
    "replay_artifact",
    "run_campaign",
    "run_scenario",
    "save_findings",
    "shrink_artifact",
]
