"""Randomized falsification campaigns over the sweep engine.

A campaign fans ``scenario x adversary x n x seed`` configurations out
through :func:`repro.engine.pool.run_requests` — so it inherits the
pool's crash isolation, bounded per-task retry, and the SQLite store's
content-addressed dedup: a configuration already probed under the
current code version is a cache hit, not a re-execution.

Every configuration runs under a :class:`RecordingAdversary` and the
full monitor suite; a violated invariant (or a hang) becomes a row
carrying the recorded crash schedule, which the campaign then shrinks
to a minimal, strictly-replayable JSON repro artifact.

If the process pool itself breaks (not one task — the pool), the
campaign degrades gracefully to serial in-process execution rather
than dropping the batch.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.analysis.experiments import FAMILIES
from repro.engine.store import RunStore, code_version
from repro.falsify.monitors import InvariantViolation
from repro.falsify.replay import (
    RecordingAdversary,
    ReproArtifact,
    schedule_from_json,
    schedule_size,
    schedule_to_json,
)
from repro.falsify.scenarios import (
    DEFAULT_ADVERSARIES,
    DEFAULT_SCENARIOS,
    make_adversary,
    monitors_for,
    resolve_scenario,
    run_scenario,
)
from repro.falsify.shrink import (
    NON_TERMINATION,
    ShrinkReport,
    probe,
    shrink_artifact,
)
from repro.sim.network import NonTerminationError

#: Request parameters that configure the harness itself, not the
#: scenario; stripped before params reach the scenario function.
HARNESS_PARAMS = ("scenario", "adversary", "rate", "watchdog_rounds")


def falsify_inputs(n, f, seed, *, scenario, adversary, rate,
                   watchdog_rounds, scenario_params=None, **_) -> tuple:
    """:func:`falsify_run_summary`'s crash adversary and monitors, built:
    a bad param raises here, before any run.  A campaign's params reach
    every scenario of its grid, so a scenario param need only be one
    that ``run_scenario`` (``faults``) or some family reads."""
    read = {"faults"}.union(*(family.params for family in FAMILIES.values()))
    unknown = sorted(set(scenario_params or ()) - read)
    if unknown:
        raise TypeError(
            f"falsify takes no param {', '.join(unknown)}; known: "
            f"{', '.join([*HARNESS_PARAMS, *sorted(read)])}")
    if rate is not None and type(rate) not in (int, float):
        raise TypeError(f"falsify param rate={rate!r} is not a number")
    return (make_adversary(adversary, f, seed, rate=rate),
            monitors_for(resolve_scenario(scenario), n, f,
                         watchdog_rounds=watchdog_rounds))


def falsify_run_summary(
    n: int,
    f: int,
    seed: int,
    *,
    scenario: str = "crash",
    adversary: str = "random",
    rate: Optional[float] = None,
    watchdog_rounds: Optional[int] = None,
    include_rounds: bool = False,
    **scenario_params,
) -> dict:
    """One falsification probe, summarized as an engine driver row.

    Registered as the ``falsify`` driver so probes flow through the
    sweep engine (pool parallelism + store dedup).  A violation is a
    *successful* probe: the row records the invariant, the offending
    nodes, and the recorded crash schedule; only a driver bug makes
    the run ``failed``.
    """
    inner, monitors = falsify_inputs(n, f, seed, scenario=scenario,
                                     adversary=adversary, rate=rate,
                                     watchdog_rounds=watchdog_rounds,
                                     scenario_params=scenario_params)
    recorder = RecordingAdversary(inner) if inner is not None else None
    row = {
        "scenario": scenario,
        "adversary": adversary,
        "n": n,
        "f_budget": f,
        "seed": seed,
    }
    try:
        result = run_scenario(
            scenario, n, f, seed,
            adversary=recorder, monitors=monitors, params=scenario_params,
        )
    except InvariantViolation as violation:
        return {
            **row,
            "violation": violation.invariant,
            "violation_round": violation.round_no,
            "violation_nodes": json.dumps(list(violation.nodes)),
            "violation_detail": json.dumps(violation.detail, default=repr),
            "schedule": _schedule_json(recorder),
            "f_actual": len(recorder.crashed) if recorder else 0,
            "rounds": violation.round_no,
        }
    except NonTerminationError as hang:
        return {
            **row,
            "violation": NON_TERMINATION,
            "violation_round": hang.round_no,
            "violation_nodes": json.dumps(list(hang.pending[:32])),
            "violation_detail": json.dumps(
                {"pending": list(hang.pending[:32])}
            ),
            "schedule": _schedule_json(recorder),
            "f_actual": len(recorder.crashed) if recorder else 0,
            "rounds": hang.round_no,
        }
    summary = {
        **row,
        "violation": None,
        "violation_round": None,
        "violation_nodes": None,
        "violation_detail": None,
        "schedule": _schedule_json(recorder),
        "f_actual": len(result.crashed),
        "rounds": result.rounds,
        "messages": result.metrics.correct_messages,
        "bits": result.metrics.correct_bits,
    }
    if include_rounds:
        summary["messages_per_round"] = list(
            result.metrics.messages_per_round)
        summary["bits_per_round"] = list(result.metrics.bits_per_round)
    return summary


def _schedule_json(recorder: Optional[RecordingAdversary]) -> str:
    schedule = recorder.schedule if recorder is not None else {}
    return json.dumps(schedule_to_json(schedule))


def artifact_from_row(row: dict, params: Optional[dict] = None,
                      ) -> ReproArtifact:
    """Rebuild the (unshrunk) repro artifact a violating row describes."""
    if not row.get("violation"):
        raise ValueError("row records no violation")
    schedule = schedule_from_json(json.loads(row.get("schedule") or "[]"))
    scenario_params = {
        key: value for key, value in (params or {}).items()
        if key not in HARNESS_PARAMS
    }
    return ReproArtifact(
        scenario=row["scenario"],
        n=row["n"],
        f=schedule_size(schedule),
        seed=row["seed"],
        params=scenario_params,
        schedule=schedule,
        invariant=row["violation"],
        violation_round=row.get("violation_round") or 0,
        nodes=tuple(json.loads(row.get("violation_nodes") or "[]")),
        detail=json.loads(row.get("violation_detail") or "null"),
        code_version=code_version(),
    )


def replay_artifact(artifact: ReproArtifact) -> Optional[Exception]:
    """Strictly replay an artifact; return the reproduced failure.

    Returns the :class:`InvariantViolation` (or
    :class:`NonTerminationError`) if the recorded invariant is
    reproduced, ``None`` if the execution completed cleanly or
    violated something else.  A divergence from the recording raises
    :class:`~repro.falsify.replay.ReplayMismatch`.
    """
    outcome = probe(
        artifact.scenario, artifact.n, artifact.seed, artifact.schedule,
        artifact.params, strict=True,
    )
    if outcome is not None and outcome.invariant == artifact.invariant:
        return outcome.error
    return None


# ---------------------------------------------------------------------------
# Campaign orchestration


@dataclass
class CampaignConfig:
    """One falsification campaign, fully declarative."""

    scenarios: Sequence[str] = DEFAULT_SCENARIOS
    n_values: Sequence[int] = (8, 12)
    seeds: Sequence[int] = tuple(range(4))
    f: str = "max(1, n // 4)"
    adversaries: Sequence[str] = DEFAULT_ADVERSARIES
    jobs: int = 1
    timeout: Optional[float] = None
    time_budget: Optional[float] = None
    shrink: bool = True
    max_shrink_executions: int = 300
    params: dict = field(default_factory=dict)


@dataclass
class Finding:
    """One falsified configuration, shrunk and verified."""

    row: dict
    artifact: ReproArtifact
    raw_artifact: ReproArtifact
    shrink: Optional[ShrinkReport]
    replayed: bool

    def describe(self) -> str:
        status = "replays" if self.replayed else "DOES NOT REPLAY"
        suffix = f"; {self.shrink.describe()}" if self.shrink else ""
        return f"{self.artifact.describe()} [{status}]{suffix}"


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    findings: list[Finding]
    results: list
    failures: list
    executed: int
    cached: int
    degraded: bool
    skipped: int = 0

    @property
    def falsified(self) -> bool:
        return bool(self.findings)


def campaign_requests(config: CampaignConfig) -> list:
    """The campaign's probe grid as engine requests."""
    from repro.engine.sweeps import RunRequest, evaluate_f

    return [
        RunRequest.make(
            "falsify", n, evaluate_f(config.f, n), seed,
            scenario=scenario, adversary=adversary, **config.params,
        )
        for scenario in config.scenarios
        for adversary in config.adversaries
        for n in config.n_values
        for seed in config.seeds
    ]


def run_campaign(
    config: CampaignConfig,
    *,
    store: Optional[RunStore] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    clock: Callable[[], float] = time.monotonic,
    observer: Optional[object] = None,
) -> CampaignResult:
    """Run a campaign: probe the grid, shrink and verify every finding.

    ``observer`` (a :class:`repro.obs.EventRecorder`, optional) receives
    the probe lifecycle as ``campaign.*`` events: one ``campaign.begin`` /
    ``campaign.end`` pair, a ``campaign.batch`` per probe batch handed
    to the engine, and a ``campaign.finding`` plus a ``campaign.shrink``
    span per falsified configuration.
    """
    from repro.engine.pool import run_requests

    requests = campaign_requests(config)
    if observer is not None:
        observer.emit("campaign.begin", probes=len(requests),
                      scenarios=",".join(config.scenarios),
                      adversaries=",".join(config.adversaries))
    batch_size = max(4 * max(config.jobs, 1), 8)
    started = clock()
    results: list = []
    degraded = False
    skipped = 0
    for cursor in range(0, len(requests), batch_size):
        if (config.time_budget is not None
                and clock() - started > config.time_budget):
            skipped = len(requests) - cursor
            break
        batch = requests[cursor:cursor + batch_size]
        if observer is not None:
            observer.emit("campaign.batch", cursor=cursor, size=len(batch))
        try:
            results.extend(run_requests(
                batch, jobs=config.jobs, store=store, timeout=config.timeout,
                observer=observer,
            ))
        except Exception:
            # The pool itself broke (not one task): degrade to serial
            # in-process execution rather than dropping the batch.
            degraded = True
            results.extend(run_requests(batch, jobs=1, store=store,
                                        observer=observer))
        if progress is not None:
            progress(len(results), len(requests))

    findings: list[Finding] = []
    for result in results:
        if not (result.ok and result.row and result.row.get("violation")):
            continue
        raw = artifact_from_row(result.row, result.request.params_dict())
        if observer is not None:
            observer.emit("campaign.finding", scenario=raw.scenario,
                          invariant=raw.invariant, n=raw.n, seed=raw.seed)
        report: Optional[ShrinkReport] = None
        artifact = raw
        if config.shrink:
            if observer is not None:
                with observer.span("campaign.shrink",
                                   scenario=raw.scenario, seed=raw.seed):
                    report = shrink_artifact(
                        raw, max_executions=config.max_shrink_executions)
            else:
                report = shrink_artifact(
                    raw, max_executions=config.max_shrink_executions)
            artifact = report.artifact
        replayed = replay_artifact(artifact) is not None
        findings.append(Finding(
            row=result.row, artifact=artifact, raw_artifact=raw,
            shrink=report, replayed=replayed,
        ))

    failures = [result for result in results if not result.ok]
    cached = sum(1 for result in results if result.cached)
    if observer is not None:
        observer.emit("campaign.end", findings=len(findings),
                      failures=len(failures), cached=cached,
                      skipped=skipped)
    return CampaignResult(
        findings=findings,
        results=results,
        failures=failures,
        executed=len(results) - cached - len(failures),
        cached=cached,
        degraded=degraded,
        skipped=skipped,
    )


def save_findings(result: CampaignResult, out_dir) -> list[Path]:
    """Write each finding's artifact to ``out_dir``; return the paths."""
    out_dir = Path(out_dir)
    paths = []
    for index, finding in enumerate(result.findings):
        artifact = finding.artifact
        name = (f"repro-{artifact.scenario}-{artifact.invariant}"
                f"-n{artifact.n}-s{artifact.seed}-{index:03d}.json")
        paths.append(artifact.save(out_dir / name))
    return paths
