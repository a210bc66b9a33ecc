"""Capture and deterministic replay of adversary schedules.

A failing execution is only useful if it can be re-run.  Messages are
arbitrary protocol dataclasses, so a schedule is serialized *by
position*: for every crash the artifact records the round, the victim,
and the indices (into the victim's proposed send list of that round) of
the messages still delivered before the crash.  Because every execution
in this repo is deterministic given ``(scenario, n, f, seed)``, the
proposed send lists are reproducible and the indices pin down the exact
mid-send split.

* :class:`RecordingAdversary` wraps any
  :class:`~repro.adversary.base.CrashAdversary` and records the plan it
  actually applied, round by round.
* :class:`ReplayAdversary` re-applies a recorded schedule.  ``strict``
  replay raises :class:`ReplayMismatch` if the execution diverges from
  the recording (a victim already dead, an index out of range);
  lenient replay skips what no longer applies — that is what the
  shrinker needs while it perturbs the schedule.
* :class:`ReproArtifact` is the JSON repro file: scenario identity,
  schedule, and the violation it reproduces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.adversary.base import (
    CrashAdversary,
    CrashPlan,
    kept_indices,
)

#: round -> victim -> indices of the victim's proposed sends delivered.
Schedule = dict[int, dict[int, tuple[int, ...]]]

ARTIFACT_KIND = "repro.falsify/repro"
ARTIFACT_FORMAT = 1


class ReplayMismatch(RuntimeError):
    """A strict replay diverged from the recorded schedule."""


def schedule_size(schedule: Mapping[int, Mapping[int, Sequence[int]]]) -> int:
    """Number of crash entries (victims) across the whole schedule."""
    return sum(len(step) for step in schedule.values())


def normalize_schedule(
    schedule: Mapping[int, Mapping[int, Sequence[int]]],
) -> Schedule:
    """Int keys, tuple values, empty steps dropped — the canonical form."""
    return {
        int(round_no): {
            int(victim): tuple(int(i) for i in kept)
            for victim, kept in step.items()
        }
        for round_no, step in schedule.items()
        if step
    }


class RecordingAdversary(CrashAdversary):
    """Wraps an adversary and records every applied plan as indices.

    The wrapper is transparent: it delegates ``plan_round`` to the
    inner adversary and forwards ``note_crashes`` so adaptive inner
    strategies keep seeing their own remaining budget.  What it writes
    down is the plan it is handed, through the rule the network applies
    it with (:func:`~repro.adversary.base.kept_indices`: indices as
    they are, a policy's kept ``Send`` objects identity first), so a
    recorded index always names the instance the network delivered —
    including when a victim proposed duplicate identical sends.
    """

    def __init__(self, inner: CrashAdversary):
        super().__init__(budget=inner.budget)
        self.inner = inner
        self.schedule: Schedule = {}

    def plan_round(self, round_no, proposed, alive, trace) -> CrashPlan:
        plan = self.inner.plan_round(round_no, proposed, alive, trace)
        if plan:
            self.schedule[round_no] = {
                victim: kept_indices(kept, proposed.get(victim, ()))
                for victim, kept in plan.items()
            }
        return plan

    def note_crashes(self, victims: set[int]) -> None:
        super().note_crashes(victims)
        self.inner.note_crashes(victims)


class ReplayAdversary(CrashAdversary):
    """Re-applies a recorded schedule deterministically.

    ``strict=True`` (artifact verification) raises
    :class:`ReplayMismatch` on any divergence from the recording;
    ``strict=False`` (shrinking) silently drops entries that no longer
    apply, because removing one crash legitimately changes everything
    downstream of it.
    """

    def __init__(
        self,
        schedule: Mapping[int, Mapping[int, Sequence[int]]],
        *,
        strict: bool = True,
    ):
        schedule = normalize_schedule(schedule)
        super().__init__(budget=schedule_size(schedule))
        self.schedule = schedule
        self.strict = strict

    def plan_round(self, round_no, proposed, alive, trace) -> CrashPlan:
        step = self.schedule.get(round_no)
        if not step:
            return {}
        plan: dict[int, list[int]] = {}
        for victim, recorded in step.items():
            if victim not in alive:
                if self.strict:
                    raise ReplayMismatch(
                        f"round {round_no}: recorded victim {victim} is not "
                        f"alive in the replayed execution"
                    )
                continue
            fanout = len(proposed.get(victim, ()))
            out_of_range = [i for i in recorded if i >= fanout]
            if out_of_range and self.strict:
                raise ReplayMismatch(
                    f"round {round_no}: victim {victim} proposed "
                    f"{fanout} messages, recording kept indices "
                    f"{sorted(out_of_range)}"
                )
            plan[victim] = [i for i in recorded if i < fanout]
        return plan


# ---------------------------------------------------------------------------
# Repro artifacts


def schedule_to_json(schedule: Schedule) -> list[dict]:
    return [
        {
            "round": round_no,
            "victims": {
                str(victim): list(kept)
                for victim, kept in sorted(step.items())
            },
        }
        for round_no, step in sorted(schedule.items())
    ]


def schedule_from_json(data: Sequence[Mapping]) -> Schedule:
    return normalize_schedule({
        step["round"]: {
            int(victim): tuple(kept)
            for victim, kept in step.get("victims", {}).items()
        }
        for step in data
    })


@dataclass
class ReproArtifact:
    """A self-contained, replayable description of a failing execution."""

    scenario: str
    n: int
    f: int
    seed: int
    invariant: str
    schedule: Schedule = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    violation_round: int = 0
    nodes: tuple[int, ...] = ()
    detail: object = None
    code_version: str = ""

    def to_json(self) -> dict:
        return {
            "kind": ARTIFACT_KIND,
            "format": ARTIFACT_FORMAT,
            "scenario": self.scenario,
            "n": self.n,
            "f": self.f,
            "seed": self.seed,
            "params": dict(self.params),
            "schedule": schedule_to_json(self.schedule),
            "violation": {
                "invariant": self.invariant,
                "round": self.violation_round,
                "nodes": list(self.nodes),
                "detail": self.detail,
            },
            "code_version": self.code_version,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ReproArtifact":
        if data.get("kind") != ARTIFACT_KIND:
            raise ValueError(
                f"not a falsify repro artifact: kind={data.get('kind')!r}"
            )
        if data.get("format") != ARTIFACT_FORMAT:
            raise ValueError(
                f"unsupported artifact format {data.get('format')!r} "
                f"(this build reads format {ARTIFACT_FORMAT})"
            )
        violation = data.get("violation", {})
        return cls(
            scenario=data["scenario"],
            n=int(data["n"]),
            f=int(data["f"]),
            seed=int(data["seed"]),
            params=dict(data.get("params", {})),
            schedule=schedule_from_json(data.get("schedule", ())),
            invariant=violation.get("invariant", "unknown"),
            violation_round=int(violation.get("round", 0)),
            nodes=tuple(violation.get("nodes", ())),
            detail=violation.get("detail"),
            code_version=data.get("code_version", ""),
        )

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True)
                        + "\n")
        return path

    @classmethod
    def load(cls, path) -> "ReproArtifact":
        return cls.from_json(json.loads(Path(path).read_text()))

    def describe(self) -> str:
        return (
            f"{self.scenario}(n={self.n}, f={self.f}, seed={self.seed}) "
            f"violates {self.invariant} at round {self.violation_round} "
            f"with {schedule_size(self.schedule)} scheduled crashes"
        )
