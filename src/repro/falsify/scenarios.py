"""Named falsification scenarios and adversary factories.

A *scenario* is one end-to-end protocol execution parameterized over an
explicit crash adversary and a monitor suite — the unit the campaign
runner randomizes, the shrinker re-executes, and a repro artifact pins
down.  A scenario names a protocol family and runs it through
:func:`repro.analysis.experiments.execute`, the same function the sweep
drivers run it through, with tracing on — so a falsified configuration
is a sweep row's execution, seeded by the same rule.

The Byzantine families (``byzantine``, ``byzantine-full``) have no
scenario: a campaign's adversaries, its shrinker and its replay
artifacts are crash schedules, and a corrupt set is none of those.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Optional

from repro.adversary.base import CrashAdversary
from repro.analysis.experiments import (
    FAMILIES,
    Family,
    execute,
    make_crash_adversary,
)
from repro.falsify.faulty import run_racy_rank
from repro.falsify.monitors import Monitor, default_monitors
from repro.faults.base import FaultModel
from repro.faults.spec import build_fault_model
from repro.sim.runner import ExecutionResult


@dataclass(frozen=True)
class Scenario:
    """A named falsification target: a protocol family, the namespace
    contract its monitor suite enforces (``bound``: ``strong`` |
    ``tight`` | ``loose``), and the link faults it runs under when none
    are given — a spec as a function of ``n`` only, so a shrunk
    artifact at a smaller ``n`` rebuilds the matching channel.
    """

    name: str
    family: Family
    bound: str = "strong"
    description: str = ""
    default_faults: Optional[Callable[[int], list[dict]]] = None


SCENARIOS: dict[str, Scenario] = {}

#: Adversary kinds the campaign randomizes over by default.
DEFAULT_ADVERSARIES = ("random", "hunter", "partitioner")

#: Per-round crash probability of the ``random`` falsification
#: adversary; deliberately higher than the sweeps' 0.05 so the budget
#: is usually spent within the execution.
FALSIFY_CRASH_RATE = 0.15


def register_scenario(scenario: Scenario) -> Scenario:
    SCENARIOS[scenario.name] = scenario
    return scenario


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def resolve_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        ) from None


def make_adversary(
    kind: Optional[str], f: int, seed: int, *, rate: Optional[float] = None
) -> Optional[CrashAdversary]:
    """A probe's adversary, held by the caller so it can be recorded:
    the one factory on the seeding rule's ``Random(seed + 1)``, at the
    probes' crash rate unless ``rate`` is given."""
    return make_crash_adversary(kind, f, Random(seed + 1),
                                rate=rate or FALSIFY_CRASH_RATE)


def monitors_for(scenario: Scenario, n: int, f: int,
                 watchdog_rounds: Optional[int] = None) -> tuple[Monitor, ...]:
    """The default monitor suite for one scenario execution."""
    return default_monitors(n, f, bound=scenario.bound,
                            watchdog_rounds=watchdog_rounds)


def run_scenario(
    name: str,
    n: int,
    f: int,
    seed: int,
    *,
    adversary: Optional[CrashAdversary] = None,
    monitors: tuple[Monitor, ...] = (),
    params: Optional[dict] = None,
    observer: Optional[object] = None,
    fault_model: Optional[FaultModel] = None,
) -> ExecutionResult:
    """Execute one scenario under an explicit adversary and monitors.

    A link-fault model may be supplied two ways: an explicit
    ``fault_model`` instance, or — the replayable path — a
    :mod:`repro.faults.spec` spec under ``params["faults"]`` (JSON text
    or a list of entry dicts), built with :func:`build_fault_model`
    from the execution seed; with neither, the scenario's
    ``default_faults`` apply.  The spec form travels through repro
    artifacts and engine rows, so shrinking and strict replay
    reconstruct the identical channel.
    """
    scenario = resolve_scenario(name)
    params = dict(params or {})
    if fault_model is None:
        spec = params.get("faults")
        if spec in (None, "", "[]") and scenario.default_faults is not None:
            spec = scenario.default_faults(n)
        fault_model = build_fault_model(spec, n, seed)
    return execute(
        scenario.family, n, f, seed, adversary=adversary, params=params,
        trace=True, monitors=monitors, observer=observer,
        fault_model=fault_model,
    )


# ---------------------------------------------------------------------------
# Concrete scenarios

# Default fault specs of the fault scenarios, chosen from the measured
# degradation frontier (EXPERIMENTS F15): gossip's flooding redundancy
# absorbs omission, duplication, *and* a healing partition, while
# committee renaming — which assumes reliable synchronous links —
# genuinely loses unique-names under omission, and under duplicate
# delivery once a mid-send crash is composed in (see `crash-dup`).


def _gossip_fault_spec(n: int) -> list[dict]:
    return [
        {"kind": "omission", "p": 0.05, "budget": 2 * n},
        {"kind": "partition", "start": 2, "end": 5},
    ]


def _dup_spec(n: int) -> list[dict]:
    return [{"kind": "duplicate", "p": 0.2}]


register_scenario(Scenario(
    "crash", FAMILIES["crash"],
    description="committee renaming under a crash adversary (Thm 1.2)",
))
register_scenario(Scenario(
    "obg", FAMILIES["obg"],
    description="all-to-all halving baseline under crashes",
))
register_scenario(Scenario(
    "balls", FAMILIES["balls"],
    description="balls-into-slots baseline under crashes",
))
register_scenario(Scenario(
    "gossip", FAMILIES["gossip"],
    description="full-information gossip baseline under crashes",
))
register_scenario(Scenario(
    "planted-duplicate",
    Family("planted-duplicate", run_racy_rank, "racy rank (planted bug)"),
    description="fault-injection fixture: racy rank renaming that emits "
                "duplicate names under a mid-send crash",
))
register_scenario(Scenario(
    "gossip-faults", FAMILIES["gossip"], default_faults=_gossip_fault_spec,
    description="gossip baseline over lossy, healing-partition links "
                "(budgeted omission + transient partition): safety and "
                "liveness both survive",
))
register_scenario(Scenario(
    "gossip-dup", FAMILIES["gossip"], default_faults=_dup_spec,
    description="gossip baseline over an at-least-once channel (20% "
                "duplicate delivery): set-union gossip is idempotent, "
                "so safety holds",
))
register_scenario(Scenario(
    "crash-dup", FAMILIES["crash"], default_faults=_dup_spec,
    description="committee renaming over an at-least-once channel (20% "
                "duplicate delivery): NOT expected to stay clean — "
                "composed with a mid-send crash adversary, duplicated "
                "committee votes falsify unique-names (a deliberate "
                "demonstration target, excluded from the defaults)",
))

#: Scenarios the smoke campaign runs by default — every real driver
#: plus the two empirically-clean fault-model scenarios, excluding the
#: planted fault-injection fixtures and the known-to-falsify
#: `crash-dup` probe.
DEFAULT_SCENARIOS = ("crash", "obg", "balls", "gossip",
                     "gossip-faults", "gossip-dup")
