"""The serving layer's degradation ladder and its classification.

PR 5 measured how the *protocol* degrades under an escalating ladder
of link faults; this module names how the *service* degrades — the
level users actually see.  Each rung of :func:`default_chaos_ladder`
injects a :mod:`repro.faults` channel model into one or more shards
of a :class:`~repro.serve.service.RenamingService` (usually bounded to
a transient window of protocol attempts); the rung is the protocol
ladder's :class:`~repro.faults.degradation.Rung`, whose
:meth:`~repro.faults.degradation.Rung.params` say so in the keywords
of the ``serve`` engine driver, and :func:`classify_serve_run` folds
that driver's row into the same vocabulary:

``SAFE_TERMINATED``
    Every accepted request was answered and the final global
    assignment is duplicate-free — the service absorbed the rung.
``SAFE_STALLED``
    Some requests failed (degraded / shed / deadline-expired) but
    every future resolved and uniqueness held: liveness partially
    lost, safety intact — graceful degradation.
``SAFETY_VIOLATED``
    The final assignment contains a duplicate global id.
``CRASHED``
    Futures were left unresolved — the serving layer itself fell over
    rather than degrading.

Each rung is played twice on the same trace: *resilient* (retries +
circuit breaker, :data:`DEFAULT_CHAOS_RESILIENCE`) and *baseline*
(``resilience=None`` — PR 6's fail-the-batch behaviour), so the
frontier is an A/B statement about what the resilience layer buys.
Figure ``F17`` of ``benchmarks/figures.py`` is that frontier.
Everything is virtual-time deterministic: same params, same seed,
same rows.
"""

from __future__ import annotations

from repro.faults.degradation import (
    CRASHED,
    SAFE_STALLED,
    SAFE_TERMINATED,
    SAFETY_VIOLATED,
    Rung,
)
from repro.serve.resilience import ResiliencePolicy

#: Default policy for the resilient arm: enough retries to outlast the
#: default fault window, a breaker that trips fast (the faulted shard
#: fails several consecutive attempts inside one window) and probes on
#: a cooldown short relative to the virtual trace span (~requests /
#: arrival_rate seconds).
DEFAULT_CHAOS_RESILIENCE = ResiliencePolicy(
    max_retries=4,
    backoff_base=0.005,
    backoff_factor=2.0,
    backoff_jitter=0.5,
    deadline=None,
    breaker_threshold=3,
    breaker_cooldown=0.05,
    shed_capacity=1024,
)

#: Default transient-outage window: protocol attempts 1-8 of each
#: faulted shard are under fault pressure, later attempts run clean.
DEFAULT_WINDOW = (1, 9)


def default_chaos_ladder() -> list[Rung]:
    """The serve ladder: control, outages of rising pressure windowed to
    :data:`DEFAULT_WINDOW`, then persistent faults.  Windowed rungs
    model a transient incident (the acceptance scenario: requests
    should ride across it); persistent rungs show the service's
    behaviour when the outage never ends (retries exhaust, the breaker
    stays open — degraded but safe)."""
    window = DEFAULT_WINDOW
    return [
        Rung("none"),
        Rung("omission-10%-window",
             ({"kind": "omission", "p": 0.10},), window),
        Rung("omission-50%-window",
             ({"kind": "omission", "p": 0.50},), window),
        Rung("omission-100%-window",
             ({"kind": "omission", "p": 1.0},), window),
        Rung("corrupt-20%-window",
             ({"kind": "corrupt", "p": 0.20},), window),
        Rung("duplicate-20%",
             ({"kind": "duplicate", "p": 0.20},)),
        Rung("partition-3r-window",
             ({"kind": "partition", "start": 2, "end": 5},), window),
        Rung("omission-100%-persistent",
             ({"kind": "omission", "p": 1.0},)),
    ]


def classify_serve_run(report: dict) -> tuple[str, dict]:
    """Fold one ``serve`` driver row (or ``execute_profile`` report)
    into an outcome + detail."""
    if not report.get("unique", False):
        return SAFETY_VIOLATED, {"invariant": "unique-names"}
    if report.get("unresolved", 0):
        return CRASHED, {"error": "unresolved-futures",
                         "unresolved": report["unresolved"]}
    if failed(report):
        return SAFE_STALLED, {
            "degraded": report["degraded"],
            "shed": report["shed"],
            "deadline_expired": report["deadline_expired"],
            "errors": report["errors"],
        }
    return SAFE_TERMINATED, {}


def failed(report: dict) -> int:
    """Requests the run answered with an error (degraded / shed /
    deadline-expired / other)."""
    return (report["degraded"] + report["shed"]
            + report["deadline_expired"] + report["errors"])


def goodput(report: dict) -> float:
    """Eventual rename goodput: renames that got a name over renames
    that *could* have (a :class:`NotRenamed` miss — released in the
    same batch — is an answered request, not lost goodput)."""
    eligible = report["renames"] - report["rename_misses"]
    return report["renamed"] / max(1, eligible)
