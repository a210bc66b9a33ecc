"""Zero-cost-when-off observability for executions and sweeps.

Three pieces, all opt-in through an ``observer=`` parameter whose
default (``None``) leaves every hot path untouched:

* :mod:`repro.obs.events` — ring-buffered structured events with
  spans, a pure-python JSON schema validator, and JSONL persistence.
* :mod:`repro.obs.profile` — wall-clock phase profiling for the four
  phases of ``SyncNetwork.step`` and per-driver sweep timings.
* the ``telemetry`` table of :class:`repro.engine.store.RunStore` and
  the ``python -m repro obs`` CLI (``tail`` / ``profile`` / ``report``).
"""

from repro.obs.events import (
    EVENT_FORMAT,
    EVENT_SCHEMA,
    NULL_OBSERVER,
    EventRecorder,
    Observer,
    observing,
    read_jsonl,
    validate_event,
    validate_events,
)
from repro.obs.fabric import (
    FABRIC_EVENT_FORMAT,
    FABRIC_EVENT_KINDS,
    validate_fabric_events,
)
from repro.obs.profile import (
    PROFILE_FORMAT,
    STEP_PHASES,
    PhaseProfiler,
    idle_share,
    profile_scenario,
)

__all__ = [
    "EVENT_FORMAT",
    "EVENT_SCHEMA",
    "NULL_OBSERVER",
    "EventRecorder",
    "Observer",
    "observing",
    "read_jsonl",
    "validate_event",
    "validate_events",
    "FABRIC_EVENT_FORMAT",
    "FABRIC_EVENT_KINDS",
    "validate_fabric_events",
    "PROFILE_FORMAT",
    "STEP_PHASES",
    "PhaseProfiler",
    "idle_share",
    "profile_scenario",
]
