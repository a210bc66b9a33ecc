"""Zero-cost-when-off observability for executions and sweeps.

Three pieces, all opt-in through an ``observer=`` parameter -- an
:class:`~repro.obs.events.EventRecorder`, or ``None``, the default,
which leaves every hot path untouched:

* :mod:`repro.obs.events` — ring-buffered structured events with
  spans, the one event contract (the envelope schema and the
  :data:`EVENT_KINDS` table) with its validator, and JSONL persistence.
* :mod:`repro.obs.profile` — wall-clock phase profiling for the four
  phases of ``SyncNetwork.step``, sweep drivers and the collector.
* the ``telemetry`` table of :class:`repro.engine.store.RunStore` and
  the ``python -m repro obs`` CLI (``tail`` / ``profile`` / ``report``).
"""

from repro.obs.events import (
    EVENT_FORMAT,
    EVENT_KINDS,
    EVENT_SCHEMA,
    EventRecorder,
    read_jsonl,
    validate_event,
    validate_events,
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
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "EventRecorder",
    "read_jsonl",
    "validate_event",
    "validate_events",
    "PROFILE_FORMAT",
    "STEP_PHASES",
    "PhaseProfiler",
    "idle_share",
    "profile_scenario",
]
