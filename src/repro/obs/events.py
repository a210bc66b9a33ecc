"""Structured observability events: ring buffer, spans, JSONL, schema.

An *event* is one flat JSON object describing something the harness did
— a round starting, a crash plan being applied, a sweep chunk being
dispatched.  Events are collected by an :class:`EventRecorder`, a
bounded ring buffer (old events fall off the front, so a long sweep
cannot exhaust memory), and serialized as JSON Lines, one event per
line, in emission order.

Every event carries:

``seq``
    Monotonically increasing integer, unique within one recorder.
``ts``
    Seconds since the recorder was created (``time.perf_counter``
    deltas — monotonic, unaffected by wall-clock adjustments).
``kind``
    A dotted event name, e.g. ``"round.begin"`` or ``"store.hit"``.

plus ``round`` / ``node`` when the event is attached to a round or a
node, and arbitrary extra scalar fields under ``data``.  *Spans* are
emitted as paired ``<kind>.begin`` / ``<kind>.end`` events sharing a
``span`` id; the ``.end`` event carries the measured ``wall_s``.
Every kind the package emits is an entry of :data:`EVENT_KINDS`, with
the ``data`` fields it requires; :func:`validate_events` checks both.

An observer is an :class:`EventRecorder` or ``None``, the default
everywhere in the engine.  Instrumented code guards every emission with
``observer is not None`` (the network reads it once, at construction),
so the detached path costs nothing per message, and the A/B tests in
``tests/test_obs_ab.py`` prove counted results are byte-identical with
observability detached.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Iterable, Iterator, Optional

#: Event stream format identifier, stamped into every JSONL header.
EVENT_FORMAT = "repro.obs/events@1"

#: Declarative schema each event must satisfy.  Kept as plain data (a
#: strict subset of JSON Schema) so it can be published in docs and
#: checked without a third-party validator.
EVENT_SCHEMA = {
    "type": "object",
    "required": ["seq", "ts", "kind"],
    "properties": {
        "seq": {"type": "integer", "minimum": 0},
        "ts": {"type": "number", "minimum": 0},
        "kind": {"type": "string", "minLength": 1},
        "round": {"type": "integer", "minimum": 0},
        "node": {"type": "integer", "minimum": 0},
        "span": {"type": "integer", "minimum": 0},
        "data": {"type": "object"},
    },
    "additionalProperties": False,
}

#: The data fields each emitted kind requires -- the one event contract.
#: A kind's *family* is its text before the first dot; in a family this
#: table names, an unknown kind or a missing field is a problem, while
#: a kind of any other family (a test's ad-hoc ``tick``) is checked on
#: its envelope alone.  An entry lists only the fields every call site
#: passes; ``round`` / ``node`` / ``span`` are envelope fields.
EVENT_KINDS: dict[str, tuple[str, ...]] = {
    # The network (``SyncNetwork``): a run's only execution log.
    "run.begin": ("n", "namespace", "adversary"),
    "run.end": ("rounds", "messages", "bits", "crashed"),
    "round.begin": ("alive",),
    # ``resumed``: programs driven this round; ``parked``: nodes left
    # waiting on ``UNTIL_MAIL``; ``finished``: nodes that terminated.
    "round.end": ("messages", "bits", "alive", "resumed", "parked",
                  "finished"),
    "crash.apply": ("delivered", "proposed", "budget_left"),
    # ``senders``: distinct nodes with traffic; ``rows``: distinct sent
    # messages; ``envelopes``: inbox entries the alive recipients read.
    "deliver.fanout": ("senders", "rows", "envelopes"),
    # ``node`` is a Byzantine node whose own program raised.
    "byzantine.fault": (),
    "monitor.fire": ("monitor", "error"),
    # A link-fault verdict: ``node`` is the sender, ``to`` the link.
    # ``dead`` (a release to a receiver gone meanwhile) is optional.
    "fault.drop": ("to",),
    "fault.dup": ("to", "copies"),
    "fault.corrupt": ("to", "salt"),
    "fault.hold": ("to", "release"),
    "fault.release": ("to",),
    "fault.expire": ("to", "release"),
    # The sweep engine (``run_requests``).
    "engine.store.hit": ("driver", "run_hash"),
    "engine.store.miss": ("driver", "run_hash"),
    "engine.chunk.dispatch": ("chunks", "chunksize", "jobs"),
    "engine.chunk.timeout": ("tasks", "budget_s"),
    "engine.chunk.broken": ("tasks",),
    "engine.task.retry": ("driver", "n", "seed"),
    "engine.task.settle": ("driver", "status", "attempts", "elapsed_s"),
    # Falsification campaigns; ``campaign.shrink`` is a span.
    "campaign.begin": ("probes", "scenarios", "adversaries"),
    "campaign.batch": ("cursor", "size"),
    "campaign.finding": ("scenario", "invariant", "n", "seed"),
    "campaign.shrink.begin": ("scenario", "seed"),
    "campaign.shrink.end": ("scenario", "seed", "wall_s", "ok"),
    "campaign.end": ("findings", "failures", "cached", "skipped"),
    # The service, emitted from its event loop only.
    "serve.start": ("shards", "max_batch", "max_wait", "namespace",
                    "seed"),
    "serve.drain": ("flushed",),
    "serve.stop": ("epochs", "failed_epochs", "batches", "requests"),
    "serve.batch.close": ("shard", "batch", "size", "reason"),
    # ``attempt`` is 0 for a batch's first execution, k for its k-th
    # retry (the retry seed salt).
    "serve.epoch.begin": ("shard", "epoch", "ops", "attempt"),
    "serve.epoch.end": ("shard", "epoch", "members", "renamed",
                        "departed", "rounds", "messages", "bits",
                        "wall_s"),
    "serve.epoch.empty": ("shard", "ops"),
    # ``failure`` is the taxonomy ("faults" / "non_termination" /
    # "rename_failed" / "error"), not ``kind``: the envelope owns that.
    "serve.epoch.failed": ("shard", "epoch", "failure", "attempt", "error",
                           "wall_s"),
    "serve.shard.degraded": ("shard", "failures", "failure"),
    # Resilience (only with a policy attached): a failed batch's
    # survivors re-scheduled, the shard's breaker moving, ops shed from
    # a full backlog or cancelled past their deadline.
    "serve.retry": ("shard", "batch", "attempt", "ops", "delay_s"),
    "serve.breaker.open": ("shard", "failures"),
    "serve.breaker.half_open": ("shard",),
    "serve.breaker.close": ("shard",),
    "serve.shed": ("shard", "ops", "depth"),
    "serve.deadline": ("shard", "expired", "attempt"),
}

_FAMILIES = frozenset(kind.split(".", 1)[0] for kind in EVENT_KINDS)

_TYPE_CHECKS = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: (isinstance(v, (int, float))
                         and not isinstance(v, bool)),
    "string": lambda v: isinstance(v, str),
    "object": lambda v: isinstance(v, dict),
}


def validate_event(event: object) -> list[str]:
    """Check one decoded event against :data:`EVENT_SCHEMA`.

    Returns a list of human-readable problems — empty means valid.
    """
    if not isinstance(event, dict):
        return [f"event is {type(event).__name__}, expected object"]
    problems = []
    for key in EVENT_SCHEMA["required"]:
        if key not in event:
            problems.append(f"missing required field {key!r}")
    for key, value in event.items():
        spec = EVENT_SCHEMA["properties"].get(key)
        if spec is None:
            problems.append(f"unexpected field {key!r}")
            continue
        if not _TYPE_CHECKS[spec["type"]](value):
            problems.append(
                f"field {key!r} is {type(value).__name__}, "
                f"expected {spec['type']}"
            )
            continue
        if "minimum" in spec and value < spec["minimum"]:
            problems.append(f"field {key!r} = {value} below "
                            f"{spec['minimum']}")
        if spec.get("minLength") and len(value) < spec["minLength"]:
            problems.append(f"field {key!r} is empty")
    if "data" in event and not problems:
        for key, value in event["data"].items():
            if not isinstance(value, (str, int, float, bool, type(None))):
                problems.append(
                    f"data field {key!r} is {type(value).__name__}, "
                    "expected a JSON scalar"
                )
    return problems


class _Span:
    """Paired begin/end events around a block, with measured wall time."""

    __slots__ = ("observer", "kind", "data", "span_id", "started")

    _next_id = 0

    def __init__(self, observer: "EventRecorder", kind: str, data: dict):
        self.observer = observer
        self.kind = kind
        self.data = data

    def __enter__(self) -> "_Span":
        _Span._next_id += 1
        self.span_id = _Span._next_id
        self.started = time.perf_counter()
        self.observer.emit(f"{self.kind}.begin", span=self.span_id,
                           **self.data)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.observer.emit(
            f"{self.kind}.end", span=self.span_id,
            wall_s=round(time.perf_counter() - self.started, 6),
            ok=exc_type is None, **self.data,
        )


class EventRecorder:
    """Ring-buffered event collector: the observer.

    Parameters
    ----------
    capacity:
        Maximum events retained; older events are dropped from the
        front (``dropped`` counts them).  ``None`` keeps everything.
    profile:
        When true, attaches a fresh
        :class:`~repro.obs.profile.PhaseProfiler` as ``.profiler`` so
        the network also collects per-phase wall times; otherwise
        ``.profiler`` is ``None``.
    """

    def __init__(self, capacity: Optional[int] = 65536, *,
                 profile: bool = False):
        self._events: deque[dict] = deque(maxlen=capacity)
        self.capacity = capacity
        self.dropped = 0
        self._seq = 0
        self._epoch = time.perf_counter()
        self.profiler = None
        if profile:
            from repro.obs.profile import PhaseProfiler

            self.profiler = PhaseProfiler()

    def emit(self, kind: str, *, round_no: Optional[int] = None,
             node: Optional[int] = None, span: Optional[int] = None,
             **data) -> None:
        event: dict = {
            "seq": self._seq,
            "ts": round(time.perf_counter() - self._epoch, 6),
            "kind": kind,
        }
        self._seq += 1
        if round_no is not None:
            event["round"] = round_no
        if node is not None:
            event["node"] = node
        if span is not None:
            event["span"] = span
        if data:
            event["data"] = data
        if (self._events.maxlen is not None
                and len(self._events) == self._events.maxlen):
            self.dropped += 1
        self._events.append(event)

    def span(self, kind: str, **data) -> _Span:
        """Context manager emitting ``<kind>.begin`` / ``<kind>.end``."""
        return _Span(self, kind, data)

    # -- queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._events)

    def events(self, kind: Optional[str] = None) -> list[dict]:
        """Retained events, oldest first, optionally filtered by kind
        (exact match or dotted prefix: ``"round"`` matches
        ``"round.begin"``)."""
        if kind is None:
            return list(self._events)
        prefix = kind + "."
        return [e for e in self._events
                if e["kind"] == kind or e["kind"].startswith(prefix)]

    def tail(self, count: int) -> list[dict]:
        """The last ``count`` retained events, oldest first."""
        if count < 0:
            raise ValueError(f"tail count must be >= 0, got {count}")
        return list(self._events)[-count:] if count else []

    # -- persistence --------------------------------------------------

    def write_jsonl(self, path) -> Path:
        """Write the retained events as JSON Lines; returns the path.

        The first line is a self-describing header carrying the format
        tag, the capacity, and how many events were dropped.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fp:
            fp.write(json.dumps({
                "seq": 0, "ts": 0.0, "kind": "stream.header",
                "data": {
                    "format": EVENT_FORMAT,
                    "events": len(self._events),
                    "dropped": self.dropped,
                },
            }) + "\n")
            for event in self._events:
                fp.write(json.dumps(event, sort_keys=True) + "\n")
        return path


def read_jsonl(path) -> list[dict]:
    """Decode an event file written by :meth:`EventRecorder.write_jsonl`.

    Skips the stream header; raises ``ValueError`` on a line that is
    not valid JSON.
    """
    events = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{lineno}: not JSON: {error}") from None
        if isinstance(event, dict) and event.get("kind") == "stream.header":
            continue
        events.append(event)
    return events


def validate_events(events: Iterable[dict]) -> list[str]:
    """Validate a batch: each event's envelope against
    :data:`EVENT_SCHEMA` and, when its family is in
    :data:`EVENT_KINDS`, its kind and data fields.  Returns ``"event N:
    problem"`` strings; empty means valid."""
    problems = []
    for index, event in enumerate(events):
        found = validate_event(event)
        if isinstance(event, dict) and isinstance(event.get("kind"), str):
            found += _kind_problems(event["kind"], event.get("data"))
        problems.extend(f"event {index}: {problem}" for problem in found)
    return problems


def _kind_problems(kind: str, data: object) -> list[str]:
    family = kind.split(".", 1)[0]
    if family not in _FAMILIES:
        return []
    required = EVENT_KINDS.get(kind)
    if required is None:
        return [f"unknown {family} kind {kind!r}"]
    data = data if isinstance(data, dict) else {}
    return [f"{kind} missing data field {field!r}"
            for field in required if field not in data]
