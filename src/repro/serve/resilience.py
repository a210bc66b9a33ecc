"""Request-level resilience: deadlines, seeded retries, circuit breaking.

PR 6's service is one-shot on failure: a failed epoch rolls back and
rejects its whole batch.  This module supplies the mechanisms the
service threads through its lanes to survive *sustained* fault windows
the way the paper's protocol survives crashes — requests ride across
the outage instead of dying inside it:

* :class:`ResiliencePolicy` — the knobs, a small frozen value the
  service (and the ``serve`` driver, as a JSON spec) accepts.
* :func:`retry_delay` — seeded jittered exponential backoff.  The
  delay is a pure function of ``(seed, shard, origin batch, attempt)``,
  never of a clock or of Python's salted ``hash`` on strings, so the
  retry schedule of a stamped lane is a pure function of the
  submitted ``(op, arrival)`` stream — the same determinism contract
  the batcher already honours, pinned by the A/B tests.
* :class:`CircuitBreaker` — per-shard state machine: *closed* →
  (``threshold`` consecutive failed epoch executions) → *open* →
  (``cooldown`` elapses on the lane's clock) → *half-open*, where the
  next execution is a probe → *closed* on success, *open* again on
  failure.  While open, the lane defers work to the probe time and
  sheds beyond :attr:`ResiliencePolicy.shed_capacity`.
* :class:`RetryBacklog` — the lane's deferred work, ordered by
  ``(due, push order)``.  Entries get their turn when the lane's clock
  reaches their due time: pulled along by a later batch, by a tick
  (a live lane's alarm puts one on the queue when the earliest entry
  comes due) or flushed at drain.  Either way the *per-lane* execution
  sequence is the same pure function of the stream.
* :func:`classify_failure` — the failure taxonomy ``ShardDegraded``
  carries (``"faults"`` / ``"non_termination"`` / ``"rename_failed"``),
  so load generators and the chaos classifier distinguish injected
  faults from protocol bugs without string-matching exception names.

Everything here is clock-free and service-agnostic: the service passes
its lane's ``now`` in (the stamp of the item in hand, or ``loop.time()``
on a live lane) and emits the ``serve.*`` events itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence, Union

from repro.backoff import jittered_backoff
from repro.core.crash_renaming import RenamingFailure
from repro.sim.network import NonTerminationError

#: Accepted policy shapes: a policy, JSON text, a mapping, or None.
ResilienceSpec = Union["ResiliencePolicy", str, Mapping, None]

#: Circuit-breaker states, as they appear in stats and events.
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Failure taxonomy carried by ``ShardDegraded.kind``.
FAIL_FAULTS = "faults"
FAIL_NON_TERMINATION = "non_termination"
FAIL_RENAME = "rename_failed"
FAIL_ERROR = "error"


@dataclass(frozen=True)
class ResiliencePolicy:
    """The service's request-level resilience knobs.

    ``max_retries`` bounds *re*-executions per request beyond the first
    attempt; ``deadline`` (in the unit of the arrival stamps — virtual
    seconds on a stamped lane, real seconds on a live one) cancels a
    request whose next execution would start later than
    ``arrival + deadline``;
    ``None`` disables deadlines.  Backoff delays and the breaker
    cooldown are in the same time unit.  ``shed_capacity`` bounds how
    many operations a lane defers while its breaker is open — overflow
    is shed (fails fast with ``RequestShed``).
    """

    max_retries: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    deadline: Optional[float] = None
    breaker_threshold: int = 5
    breaker_cooldown: float = 0.25
    shed_capacity: int = 512

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backoff_jitter < 0:
            raise ValueError(
                f"backoff_jitter must be >= 0, got {self.backoff_jitter}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got "
                f"{self.breaker_threshold}")
        if self.breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0, got {self.breaker_cooldown}")
        if self.shed_capacity < 0:
            raise ValueError(
                f"shed_capacity must be >= 0, got {self.shed_capacity}")

    def scaled(self, **overrides) -> "ResiliencePolicy":
        """A copy with fields replaced (``dataclasses.replace``)."""
        return replace(self, **overrides)

    @classmethod
    def from_spec(cls, spec: ResilienceSpec) -> Optional["ResiliencePolicy"]:
        """Decode a policy from JSON text / a mapping; ``None`` stays
        ``None`` (resilience disabled — PR 6 fail-the-batch behaviour).
        An empty mapping or ``"{}"`` means "all defaults"."""
        if spec is None:
            return None
        if isinstance(spec, ResiliencePolicy):
            return spec
        if isinstance(spec, str):
            text = spec.strip()
            if not text:
                return None
            try:
                spec = json.loads(text)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"resilience spec is not JSON: {error}") from None
        if not isinstance(spec, Mapping):
            raise ValueError(
                f"resilience spec must be an object, got {type(spec).__name__}"
            )
        known = cls.__dataclass_fields__
        unknown = [key for key in spec if key not in known]
        if unknown:
            raise ValueError(
                f"unknown resilience fields {unknown}; "
                f"expected {sorted(known)}"
            )
        return cls(**spec)

    def to_json(self) -> str:
        """Canonical JSON of the policy (stable key order)."""
        from dataclasses import asdict

        return json.dumps(asdict(self), sort_keys=True)


def retry_delay(
    policy: ResiliencePolicy, seed: int, shard: int, origin: int,
    attempt: int,
) -> float:
    """Backoff before retry ``attempt`` (1-based) of a failed batch.

    Exponential in the attempt number with a seeded multiplicative
    jitter in ``[1, 1 + backoff_jitter)`` keyed on ``(seed, shard,
    origin, attempt)`` (:func:`repro.backoff.jittered_backoff`), so two
    executions of the same stream schedule byte-identical retries.
    """
    return jittered_backoff(
        policy.backoff_base, policy.backoff_factor, policy.backoff_jitter,
        seed, shard, origin, attempt)


class CircuitBreaker:
    """Closed → open → half-open → closed, on the caller's clock.

    Counts *consecutive* failed epoch executions (a success resets the
    run).  After ``threshold`` of them the breaker opens at the failure
    time; once ``cooldown`` has elapsed — the caller reports time via
    :meth:`poll` — it goes half-open and the next execution is a
    *probe*: success closes the breaker, failure reopens it (restarting
    the cooldown).  All transitions are counted for stats.
    """

    __slots__ = ("threshold", "cooldown", "state", "consecutive",
                 "opened_at", "opens", "closes", "probes")

    def __init__(self, threshold: int, cooldown: float):
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = BREAKER_CLOSED
        self.consecutive = 0
        self.opened_at = 0.0
        self.opens = 0
        self.closes = 0
        self.probes = 0

    @property
    def probe_at(self) -> float:
        """When the open breaker will accept a probe."""
        return self.opened_at + self.cooldown

    def poll(self, now: float) -> str:
        """Advance open → half-open when the cooldown has elapsed;
        returns the (possibly new) state."""
        if self.state == BREAKER_OPEN and now >= self.probe_at:
            self.state = BREAKER_HALF_OPEN
            self.probes += 1
        return self.state

    def record_failure(self, now: float) -> bool:
        """One failed epoch execution at ``now``; True when this
        failure opened (or reopened) the breaker."""
        self.consecutive += 1
        if self.state == BREAKER_HALF_OPEN:
            # The probe failed: straight back to open, fresh cooldown.
            self.state = BREAKER_OPEN
            self.opened_at = now
            self.opens += 1
            return True
        if (self.state == BREAKER_CLOSED
                and self.consecutive >= self.threshold):
            self.state = BREAKER_OPEN
            self.opened_at = now
            self.opens += 1
            return True
        return False

    def record_success(self) -> bool:
        """One installed epoch; True when this closed a half-open
        breaker (the probe succeeded — the shard recovered)."""
        recovered = self.state == BREAKER_HALF_OPEN
        if recovered:
            self.closes += 1
        self.state = BREAKER_CLOSED
        self.consecutive = 0
        return recovered

    def stats(self) -> dict:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive,
            "opens": self.opens,
            "closes": self.closes,
            "probes": self.probes,
        }


@dataclass(frozen=True)
class RetryEntry:
    """Deferred work for one lane: ops to re-execute at ``due``.

    ``attempt`` is how many executions these ops already consumed (0
    for work deferred before its first try, while the breaker was
    open); ``origin`` is the closed batch the ops came from, which
    keys the deterministic backoff jitter.
    """

    ops: tuple
    due: float
    attempt: int
    origin: int
    seq: int = 0


class RetryBacklog:
    """One lane's deferred entries, ordered by ``(due, push order)``.

    Plain sorted insertion — backlogs hold a handful of entries, and a
    deterministic total order matters more than asymptotics.
    """

    __slots__ = ("_entries", "_seq")

    def __init__(self):
        self._entries: list[RetryEntry] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def ops_count(self) -> int:
        """Total deferred operations (the shed-capacity measure)."""
        return sum(len(entry.ops) for entry in self._entries)

    def push(self, ops: Sequence, due: float, attempt: int,
             origin: int) -> RetryEntry:
        self._seq += 1
        entry = RetryEntry(tuple(ops), due, attempt, origin, self._seq)
        index = 0
        for index, existing in enumerate(self._entries):  # noqa: B007
            if (existing.due, existing.seq) > (due, entry.seq):
                self._entries.insert(index, entry)
                return entry
        self._entries.append(entry)
        return entry

    def peek(self) -> RetryEntry:
        return self._entries[0]

    def pop(self) -> RetryEntry:
        return self._entries.pop(0)

    def earliest_due(self) -> Optional[float]:
        return self._entries[0].due if self._entries else None


def classify_failure(error: BaseException,
                     fault_issued: Mapping[str, int]) -> str:
    """The ``ShardDegraded.kind`` taxonomy for one failed epoch.

    An epoch that ran under a fault model which actually issued
    verdicts failed because of *injected faults* — whatever exception
    the protocol surfaced is downstream of the channel lying.  Without
    fault pressure, the exception type tells protocol stalls apart
    from renaming failures; anything else is an implementation error.
    """
    if fault_issued:
        return FAIL_FAULTS
    if isinstance(error, NonTerminationError):
        return FAIL_NON_TERMINATION
    if isinstance(error, RenamingFailure):
        return FAIL_RENAME
    return FAIL_ERROR
