"""In-memory span recorder and the outside-in timing wrappers.

A span is ``(id, parent, name, start, end, workload)`` plus optional
counters.  Spans live in memory and are written as JSONL only when the
run ends.  Nothing here is imported by ``src/``: layers are timed by
temporarily wrapping their public entry points (``Process.program``,
``SharedRandomness``, ``CrashAdversary.plan_round``, ``RunStore.put``,
``Shard.execute``, ``OverlayDirectory.run_epoch``) and by a
``monitors=`` clock, which keeps the simulator on its columnar path.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterator, Mapping, Optional, Sequence


class Recorder:
    """Collects the spans of one traced pass; thread-safe."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        #: Parent of a span opened on a thread that has none open.
        self.root: Optional[int] = None
        self._lock = threading.Lock()
        self._open = threading.local()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, **counters) -> int:
        """Record a finished span; returns its id."""
        span = {"id": -1, "parent": parent, "name": name, "start": start,
                "end": end, "workload": self.workload}
        if counters:
            span["counters"] = counters
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        return span["id"]

    @contextmanager
    def span(self, name: str, **counters) -> Iterator[dict]:
        """Time a block; its parent is the span open on this thread."""
        stack = self._open.__dict__.setdefault("stack", [])
        span_id = self.add(name, time.perf_counter(), float("nan"),
                           stack[-1] if stack else self.root, **counters)
        span = self.spans[span_id]
        stack.append(span_id)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def named(self, name: str) -> list[dict]:
        return [span for span in self.spans if span["name"] == name]

    def self_time(self, span: Mapping) -> float:
        """Duration minus the part of it the child spans cover."""
        covered, edge = 0.0, span["start"]
        children = sorted(
            (child["start"], child["end"]) for child in self.spans
            if child["parent"] == span["id"]
        )
        for start, end in children:
            start, end = max(start, edge), min(end, span["end"])
            if end > start:
                covered += end - start
                edge = end
        return span["end"] - span["start"] - covered

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class Tally:
    """Seconds and calls spent inside wrapped code on one thread.

    Only outermost calls count, so a wrapped method calling another
    wrapped method of the same tally is not charged twice.
    """

    __slots__ = ("seconds", "calls", "_depth")

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self._depth = 0

    def timed(self, function: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self._depth:
                return function(*args, **kwargs)
            self._depth = 1
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1
                self._depth = 0
        return wrapper


@contextmanager
def wrapped(owner: type, name: str,
            wrap: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.name`` by ``wrap(original)`` inside the block."""
    original = owner.__dict__[name]
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _subclasses(root: type) -> Iterator[type]:
    for cls in root.__subclasses__():
        yield cls
        yield from _subclasses(cls)


class _TimedProgram:
    """A node program whose every resumption is charged to a tally."""

    __slots__ = ("_inner", "_tally")

    def __init__(self, inner, tally: Tally):
        self._inner = inner
        self._tally = tally

    def send(self, value):
        tally = self._tally
        start = time.perf_counter()
        try:
            return self._inner.send(value)
        finally:
            tally.seconds += time.perf_counter() - start
            tally.calls += 1

    def __next__(self):
        return self.send(None)

    def __iter__(self):
        return self

    def close(self):
        self._inner.close()


@contextmanager
def timed_programs(tally: Tally) -> Iterator[None]:
    """Charge all time inside node ``program`` generators to ``tally``.

    Wraps ``program`` on every loaded ``Process`` subclass that defines
    it, because the ``run_*`` entry points build their own processes.
    """
    from repro.sim.node import Process

    def wrap(program):
        def timed(self, ctx):
            return _TimedProgram(program(self, ctx), tally)
        return timed

    with ExitStack() as stack:
        for cls in _subclasses(Process):
            if "program" in cls.__dict__:
                stack.enter_context(wrapped(cls, "program", wrap))
        yield


@contextmanager
def timed_methods(owner: type, names: Sequence[str],
                  tally: Tally) -> Iterator[None]:
    """Charge calls of ``owner``'s methods ``names`` to ``tally``."""
    with ExitStack() as stack:
        for name in names:
            stack.enter_context(wrapped(owner, name, tally.timed))
        yield


class RoundClock:
    """A ``monitors=`` object stamping the end of every round.

    Each stamp also snapshots the given tallies, so a round span
    carries the program / adversary / shared-randomness seconds spent
    inside it as counters.
    """

    def __init__(self, tallies: Mapping[str, Tally]):
        self.tallies = dict(tallies)
        self.marks: list[tuple[float, dict[str, float]]] = []

    def mark(self) -> None:
        self.marks.append((
            time.perf_counter(),
            {name: tally.seconds for name, tally in self.tallies.items()},
        ))

    def on_start(self, network) -> None:
        self.mark()

    def on_round(self, network) -> None:
        self.mark()

    def on_finish(self, network) -> None:
        pass

    def record(self, recorder: Recorder, run_span: int) -> list[float]:
        """Emit ``start`` and ``round[i]`` spans; returns round durations.

        ``mark()`` must have been called once before the run (its
        stamp opens the ``start`` span: process construction and each
        program's first step) — ``on_start`` supplies the second mark.
        """
        durations = []
        for index in range(1, len(self.marks)):
            (begin, before), (end, after) = self.marks[index - 1:index + 1]
            counters = {f"{name}_s": after[name] - before[name]
                        for name in after}
            name = "start" if index == 1 else f"round[{index - 1}]"
            recorder.add(name, begin, end, run_span, **counters)
            if index > 1:
                durations.append(end - begin)
        return durations
