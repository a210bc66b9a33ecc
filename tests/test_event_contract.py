"""The one event contract: ``EVENT_KINDS`` against every emit site in
``src/`` and against a recorded stream of every family.

Three parts:

* an AST scan of the package finds every ``emit`` / ``_emit`` /
  ``span`` / ``_fault_event`` call with a literal kind: each kind is in
  the table, each call passes the fields its entry requires, and each
  entry is emitted somewhere (no stale kinds);
* one real stream per family validates to ``[]``;
* per family, a dropped field or a misspelled kind in that stream is
  reported in the pinned wording.
"""

import ast
import functools
import tempfile
from pathlib import Path

import pytest

from repro.obs import EVENT_KINDS, EventRecorder, validate_events

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Call names that take an event kind as their first argument.
EMITTERS = {"emit", "_emit", "span", "_fault_event"}

#: Keywords that fill the envelope, not ``data``.
ENVELOPE = {"round_no", "node", "span"}


def family(kind: str) -> str:
    return kind.split(".", 1)[0]


def emit_sites() -> list[tuple[str, str, set]]:
    """``(where, kind, data fields passed)`` for every literal emission;
    a span stands for its ``.begin`` and ``.end`` events."""
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or not call.args:
                continue
            func = call.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            first = call.args[0]
            if name not in EMITTERS or not (
                    isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                continue
            fields = {keyword.arg for keyword in call.keywords
                      if keyword.arg is not None} - ENVELOPE
            where = f"{path.relative_to(PACKAGE.parent)}:{call.lineno}"
            kind = first.value
            if name == "_fault_event":  # (kind, sender, to, **data)
                fields.add("to")
            if name == "span":
                sites.append((where, f"{kind}.begin", fields))
                sites.append((where, f"{kind}.end",
                              fields | {"wall_s", "ok"}))
            else:
                sites.append((where, kind, fields))
    return sites


SITES = emit_sites()


class TestTableAgainstEmitSites:
    def test_every_emitted_kind_is_in_the_table(self):
        unknown = [(where, kind) for where, kind, _ in SITES
                   if kind not in EVENT_KINDS]
        assert unknown == []

    def test_every_call_passes_its_required_fields(self):
        short = [(where, kind, sorted(set(EVENT_KINDS[kind]) - fields))
                 for where, kind, fields in SITES
                 if kind in EVENT_KINDS
                 and not set(EVENT_KINDS[kind]) <= fields]
        assert short == []

    def test_no_stale_kind(self):
        assert set(EVENT_KINDS) == {kind for _, kind, _ in SITES}

    def test_every_kind_of_a_family_has_a_dot(self):
        # A family is the text before the first dot: a dotless entry
        # would be a family of one, unknown kinds of it unreported.
        assert all("." in kind for kind in EVENT_KINDS)


# -- one recorded stream per family ----------------------------------


@functools.cache
def network_stream() -> tuple:
    """run, round, crash, deliver, fault and byzantine events."""
    from repro.adversary.crash import ScheduledCrash
    from repro.sim.messages import CostModel
    from repro.sim.runner import run_network
    from benchmarks.perf import BroadcastStorm
    from tests.test_obs import _DoneAtStart, _EveryVerdict, _RaisingByzantine

    processes = [BroadcastStorm(index + 1, rounds=3) for index in range(5)]
    processes += [_RaisingByzantine(6), _DoneAtStart(7)]
    recorder = EventRecorder(capacity=None)
    run_network(processes, CostModel(n=7, namespace=28), observer=recorder,
                crash_adversary=ScheduledCrash({2: [1]}),
                fault_model=_EveryVerdict())
    return tuple(recorder.events())


@functools.cache
def monitor_stream() -> tuple:
    from repro.falsify.monitors import InvariantViolation
    from repro.falsify.scenarios import (
        make_adversary,
        monitors_for,
        resolve_scenario,
        run_scenario,
    )

    recorder = EventRecorder(capacity=None)
    with pytest.raises(InvariantViolation):
        run_scenario(
            "planted-duplicate", 10, 2, 1,
            adversary=make_adversary("partitioner", 2, 1),
            monitors=monitors_for(resolve_scenario("planted-duplicate"),
                                  10, 2),
            observer=recorder,
        )
    return tuple(recorder.events())


@functools.cache
def engine_stream() -> tuple:
    from repro.engine import RunRequest, RunStore, run_requests

    recorder = EventRecorder(capacity=None)
    requests = [RunRequest.make("crash", 6, 1, 0)]
    with tempfile.TemporaryDirectory() as scratch:
        with RunStore(Path(scratch) / "runs.sqlite") as store:
            run_requests(requests, store=store, observer=recorder)  # miss
            run_requests(requests, store=store, observer=recorder)  # hit
    return tuple(recorder.events("engine"))


@functools.cache
def campaign_stream() -> tuple:
    from repro.falsify.campaign import CampaignConfig, run_campaign

    recorder = EventRecorder(capacity=None)
    run_campaign(CampaignConfig(
        scenarios=("planted-duplicate",), n_values=(10,), seeds=(1,),
        adversaries=("partitioner",), shrink=True, max_shrink_executions=40,
    ), observer=recorder)
    return tuple(recorder.events("campaign"))


@functools.cache
def serve_stream() -> tuple:
    """A served load with resilience under a fault window."""
    from tests.test_serve_resilience import (
        OMISSION_100,
        RESILIENCE,
        WINDOW,
        run_profile,
    )

    recorder = EventRecorder(capacity=None)
    run_profile(faults={0: OMISSION_100}, windows={0: WINDOW},
                resilience=RESILIENCE, observer=recorder)
    return tuple(recorder.events())


@functools.cache
def fabric_stream() -> tuple:
    from repro.engine import FabricWorker, enqueue_campaign
    from repro.obs import read_jsonl
    from tests.test_fabric import quick_config, small_requests

    with tempfile.TemporaryDirectory() as scratch:
        url = f"sqlite://{scratch}/runs.sqlite"
        enqueue_campaign(url, "t", small_requests(), events_dir=scratch)
        worker = FabricWorker(quick_config(url, events_dir=scratch),
                              name="w0")
        worker.run()
        return tuple(event for path in sorted(Path(scratch).glob("*.jsonl"))
                     for event in read_jsonl(path))


#: Each family of the table, and the stream that records it.
STREAMS = {
    "run": network_stream,
    "round": network_stream,
    "crash": network_stream,
    "deliver": network_stream,
    "fault": network_stream,
    "byzantine": network_stream,
    "monitor": monitor_stream,
    "engine": engine_stream,
    "campaign": campaign_stream,
    "serve": serve_stream,
    "fabric": fabric_stream,
}


def first_of(events: tuple, name: str) -> int:
    """Index of the family's first event with a required field, else of
    its first event."""
    indices = [index for index, event in enumerate(events)
               if family(event["kind"]) == name]
    assert indices, f"the {name} stream recorded no {name} event"
    return next((index for index in indices
                 if EVENT_KINDS[events[index]["kind"]]), indices[0])


def test_every_family_has_a_stream():
    assert set(STREAMS) == {family(kind) for kind in EVENT_KINDS}


class TestRecordedStreams:
    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_stream_validates(self, name):
        events = STREAMS[name]()
        first_of(events, name)
        assert validate_events(events) == []

    # ``byzantine.fault``, its family's one kind, requires no field.
    @pytest.mark.parametrize("name", sorted(set(STREAMS) - {"byzantine"}))
    def test_dropped_field_is_reported(self, name):
        events = [dict(event) for event in STREAMS[name]()]
        index = first_of(events, name)
        event = events[index]
        kind = event["kind"]
        field = EVENT_KINDS[kind][0]
        event["data"] = {key: value for key, value in event["data"].items()
                         if key != field}
        assert validate_events(events) == [
            f"event {index}: {kind} missing data field {field!r}"]

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_misspelled_kind_is_reported(self, name):
        events = [dict(event) for event in STREAMS[name]()]
        index = first_of(events, name)
        misspelled = events[index]["kind"] + "ed"
        events[index]["kind"] = misspelled
        assert validate_events(events) == [
            f"event {index}: unknown {name} kind {misspelled!r}"]


def test_a_kind_outside_the_table_passes_on_its_envelope():
    recorder = EventRecorder()
    recorder.emit("tick", count=1)
    with recorder.span("work"):
        pass
    assert validate_events(recorder.events()) == []
    assert validate_events([{"seq": 0, "ts": 0.0, "kind": "tick",
                             "extra": 1}]) == [
        "event 0: unexpected field 'extra'"]
