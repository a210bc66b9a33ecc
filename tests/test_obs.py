"""Tests for the observability subsystem: events, profiling, telemetry."""

import gc
import json

import pytest

from repro.adversary.crash import ScheduledCrash
from repro.engine.pool import run_requests
from repro.engine.store import RunStore
from repro.engine.sweeps import RunRequest
from repro.falsify.campaign import CampaignConfig, run_campaign
from repro.faults import NoFaults, build_fault_model
from repro.faults.base import FaultModel, corrupt, drop, duplicate, hold
from repro.obs import (
    EVENT_FORMAT,
    EVENT_KINDS,
    STEP_PHASES,
    EventRecorder,
    PhaseProfiler,
    profile_scenario,
    read_jsonl,
    validate_event,
    validate_events,
)
from repro.__main__ import main
from repro.sim.columnar import LazyInbox
from repro.sim.messages import CostModel, broadcast
from repro.sim.node import Process
from repro.sim.runner import run_network
from benchmarks.perf import BroadcastStorm, PerfBeat


class TestRecorder:
    def test_sequence_and_timestamps_monotonic(self):
        recorder = EventRecorder()
        for index in range(5):
            recorder.emit("tick", count=index)
        events = recorder.events()
        assert [event["seq"] for event in events] == list(range(5))
        timestamps = [event["ts"] for event in events]
        assert timestamps == sorted(timestamps)

    def test_ring_buffer_drops_oldest(self):
        recorder = EventRecorder(capacity=3)
        for index in range(10):
            recorder.emit("tick", count=index)
        assert len(recorder) == 3
        assert recorder.dropped == 7
        assert [e["data"]["count"] for e in recorder.events()] == [7, 8, 9]

    def test_kind_filter_matches_dotted_prefix(self):
        recorder = EventRecorder()
        recorder.emit("round.begin")
        recorder.emit("round.end")
        recorder.emit("roundabout")
        assert len(recorder.events("round")) == 2
        assert len(recorder.events("round.begin")) == 1

    def test_round_and_node_fields(self):
        recorder = EventRecorder()
        recorder.emit("crash.apply", round_no=3, node=7, delivered=2)
        (event,) = recorder.events()
        assert event["round"] == 3
        assert event["node"] == 7
        assert event["data"] == {"delivered": 2}

    def test_tail_counts_from_the_end(self):
        recorder = EventRecorder()
        for index in range(5):
            recorder.emit("tick", count=index)
        assert [e["data"]["count"] for e in recorder.tail(2)] == [3, 4]
        assert len(recorder.tail(9)) == 5
        assert recorder.tail(0) == []
        with pytest.raises(ValueError, match=">= 0"):
            recorder.tail(-1)


class TestSpans:
    def test_span_emits_paired_events_with_wall_time(self):
        recorder = EventRecorder()
        with recorder.span("shrink", scenario="crash"):
            pass
        begin, end = recorder.events()
        assert begin["kind"] == "shrink.begin"
        assert end["kind"] == "shrink.end"
        assert begin["span"] == end["span"]
        assert end["data"]["wall_s"] >= 0
        assert end["data"]["ok"] is True

    def test_span_records_failure(self):
        recorder = EventRecorder()
        with pytest.raises(RuntimeError):
            with recorder.span("work"):
                raise RuntimeError("boom")
        end = recorder.events("work.end")[0]
        assert end["data"]["ok"] is False


class TestSchema:
    def test_recorder_events_validate(self):
        recorder = EventRecorder()
        recorder.emit("round.begin", round_no=1, alive=4)
        recorder.emit("crash.apply", round_no=1, node=2, delivered=1,
                      proposed=3, budget_left=0)
        assert validate_events(recorder.events()) == []

    def test_missing_required_field(self):
        assert any("kind" in problem
                   for problem in validate_event({"seq": 0, "ts": 0.0}))

    def test_unexpected_field_rejected(self):
        event = {"seq": 0, "ts": 0.0, "kind": "x", "extra": 1}
        assert any("extra" in problem for problem in validate_event(event))

    def test_non_scalar_data_rejected(self):
        event = {"seq": 0, "ts": 0.0, "kind": "x", "data": {"bad": [1]}}
        assert any("bad" in problem for problem in validate_event(event))

    def test_wrong_types_rejected(self):
        event = {"seq": "zero", "ts": 0.0, "kind": "x"}
        assert validate_event(event)
        assert validate_event("not a dict")


class TestKindTables:
    """One validator reads one kind table for every family; CI jobs and
    tests compare its problem strings, so the wording is pinned."""

    EVENTS = [
        {"kind": "serve.start", "data": {"shards": 2, "max_wait": 0.01,
                                         "namespace": 64, "seed": 1}},
        {"kind": "serve.nope", "data": {}},
        {"kind": "engine.task.retry",
         "data": {"driver": "crash", "n": 8}},
        {"kind": "engine.nope"},
        {"kind": "round.begin"},
        {"kind": "server.start"},      # a family ends at its dot
        {"kind": "tick"},              # no family in the table
    ]

    def test_one_pass_reports_every_family(self):
        events = [{"seq": seq, "ts": 0.0, **event}
                  for seq, event in enumerate(self.EVENTS)]
        assert validate_events(events) == [
            "event 0: serve.start missing data field 'max_batch'",
            "event 1: unknown serve kind 'serve.nope'",
            "event 2: engine.task.retry missing data field 'seed'",
            "event 3: unknown engine kind 'engine.nope'",
            "event 4: round.begin missing data field 'alive'",
        ]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        recorder = EventRecorder()
        recorder.emit("round.begin", round_no=1)
        recorder.emit("round.end", round_no=1, messages=4)
        path = recorder.write_jsonl(tmp_path / "events.jsonl")
        assert read_jsonl(path) == recorder.events()

    def test_header_carries_format_tag(self, tmp_path):
        recorder = EventRecorder(capacity=1)
        recorder.emit("a")
        recorder.emit("b")
        path = recorder.write_jsonl(tmp_path / "events.jsonl")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "stream.header"
        assert header["data"]["format"] == EVENT_FORMAT
        assert header["data"]["dropped"] == 1

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"seq": 0, "ts": 0, "kind": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match="not JSON"):
            read_jsonl(path)


class _Collecting:
    """A monitor that runs a full collection after every round."""

    def on_start(self, network):
        pass

    def on_round(self, network):
        gc.collect()

    def on_finish(self, network):
        pass


class TestProfiler:
    def test_accumulates_calls_and_totals(self):
        profiler = PhaseProfiler()
        profiler.add("plan", 0.25)
        profiler.add("plan", 0.75)
        assert profiler.report()["phases"]["plan"] == {
            "calls": 2, "wall_s": 1.0, "mean_s": 0.5,
        }
        assert bool(profiler)
        assert not bool(PhaseProfiler())

    def test_report_is_self_describing(self):
        profiler = PhaseProfiler()
        profiler.add("plan", 0.5)
        report = profiler.report()
        assert report["schema"] == "repro.obs/profile@1"
        assert report["unit"] == "seconds"
        assert report["phases"]["plan"] == {
            "calls": 1, "wall_s": 0.5, "mean_s": 0.5,
        }
        assert "gc" not in report  # never collecting: no gc rows

    def test_gc_rows_count_collections_while_collecting(self):
        profiler = PhaseProfiler()
        callbacks = list(gc.callbacks)
        with profiler.collecting():
            gc.collect()
        assert gc.callbacks == callbacks
        gc.collect()  # not counted: the block is closed
        rows = profiler.report()["gc"]
        assert list(rows) == [f"{place}:gen{gen}"
                              for place in ("loop", "outside")
                              for gen in (0, 1, 2)]
        assert rows["outside:gen2"]["calls"] >= 1
        assert rows["outside:gen2"]["wall_s"] > 0
        assert all(rows[f"loop:gen{gen}"] == {"calls": 0, "wall_s": 0.0}
                   for gen in (0, 1, 2))

    def test_a_collection_in_a_round_loop_is_a_loop_row(self):
        profiler = PhaseProfiler()
        processes = [BroadcastStorm(uid, 3) for uid in range(1, 5)]
        with profiler.collecting():
            result = run_network(processes, CostModel(n=4, namespace=8),
                                 monitors=[_Collecting()])
        rows = profiler.report()["gc"]
        # The loop runs with the collector off: only the monitor's
        # explicit collections land there, one per round.
        assert rows["loop:gen2"]["calls"] == result.rounds == 3
        assert rows["loop:gen0"]["calls"] == rows["loop:gen1"]["calls"] == 0


#: The kinds ``SyncNetwork`` emits: every family of the table but the
#: sweep engine's, the campaigns' and the service's.
NETWORK_KINDS = {
    kind for kind in EVENT_KINDS
    if kind.split(".", 1)[0] not in {"engine", "campaign", "serve"}
}


class _DoneAtStart(Process):
    """Terminates before round 1."""

    def program(self, ctx):
        return ctx.index
        yield


class _RaisingByzantine(Process):
    """A Byzantine strategy whose own program blows up in round 2."""

    byzantine = True

    def program(self, ctx):
        yield broadcast(ctx.n, PerfBeat(0))
        yield broadcast(ctx.n, PerfBeat(1))
        raise RuntimeError("strategy bug")


class _EveryVerdict(FaultModel):
    """Round 1: node 0's broadcast meets every verdict kind; one held
    letter is released in round 2, another outlives the run."""

    def plan_round(self, round_no, delivered, alive):
        if round_no != 1:
            return {}
        return {0: {0: drop(), 1: duplicate(), 2: corrupt(salt=3),
                    3: hold(2), 4: hold(99)}}


class TestNetworkEvents:
    def test_execution_emits_round_and_run_events(self):
        recorder = EventRecorder(profile=True)
        result, report = profile_scenario(
            "crash", 8, 2, 1, adversary="random", observer=recorder)
        assert validate_events(recorder.events()) == []
        assert len(recorder.events("round.begin")) == result.rounds
        assert len(recorder.events("round.end")) == result.rounds
        assert len(recorder.events("run.begin")) == 1
        (run_end,) = recorder.events("run.end")
        assert run_end["data"]["rounds"] == result.rounds
        assert run_end["data"]["messages"] == result.metrics.correct_messages
        assert set(report["phases"]) == {"plan", "charge", "deliver",
                                         "advance"}
        assert report["phases"]["plan"]["calls"] == result.rounds

    def test_deliver_fanout_counts_distinct_senders_and_rows(self):
        """``senders`` used to be the row count: a committee member
        answering 8 reporters counted 8 times."""
        from repro.core.crash_renaming import run_crash_renaming

        recorder = EventRecorder()
        run_crash_renaming(range(1, 9), observer=recorder)
        fanouts = [event["data"]
                   for event in recorder.events("deliver.fanout")]
        assert fanouts[:3] == [
            {"senders": 8, "rows": 8, "envelopes": 64},   # announcements
            {"senders": 8, "rows": 8, "envelopes": 64},   # status reports
            {"senders": 8, "rows": 64, "envelopes": 64},  # one reply a link
        ]

    def test_deliver_fanout_counts_the_rows_a_repeat_stands_for(self):
        """A repeat is one record of the column, but the event counts
        the rows it stands for: every round of a paper-constant run at
        n = 32 reads as it did when every repeat was filed as rows."""
        from random import Random

        from repro.analysis.experiments import default_namespace, sample_uids
        from repro.core.crash_renaming import run_crash_renaming

        recorder = EventRecorder()
        namespace = default_namespace(32)
        result = run_crash_renaming(
            sample_uids(32, namespace, Random(1)), namespace=namespace,
            seed=1, observer=recorder)
        fanouts = [event["data"]
                   for event in recorder.events("deliver.fanout")]
        assert result.rounds == len(fanouts) == 45
        # Recorded before repeats were records: per phase, 32 notices,
        # 32 reports and every member's 32 answers, each read by 32.
        assert fanouts == [
            {"senders": 32, "rows": 32, "envelopes": 1_024},
            {"senders": 32, "rows": 32, "envelopes": 1_024},
            {"senders": 32, "rows": 1_024, "envelopes": 1_024},
        ] * 15

    def test_crash_apply_events_name_victims(self):
        from repro.falsify.scenarios import make_adversary, run_scenario

        recorder = EventRecorder()
        result = run_scenario(
            "crash", 8, 2, 1, adversary=make_adversary("random", 2, 1),
            observer=recorder)
        crashes = recorder.events("crash.apply")
        assert {event["node"] for event in crashes} == result.crashed
        for event in crashes:
            assert event["data"]["delivered"] <= event["data"]["proposed"]

    def test_monitor_fire_event_on_violation(self):
        from repro.falsify.monitors import InvariantViolation
        from repro.falsify.scenarios import (
            make_adversary,
            monitors_for,
            resolve_scenario,
            run_scenario,
        )

        recorder = EventRecorder()
        scenario = resolve_scenario("planted-duplicate")
        with pytest.raises(InvariantViolation):
            run_scenario(
                "planted-duplicate", 10, 2, 1,
                adversary=make_adversary("partitioner", 2, 1),
                monitors=monitors_for(scenario, 10, 2),
                observer=recorder,
            )
        fires = recorder.events("monitor.fire")
        assert fires
        assert fires[-1]["data"]["error"] == "InvariantViolation"

    def test_kinds_and_finished_counts(self):
        processes = [BroadcastStorm(index + 1, rounds=3) for index in range(5)]
        processes += [_RaisingByzantine(6), _DoneAtStart(7)]
        recorder = EventRecorder(capacity=None)
        result = run_network(
            processes, CostModel(n=7, namespace=28), observer=recorder,
            crash_adversary=ScheduledCrash({2: [1]}),
            fault_model=_EveryVerdict())
        events = recorder.events()
        assert validate_events(events) == []
        kinds = {event["kind"] for event in events}
        assert kinds <= NETWORK_KINDS
        assert kinds == NETWORK_KINDS - {"monitor.fire"}  # every path ran
        ends = recorder.events("round.end")
        assert len(ends) == result.rounds
        assert all("finished" in event["data"] for event in ends)
        # Node 6 finished before round 1 and is not counted; node 5's
        # fault finished it (result None) in round 2.
        assert 6 in result.results and result.results[5] is None
        assert sum(event["data"]["finished"] for event in ends) == (
            len(result.results) - 1)
        (fault,) = recorder.events("byzantine.fault")
        assert (fault["round"], fault["node"]) == (2, 5)


class _InboxKeeper(BroadcastStorm):
    """A broadcast storm that keeps, but never reads, its inboxes."""

    def program(self, ctx):
        self.inboxes = []
        for sends in super().program(ctx):
            self.inboxes.append((yield sends))
        return ctx.index + 1


class TestOneRoundBody:
    """Profiler, observer and fault model are hooks in one round body:
    attaching them changes neither the profile's shape nor how
    delivery is represented."""

    FAULT_MODELS = {
        "nofaults": NoFaults,
        "partition": lambda: build_fault_model(
            [{"kind": "partition", "start": 2, "end": 4}], 6),
    }

    @pytest.mark.parametrize("name", list(FAULT_MODELS))
    def test_faulted_profile_has_all_four_phases(self, name):
        recorder = EventRecorder(profile=True)
        result = run_network(
            [BroadcastStorm(index + 1, rounds=5) for index in range(6)],
            CostModel(n=6, namespace=24), observer=recorder,
            fault_model=self.FAULT_MODELS[name]())
        if name == "partition":
            assert result.fault_stats.released > 0
        phases = recorder.profiler.report()["phases"]
        assert tuple(phases) == STEP_PHASES
        assert [row["calls"] for row in phases.values()] == [result.rounds] * 4
        assert len(recorder.events("deliver.fanout")) == result.rounds

    def test_unread_inboxes_stay_unmaterialized_when_instrumented(self):
        processes = [_InboxKeeper(index + 1, rounds=3) for index in range(8)]
        result = run_network(
            processes, CostModel(n=8, namespace=32),
            observer=EventRecorder(profile=True), fault_model=NoFaults())
        assert result.metrics.total_messages == 3 * 8 * 8
        inboxes = [inbox for process in processes
                   for inbox in process.inboxes]
        assert len(inboxes) == 3 * 8
        for inbox in inboxes:
            assert type(inbox) is LazyInbox and inbox._view is None
        # len() / truthiness come from the row counts: the view is
        # resolved, its envelope tuple still is not built.
        assert len(inboxes[0]) == 8 and inboxes[0]
        assert inboxes[0]._view.envelopes is None
        assert len(list(inboxes[0])) == 8  # still readable on demand
        assert len(inboxes[0]._view.envelopes) == 8


class TestTelemetryStore:
    def test_put_get_roundtrip(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.put_telemetry("abc", "run", {"elapsed_s": 1.5})
            store.put_telemetry("abc", "profile", {"plan": 0.1})
            assert store.telemetry("abc") == {
                "run": {"elapsed_s": 1.5}, "profile": {"plan": 0.1},
            }
            store.put_telemetry("abc", "run", {"elapsed_s": 2.0})  # replace
            assert store.telemetry("abc")["run"] == {"elapsed_s": 2.0}

    def test_delete_purges_telemetry(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            store.put_telemetry("abc", "run", {"x": 1})
            store.delete("abc")
            assert store.telemetry("abc") == {}

    def test_engine_writes_telemetry_and_events(self, tmp_path):
        recorder = EventRecorder(profile=True)
        with RunStore(tmp_path / "runs.sqlite") as store:
            requests = [RunRequest.make("crash", 6, 1, 0),
                        RunRequest.make("crash", 6, 1, 1)]
            results = run_requests(requests, store=store, observer=recorder)
            assert all(result.ok for result in results)
            assert len(recorder.events("engine.store.miss")) == 2
            assert len(recorder.events("engine.task.settle")) == 2
            rows = store.telemetry_rows(key="run")
            assert len(rows) == 2
            for _hash, key, value in rows:
                assert key == "run"
                assert value["driver"] == "crash"
                assert value["status"] == "ok"
                assert value["rounds"] > 0
            phases = recorder.profiler.report()["phases"]
            assert phases["driver:crash"]["calls"] == 2

            # Second invocation: pure store hits, no new telemetry.
            hits = EventRecorder()
            again = run_requests(requests, store=store, observer=hits)
            assert all(result.cached for result in again)
            assert len(hits.events("engine.store.hit")) == 2
            assert not hits.events("engine.task.settle")
            assert len(store.telemetry_rows(key="run")) == 2

    def test_driver_clock_readings_land_in_telemetry_not_the_row(
            self, tmp_path):
        clocked = {"throughput_rps", "wall_s", "rename_p50_ms",
                   "rename_p99_ms"}
        request = RunRequest.make("serve", 12, 0, 0, requests=120, shards=2)
        with RunStore(tmp_path / "runs.sqlite") as store:
            [result] = run_requests([request], store=store,
                                    observer=EventRecorder())
            assert result.ok and not clocked & set(result.row)
            [(hash_, _key, value)] = store.telemetry_rows(key="run")
            assert clocked <= set(value) and value["elapsed_s"] > 0
            assert not clocked & set(store.get(hash_).row)
            assert "telemetry" not in store.get(hash_).row

    def test_telemetry_rows_filter_by_driver(self, tmp_path):
        with RunStore(tmp_path / "runs.sqlite") as store:
            recorder = EventRecorder()
            run_requests([RunRequest.make("crash", 6, 0, 0)],
                         store=store, observer=recorder)
            assert store.telemetry_rows(key="run", driver="crash")
            assert not store.telemetry_rows(key="run", driver="obg")


class TestCampaignEvents:
    def test_campaign_lifecycle_events(self, tmp_path):
        recorder = EventRecorder()
        config = CampaignConfig(
            scenarios=("planted-duplicate",), n_values=(10,), seeds=(1,),
            adversaries=("partitioner",), shrink=True,
            max_shrink_executions=40,
        )
        result = run_campaign(config, observer=recorder)
        assert result.falsified
        assert len(recorder.events("campaign.begin")) == 1
        assert recorder.events("campaign.batch")
        assert recorder.events("campaign.finding")
        shrink_end = recorder.events("campaign.shrink.end")
        assert shrink_end and shrink_end[0]["data"]["ok"] is True
        (end,) = recorder.events("campaign.end")
        assert end["data"]["findings"] == len(result.findings)
        assert validate_events(recorder.events()) == []


class TestCli:
    def test_obs_profile_and_tail(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["obs", "profile", "--scenario", "crash", "--n", "8",
                     "--f", "1", "--seed", "1",
                     "--events", str(events)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.obs/profile@1"
        assert {row["calls"] for key, row in report["gc"].items()
                if key.startswith("loop:")} == {0}
        assert events.is_file()

        assert main(["obs", "tail", str(events), "--last", "5"]) == 0
        out = capsys.readouterr().out
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert len(lines) == 5
        assert lines[-1]["kind"] == "run.end"

    def test_obs_tail_rejects_invalid_events(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"seq": 0, "ts": 0, "kind": "ok", "wrong": 1}\n')
        assert main(["obs", "tail", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_obs_tail_missing_file(self, tmp_path):
        # An unreadable file is one error line; SystemExit(str) exits 1.
        path = tmp_path / "absent.jsonl"
        with pytest.raises(SystemExit) as done:
            main(["obs", "tail", str(path)])
        assert done.value.code == (
            "python -m repro obs tail: error: [Errno 2] No such file or "
            f"directory: '{path}'")

    def test_obs_tail_last_zero_prints_no_event(self, tmp_path, capsys):
        recorder = EventRecorder()
        for index in range(3):
            recorder.emit("tick", count=index)
        path = recorder.write_jsonl(tmp_path / "events.jsonl")
        assert main(["obs", "tail", str(path), "--last", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "3 events, 0 schema problems" in captured.err

    def test_sweep_telemetry_then_report(self, tmp_path, capsys):
        store = str(tmp_path / "runs.sqlite")
        assert main(["sweep", "--driver", "crash", "--n", "6", "--seeds",
                     "0-1", "--telemetry", "--store", store]) == 0
        err = capsys.readouterr().err
        assert "driver:crash" in err

        assert main(["obs", "report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "crash" in out and "runs" in out

    def test_obs_report_empty_store(self, tmp_path, capsys):
        assert main(["obs", "report", "--store",
                     str(tmp_path / "empty.sqlite")]) == 0
        assert "no telemetry" in capsys.readouterr().out
