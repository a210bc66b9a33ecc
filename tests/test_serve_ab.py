"""A/B, determinism, and degradation tests for the serving layer.

The load on the concurrent service is compared against a *serial
reference*: the same trace routed through the same hash, batched by
the same pure batch plan, executed shard by shard in one thread.
Thread-pool concurrency and the event loop must not change a single
counted result — same batch boundaries, same per-epoch protocol
rounds/messages/bits, same final assignment, and the same answer to
every lookup of the trace (the read rule: a lookup is answered after
the batches of its lane that closed by its stamp, before the others).
"""

import asyncio
import json
import math
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.analysis.experiments import EXPERIMENT_ELECTION_CONSTANT
from repro.core.crash_renaming import CrashRenamingConfig
from repro.engine.sweeps import RunRequest, execute_request
from repro.obs import EventRecorder, validate_events
from repro.serve.batching import (
    CLOSE_DEADLINE,
    CLOSE_FULL,
    BatchPolicy,
    plan_batches,
)
from repro.serve.driver import serve_run_summary
from repro.serve.loadgen import (
    LoadProfile,
    execute_profile,
    generate_trace,
    run_load,
    trace_digest,
)
from repro.serve.obs import validate_serve_events
from repro.serve.service import RenamingService
from repro.serve.sharding import LOOKUP, Shard, ShardOp, shard_of

CONFIG = CrashRenamingConfig(election_constant=EXPERIMENT_ELECTION_CONSTANT)

#: Small but structurally rich: several shards, several epochs per
#: shard, all three request kinds, deadline and size closes.
PROFILE = LoadProfile(clients=40, requests=1_500, shards=3, max_batch=16,
                      max_wait=0.002, arrival_rate=20_000.0, namespace=5_000,
                      seed=3)

OMISSION = [{"kind": "omission", "p": 1.0}]


def epoch_counts(histories):
    """Per-shard ``(rounds, messages, bits)`` tuples per epoch."""
    return [[(r.rounds, r.messages, r.bits) for r in history]
            for history in histories]


class RecordingService(RenamingService):
    """Keeps every stamped read's future, in submission order."""

    def __init__(self, **options):
        super().__init__(**options)
        self.reads = []

    def lookup_at(self, uid, arrival=None):
        future = super().lookup_at(uid, arrival)
        self.reads.append(future)
        return future


def run_concurrent(profile, shard_faults=None, yield_every=256, **options):
    """Play the profile against a real service; return counted state."""

    async def scenario():
        service = RecordingService(
            shards=profile.shards, namespace=profile.namespace,
            seed=profile.seed, max_batch=profile.max_batch,
            max_wait=profile.max_wait, config=CONFIG,
            shard_faults=shard_faults, **options,
        )
        async with service:
            load = await run_load(service, generate_trace(profile),
                                  yield_every=yield_every)
            return {
                "load": load,
                "boundaries": service.boundaries(),
                "epochs": epoch_counts(service.histories()),
                "assignment": service.assignment(),
                "lookups": [read.result() for read in service.reads],
                "stats": service.stats(),
                "per_shard": service.per_shard_stats(),
            }

    return asyncio.run(scenario())


def close_times(batches):
    """When each planned batch closed, on the trace's clock: with the
    arrival that filled it, with the next batch's first arrival (the
    one past its deadline), or — at drain — after every request."""
    times = []
    for batch, following in zip(batches, batches[1:] + [None]):
        if batch.reason == CLOSE_FULL:
            times.append(batch.last_arrival)
        elif batch.reason == CLOSE_DEADLINE:
            times.append(following.first_arrival)
        else:
            times.append(math.inf)
    return times


def run_serial_reference(profile, shard_faults=None):
    """The same workload, one thread, no event loop, no service."""
    policy = BatchPolicy(max_batch=profile.max_batch,
                         max_wait=profile.max_wait)
    streams = {index: [] for index in range(profile.shards)}
    reads = {index: deque() for index in range(profile.shards)}
    submitted = 0
    for op in generate_trace(profile):
        shard = shard_of(op.uid, profile.shards)
        if op.kind == LOOKUP:
            reads[shard].append(op)
            continue
        # Mirror the service's numbering: submission order over the
        # state-changing requests only (lookups never get an op).
        streams[shard].append(
            (ShardOp(submitted, op.kind, op.uid), op.arrival)
        )
        submitted += 1
    boundaries, histories, assignment, answers = [], [], {}, {}
    for index in range(profile.shards):
        shard = Shard(
            index, profile.shards, namespace=profile.namespace,
            seed=profile.seed, config=CONFIG,
            fault_spec=(shard_faults or {}).get(index),
        )
        pending = reads[index]
        batches = plan_batches(index, streams[index], policy)
        for batch, closes in zip(batches, close_times(batches)):
            # A lookup stamped before this batch closed reads the
            # table without it.
            while pending and pending[0].arrival < closes:
                read = pending.popleft()
                answers[read.index] = shard.lookup(read.uid)
            try:
                shard.execute(batch.ops)
            except Exception:
                pass  # degraded batch: rolled back, keep going
        for read in pending:
            answers[read.index] = shard.lookup(read.uid)
        boundaries.append([batch.boundary() for batch in batches])
        histories.append(shard.directory.history)
        assignment.update(shard.global_assignment())
    return {
        "boundaries": boundaries,
        "epochs": epoch_counts(histories),
        "assignment": assignment,
        "lookups": [answers[index] for index in sorted(answers)],
    }


def assert_matches_reference(concurrent, serial):
    for key in ("boundaries", "epochs", "assignment", "lookups"):
        assert concurrent[key] == serial[key], key
    hits = sum(answer is not None for answer in serial["lookups"])
    assert concurrent["load"].lookup_hits == hits
    assert concurrent["load"].lookup_misses == len(serial["lookups"]) - hits


class TestTraceDeterminism:
    def test_same_profile_same_trace(self):
        first = generate_trace(PROFILE)
        second = generate_trace(PROFILE)
        assert first == second
        assert trace_digest(first) == trace_digest(second)

    def test_different_seed_different_trace(self):
        assert generate_trace(PROFILE) != generate_trace(
            PROFILE.scaled(seed=4)
        )

    def test_trace_is_feasible(self):
        members = set()
        for op in generate_trace(PROFILE):
            if op.kind == "rename":
                members.add(op.uid)
            elif op.kind == "release":
                members.discard(op.uid)
        # Never more distinct active identities than clients.
        assert len(members) <= PROFILE.clients


class TestConcurrentMatchesSerial:
    def test_counted_results_are_identical(self):
        serial = run_serial_reference(PROFILE)
        assert_matches_reference(run_concurrent(PROFILE), serial)
        # Both sorts of answer occur, or the comparison says little.
        assert None in serial["lookups"]
        assert any(answer is not None for answer in serial["lookups"])

    def test_identical_under_faults_too(self):
        faults = {1: OMISSION}
        assert_matches_reference(
            run_concurrent(PROFILE, shard_faults=faults),
            run_serial_reference(PROFILE, shard_faults=faults))

    def test_event_loop_schedule_does_not_change_results(self):
        # Different yield cadences interleave dispatch and epoch
        # completion differently; counted state must not notice.
        coarse = run_concurrent(PROFILE, yield_every=1024)
        fine = run_concurrent(PROFILE, yield_every=16)
        assert coarse["boundaries"] == fine["boundaries"]
        assert coarse["epochs"] == fine["epochs"]
        assert coarse["assignment"] == fine["assignment"]
        assert coarse["lookups"] == fine["lookups"]

    def test_two_service_runs_are_identical(self):
        first = run_concurrent(PROFILE)
        second = run_concurrent(PROFILE)
        assert first["boundaries"] == second["boundaries"]
        assert first["epochs"] == second["epochs"]
        assert first["assignment"] == second["assignment"]
        assert first["stats"] == second["stats"]


class SlowExecutor(ThreadPoolExecutor):
    """Sleeps before every call it runs: each epoch starts late."""

    def __init__(self, delay):
        super().__init__(max_workers=4)
        self.delay = delay

    def submit(self, fn, *args, **kwargs):
        def late():
            time.sleep(self.delay)
            return fn(*args, **kwargs)

        return super().submit(late)


#: The resilient case is the row whose lookup hits used to follow the
#: executor's speed (21 of 543 untouched, 0 with 2 ms before each epoch).
DELAY_CASES = {
    "plain": dict(profile=PROFILE.scaled(requests=600),
                  shard_faults={1: OMISSION}),
    "resilient-window": dict(
        profile=LoadProfile(clients=24, requests=600, shards=2,
                            max_batch=16, seed=7),
        shard_faults={0: OMISSION}, shard_fault_windows={0: (1, 5)},
        resilience="{}"),
}


class TestExecutorDelay:
    @pytest.mark.parametrize("case", sorted(DELAY_CASES))
    def test_counts_do_not_follow_the_executor(self, case):
        def counted(delay):
            with SlowExecutor(delay) as executor:
                result = run_concurrent(executor=executor,
                                        **DELAY_CASES[case])
            load = result.pop("load").as_dict()
            for key in ("wall_s", "throughput_rps", "latency"):
                del load[key]
            return {**result, "load": load}

        prompt = counted(0.0)
        assert prompt["load"]["lookup_hits"] > 0
        assert prompt["stats"]["failed_epochs"] > 0
        for delay in (0.002, 0.020):
            assert counted(delay) == prompt, delay


class TestDegradation:
    def test_faulty_shard_degrades_while_others_serve(self):
        result = run_concurrent(PROFILE, shard_faults={0: OMISSION})
        load = result["load"]
        rows = {row["shard"]: row for row in result["per_shard"]}
        # Shard 0 fails every epoch in which two or more joiners
        # rename among themselves and rolls back each time.  (A lone
        # joiner legitimately survives total omission -- one node takes
        # the lowest free name without a message -- so the shard can
        # still grow, one name at a time and never by a protocol run.)
        assert rows[0]["failures"] > 0
        assert [counts for counts in result["epochs"][0]
                if counts != (0, 0, 0)] == []
        assert rows[0]["members"] < rows[1]["members"]
        assert load.degraded > 0
        # The other shards kept renaming: requests resolved, members
        # named, global ids unique.
        assert load.renamed > 0
        assert rows[1]["epochs"] > 0 and rows[2]["epochs"] > 0
        values = list(result["assignment"].values())
        assert len(set(values)) == len(values)
        assert load.errors == 0

    def test_degraded_shard_requests_fail_fast_not_stall(self):
        # Every future resolves (drain returned, gather finished) --
        # no event-loop stall, no hung request.
        result = run_concurrent(PROFILE, shard_faults={0: OMISSION})
        load = result["load"]
        assert (load.renamed + load.rename_misses + load.degraded
                + load.released) == load.renames + load.releases

    def test_lookups_on_healthy_shards_survive_degradation(self):
        async def scenario():
            service = RenamingService(
                shards=2, namespace=5_000, seed=1, max_batch=8,
                max_wait=None, config=CONFIG,
                shard_faults={0: OMISSION},
            )
            async with service:
                healthy = [uid for uid in range(1, 200)
                           if shard_of(uid, 2) == 1][:8]
                faulty = [uid for uid in range(1, 200)
                          if shard_of(uid, 2) == 0][:8]
                futures = [service.submit("rename", uid, 0.0)
                           for uid in healthy + faulty]
                await service.drain()
                results = await asyncio.gather(*futures,
                                               return_exceptions=True)
                return service, healthy, results

        service, healthy, results = asyncio.run(scenario())
        for uid in healthy:
            assert service.lookup(uid) is not None
        degraded = [r for r in results if isinstance(r, Exception)]
        assert len(degraded) == 8


class TestDriverAndEvents:
    def test_serve_driver_row(self):
        row = serve_run_summary(24, 1, 0, requests=600, shards=2,
                                max_batch=16)
        assert row["driver"] == "serve"
        assert row["unique"] is True
        assert row["degraded"] > 0           # shard 0 under omission
        assert row["failed_epochs"] > 0
        assert row["epochs"] > 0             # shard 1 kept serving
        assert row["requests"] == 600
        assert row["telemetry"]["throughput_rps"] > 0
        assert len(row["trace_sha256"]) == 64
        assert "messages_per_round" not in row

    def test_driver_ledgers_sum_to_totals(self):
        row = serve_run_summary(24, 0, 0, requests=600, shards=2,
                                max_batch=16)
        ledgered = serve_run_summary(24, 0, 0, requests=600, shards=2,
                                     max_batch=16, include_rounds=True)
        assert sum(ledgered["messages_per_round"]) == row["messages"]
        assert sum(ledgered["bits_per_round"]) == row["bits"]

    def test_driver_replays_bit_exactly(self):
        first = serve_run_summary(24, 1, 7, requests=600, shards=2)
        second = serve_run_summary(24, 1, 7, requests=600, shards=2)
        # Every clock reading lives under the one key the engine moves
        # to the run's telemetry; the rest is the content-addressed row.
        assert sorted(first.pop("telemetry")) == [
            "rename_p50_ms", "rename_p99_ms", "throughput_rps", "wall_s"]
        del second["telemetry"]
        assert second == first

    def test_stored_row_is_pure_beside_a_busy_neighbour(self):
        # What the engine stores under the request's content hash: the
        # same bytes whether the machine was idle or another thread was
        # spinning for the whole execution.
        request = RunRequest.make("serve", 24, 1, 7, requests=600, shards=2,
                                  fault_window="[1, 5]", resilience="{}")

        def stored():
            row, messages, bits, telemetry = execute_request(request)
            assert telemetry["wall_s"] > 0
            return json.dumps([row, messages, bits], sort_keys=True)

        quiet = stored()
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                sum(range(1_000))

        neighbour = threading.Thread(target=spin, daemon=True)
        neighbour.start()
        try:
            busy = stored()
        finally:
            stop.set()
            neighbour.join()
        assert busy == quiet

    def test_driver_validates_f(self):
        with pytest.raises(ValueError, match="shards"):
            serve_run_summary(24, 5, 0, shards=2)

    def test_execute_profile_events_are_schema_valid(self):
        recorder = EventRecorder()
        report = execute_profile(
            PROFILE.scaled(requests=400),
            shard_faults={0: OMISSION}, observer=recorder,
        )
        events = recorder.events()
        assert validate_events(events) == []
        assert validate_serve_events(events) == []
        kinds = {event["kind"] for event in events}
        assert "serve.epoch.failed" in kinds
        assert "serve.shard.degraded" in kinds
        assert report["unique"] is True
