"""Service-level resilience: retries, breaker, shedding, deadlines.

The acceptance scenario of the resilience layer: a single shard under
a bounded fault window keeps its requests — retries ride across the
outage, the breaker opens on a dead shard and closes again after it,
and the whole schedule stays a pure function of the submitted
``(op, arrival)`` stream (same trace, same retry/breaker event
sequence).  With ``resilience=None`` the service must reproduce PR 6's
fail-the-batch behaviour bit-for-bit on the same trace.
"""

import asyncio

import pytest

from repro.analysis.experiments import EXPERIMENT_ELECTION_CONSTANT
from repro.core.crash_renaming import CrashRenamingConfig
from repro.obs import EventRecorder, validate_events
from repro.serve.batching import BatchPolicy, plan_batches
from repro.serve.driver import serve_run_summary
from repro.serve.loadgen import (
    LoadProfile,
    execute_profile,
    generate_trace,
)
from repro.serve.obs import validate_serve_events
from repro.serve.resilience import ResiliencePolicy
from repro.serve.service import (
    DeadlineExceeded,
    RenamingService,
    RequestShed,
    ShardDegraded,
)
from repro.serve.sharding import LOOKUP, Shard, ShardOp, shard_of
from tests.test_serve_ab import SlowExecutor

CONFIG = CrashRenamingConfig(election_constant=EXPERIMENT_ELECTION_CONSTANT)

PROFILE = LoadProfile(clients=40, requests=1_500, shards=3, max_batch=16,
                      max_wait=0.002, arrival_rate=20_000.0, namespace=5_000,
                      seed=3)

OMISSION_10 = [{"kind": "omission", "p": 0.10}]
OMISSION_100 = [{"kind": "omission", "p": 1.0}]

#: Protocol attempts 1-8 of the faulted shard run under fault pressure;
#: retries land after the window and succeed.
WINDOW = (1, 9)

#: Tuned to the virtual trace span (~requests / arrival_rate seconds):
#: retries outlast the window, the breaker probes well inside the run.
RESILIENCE = ResiliencePolicy(max_retries=4, backoff_base=0.005,
                              backoff_factor=2.0, backoff_jitter=0.5,
                              breaker_threshold=3, breaker_cooldown=0.05,
                              shed_capacity=1024)


def run_profile(profile=PROFILE, faults=None, windows=None,
                resilience=None, observer=None):
    return execute_profile(
        profile, shard_faults=faults, shard_fault_windows=windows,
        resilience=resilience, observer=observer,
    )


def goodput(report):
    eligible = report["renames"] - report["rename_misses"]
    return report["renamed"] / max(1, eligible)


class TestWindowedRecovery:
    def test_retries_recover_partial_omission(self):
        # The acceptance scenario: 10% omission on one shard for a
        # bounded window; with resilience the service keeps >= 95% of
        # eventual rename goodput, strands nothing, stays unique.
        report = run_profile(faults={0: OMISSION_10}, windows={0: WINDOW},
                             resilience=RESILIENCE)
        assert goodput(report) >= 0.95
        assert report["unresolved"] == 0
        assert report["unique"] is True
        assert report["degraded"] == 0
        assert report["service"]["retries"] > 0

    def test_baseline_same_trace_drops_batches(self):
        # Same trace, resilience disabled: PR 6 behaviour — the faulted
        # epochs reject their batches instead of retrying.  (Only an
        # epoch with two or more joiners sends anything the channel can
        # drop, so the window costs fewer batches than when every epoch
        # re-ran the whole shard; what it costs is still lost for good.)
        report = run_profile(faults={0: OMISSION_10}, windows={0: WINDOW},
                             resilience=None)
        assert report["degraded"] > 0
        assert report["service"]["failed_epochs"] > 0
        assert goodput(report) < 1.0
        assert report["unique"] is True
        assert report["service"]["retries"] == 0
        assert report["unresolved"] == 0

    def test_total_outage_trips_and_recovers_breaker(self):
        report = run_profile(faults={0: OMISSION_100}, windows={0: WINDOW},
                             resilience=RESILIENCE)
        service = report["service"]
        assert service["breaker_opens"] >= 1
        assert service["breaker_closes"] >= 1
        breaker = report["per_shard"][0]["breaker"]
        assert breaker["state"] == "closed"       # recovered post-window
        assert goodput(report) >= 0.95
        assert report["unresolved"] == 0
        assert report["unique"] is True

    def test_baseline_matches_serial_reference_under_window(self):
        # resilience=None with a fault window must still be the same
        # pure function of the stream as a single-threaded replay.
        faults, windows = {0: OMISSION_100}, {0: WINDOW}

        async def concurrent():
            service = RenamingService(
                shards=PROFILE.shards, namespace=PROFILE.namespace,
                seed=PROFILE.seed, max_batch=PROFILE.max_batch,
                max_wait=PROFILE.max_wait, config=CONFIG,
                shard_faults=faults, shard_fault_windows=windows,
            )
            async with service:
                from repro.serve.loadgen import run_load

                await run_load(service, generate_trace(PROFILE))
                return service.assignment(), service.boundaries()

        service_assignment, service_boundaries = asyncio.run(concurrent())
        policy = BatchPolicy(max_batch=PROFILE.max_batch,
                             max_wait=PROFILE.max_wait)
        streams = {index: [] for index in range(PROFILE.shards)}
        submitted = 0
        for op in generate_trace(PROFILE):
            if op.kind == LOOKUP:
                continue
            shard = shard_of(op.uid, PROFILE.shards)
            streams[shard].append(
                (ShardOp(submitted, op.kind, op.uid), op.arrival)
            )
            submitted += 1
        assignment, boundaries = {}, []
        for index in range(PROFILE.shards):
            shard = Shard(
                index, PROFILE.shards, namespace=PROFILE.namespace,
                seed=PROFILE.seed, config=CONFIG,
                fault_spec=faults.get(index),
                fault_window=windows.get(index),
            )
            batches = plan_batches(index, streams[index], policy)
            for batch in batches:
                try:
                    shard.execute(batch.ops)
                except Exception:
                    pass
            boundaries.append([batch.boundary() for batch in batches])
            assignment.update(shard.global_assignment())
        assert service_boundaries == boundaries
        assert service_assignment == assignment


class TestResilienceEvents:
    def filtered(self, events):
        """Per-shard serve event sequences, per-run noise stripped.

        The determinism contract is per emitting sequence: epoch /
        retry / breaker events come from the lane worker in execution
        order, ``serve.batch.close`` from the submit side in stream
        order.  Their interleaving (and completion order *across*
        shards) depends on thread timing, so each (shard, side) stream
        is compared separately, with wall clock and recorder seq
        dropped.
        """
        lanes = {}
        for event in events:
            kind = event["kind"]
            if not kind.startswith("serve."):
                continue
            data = dict(event.get("data", {}))
            data.pop("wall_s", None)
            shard = data.get("shard", -1)
            side = "submit" if kind == "serve.batch.close" else "worker"
            lanes.setdefault((shard, side), []).append(
                (kind, tuple(sorted(data.items()))))
        return lanes

    def test_breaker_cycle_is_observable_and_schema_valid(self):
        recorder = EventRecorder()
        run_profile(faults={0: OMISSION_100}, windows={0: WINDOW},
                    resilience=RESILIENCE, observer=recorder)
        events = recorder.events()
        assert validate_events(events) == []
        assert validate_serve_events(events) == []
        kinds = [event["kind"] for event in events]
        assert "serve.retry" in kinds
        open_at = kinds.index("serve.breaker.open")
        half_at = kinds.index("serve.breaker.half_open")
        close_at = kinds.index("serve.breaker.close")
        assert open_at < half_at < close_at

    def test_event_stream_is_reproducible(self):
        streams = []
        for _ in range(2):
            recorder = EventRecorder()
            run_profile(faults={0: OMISSION_100}, windows={0: WINDOW},
                        resilience=RESILIENCE, observer=recorder)
            streams.append(self.filtered(recorder.events()))
        assert streams[0] == streams[1]

    def test_reports_are_reproducible(self):
        # Only wall-clock measurements vary.
        timing = ("wall_s", "throughput_rps", "latency", "phases")
        runs = [run_profile(faults={0: OMISSION_10}, windows={0: WINDOW},
                            resilience=RESILIENCE) for _ in range(2)]
        for key, value in runs[0].items():
            if key in timing:
                continue
            assert runs[1][key] == value, key


class TestSheddingAndDeadlines:
    def test_open_breaker_sheds_beyond_capacity(self):
        # Persistent total omission with a never-cooling breaker: once
        # open, deferred ops pile up to shed_capacity and the rest
        # fail fast as RequestShed.
        policy = RESILIENCE.scaled(breaker_threshold=1,
                                   breaker_cooldown=30.0, shed_capacity=8)
        recorder = EventRecorder()
        report = run_profile(faults={0: OMISSION_100},
                             resilience=policy, observer=recorder)
        assert report["shed"] > 0
        assert report["unresolved"] == 0
        assert report["unique"] is True
        assert any(e["kind"] == "serve.shed" for e in recorder.events())
        assert validate_serve_events(recorder.events()) == []

    def test_deadline_expires_retried_requests(self):
        # Backoff pushes the faulted shard's retries past the deadline;
        # healthy shards stay comfortably inside it.
        policy = RESILIENCE.scaled(deadline=0.01)
        recorder = EventRecorder()
        report = run_profile(faults={0: OMISSION_100}, windows={0: WINDOW},
                             resilience=policy, observer=recorder)
        assert report["deadline_expired"] > 0
        assert report["unresolved"] == 0
        assert report["unique"] is True
        assert any(e["kind"] == "serve.deadline"
                   for e in recorder.events())

    def test_failed_requests_leave_the_latency_percentiles(self):
        # Satellite: failures land in the "failed" histogram, not in
        # the per-kind percentiles that measure answered requests.
        report = run_profile(faults={0: OMISSION_100}, resilience=None)
        failed = report["latency"]["failed"]
        assert failed["count"] == report["degraded"]
        answered = (report["latency"]["rename"]["count"]
                    + report["latency"]["release"]["count"])
        assert answered == (report["renamed"] + report["rename_misses"]
                            + report["released"])


class TestStatsSurface:
    def test_service_stats_carry_resilience_counters(self):
        report = run_profile(faults={0: OMISSION_100}, windows={0: WINDOW},
                             resilience=RESILIENCE)
        service = report["service"]
        for key in ("failures", "retries", "shed", "deadline_expired",
                    "breaker_opens", "breaker_closes", "breakers_open"):
            assert key in service, key
        assert service["breakers_open"] == 0      # recovered by drain
        shard0 = report["per_shard"][0]
        assert shard0["retries"] > 0
        assert shard0["backlog"] == 0             # drained empty
        assert shard0["breaker"]["opens"] == service["breaker_opens"]

    def test_plain_service_stats_omit_breaker_keys(self):
        report = run_profile()
        assert "breaker_opens" not in report["service"]
        assert "breaker" not in report["per_shard"][0]

    def test_driver_row_carries_resilience_columns(self):
        row = serve_run_summary(
            24, 1, 0, requests=600, shards=2, max_batch=16,
            fault_window="[1, 5]",
            resilience='{"max_retries": 4, "backoff_base": 0.005, '
                       '"breaker_threshold": 3, "breaker_cooldown": 0.05}',
        )
        assert row["retries"] > 0
        assert row["degraded"] == 0               # retries recovered all
        assert row["unresolved"] == 0
        assert row["unique"] is True
        for key in ("shed", "deadline_expired", "breaker_opens",
                    "breaker_closes"):
            assert key in row, key

    def test_driver_row_replays_bit_exactly_with_resilience(self):
        kwargs = dict(requests=600, shards=2, max_batch=16,
                      fault_window="[1, 5]", resilience="{}")
        first = serve_run_summary(24, 1, 7, **kwargs)
        second = serve_run_summary(24, 1, 7, **kwargs)
        del first["telemetry"], second["telemetry"]   # the clock's part
        assert second == first


class TestShardDegradedCause:
    def test_kind_and_cause_are_attached(self):
        report = run_profile(faults={0: OMISSION_100}, resilience=None)
        assert report["degraded"] > 0

        async def scenario():
            service = RenamingService(
                shards=2, namespace=5_000, seed=1, max_batch=4,
                max_wait=None, config=CONFIG,
                shard_faults={0: OMISSION_100},
            )
            async with service:
                uids = [uid for uid in range(1, 200)
                        if shard_of(uid, 2) == 0][:4]
                futures = [service.submit("rename", uid, 0.0)
                           for uid in uids]
                await service.drain()
                return await asyncio.gather(*futures,
                                            return_exceptions=True)

        results = asyncio.run(scenario())
        errors = [r for r in results if isinstance(r, ShardDegraded)]
        assert errors
        for error in errors:
            assert error.kind == "faults"
            assert error.__cause__ is error.cause
            assert error.cause is not None


class TestLiveClock:
    """Satellite: the faulted live-clock path — wall-time arrivals and
    the lane's one alarm (``max_wait`` flushes, retry wakes) — resolves
    everything too."""

    def run_live(self, *, close_early=False, policy=None):
        async def scenario():
            service = RenamingService(
                shards=2, namespace=5_000, seed=1, max_batch=8,
                max_wait=0.005, config=CONFIG,
                shard_faults={0: OMISSION_100},
                shard_fault_windows={0: (1, 3)},
                resilience=policy or ResiliencePolicy(
                    max_retries=4, backoff_base=0.002,
                    backoff_jitter=0.0, breaker_threshold=100,
                ),
            )
            service.start()
            uids = [uid for uid in range(1, 400)
                    if shard_of(uid, 2) == 0][:12]
            futures = [service.submit("rename", uid)  # live arrivals
                       for uid in uids]
            if close_early:
                # Let the first epoch fail and the alarm arm for the
                # retry, then close mid-retry: aclose must cancel the
                # alarm and still resolve every future.
                await asyncio.sleep(0.02)
            else:
                # Give the live retry alarm time to fire on its own.
                await asyncio.sleep(0.1)
            await service.aclose()
            lanes = service._lanes
            results = await asyncio.gather(*futures,
                                           return_exceptions=True)
            return service, lanes, results

        return asyncio.run(scenario())

    def test_live_retries_resolve_every_future(self):
        service, _lanes, results = self.run_live()
        failures = [r for r in results if isinstance(r, Exception)]
        renamed = [r for r in results if not isinstance(r, Exception)]
        assert len(renamed) + len(failures) == 12
        assert renamed                        # the window ended; shard
        assert not failures                   # recovered via retries
        assert service.stats()["retries"] > 0

    def test_drain_keeps_a_retry_the_alarm_hands_to_the_worker(self):
        # Every epoch outlasts the backoff, so a failed batch leaves an
        # overdue retry behind and the alarm hands it to the worker in
        # the very iterations in which a waiting drain is woken.  A
        # drain that looks at the backlog then finds it empty, returns,
        # and aclose cancels the attempt in flight: futures never
        # resolve.  The forced tick is queued behind the batch instead.
        async def scenario():
            with SlowExecutor(0.03) as executor:
                service = RenamingService(
                    shards=2, namespace=5_000, seed=1, max_batch=8,
                    max_wait=None, config=CONFIG, executor=executor,
                    shard_faults={0: OMISSION_100},
                    shard_fault_windows={0: (1, 3)},
                    resilience=ResiliencePolicy(
                        max_retries=4, backoff_base=0.002,
                        backoff_jitter=0.0, breaker_threshold=100),
                )
                service.start()
                uids = [uid for uid in range(1, 400)
                        if shard_of(uid, 2) == 0][:8]
                futures = [service.submit("rename", uid) for uid in uids]
                await service.aclose()
                return await asyncio.wait_for(asyncio.gather(*futures),
                                              timeout=5.0)

        assert len(set(asyncio.run(scenario()))) == 8

    def test_aclose_mid_retry_cancels_timers_and_resolves(self):
        service, lanes, results = self.run_live(close_early=True)
        for lane in lanes:
            # One alarm per lane is all there is to cancel.
            handles = [getattr(lane, slot) for slot in type(lane).__slots__
                       if isinstance(getattr(lane, slot),
                                     asyncio.TimerHandle)]
            assert handles in ([], [lane.timer])
            assert lane.timer is None or lane.timer.cancelled()
            assert not lane.backlog           # drained by aclose
        assert all(f is not None for f in results)
        assert not any(isinstance(r, asyncio.InvalidStateError)
                       for r in results)
        assert len(results) == 12
