"""Unit tests for the serving layer: sharding, batching, the service."""

import asyncio

import pytest

from repro.core.crash_renaming import CrashRenamingConfig
from repro.obs import EventRecorder, validate_events
from repro.serve.batching import (
    CLOSE_DEADLINE,
    CLOSE_DRAIN,
    CLOSE_FULL,
    CLOSE_TIMEOUT,
    BatchPolicy,
    EpochBatcher,
    plan_batches,
)
from repro.serve.service import NotRenamed, RenamingService
from repro.serve.sharding import (
    RELEASE,
    RENAME,
    ShardOp,
    global_compact,
    net_delta,
    shard_of,
    split_compact,
)

CONFIG = CrashRenamingConfig(election_constant=2.0)


def run(coroutine):
    return asyncio.run(coroutine)


def service(**overrides):
    options = dict(shards=2, namespace=10_000, seed=1, max_batch=8,
                   max_wait=0.05, config=CONFIG)
    options.update(overrides)
    return RenamingService(**options)


class TestShardMap:
    def test_map_is_pinned(self):
        # The uid -> shard map is baked into stored global ids, so it
        # must never drift across interpreter versions or hash seeds.
        uids = (1, 2, 3, 1000, 54321, 1 << 20)
        assert [shard_of(uid, 4) for uid in uids] == [1, 2, 3, 0, 1, 0]
        assert [shard_of(uid, 7) for uid in uids] == [5, 6, 4, 1, 5, 5]

    def test_every_uid_lands_in_range(self):
        for shards in (1, 2, 3, 8):
            assert all(0 <= shard_of(uid, shards) < shards
                       for uid in range(1, 500))

    def test_global_and_split_are_inverses(self):
        for shards in (1, 2, 5):
            for shard in range(shards):
                for local in range(1, 40):
                    gid = global_compact(local, shard, shards)
                    assert split_compact(gid, shards) == (local, shard)

    def test_global_ids_are_disjoint_across_shards(self):
        seen = set()
        for shard in range(4):
            for local in range(1, 100):
                gid = global_compact(local, shard, 4)
                assert gid >= 1
                assert gid not in seen
                seen.add(gid)


class TestNetDelta:
    def ops(self, *pairs):
        return [ShardOp(i, kind, uid) for i, (kind, uid) in enumerate(pairs)]

    def test_plain_join_and_leave(self):
        joins, leaves = net_delta(
            {5}, self.ops((RENAME, 7), (RELEASE, 5)))
        assert joins == [7]
        assert leaves == [5]

    def test_release_cancels_pending_join(self):
        joins, leaves = net_delta(
            set(), self.ops((RENAME, 7), (RELEASE, 7)))
        assert joins == []
        assert leaves == []

    def test_rename_cancels_pending_leave(self):
        joins, leaves = net_delta(
            {7}, self.ops((RELEASE, 7), (RENAME, 7)))
        assert joins == []
        assert leaves == []

    def test_rename_of_member_is_idempotent(self):
        joins, leaves = net_delta(
            {7}, self.ops((RENAME, 7), (RENAME, 7)))
        assert joins == []
        assert leaves == []

    def test_release_of_non_member_is_noop(self):
        joins, leaves = net_delta(set(), self.ops((RELEASE, 7)))
        assert (joins, leaves) == ([], [])

    def test_duplicate_joins_collapse(self):
        joins, leaves = net_delta(
            set(), self.ops((RENAME, 7), (RENAME, 7), (RENAME, 9)))
        assert joins == [7, 9]

    def test_lookup_cannot_reach_an_epoch(self):
        with pytest.raises(ValueError, match="lookup"):
            net_delta(set(), [ShardOp(0, "lookup", 7)])


class TestBatcher:
    def op(self, index, uid=None):
        return ShardOp(index, RENAME, uid if uid is not None else index + 1)

    def test_closes_when_full(self):
        batcher = EpochBatcher(0, BatchPolicy(max_batch=3, max_wait=None))
        assert batcher.offer(self.op(0), 0.0) == []
        assert batcher.offer(self.op(1), 0.1) == []
        (batch,) = batcher.offer(self.op(2), 0.2)
        assert batch.reason == CLOSE_FULL
        assert [op.index for op in batch.ops] == [0, 1, 2]
        assert len(batcher) == 0

    def test_closes_on_deadline_before_adding_late_op(self):
        batcher = EpochBatcher(0, BatchPolicy(max_batch=10, max_wait=1.0))
        batcher.offer(self.op(0), 0.0)
        batcher.offer(self.op(1), 0.5)
        (batch,) = batcher.offer(self.op(2), 1.5)
        assert batch.reason == CLOSE_DEADLINE
        assert [op.index for op in batch.ops] == [0, 1]
        assert len(batcher) == 1  # the late op opened the next batch

    def test_arrival_at_deadline_still_joins(self):
        batcher = EpochBatcher(0, BatchPolicy(max_batch=10, max_wait=1.0))
        batcher.offer(self.op(0), 0.0)
        assert batcher.offer(self.op(1), 1.0) == []
        assert len(batcher) == 2

    def test_max_batch_one_can_close_two_at_once(self):
        batcher = EpochBatcher(0, BatchPolicy(max_batch=1, max_wait=None))
        (batch,) = batcher.offer(self.op(0), 0.0)
        assert batch.reason == CLOSE_FULL
        (batch2,) = batcher.offer(self.op(1), 0.1)
        assert batch2.index == 1

    def test_flush_and_boundaries(self):
        batcher = EpochBatcher(3, BatchPolicy(max_batch=2, max_wait=None))
        batcher.offer(self.op(0), 0.0)
        batcher.offer(self.op(1), 0.1)
        batcher.offer(self.op(2), 0.2)
        assert batcher.flush() .reason == CLOSE_DRAIN
        assert batcher.flush() is None
        assert [b["reason"] for b in batcher.boundaries] == [
            CLOSE_FULL, CLOSE_DRAIN,
        ]
        assert [b["shard"] for b in batcher.boundaries] == [3, 3]
        assert batcher.boundaries[0]["first"] == 0
        assert batcher.boundaries[0]["last"] == 1

    def test_deadline_property(self):
        batcher = EpochBatcher(0, BatchPolicy(max_batch=4, max_wait=0.5))
        assert batcher.deadline is None
        batcher.offer(self.op(0), 2.0)
        assert batcher.deadline == 2.5

    def test_plan_matches_incremental_offers(self):
        policy = BatchPolicy(max_batch=3, max_wait=0.4)
        stream = [(self.op(i), 0.17 * i) for i in range(17)]
        planned = plan_batches(0, stream, policy)
        batcher = EpochBatcher(0, policy)
        incremental = []
        for op, arrival in stream:
            incremental.extend(batcher.offer(op, arrival))
        tail = batcher.flush(CLOSE_DRAIN)
        if tail is not None:
            incremental.append(tail)
        assert [b.boundary() for b in planned] == [
            b.boundary() for b in incremental
        ]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait=-1.0)


class TestService:
    def test_rename_lookup_release_round_trip(self):
        # Deterministic mode: a submitted request only resolves once
        # its batch flushes, so drain before awaiting.
        async def scenario():
            async with service() as svc:
                assert svc.lookup(101) is None
                rename = svc.submit(RENAME, 101, 0.0)
                await svc.drain()
                gid = await rename
                assert svc.lookup(101) == gid
                assert svc.original_of(gid) == 101
                release = svc.submit(RELEASE, 101, 1.0)
                await svc.drain()
                assert await release is True
                assert svc.lookup(101) is None
                return gid

        assert run(scenario()) >= 1

    def test_batch_renames_get_distinct_global_ids(self):
        async def scenario():
            async with service(shards=3) as svc:
                futures = [svc.submit(RENAME, uid, 0.0)
                           for uid in range(200, 230)]
                await svc.drain()
                return await asyncio.gather(*futures)

        ids = run(scenario())
        assert len(set(ids)) == 30

    def test_rename_then_release_in_one_batch_is_not_renamed(self):
        async def scenario():
            async with service(max_batch=64) as svc:
                rename = svc.submit(RENAME, 300, 0.0)
                release = svc.submit(RELEASE, 300, 0.0)
                await svc.drain()
                assert await release is True
                with pytest.raises(NotRenamed):
                    await rename

        run(scenario())

    def test_release_of_last_member_withdraws_names(self):
        async def scenario():
            async with service(shards=1) as svc:
                rename = svc.submit(RENAME, 42, 0.0)
                await svc.drain()
                gid = await rename
                assert svc.lookup(42) == gid
                release = svc.submit(RELEASE, 42, 1.0)
                await svc.drain()
                await release
                return svc.lookup(42), svc.stats()

        looked_up, stats = run(scenario())
        assert looked_up is None
        assert stats["empty_batches"] == 1
        assert stats["members"] == 0

    def test_live_mode_timer_flushes_a_lonely_request(self):
        async def scenario():
            async with service(max_wait=0.02) as svc:
                gid = await asyncio.wait_for(svc.rename(77), timeout=5.0)
                return gid, svc.lookup(77)

        gid, looked_up = run(scenario())
        assert looked_up == gid

    def test_submit_validates_kind_and_range(self):
        async def scenario():
            async with service() as svc:
                with pytest.raises(ValueError, match="kind"):
                    svc.submit("lookup", 5, 0.0)
                with pytest.raises(ValueError, match="outside"):
                    svc.submit(RENAME, 0, 0.0)
                with pytest.raises(ValueError, match="outside"):
                    svc.lookup(20_000)

        run(scenario())

    def test_lookup_at_is_ordered_between_its_lanes_batches(self):
        async def scenario():
            async with service(shards=1, max_batch=2, max_wait=None) as svc:
                before = svc.lookup_at(101, 0.0)
                rename = svc.submit(RENAME, 101, 1.0)
                svc.submit(RENAME, 102, 1.0)        # fills the batch
                after = svc.lookup_at(101, 1.0)     # queued behind it
                svc.submit(RENAME, 103, 2.0)        # stays open ...
                unflushed = svc.lookup_at(103, 3.0)  # ... past this read
                await svc.drain()
                assert await before is None
                assert await after == await rename
                assert await unflushed is None
                assert svc.lookup(103) is not None

        run(scenario())

    def test_lookup_at_validates_like_lookup_and_submit(self):
        svc = service()
        with pytest.raises(RuntimeError, match="not started"):
            svc.lookup_at(5, 0.0)

        async def scenario():
            async with svc:
                with pytest.raises(ValueError, match="outside"):
                    svc.lookup_at(20_000, 0.0)
            with pytest.raises(RuntimeError, match="closed"):
                svc.lookup_at(5, 0.0)

        run(scenario())

    def test_stamps_cannot_run_backwards_on_a_lane(self):
        async def scenario():
            async with service(shards=1) as svc:
                svc.submit(RENAME, 5, 2.0)
                with pytest.raises(
                        ValueError,
                        match=r"lane 0 .* arrival 1\.0 after stamp 2\.0:"):
                    svc.submit(RENAME, 6, 1.0)
                with pytest.raises(ValueError, match="lane 0 .* 1.5 after"):
                    svc.lookup_at(5, 1.5)
                # The refused requests left nothing behind; an equal
                # stamp is not a step back.
                assert svc.stats()["requests"] == 1
                same = svc.lookup_at(5, 2.0)
                svc.submit(RENAME, 6, 2.0)
                await svc.drain()
                assert await same is None           # ahead of the batch
                assert sorted(svc.assignment()) == [5, 6]

        run(scenario())

    def test_a_lane_is_stamped_or_live_never_both(self):
        async def scenario():
            async with service(shards=1, max_wait=0.01) as svc:
                svc.submit(RENAME, 5, 0.5)
                with pytest.raises(
                        ValueError,
                        match=r"lane 0 .* arrival None after stamp 0\.5:"):
                    svc.submit(RENAME, 6)
                with pytest.raises(ValueError, match="lane 0 .* unstamped"):
                    svc.lookup_at(5)
                assert svc.stats()["requests"] == 1
            async with service(shards=1, max_wait=0.01) as svc:
                live = svc.submit(RENAME, 5)
                with pytest.raises(ValueError, match="lane 0 .* unstamped"):
                    svc.submit(RENAME, 6, 0.5)
                with pytest.raises(ValueError, match="lane 0 .* unstamped"):
                    svc.lookup_at(5, 0.5)
                gid = await asyncio.wait_for(live, timeout=5.0)
                assert await svc.lookup_at(5) == gid

        run(scenario())

    def test_requires_running_loop_lifecycle(self):
        svc = service()
        with pytest.raises(RuntimeError, match="not started"):
            svc.submit(RENAME, 5, 0.0)

        async def double_start():
            async with service() as running:
                with pytest.raises(RuntimeError, match="already started"):
                    running.start()

        run(double_start())

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="shards"):
            service(shards=0)
        with pytest.raises(ValueError, match="outside"):
            service(shard_faults={5: [{"kind": "omission", "p": 1.0}]})

    def test_events_are_schema_valid(self):
        recorder = EventRecorder()

        async def scenario():
            async with service(observer=recorder) as svc:
                for uid in range(400, 420):
                    svc.submit(RENAME, uid, 0.0)
                await svc.drain()

        run(scenario())
        events = recorder.events()
        assert validate_events(events) == []
        kinds = {event["kind"] for event in events}
        assert {"serve.start", "serve.batch.close", "serve.epoch.begin",
                "serve.epoch.end", "serve.drain",
                "serve.stop"} <= kinds

    def test_per_shard_stats_and_assignment_agree(self):
        async def scenario():
            async with service(shards=4) as svc:
                for uid in range(600, 680):
                    svc.submit(RENAME, uid, 0.0)
                await svc.drain()
                return svc.per_shard_stats(), svc.assignment()

        rows, assignment = run(scenario())
        assert sum(row["members"] for row in rows) == 80
        assert len(assignment) == 80
        values = list(assignment.values())
        assert len(set(values)) == len(values)

    def test_timeout_flush_reason_recorded_in_live_mode(self):
        async def scenario():
            async with service(max_wait=0.02) as svc:
                await asyncio.wait_for(svc.rename(88), timeout=5.0)
                return svc.boundaries()

        boundaries = run(scenario())
        reasons = [b["reason"] for shard in boundaries for b in shard]
        assert CLOSE_TIMEOUT in reasons
