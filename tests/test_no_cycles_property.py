"""No run leaves cyclic garbage, and the round loop runs without the
cyclic collector.

``SyncNetwork.run`` turns the collector off for its round loop
(DESIGN §4 decision 11, "a round is freed by refcounting"): every
round's columns, views and inboxes die by their reference counts, so a
collection inside the loop only re-walks them.  That is sound only as
long as nothing a run builds forms a cycle, which is what the first
half of this file holds: every ``FAMILIES`` entry, one falsifier
scenario (link faults, held mail, the monitor suite) and one served
epoch, each run with the collector off, leave ``gc.collect() == 0``.
A change that makes a cycle fails here instead of leaking until some
later collection.

The second half holds the bracket itself.  ``repro.serve`` runs one
epoch per shard thread at once, so the first loop in records the
caller's state and turns the collector off, and the last one out
restores it: two overlapping runs on two threads keep it off until
both are done, whatever the caller had, and an error from the loop
restores it too.
"""

import asyncio
import gc
import threading

import pytest

from repro.analysis.experiments import FAMILIES, summary
from repro.core.crash_renaming import CrashRenamingConfig
from repro.falsify.monitors import InvariantViolation
from repro.falsify.scenarios import (
    make_adversary,
    monitors_for,
    resolve_scenario,
    run_scenario,
)
from repro.serve.service import RenamingService
from repro.serve.sharding import RELEASE, RENAME
from repro.sim import network as network_module
from repro.sim.messages import CostModel
from repro.sim.network import NonTerminationError
from repro.sim.runner import run_network
from benchmarks.perf import BroadcastStorm


@pytest.fixture(autouse=True)
def _collector_state_kept():
    """Every test leaves the collector as it found it."""
    enabled = gc.isenabled()
    yield
    assert network_module.running_loops == 0
    (gc.enable if enabled else gc.disable)()


def _leaves_no_cycles(run) -> None:
    """``run`` twice: a warm-up with the collector on, which must find
    it on afterwards, then a measured run with it off, so that no
    automatic collection outside the round loop can free a cycle
    before the count."""
    gc.enable()
    run()  # imports, module-level caches, the first compile of a path
    assert gc.isenabled()
    gc.collect()
    gc.disable()
    run()
    assert not gc.isenabled()
    assert gc.collect() == 0


class TestNoCycles:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("f", [0, 2])
    def test_a_family_run_leaves_no_cycle(self, name, f):
        _leaves_no_cycles(lambda: summary(name, 16, f, 1))

    def test_a_falsifier_scenario_leaves_no_cycle(self):
        scenario = resolve_scenario("gossip-faults")

        def run():
            result = run_scenario(
                "gossip-faults", 16, 2, 3,
                adversary=make_adversary("random", 2, 3),
                monitors=monitors_for(scenario, 16, 2))
            assert result.fault_stats is not None

        _leaves_no_cycles(run)

    def test_a_served_epoch_leaves_no_cycle(self):
        async def load():
            config = CrashRenamingConfig(election_constant=2.0)
            async with RenamingService(shards=2, namespace=10_000, seed=1,
                                       max_batch=8, max_wait=0.05,
                                       config=config) as service:
                renames = [service.submit(RENAME, uid, 0.0)
                           for uid in range(100, 116)]
                await service.drain()
                release = service.submit(RELEASE, 100, 1.0)
                await service.drain()
                return await asyncio.gather(*renames, release)

        def run():
            *names, released = asyncio.run(load())
            assert len(set(names)) == 16 and released is True

        _leaves_no_cycles(run)


def _storm(rounds: int = 4, **network):
    return run_network([BroadcastStorm(uid, rounds) for uid in range(1, 5)],
                       CostModel(n=4, namespace=8), **network)


class _Watch:
    """A monitor noting the collector's state after every round; at
    round 1 it waits at ``barrier`` and then, if given, for ``event``."""

    def __init__(self, barrier=None, event=None, fail_at=None):
        self.barrier, self.event, self.fail_at = barrier, event, fail_at
        self.states = []

    def on_start(self, network):
        pass

    def on_round(self, network):
        self.states.append(gc.isenabled())
        if network.round_no == 1 and self.barrier is not None:
            self.barrier.wait()
            if self.event is not None:
                assert self.event.wait(timeout=30)
                self.states.append(gc.isenabled())
        if network.round_no == self.fail_at:
            raise InvariantViolation("watch", "planted",
                                     round_no=network.round_no)

    def on_finish(self, network):
        pass


def _overlapping_runs():
    """Two runs on two threads, both inside their loops at round 1; the
    second then waits until the first has returned."""
    barrier = threading.Barrier(2, timeout=30)
    first_done = threading.Event()
    first, second = _Watch(barrier), _Watch(barrier, first_done)
    errors = []

    def run(monitor, done=None):
        try:
            _storm(monitors=[monitor])
        except BaseException as error:  # reported by the main thread
            errors.append(error)
        finally:
            if done is not None:
                done.set()

    threads = [threading.Thread(target=run, args=(first, first_done)),
               threading.Thread(target=run, args=(second,))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors and not any(thread.is_alive() for thread in threads)
    return first, second


class TestBracket:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_run_restores_the_callers_state(self, enabled):
        (gc.enable if enabled else gc.disable)()
        watch = _Watch()
        assert _storm(monitors=[watch]).rounds == 4
        assert watch.states == [False] * 4
        assert gc.isenabled() is enabled

    def test_overlapping_runs_keep_it_off_until_the_last_is_done(self):
        gc.enable()
        first, second = _overlapping_runs()
        assert first.states == [False] * 4
        # The second run's loop outlived the first's: a per-call
        # save/restore would have turned the collector back on here.
        assert second.states == [False] * 5
        assert gc.isenabled()

    def test_overlapping_runs_leave_a_disabled_collector_disabled(self):
        gc.disable()
        first, second = _overlapping_runs()
        assert first.states == [False] * 4
        assert second.states == [False] * 5
        assert not gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_hitting_the_round_cap_restores_the_state(self, enabled):
        (gc.enable if enabled else gc.disable)()
        watch = _Watch()
        with pytest.raises(NonTerminationError) as caught:
            _storm(max_rounds=2, monitors=[watch])
        assert caught.value.round_no == 2 and watch.states == [False] * 2
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_an_error_in_the_loop_restores_the_state(self, enabled):
        (gc.enable if enabled else gc.disable)()
        watch = _Watch(fail_at=2)
        with pytest.raises(InvariantViolation):
            _storm(monitors=[watch])
        assert watch.states == [False] * 2
        assert gc.isenabled() is enabled
