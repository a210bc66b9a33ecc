"""A/B proof that observability changes no counted result.

Events and phase timers are guarded hooks inside the one round body
(``SyncNetwork.step``).  These tests hold executions with an
``EventRecorder`` (profiling on) and with no observer (``None``) to
byte-identical ``Metrics.summary()`` dicts, per-round ledgers, node
outputs, and crash sets across every adversary family.
"""

from random import Random

import pytest

from repro.adversary.crash import (
    CommitteeHunter,
    MidSendPartitioner,
    RandomCrash,
)
from repro.analysis.experiments import default_namespace, sample_uids
from repro.baselines.collect_rank import CollectRankNode
from repro.core.crash_renaming import CrashRenamingNode
from repro.engine.pool import run_requests
from repro.engine.sweeps import RunRequest
from repro.obs import EventRecorder
from repro.sim.messages import CostModel
from repro.sim.runner import run_network


def _population(n, seed):
    namespace = default_namespace(n)
    return sample_uids(n, namespace, Random(seed)), namespace


def _observables(processes_fn, cost, adversary_fn, seed, observer):
    result = run_network(processes_fn(), cost,
                         crash_adversary=adversary_fn(), seed=seed,
                         observer=observer)
    metrics = result.metrics
    return {
        "summary": metrics.summary(),
        "messages_per_round": list(metrics.messages_per_round),
        "bits_per_round": list(metrics.bits_per_round),
        "outputs": dict(result.results),
        "crashed": set(result.crashed),
        "rounds": result.rounds,
    }


ADVERSARIES = [
    ("none", lambda: None),
    ("random", lambda: RandomCrash(4, rate=0.15, rng=Random(11))),
    ("hunter", lambda: CommitteeHunter(4, rng=Random(12))),
    ("partitioner", lambda: MidSendPartitioner(4, rng=Random(13))),
]


class TestNetworkAB:
    """Observed and detached executions must count identically."""

    @pytest.mark.parametrize("adversary_fn",
                             [fn for _name, fn in ADVERSARIES],
                             ids=[name for name, _fn in ADVERSARIES])
    def test_crash_renaming_identical(self, adversary_fn):
        uids, namespace = _population(12, seed=7)
        cost = CostModel(n=12, namespace=namespace)

        def processes():
            return [CrashRenamingNode(uid) for uid in uids]

        detached = _observables(processes, cost, adversary_fn, 9, None)
        observed = _observables(processes, cost, adversary_fn, 9,
                                EventRecorder(profile=True))
        assert observed == detached

    def test_gossip_identical(self):
        uids, namespace = _population(10, seed=3)
        cost = CostModel(n=10, namespace=namespace)

        def processes():
            return [CollectRankNode(uid, assumed_faults=3) for uid in uids]

        adversary_fn = ADVERSARIES[1][1]
        detached = _observables(processes, cost, adversary_fn, 5, None)
        observed = _observables(processes, cost, adversary_fn, 5,
                                EventRecorder(profile=True))
        assert observed == detached

    def test_profiler_charges_one_plan_call_per_round(self):
        uids, namespace = _population(8, seed=2)
        cost = CostModel(n=8, namespace=namespace)

        def processes():
            return [CrashRenamingNode(uid) for uid in uids]

        adversary_fn = ADVERSARIES[3][1]
        detached = _observables(processes, cost, adversary_fn, 4, None)
        recorder = EventRecorder(profile=True)
        observed = _observables(processes, cost, adversary_fn, 4, recorder)
        assert observed == detached
        phases = recorder.profiler.report()["phases"]
        assert phases["plan"]["calls"] == detached["rounds"]


class TestEngineAB:
    def test_run_requests_identical_with_observer(self):
        requests = [RunRequest.make("crash", 6, 1, seed)
                    for seed in range(3)]
        plain = run_requests(requests)
        observed = run_requests(requests, observer=EventRecorder(
            profile=True))
        assert [result.row for result in plain] == \
               [result.row for result in observed]
        assert ([result.messages_per_round for result in plain]
                == [result.messages_per_round for result in observed])
