"""Golden digests: counted results are a function of (inputs, seed) only.

One sha256 per (driver, n, seed, variant) over everything the
reproduction counts -- rounds, the metrics summary, both per-round
ledgers, sends by message type, and every surviving node's new name.
A refactor of ``core/``, ``consensus/`` or ``sim/`` changes
``code_version``; it must not change any digest below.  The table was
recorded on the commit *before* the near-linear protocol layer
(``_committee_action`` as one grouping pass, one ``SubVote`` per
fan-out value) and is the gate that change had to pass.

The rows of the two all-to-all baselines (``obg-*``, ``balls-*``:
fault-free, and under ``RandomCrash`` built exactly as
``obg_run_summary`` / ``balls_run_summary`` build it) were recorded on
the commit *before* the baselines read their inboxes per view
(``repro.sim.columnar.derive``) and held across it without re-recording;
the gossip baseline's (``collect-*``, built as ``gossip_run_summary``
builds it) on the commit *before* it read its inboxes through
``repro.sim.columnar.messages``, likewise.

A digest that moves means two different programs are being compared.
Only a deliberate accounting change may re-record the table:

    PYTHONPATH=src python -m tests.test_golden_digests

CI runs this file under two ``PYTHONHASHSEED`` values.

The serve table (``SERVE_CASES`` / ``SERVE_GOLDEN``) does the same for
``repro.serve``: one digest per played load over everything the service
counts.  It was recorded on the commit *before* the lane clock (one
attempt path, reads ordered on the lane) and had to hold across it
without re-recording; ``SERVE_LOOKUPS`` was added with the read rule,
which is what made lookup hits a function of the trace.
"""

import asyncio
import hashlib
import json
from random import Random

import pytest

from repro.adversary import byzantine as byzantine_strategies
from repro.adversary.crash import CommitteeHunter, ScheduledCrash
from repro.analysis.experiments import (
    byzantine_config_for,
    default_namespace,
    make_crash_adversary,
    sample_uids,
)
from repro.baselines.balls_into_slots import run_balls_into_slots
from repro.baselines.collect_rank import run_collect_rank
from repro.baselines.obg_halving import run_obg_halving
from repro.core.byzantine_renaming import run_byzantine_renaming
from repro.core.crash_renaming import CrashRenamingConfig, run_crash_renaming
from repro.faults import build_fault_model
from repro.obs import EventRecorder
from repro.serve.loadgen import generate_trace, run_load
from repro.serve.service import RenamingService
from tests import test_serve_ab, test_serve_resilience


def digest(result) -> str:
    metrics = result.metrics
    canonical = json.dumps([
        result.rounds,
        metrics.summary(),
        list(metrics.messages_per_round),
        list(metrics.bits_per_round),
        sorted(metrics.sends_by_type.items()),
        sorted(result.outputs_by_uid().items()),
    ], sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def crash_case(n, seed, *, config=None, adversary=None, faults=None):
    namespace = default_namespace(n)
    uids = sample_uids(n, namespace, Random(seed))
    fault_model = (build_fault_model(faults, n, seed)
                   if faults is not None else None)
    return run_crash_renaming(
        uids, namespace=namespace, adversary=adversary, config=config,
        seed=seed + 2, fault_model=fault_model,
    )


def hunter_case(n, seed):
    return crash_case(
        n, seed,
        config=CrashRenamingConfig(election_constant=2.0),
        adversary=CommitteeHunter(n // 8, Random(seed + 1)),
    )


def byzantine_case(n, f, seed, factory):
    namespace = default_namespace(n)
    uids = sample_uids(n, namespace, Random(seed))
    corrupt = byzantine_strategies.corrupt_set(uids, f, Random(seed + 1))
    return run_byzantine_renaming(
        uids, namespace=namespace,
        byzantine={uid: factory for uid in corrupt},
        config=byzantine_config_for(n, f),
        shared_seed=seed + 3, seed=seed + 4,
    )


def baseline_case(run, n, f, seed):
    """An all-to-all baseline exactly as ``obg_run_summary`` /
    ``balls_run_summary`` / ``gossip_run_summary`` build it."""
    namespace = default_namespace(n)
    uids = sample_uids(n, namespace, Random(seed))
    return run(
        uids, namespace=namespace,
        adversary=make_crash_adversary("random", f, Random(seed + 1)),
        seed=seed + 2,
    )


BASELINES = (("obg", run_obg_halving), ("balls", run_balls_into_slots),
             ("collect", run_collect_rank))

WITHHOLDER = byzantine_strategies.make_withholder(0.5, salt=0)
EQUIVOCATOR = byzantine_strategies.make_equivocator()

#: case id -> thunk producing an ExecutionResult.
CASES = {
    # Paper constants: election constant 256, committee = everyone.
    "crash-paper-n8": lambda: crash_case(8, 0),
    "crash-paper-n33": lambda: crash_case(33, 1),
    "crash-paper-n96": lambda: crash_case(96, 1),
    # Sparse committee under the adaptive hunter: re-election, rising p.
    **{
        f"crash-hunter-n{n}-s{seed}":
            lambda n=n, seed=seed: hunter_case(n, seed)
        for n in (64, 128) for seed in (0, 1, 2)
    },
    "crash-early-stopping-n33": lambda: crash_case(
        33, 2, config=CrashRenamingConfig(early_stopping=True)),
    # Node 3 dies in a response round with 5 of its 16 answers out.
    "crash-midsend-n16": lambda: crash_case(
        16, 3, adversary=ScheduledCrash({6: [3]}, deliver_prefix={3: 5})),
    "crash-duplicate20-n16": lambda: crash_case(
        16, 4, faults=[{"kind": "duplicate", "p": 0.20}]),
    **{
        f"byz-{name}-n{n}":
            lambda n=n, factory=factory: byzantine_case(n, 2, 0, factory)
        for name, factory in (("withholder", WITHHOLDER),
                              ("equivocator", EQUIVOCATOR))
        for n in (24, 48)
    },
    # The all-to-all baselines: fault-free, then RandomCrash mid-send cuts.
    **{
        f"{name}-n33-f0": lambda run=run: baseline_case(run, 33, 0, 1)
        for name, run in BASELINES
    },
    **{
        f"{name}-random-n64-s{seed}":
            lambda run=run, seed=seed: baseline_case(run, 64, 64 // 8, seed)
        for name, run in BASELINES for seed in (0, 1)
    },
}

#: case id -> digest recorded on the parent commit.
GOLDEN = {
    "crash-paper-n8":
        "ff925fd6a6f9d75f9ecfc3d3a86196ea7c54db7d1d76b1f44558716e9d9085a7",
    "crash-paper-n33":
        "b62f927100625ebf159a59f8a1b8ee7a8c92ac84534840c93d6805c567aa3b9c",
    "crash-paper-n96":
        "ac139c10574df7d09937425628011ca97ad9d29853fa751d28abf475eb2fc697",
    "crash-hunter-n64-s0":
        "396569780fd1c096acf9583b06e9e2ee948e8d2346d6cb1cac68b465079f3ec6",
    "crash-hunter-n64-s1":
        "093e198e7c6c4783bfef7427e7fe0b2203a1573762b837cd5f0dc49f5dbca573",
    "crash-hunter-n64-s2":
        "32f578da11121973a65145a4f43e6127ff6c285febeb86ad4e6e5379e8f978da",
    "crash-hunter-n128-s0":
        "1f2a5f427f0f0f9e9c2dafcdba5ec6e4becfab83759d91bb9b4ddfe3d7395f24",
    "crash-hunter-n128-s1":
        "8a9d70de6e6f8cfdd66700ccf3fd9c46257019bbf33fd4bff77dc5e000ada4db",
    "crash-hunter-n128-s2":
        "a7539a0984f1ffd2d54bf7153788cd38e41aa92a462333ae656b293245c4300c",
    "crash-early-stopping-n33":
        "4d01f268728ed84573ff90344545043295c76235e072573d4c1a317f63334df2",
    "crash-midsend-n16":
        "ab29d36ea8c973c6b0405b0875c3699416b8c1ea490ca1c2fd182f9f162a0c8e",
    "crash-duplicate20-n16":
        "989dfbd4488910fd723b6efc2041997a63ce697ec26df67879f2b0a801197324",
    "byz-withholder-n24":
        "2244dca22f299071b5e4aa3e9763fff774b1a11013131ce5b79c708db2d10215",
    "byz-withholder-n48":
        "c85aa0dfa28303f5b99e02fb87203f42ba2623c48b03e53a2a18eed0e4f24896",
    "byz-equivocator-n24":
        "c52164989fc31fb079b48ff048485b19d5a447d83dd89566dd118241aae49731",
    "byz-equivocator-n48":
        "7799ca35c6d9d987c52007af4cd5d4f617b4ea455969b5a501487a1efe4acfa8",
    # Recorded at efd39a5, before the baselines read through `derive`.
    "obg-n33-f0":
        "fe007af52d1e505e9aca68601b23a8e66a3c1ed1a012569da03fc52645b99359",
    "balls-n33-f0":
        "3ed3f62a18c63d6e33531739d7b66a84e5caf68277e780d57ddcd44bd42dae01",
    "obg-random-n64-s0":
        "142a4aff9b6aa277a0e292dc16074e3208e1682ce43c48c2703f346e7b573ec0",
    "obg-random-n64-s1":
        "515659c7a6f58bc368b70ccf27efb8870bc5cb734d7bc139938c80838e8950fb",
    "balls-random-n64-s0":
        "73a14d5fe46cf36ba7677c5b02f844321f97fea950be3729dfc996c3c78e44e2",
    "balls-random-n64-s1":
        "bb41763992013b4ba7706db4a3441292833a176d94559f02d2bc2b5a3b6558d8",
    # Recorded at 0d63bc4, before `collect_rank` read through `messages`.
    "collect-n33-f0":
        "85c06c37bc74deb8685278cfc88fcc35ad55724e45d7e526a35927ba3f3a1507",
    "collect-random-n64-s0":
        "22d42de37e452740de9f6984923b1b87b90af491d4514cea8ba7ef0e9ea0f235",
    "collect-random-n64-s1":
        "d1c7e541f701a43f4ffd1a27b8adaf0643cbf61f03058127d1ec5cea2020480a",
}


def test_every_case_has_a_recorded_digest():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_counted_results_match_the_recorded_digest(case):
    assert digest(CASES[case]()) == GOLDEN[case]


#: Worker-side resilience events: emitted by one lane in execution
#: order, so their per-shard sequence is part of the counted result.
SERVE_EVENT_PREFIXES = ("serve.retry", "serve.breaker.", "serve.shed",
                        "serve.deadline", "serve.epoch.failed")

LOAD_COUNTERS = ("renamed", "released", "rename_misses", "degraded", "shed",
                 "deadline_expired", "unresolved")


def serve_case(profile, *, faults, windows=None, resilience=None):
    """Play ``profile``'s trace; returns ``(digest, (hits, misses))``."""
    recorder = EventRecorder(capacity=None)

    async def scenario():
        service = RenamingService(
            shards=profile.shards, namespace=profile.namespace,
            seed=profile.seed, max_batch=profile.max_batch,
            max_wait=profile.max_wait, shard_faults=faults,
            shard_fault_windows=windows, resilience=resilience,
            observer=recorder,
        )
        async with service:
            load = await run_load(service, generate_trace(profile))
            return (load, service.boundaries(), service.histories(),
                    service.assignment(), service.stats())

    load, boundaries, histories, assignment, stats = asyncio.run(scenario())
    lanes: dict[int, list] = {}
    for event in recorder.events():
        if event["kind"].startswith(SERVE_EVENT_PREFIXES):
            data = dict(event["data"])
            data.pop("wall_s", None)
            lanes.setdefault(data["shard"], []).append(
                [event["kind"], sorted(data.items())])
    canonical = json.dumps([
        boundaries,
        [[(r.rounds, r.messages, r.bits) for r in history]
         for history in histories],
        sorted(assignment.items()),
        sorted((key, value) for key, value in stats.items()
               if isinstance(value, int)),
        [getattr(load, name) for name in LOAD_COUNTERS],
        sorted(lanes.items()),
    ], sort_keys=True)
    return (hashlib.sha256(canonical.encode()).hexdigest(),
            (load.lookup_hits, load.lookup_misses))


#: case id -> thunk playing one load against a fresh service.
SERVE_CASES = {
    # resilience=None: shard 0 fails every multi-member epoch.
    "serve-plain-omission": lambda: serve_case(
        test_serve_ab.PROFILE, faults={0: test_serve_ab.OMISSION}),
    # Retries and the breaker ride across attempts 1-8 of shard 0.
    "serve-resilient-window": lambda: serve_case(
        test_serve_resilience.PROFILE,
        faults={0: test_serve_resilience.OMISSION_100},
        windows={0: test_serve_resilience.WINDOW},
        resilience=test_serve_resilience.RESILIENCE),
}

#: case id -> digest.  Re-recorded, deliberately, with the long-lived
#: directory (DESIGN decision 16): an epoch runs the protocol among the
#: batch's net joiners only, so every epoch's (rounds, messages, bits),
#: the names joiners take (lowest free slot, not a fresh 1..members) and
#: which epochs a total-omission channel can fail (only those with two
#: or more joiners) all changed; batch boundaries did not.  The 25
#: protocol / baseline digests above were not touched.  Before:
#: 79d5ba80...308d0 and 7c3ebced...63532, recorded at PR 17.
SERVE_GOLDEN = {
    "serve-plain-omission":
        "537d4c2cb1e9f7bbf2490e31bd95bae80b034aa187d4d8bb52bceacb566e427f",
    "serve-resilient-window":
        "eff35198075a800910746cf869d8e909e35882439f6132fcc174e3ba1073d6f2",
}

#: case id -> (lookup_hits, lookup_misses), recorded with the read rule
#: (before it they followed the executor's speed: 146 / 1198 here).
#: The plain case read (573, 771) while its faulted shard could name
#: nobody; lone joiners there now take a name without a message.
SERVE_LOOKUPS = {
    "serve-plain-omission": (618, 726),
    "serve-resilient-window": (547, 797),
}


def test_every_serve_case_has_a_recorded_digest():
    assert sorted(SERVE_GOLDEN) == sorted(SERVE_CASES) == sorted(SERVE_LOOKUPS)


@pytest.mark.parametrize("case", sorted(SERVE_CASES))
def test_serve_counts_match_the_recorded_digest(case):
    recorded, lookups = SERVE_CASES[case]()
    assert recorded == SERVE_GOLDEN[case]
    assert lookups == SERVE_LOOKUPS[case]


if __name__ == "__main__":
    for case, run in CASES.items():
        print(f'    "{case}":\n        "{digest(run())}",')
    for case, run in SERVE_CASES.items():
        recorded, lookups = run()
        print(f'    "{case}":\n        "{recorded}",  # lookups {lookups}')
