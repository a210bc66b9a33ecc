"""Golden digests: counted results are a function of (inputs, seed) only.

One sha256 per (driver, n, seed, variant) over everything the
reproduction counts -- rounds, the metrics summary, both per-round
ledgers, sends by message type, and every surviving node's new name.
A refactor of ``core/``, ``consensus/`` or ``sim/`` changes
``code_version``; it must not change any digest below.  The table was
recorded on the commit *before* the near-linear protocol layer
(``_committee_decision`` as one grouping pass, one ``SubVote`` per
fan-out value) and is the gate that change had to pass.

The rows of the two all-to-all baselines (``obg-*``, ``balls-*``:
fault-free, and under ``RandomCrash`` built exactly as
``obg_run_summary`` / ``balls_run_summary`` build it) were recorded on
the commit *before* the baselines read their inboxes per view
(``repro.sim.columnar.derive``) and held across it without re-recording;
the gossip baseline's (``collect-*``, built as ``gossip_run_summary``
builds it) on the commit *before* it read its inboxes through
``repro.sim.columnar.messages``, likewise.

The Byzantine strategies the table first missed (``byz-silent-*``,
``byz-crash-sim-*``, the chaos monkey's ``byz-chaos-*`` and the
sampled-committee ``byz-withholder-n64-f3``) were recorded on the commit
*before* committee members of one view shared their view tuple and
each round's ``SubVote`` (the view and the vote read through ``derive``)
and held across it without re-recording.

The Byzantine rows of a strategy the ``byzantine`` family has
(``byz-{withholder,equivocator}-n{24,48}``, ``byz-silent-n48``,
``byz-crash-sim-n48``, ``byz-withholder-n64-f3``) are built by hand
below, and were held without re-recording when Byzantine renaming
became a family: the family's own path at seed 0
(``FAMILY_CASES``) must give the same digests.

The crash runs whose round-3 inboxes are unusual (``crash-corrupt-*``:
bit-flipped answers, objects of their own; ``crash-partition-*``: held
answers released as stamped rows beside a later round's;
``crash-partitioner-*``: a member's kept half of its answers filed as a
group of its own) were recorded on the commit *before* round 3 read each
distinct answer once (``repro.sim.columnar.distinct``) and held across it
without re-recording.

``NODE_GOLDEN`` pins the one ledger ``digest`` leaves out, messages
per sender (``sends_by_node``), for the same rows.  It was recorded at
093de91, the commit *before* the engine advanced the ledgers once per
round instead of once per sender, and held across it without
re-recording.

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
from repro.adversary.crash import (
    CommitteeHunter,
    MidSendPartitioner,
    ScheduledCrash,
)
from repro.analysis.experiments import (
    FAMILIES,
    byzantine_config_for,
    default_namespace,
    execute,
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


def node_digest(result) -> str:
    """sha256 of the per-sender ledger, ``sends_by_node``."""
    canonical = json.dumps(sorted(result.metrics.sends_by_node.items()))
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
CHAOS = byzantine_strategies.make_chaos_monkey()

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
    # Bit-flipped answers (rounds 3, 6, 15, 21, 36) are objects of their
    # own.  The rate is one a run survives: from p = 0.01 up, a flipped
    # interval ends every seed tried in a `RenamingFailure`.
    "crash-corrupt-n16": lambda: crash_case(
        16, 39, faults=[{"kind": "corrupt", "p": 0.005}]),
    # Round 3's answers across the cut are held and come back as rows,
    # stamped in round 3, beside round 6's own answers.
    "crash-partition-n16": lambda: crash_case(
        16, 6, faults=[{"kind": "partition", "start": 3, "end": 6}]),
    # A member cut mid-answer per round: its kept half is a group of its
    # own, carrying the same `Response` objects as the whole answers.
    "crash-partitioner-n64": lambda: crash_case(
        64, 7, config=CrashRenamingConfig(election_constant=2.0),
        adversary=MidSendPartitioner(8, Random(8))),
    **{
        f"byz-{name}-n{n}":
            lambda n=n, factory=factory: byzantine_case(n, 2, 0, factory)
        for name, factory in (("withholder", WITHHOLDER),
                              ("equivocator", EQUIVOCATOR))
        for n in (24, 48)
    },
    "byz-silent-n48": lambda: byzantine_case(
        48, 2, 0, byzantine_strategies.silent),
    "byz-crash-sim-n48": lambda: byzantine_case(
        48, 2, 0, byzantine_strategies.crash_simulator),
    # Forged `SubVote`s with random steps, kinds and values, every round.
    "byz-chaos-n24": lambda: byzantine_case(24, 2, 0, CHAOS),
    # A sampled committee (22 of 64 members), 3 withholders, 41 splits.
    "byz-withholder-n64-f3": lambda: byzantine_case(64, 3, 0, WITHHOLDER),
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
    # Recorded at afba20b, before round 3 read through `distinct`.
    "crash-corrupt-n16":
        "181b8f17eeba641bbe90c601ed8671467e07460c9fba39c9abd03e232d3e8dff",
    "crash-partition-n16":
        "0d6d3e1f2a8dbe4fa4ef334675b3fe7fa4d4c6d181a15a9f5c3a094a9b754bdf",
    "crash-partitioner-n64":
        "6a21c744bfcdf73f4056cdd842066f00658d1e5b18d53a6128643926267412c8",
    "byz-withholder-n24":
        "2244dca22f299071b5e4aa3e9763fff774b1a11013131ce5b79c708db2d10215",
    "byz-withholder-n48":
        "c85aa0dfa28303f5b99e02fb87203f42ba2623c48b03e53a2a18eed0e4f24896",
    "byz-equivocator-n24":
        "c52164989fc31fb079b48ff048485b19d5a447d83dd89566dd118241aae49731",
    "byz-equivocator-n48":
        "7799ca35c6d9d987c52007af4cd5d4f617b4ea455969b5a501487a1efe4acfa8",
    # Recorded at e4d9b06, before a committee shared its view and votes.
    "byz-silent-n48":
        "7b3df38331faae111489198ada27f39ebfdbd4e09ba3a31e133246051ad13885",
    "byz-crash-sim-n48":
        "2880f4e6735c067c7b529f2a6a3f01462e5d85fa434cb6ab88a796707e53e1be",
    "byz-chaos-n24":
        "495f585f0a432e510fdf283670ac3273268a158d1647ce8fe7bab1efac98003c",
    "byz-withholder-n64-f3":
        "2e2881d4519e92484bd77eef04b309e22b6d1b4be76b04967096c444a989aebc",
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


#: case id -> :func:`node_digest`, recorded at 093de91.
NODE_GOLDEN = {
    "crash-paper-n8":
        "2bbedcf23ba9379c05d1a39abd1fcfafd6e61183ffb23dc33f3f0257730d38e7",
    "crash-paper-n33":
        "ae604a7da558e652e47b27ce3f4de0de25f3dae98e992cba880c46cfcd352d57",
    "crash-paper-n96":
        "c1806132bc25dca1f25df4e0180ceec04b1cf8764b933043611651db1186adcd",
    "crash-hunter-n64-s0":
        "5b587aabf2a7b8f1c3cb6232550c3facc8a0b67cbdcc3edae8bffc22041bceb1",
    "crash-hunter-n64-s1":
        "8a40e546b8139f86d0cabd3fa3d9aa6f53596cfb5ee488e84f9d4ee11b1a99c8",
    "crash-hunter-n64-s2":
        "a8e384ba700ba1bc0fb8a3f02d9c0270fd726e03171f1eba501644f2abe0672c",
    "crash-hunter-n128-s0":
        "2531085334cbd8a7ace253895db7f335e32797be32d44e7050e744562c77b4cf",
    "crash-hunter-n128-s1":
        "cb95e17730cde28c89de87a239b7be5cce9b199d588813c451a985f4fd647427",
    "crash-hunter-n128-s2":
        "ea1935bb948d6ce223bb63d1b9c54a588d519bd3c6dbccc837de23fd907e7775",
    "crash-early-stopping-n33":
        "3bd4d7ab719b1ff3e54276b1777c2f8072e7e99e2b073904c20e3e42d007ab58",
    "crash-midsend-n16":
        "c97a44c080d72270c67ec107683d67650762b191ddb0e812152130f506a973b1",
    "crash-duplicate20-n16":
        "2b5a2850528f8aff9be99ab0b71c52d8b876fe2799037cd29bac3667dd38d6e7",
    "crash-corrupt-n16":
        "2c10d35b1fbf92fd2475448a1cd9c437257bbeefd239353c052c5f3c59712634",
    "crash-partition-n16":
        "20d6365e57cd5de059d151b85f5082d5c75877a4ee1ee160e0ec41f9d964b60d",
    "crash-partitioner-n64":
        "912f4533747d83cb16a9ba74489eeabf8ecd07f24b10d2c791af8fa5820115d0",
    "byz-withholder-n24":
        "fd1011fd67f9db019fb89d2b06165a0aed2da641a3bb4d50f20113fc861b5205",
    "byz-withholder-n48":
        "0fabd43fc906047d7d56ee3166001f501aa234a4c893cc186d9aac3c1a942a36",
    "byz-equivocator-n24":
        "f326c6a0fd442658669e1e4697faca9761d4e23298008bf00e4f88d2b3ff2e2f",
    "byz-equivocator-n48":
        "4b29fd28cbfdcde276c757f286ea63897a3e53edef255b9ef320172f0d1b01ca",
    "byz-silent-n48":
        "b2d12122e839aa17658b9b32eb9839f0e91dbf040f88fde880b9c0644d60e405",
    "byz-crash-sim-n48":
        "fe5f7fde8703d36d4def053880a8d4f272bd8ed471efe8fcf85dcab25450fb2c",
    "byz-chaos-n24":
        "3785f9c185c66fd5c500a1b684f78bcb6bb9c024a02b65d8286b3b6e045c7c94",
    "byz-withholder-n64-f3":
        "f331123eef8e76848fc400977881a32f94d8b266e555862c50610620e3234eab",
    "obg-n33-f0":
        "942afd172b7fb84d2d65827ecef46f2263cd1a5b58cb7a486105eb038b6f56b2",
    "balls-n33-f0":
        "cb1734987bcbab139263c9fa46c59093bc737002865660a184231a2ba8dea90a",
    "obg-random-n64-s0":
        "22838251dcda3b5c73888eedae72e20e74f05d187646075e75297fde80141f20",
    "obg-random-n64-s1":
        "6ff9fde67738439dd8919fb9cfd0104ff30e5e0980a57dfddbff54bc6c183e53",
    "balls-random-n64-s0":
        "bb97f29da07412cf24185ef4740a269e88ea78732d147c05d51b428be939b830",
    "balls-random-n64-s1":
        "b3e1790990e814e1d16687ef604c4c7fb59ba1de3ec82e568e7ae8f5bdc790ee",
    "collect-n33-f0":
        "6bb663b31488b2256b13378b26aacc927341baffb1b151a486879324c503c3ec",
    "collect-random-n64-s0":
        "c2c69295ba59e95247a38dac31181e9a3a3a24c81e3d5f9a6050e50e775b69c0",
    "collect-random-n64-s1":
        "6554088a1e4664913d2adabe060e2eb08d073ca691a9fe46949298aa236441d9",
}


def test_every_case_has_a_recorded_digest():
    assert sorted(GOLDEN) == sorted(CASES) == sorted(NODE_GOLDEN)


@pytest.mark.parametrize("case", sorted(CASES))
def test_counted_results_match_the_recorded_digest(case):
    result = CASES[case]()
    assert digest(result) == GOLDEN[case]
    assert node_digest(result) == NODE_GOLDEN[case]


#: Golden Byzantine case id -> ``(n, f, strategy)`` of the same run
#: through the ``byzantine`` family at seed 0.
FAMILY_CASES = {
    **{f"byz-{kind}-n{n}": (n, 2, kind)
       for kind in ("withholder", "equivocator") for n in (24, 48)},
    "byz-silent-n48": (48, 2, "silent"),
    "byz-crash-sim-n48": (48, 2, "crash-sim"),
    "byz-withholder-n64-f3": (64, 3, "withholder"),
}


@pytest.mark.parametrize("case", sorted(FAMILY_CASES))
def test_the_byzantine_family_runs_the_recorded_execution(case):
    n, f, kind = FAMILY_CASES[case]
    result = execute(FAMILIES["byzantine"], n, f, 0, adversary=kind)
    assert digest(result) == GOLDEN[case]


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
        result = run()
        print(f'    "{case}":\n        "{digest(result)}",'
              f'  # node {node_digest(result)}')
    for case, run in SERVE_CASES.items():
        recorded, lookups = run()
        print(f'    "{case}":\n        "{recorded}",  # lookups {lookups}')
