"""Cross-process determinism: no entry point may depend on the hash seed.

Python randomizes ``str``/``bytes`` hashing per process unless
``PYTHONHASHSEED`` pins it, so any iteration over an unordered container
of strings (or objects with default ``__hash__``) leaks process identity
into results.  Each entry point — including the faulted delivery path —
must print byte-identical summaries, per-round ledgers, outputs, and
fault tallies under different hash seeds.

Nor may one depend on what happens to be installed: the package
declares no dependency, so a module that is there on one box and absent
on the next (numpy, once the grouping of large rounds) may never be
imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Runs all five ``run_*`` entry points and prints one canonical-JSON
#: line each.  Every execution supplies a fault model so the faulted
#: network path is the one exercised: the robust gossip baseline takes a
#: genuinely lossy composed channel, the others take ``NoFaults`` (empty
#: plans through the same code path) so they terminate normally.
SCRIPT = """
import json

from repro.adversary.crash import ScheduledCrash
from repro.baselines.balls_into_slots import run_balls_into_slots
from repro.baselines.collect_rank import run_collect_rank
from repro.baselines.obg_halving import run_obg_halving
from repro.core.byzantine_renaming import run_byzantine_renaming
from repro.core.crash_renaming import run_crash_renaming
from repro.faults import NoFaults, build_fault_model

UIDS = [3, 11, 5, 8, 2, 13, 7, 1]
LOSSY = [{"kind": "omission", "p": 0.05, "budget": 16},
         {"kind": "partition", "start": 2, "end": 4}]


def report(name, result):
    stats = result.fault_stats
    print(json.dumps({
        "name": name,
        "summary": result.metrics.summary(),
        "messages_per_round": list(result.metrics.messages_per_round),
        "bits_per_round": list(result.metrics.bits_per_round),
        "results": sorted(result.results.items()),
        "crashed": sorted(result.crashed),
        "rounds": result.rounds,
        "faults": stats.as_dict() if stats is not None else None,
    }, sort_keys=True))


report("crash", run_crash_renaming(
    UIDS, seed=1, fault_model=NoFaults(),
    adversary=ScheduledCrash({2: [1]})))
report("obg", run_obg_halving(UIDS, seed=1, fault_model=NoFaults()))
report("balls", run_balls_into_slots(UIDS, seed=1, fault_model=NoFaults()))
report("gossip", run_collect_rank(
    UIDS, seed=1,
    fault_model=build_fault_model(LOSSY, len(UIDS), seed=1)))
report("byzantine", run_byzantine_renaming(
    UIDS, seed=1, fault_model=NoFaults()))
"""


#: Runs all five entry points with no fault model attached and prints
#: one sha256 digest over the canonical-JSON observables.  The columnar
#: round groups targeted sends into buckets keyed by recipient index
#: (plain ints), so the digest must not move with the process hash seed.
#: The withholder run (the ``byz-withholder-n24`` golden inputs) takes
#: the committee's split path, 21 splits deep, whose shared reads and
#: votes are memoised under keys holding ``kind`` strings.  The
#: sparse-committee hunter run re-elects under crashes, and its nodes
#: read the committee's answers through ``distinct``, whose dedupe is
#: keyed by ``id()``: neither an address nor a set order may reach it.
COLUMNAR_SCRIPT = """
import hashlib
import json
from random import Random

from repro.adversary.byzantine import corrupt_set, make_withholder
from repro.adversary.crash import CommitteeHunter, ScheduledCrash
from repro.analysis.experiments import (
    byzantine_config_for, default_namespace, sample_uids)
from repro.baselines.balls_into_slots import run_balls_into_slots
from repro.baselines.collect_rank import run_collect_rank
from repro.baselines.obg_halving import run_obg_halving
from repro.core.byzantine_renaming import run_byzantine_renaming
from repro.core.crash_renaming import CrashRenamingConfig, run_crash_renaming

UIDS = [3, 11, 5, 8, 2, 13, 7, 1]
NAMESPACE = default_namespace(24)
POPULATION = sample_uids(24, NAMESPACE, Random(0))
WITHHOLDERS = corrupt_set(POPULATION, 2, Random(1))
HUNTED = sample_uids(64, default_namespace(64), Random(0))

rows = []
for name, result in [
    ("crash", run_crash_renaming(
        UIDS, seed=1, adversary=ScheduledCrash({2: [1]}))),
    ("crash-hunter", run_crash_renaming(
        HUNTED, namespace=default_namespace(64),
        config=CrashRenamingConfig(election_constant=2.0),
        adversary=CommitteeHunter(8, Random(1)), seed=2)),
    ("obg", run_obg_halving(UIDS, seed=1)),
    ("balls", run_balls_into_slots(UIDS, seed=1)),
    ("gossip", run_collect_rank(UIDS, seed=1)),
    ("byzantine", run_byzantine_renaming(UIDS, seed=1)),
    ("byz-withholder", run_byzantine_renaming(
        POPULATION, namespace=NAMESPACE,
        byzantine=dict.fromkeys(WITHHOLDERS, make_withholder(0.5, salt=0)),
        config=byzantine_config_for(24, 2), shared_seed=3, seed=4)),
]:
    rows.append({
        "name": name,
        "summary": result.metrics.summary(),
        "messages_per_round": list(result.metrics.messages_per_round),
        "bits_per_round": list(result.metrics.bits_per_round),
        "results": sorted(result.results.items()),
        "crashed": sorted(result.crashed),
        "rounds": result.rounds,
    })
canonical = json.dumps(rows, sort_keys=True).encode()
print(hashlib.sha256(canonical).hexdigest())
"""


#: Plays a faulted load trace through the *resilient* service — seeded
#: retries, breaker transitions, shedding — and prints the counted
#: results plus the per-shard retry/breaker event schedule.  Backoff
#: jitter and per-epoch protocol seeds must come from integer-tuple
#: hashing only, so the schedule is byte-identical across hash seeds.
SERVE_SCRIPT = """
import json

from repro.obs import EventRecorder
from repro.serve.loadgen import LoadProfile, execute_profile
from repro.serve.resilience import ResiliencePolicy

PROFILE = LoadProfile(clients=32, requests=900, shards=2, max_batch=16,
                      max_wait=0.002, arrival_rate=20_000.0,
                      namespace=4_000, seed=5)
RESILIENCE = ResiliencePolicy(max_retries=4, backoff_base=0.005,
                              breaker_threshold=3, breaker_cooldown=0.05)

recorder = EventRecorder()
report = execute_profile(
    PROFILE,
    shard_faults={0: [{"kind": "omission", "p": 1.0}]},
    # Ten attempts, not six: an attempt with a lone joiner sends nothing
    # and succeeds under any channel, so three *consecutive* failures --
    # what trips the breaker -- need a longer outage than when every
    # epoch re-ran the whole shard.
    shard_fault_windows={0: (1, 11)},
    resilience=RESILIENCE,
    observer=recorder,
)
lanes = {}
for event in recorder.events():
    kind = event["kind"]
    if not kind.startswith(("serve.retry", "serve.breaker", "serve.shed",
                            "serve.deadline")):
        continue
    data = dict(event.get("data", {}))
    lanes.setdefault(data.pop("shard"), []).append([kind, data])
print(json.dumps({
    "trace": report["trace_sha256"],
    "renamed": report["renamed"],
    "degraded": report["degraded"],
    "shed": report["shed"],
    "unresolved": report["unresolved"],
    "unique": report["unique"],
    "retries": report["service"]["retries"],
    "breaker_opens": report["service"]["breaker_opens"],
    "breaker_closes": report["service"]["breaker_closes"],
    "epoch_messages": report["epoch_messages"],
    "epoch_bits": report["epoch_bits"],
    "lanes": {str(shard): lanes[shard] for shard in sorted(lanes)},
}, sort_keys=True))
"""


#: Drains a small fabric campaign with an in-process worker and prints
#: one sha256 digest over the settled run set (hash, status, row,
#: ledger).  Lease jitter, heartbeat scheduling, and retry backoff all
#: derive from integer-tuple hashes, and every run row is keyed by its
#: content hash, so the campaign's final store must be byte-identical
#: across hash seeds — the fabric's determinism contract.
FABRIC_SCRIPT = """
import hashlib
import json
import tempfile

from repro.engine import (FabricConfig, FabricWorker, RunStore,
                          enqueue_campaign)
from repro.engine.sweeps import SweepSpec

with tempfile.TemporaryDirectory() as tmp:
    url = f"sqlite://{tmp}/runs.sqlite"
    requests = SweepSpec.make("crash", [8, 12], [0, 1],
                              f="n//8").requests()
    enqueue_campaign(url, "digest", requests)
    summary = FabricWorker(
        FabricConfig(store=url, campaign="digest", isolate=False),
        name="digest-w",
    ).run()
    assert summary["settled"] == len(requests), summary
    with RunStore(url) as store:
        rows = [
            {
                "hash": run.hash,
                "status": run.status,
                "row": run.row,
                "ledger": store.ledger(run.hash),
            }
            for run in sorted(store.query(), key=lambda r: r.hash)
        ]
canonical = json.dumps(rows, sort_keys=True).encode()
print(hashlib.sha256(canonical).hexdigest())
"""


def _run(hashseed, script=SCRIPT):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = str(REPO / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, env=env, cwd=REPO, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_all_entry_points_hashseed_independent():
    first = _run(1)
    second = _run(2)
    assert first == second  # byte-identical across hash seeds

    lines = first.decode().splitlines()
    rows = [json.loads(line) for line in lines]
    assert [row["name"] for row in rows] == [
        "crash", "obg", "balls", "gossip", "byzantine"]
    for row in rows:
        assert row["rounds"] >= 1
        assert len(row["messages_per_round"]) == row["rounds"]
    by_name = {row["name"]: row for row in rows}
    assert by_name["crash"]["crashed"] == [1]
    # The lossy channel genuinely fired on the gossip run.
    gossip_faults = by_name["gossip"]["faults"]
    assert gossip_faults["dropped"] > 0 and gossip_faults["held"] > 0


def test_columnar_path_hashseed_independent():
    first = _run(1, COLUMNAR_SCRIPT)
    second = _run(2, COLUMNAR_SCRIPT)
    assert first == second  # one byte-identical digest line
    digest = first.decode().strip()
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_fabric_campaign_hashseed_independent():
    first = _run(1, FABRIC_SCRIPT)
    second = _run(2, FABRIC_SCRIPT)
    assert first == second  # one byte-identical run-set digest
    digest = first.decode().strip()
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_resilient_serving_hashseed_independent():
    first = _run(1, SERVE_SCRIPT)
    second = _run(2, SERVE_SCRIPT)
    assert first == second  # byte-identical retry/breaker schedule

    row = json.loads(first.decode())
    assert row["unique"] is True
    assert row["unresolved"] == 0
    # The faulted window genuinely exercised the resilient path.
    assert row["retries"] > 0
    assert row["breaker_opens"] >= 1
    assert any(entry[0] == "serve.retry" for entry in row["lanes"]["0"])


#: Every subsystem that executes or serves runs, imported in a fresh
#: interpreter.  CI runs this where numpy is absent (``tests``) and
#: where it is installed (``perf-smoke``): it must stay unimported.
IMPORTS = """
import repro, repro.sim.columnar, repro.serve, repro.engine
import sys
assert 'numpy' not in sys.modules, sorted(
    name for name in sys.modules if name.startswith('numpy'))[:5]
"""


def test_the_package_never_imports_numpy():
    _run(0, IMPORTS)
    sources = (REPO / "src" / "repro").rglob("*.py")
    assert not [path for path in sources if "numpy" in path.read_text()]
