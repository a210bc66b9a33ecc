"""The directory as a long-lived renaming object: the full re-run is the
oracle.

``OverlayDirectory.run_epoch`` (DESIGN decision 16) names only the
members that hold no name -- the batch's net joiners -- by running
Theorem 1.2's algorithm among them and handing the participant ranked
``r`` the ``r``-th lowest free slot; everybody else keeps the name they
have, and only an epoch that would leave a name above ``2 * members``
renames everyone into ``1..members``.  Random join / leave / epoch
scripts (hypothesis, and fixed seeds) hold every epoch to that:

- (a) names unique, inside ``[1, 2 * members]``, held by exactly the
  members; a non-participant's name unchanged unless the epoch
  compacted; joiners' names exactly the lowest free slots; the report's
  rounds / messages / bits and the names equal to a stand-alone
  ``run_crash_renaming`` over the participants with the epoch's seed;
  crash victims departed and their slots left free; the ``falsify``
  monitors ride every execution;
- (b) a failed epoch (lethal omission, with and without a crash
  adversary) changes nothing -- members, names, hence free slots,
  participants, epoch counter, history;
- (c) by count: a lone join costs no message and moves no name, 16 joins
  cost the same at any membership, a compaction takes more departures
  than the members it renames;
- (d) the two served loads pinned by digest in
  ``tests/test_golden_digests.py`` keep the same contract shard by
  shard.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

import asyncio
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.crash import RandomCrash
from repro.apps.overlay_directory import OverlayDirectory
from repro.core.crash_renaming import CrashRenamingConfig, run_crash_renaming
from repro.falsify.monitors import NamespaceBounds, UniqueNames
from repro.faults.spec import build_fault_model
from repro.serve.loadgen import generate_trace, run_load
from repro.serve.service import RenamingService
from tests import test_golden_digests, test_serve_ab, test_serve_resilience

#: The service's constants (``EXPERIMENT_ELECTION_CONSTANT``).
CONFIG = CrashRenamingConfig(election_constant=2)
NAMESPACE = 1 << 16
LETHAL = [{"kind": "omission", "p": 1.0}]

MODES = ("clean", "crash", "lethal", "lethal-crash")


def lowest_free(held, count):
    """The ``count`` lowest positive integers outside ``held``."""
    slots, slot = [], 0
    while len(slots) < count:
        slot += 1
        if slot not in held:
            slots.append(slot)
    return slots


def epoch_seed(directory):
    """The documented formula, ``hash((seed, epoch))`` (no retry salt)."""
    return hash((directory.seed, directory.epoch + 1)) & 0x7FFFFFFF


def snapshot(directory):
    return (set(directory.members), directory.assignment,
            directory.participants(), directory.epoch,
            list(directory.history))


def crash_adversary(participants, draw):
    return RandomCrash(len(participants) // 3, 0.05, Random(draw))


def checked_epoch(directory, mode, draw):
    """Run one epoch under ``mode`` and hold it to the contract.

    Returns ``(report, compacted)``, or ``None`` when the epoch failed
    (and was checked to have changed nothing).
    """
    members = set(directory.members)
    before = directory.assignment
    participants = directory.participants()
    kept = {uid: name for uid, name in before.items() if uid in members}
    joiners = sorted(members - set(kept))
    compacted = participants != tuple(joiners)
    adversary = oracle_adversary = fault_model = None
    if "crash" in mode:
        adversary = crash_adversary(participants, draw)
        oracle_adversary = crash_adversary(participants, draw)
    if "lethal" in mode and participants:
        fault_model = build_fault_model(LETHAL, len(participants), seed=draw)
    monitors = ([UniqueNames(), NamespaceBounds.strong(len(participants))]
                if participants else [])
    seed = epoch_seed(directory)

    if fault_model is not None and len(participants) > 1:
        untouched = snapshot(directory)
        with pytest.raises(Exception):
            directory.run_epoch(adversary, fault_model=fault_model,
                                monitors=monitors)
        assert snapshot(directory) == untouched
        return None

    report = directory.run_epoch(adversary, fault_model=fault_model,
                                 monitors=monitors)
    after = directory.assignment
    assert report is directory.history[-1] and report.epoch == directory.epoch
    assert dict(report.assignment) == after
    assert report.members == len(members)
    # Unique, bounded, held by exactly the members that are left.
    assert len(set(after.values())) == len(after)
    assert set(after) == directory.members
    assert members - directory.members == set(report.departed_during_epoch)
    assert all(1 <= name <= 2 * report.members for name in after.values())
    # Who ran, and into which slots.
    if compacted:
        assert participants == tuple(sorted(members))
        placed = [*kept.values(), *lowest_free(set(kept.values()),
                                               len(joiners))]
        assert max(placed) > 2 * len(members)
        slots = list(range(1, len(members) + 1))
    else:
        assert {uid: after[uid] for uid in kept} == kept
        slots = lowest_free(set(kept.values()), len(joiners))
    named = {uid: after[uid] for uid in participants if uid in after}
    assert report.renamed == len(named)
    assert set(report.departed_during_epoch) <= set(participants)
    if not report.departed_during_epoch:
        assert sorted(named.values()) == slots
    # The epoch is a fresh run over its participants, nothing else.
    if not participants:
        assert (report.rounds, report.messages, report.bits) == (0, 0, 0)
        return report, compacted
    oracle = run_crash_renaming(
        participants, namespace=NAMESPACE, adversary=oracle_adversary,
        config=CONFIG, seed=seed)
    assert (report.rounds, report.messages, report.bits) == (
        oracle.rounds, oracle.metrics.correct_messages,
        oracle.metrics.correct_bits)
    assert named == {uid: slots[rank - 1]
                     for uid, rank in oracle.outputs_by_uid().items()}
    assert report.departed_during_epoch == tuple(sorted(
        participants[index] for index in oracle.crashed))
    # A victim's slot stays free: nobody else was moved into it.
    assert set(slots) - set(named.values()) == set(slots) - set(after.values())
    return report, compacted


def play(seed, steps):
    """Drive one script; ``steps`` are ``(joins, leaves, mode)``.

    Returns how many epochs compacted.  Between two compactions (or the
    start and the first) more members must have departed than the
    compaction renames: the name that forced it was given out when the
    membership was at least that name.
    """
    rng = Random(seed)
    directory = OverlayDirectory(NAMESPACE, config=CONFIG, seed=seed)
    departures = compactions = 0
    for joins, leaves, mode in steps:
        leaving = rng.sample(sorted(directory.members),
                             min(leaves, len(directory.members)))
        for uid in leaving:
            directory.leave(uid)
        candidates = rng.sample(range(1, NAMESPACE), joins + len(leaving))
        for uid in [c for c in candidates
                    if c not in directory.members][:joins]:
            directory.join(uid)
        if not directory.members:
            directory.withdraw_assignment()
            departures = 0
            continue
        outcome = checked_epoch(directory, mode, rng.getrandbits(30))
        if outcome is None:
            # Rolled back: the batch's churn is undone like a shard
            # undoes it, and the leavers are members again.
            for uid in leaving:
                if uid not in directory.members:
                    directory.join(uid)
            continue
        report, compacted = outcome
        if compacted:
            assert departures + len(leaving) > report.members
            departures = 0
            compactions += 1
        else:
            departures += len(leaving)
        departures += len(report.departed_during_epoch)
    return compactions


STEP = st.tuples(st.integers(0, 6), st.integers(0, 8),
                 st.sampled_from(MODES))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 16), steps=st.lists(STEP, max_size=12))
def test_random_scripts_hold_the_contract(seed, steps):
    play(seed, [(8, 0, "clean"), *steps])


def fixed_script(seed, length=30):
    """Five steps of shrinking, five of growth, and so on."""
    rng = Random(seed)
    steps = [(24, 0, "clean")]
    for step in range(length):
        few, many = rng.randrange(0, 2), rng.randrange(3, 11)
        joins, leaves = (many, few) if step // 5 % 2 else (few, many)
        steps.append((joins, leaves, rng.choice(MODES)))
    return steps


@pytest.mark.parametrize("seed", range(6))
def test_fixed_scripts_hold_the_contract(seed):
    # ... and cross the slack at least once each.
    assert play(seed, fixed_script(seed)) >= 1


def test_shrinking_scripts_compact():
    # Mostly leaves: the slack is crossed, more than once.
    assert play(7, [(24, 0, "clean")]
                + [(0, 8, "clean"), (1, 8, "crash"), (20, 0, "clean")] * 3) > 1


# ---------------------------------------------------------------------------
# (b) a failed epoch, by hand


def test_a_failed_epoch_changes_nothing_free_slots_included():
    directory = OverlayDirectory(NAMESPACE, config=CONFIG, seed=3)
    for uid in range(10, 90, 10):
        directory.join(uid)
    directory.run_epoch()
    for uid in (20, 50):
        directory.leave(uid)           # two names come back
    for uid in (91, 92, 93):
        directory.join(uid)
    untouched = snapshot(directory)
    lethal = build_fault_model(LETHAL, 3, seed=1)
    with pytest.raises(Exception):
        directory.run_epoch(RandomCrash(1, 0.2, Random(5)),
                            fault_model=lethal)
    assert snapshot(directory) == untouched
    report = directory.run_epoch()
    freed = sorted(untouched[1][uid] for uid in (20, 50))
    assert sorted(report.assignment[uid] for uid in (91, 92, 93)) == [
        *freed, 9]


def test_crash_victims_among_the_joiners_leave_their_slots_free():
    directory = OverlayDirectory(NAMESPACE, config=CONFIG, seed=5)
    for uid in range(1, 9):
        directory.join(uid)
    settled = dict(directory.run_epoch().assignment)
    joiners = tuple(range(101, 113))
    for uid in joiners:
        directory.join(uid)
    report = directory.run_epoch(RandomCrash(4, 0.08, Random(2)))
    victims = set(report.departed_during_epoch)
    assert victims and victims < set(joiners)
    assert victims.isdisjoint(directory.members)
    assert {uid: report.assignment[uid] for uid in settled} == settled
    named = {report.assignment[uid] for uid in joiners if uid not in victims}
    assert len(named) == len(joiners) - len(victims)
    assert named <= set(range(9, 21))
    # The next joiners take what the victims never claimed, lowest first.
    for uid in (201, 202):
        directory.join(uid)
    after = directory.run_epoch().assignment
    free = sorted(set(range(9, 23)) - named)
    assert sorted(after[uid] for uid in (201, 202)) == free[:2]


# ---------------------------------------------------------------------------
# (c) it costs its change, by count


def grown(members, seed=1):
    directory = OverlayDirectory(1 << 20, config=CONFIG, seed=seed)
    uids = Random(members).sample(range(1, 1 << 20), members + 16)
    for uid in uids[:members]:
        directory.join(uid)
    directory.run_epoch()
    return directory, uids[members:]


def test_one_join_into_512_members_sends_nothing_and_moves_nobody():
    directory, spare = grown(512)
    before = directory.assignment
    directory.join(spare[0])
    report = directory.run_epoch()
    assert (report.rounds, report.messages, report.bits) == (0, 0, 0)
    assert (report.members, report.renamed) == (513, 1)
    assert directory.compact_id(spare[0]) == 513
    assert {uid: directory.compact_id(uid) for uid in before} == before


def test_sixteen_joins_cost_the_same_into_any_membership():
    costs = set()
    for members in (128, 512, 2048):
        directory, spare = grown(members)
        before = directory.assignment
        for uid in spare:
            directory.join(uid)
        report = directory.run_epoch()
        assert report.renamed == 16 and report.messages > 0
        assert {uid: directory.compact_id(uid) for uid in before} == before
        costs.add((report.rounds, report.messages))
    # Same seed and epoch number, sixteen participants each time: the
    # run cannot tell how many members stood by.
    assert len(costs) == 1


def test_a_compaction_takes_half_the_members_leaving():
    directory, _ = grown(64)
    order = Random(3).sample(sorted(directory.members), 64)
    for departures, uid in enumerate(order, start=1):
        directory.leave(uid)
        if not directory.members:
            break
        report = directory.run_epoch()
        if report.renamed:
            # Nobody joined: only a compaction renames anyone.
            assert departures > 64 // 2
            assert sorted(report.assignment.values()) == list(
                range(1, report.members + 1))
            break
        assert report.messages == 0
    else:
        pytest.fail("64 departures never compacted")


# ---------------------------------------------------------------------------
# (d) the served loads


def served_histories(profile, **options):
    async def scenario():
        service = RenamingService(
            shards=profile.shards, namespace=profile.namespace,
            seed=profile.seed, max_batch=profile.max_batch,
            max_wait=profile.max_wait, **options)
        async with service:
            await run_load(service, generate_trace(profile))
            return service.histories()

    return asyncio.run(scenario())


SERVED = {
    "serve-plain-omission": lambda: served_histories(
        test_serve_ab.PROFILE, shard_faults={0: test_serve_ab.OMISSION}),
    "serve-resilient-window": lambda: served_histories(
        test_serve_resilience.PROFILE,
        shard_faults={0: test_serve_resilience.OMISSION_100},
        shard_fault_windows={0: test_serve_resilience.WINDOW},
        resilience=test_serve_resilience.RESILIENCE),
}


def test_the_served_cases_are_the_pinned_ones():
    assert sorted(SERVED) == sorted(test_golden_digests.SERVE_GOLDEN)


@pytest.mark.parametrize("case", sorted(SERVED))
def test_served_epochs_keep_names_and_bounds(case):
    histories = SERVED[case]()
    assert sum(map(len, histories)) > 20
    for history in histories:
        previous = {}
        for report in history:
            names = report.assignment
            assert len(set(names.values())) == len(names)
            assert all(1 <= name <= 2 * report.members
                       for name in names.values())
            renamed_everyone = (
                report.renamed + len(report.departed_during_epoch)
                == report.members)
            if not renamed_everyone:
                assert all(names[uid] == name
                           for uid, name in previous.items() if uid in names)
            previous = names
