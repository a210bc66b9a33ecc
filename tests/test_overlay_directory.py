"""Tests for the epoch-based overlay directory application."""

from random import Random

import pytest

from repro.adversary.crash import CommitteeHunter, RandomCrash
from repro.apps.overlay_directory import OverlayDirectory
from repro.core.crash_renaming import CrashRenamingConfig

CONFIG = CrashRenamingConfig(election_constant=4)


def fresh_directory(n=12, namespace=10_000, seed=1):
    directory = OverlayDirectory(namespace, config=CONFIG, seed=seed)
    for uid in range(100, 100 + 37 * n, 37):
        directory.join(uid)
    return directory


class TestMembership:
    def test_join_and_leave(self):
        directory = OverlayDirectory(100, seed=1)
        directory.join(5)
        directory.leave(5)
        assert directory.members == set()

    def test_duplicate_join_rejected(self):
        directory = OverlayDirectory(100)
        directory.join(5)
        with pytest.raises(ValueError, match="already"):
            directory.join(5)

    def test_leave_of_non_member_rejected(self):
        with pytest.raises(ValueError, match="not a member"):
            OverlayDirectory(100).leave(5)

    def test_identity_must_fit_namespace(self):
        with pytest.raises(ValueError, match="outside"):
            OverlayDirectory(100).join(101)

    def test_namespace_validated(self):
        with pytest.raises(ValueError):
            OverlayDirectory(0)


class TestEpochs:
    def test_first_epoch_assigns_compact_ids(self):
        directory = fresh_directory(n=10)
        report = directory.run_epoch()
        assert report.epoch == 1
        assert report.renamed == 10
        assert sorted(report.assignment.values()) == list(range(1, 11))

    def test_lookups_are_inverses(self):
        directory = fresh_directory(n=8)
        directory.run_epoch()
        for uid in directory.members:
            assert directory.original_id(directory.compact_id(uid)) == uid

    def test_lookup_before_epoch_fails(self):
        directory = fresh_directory()
        with pytest.raises(KeyError, match="no compact id"):
            directory.compact_id(100)

    def test_unassigned_compact_id_fails(self):
        directory = fresh_directory(n=4)
        directory.run_epoch()
        with pytest.raises(KeyError, match="unassigned"):
            directory.original_id(5)

    def test_empty_epoch_rejected(self):
        with pytest.raises(ValueError, match="no members"):
            OverlayDirectory(100).run_epoch()

    def test_churn_shrinks_and_grows_the_namespace(self):
        directory = fresh_directory(n=10)
        before = dict(directory.run_epoch().assignment)
        departing = sorted(directory.members)[:3]
        for uid in departing:
            directory.leave(uid)
        directory.join(9_999)
        report = directory.run_epoch()
        assert report.members == 8
        # One participant: it alone is renamed, into the lowest name a
        # leaver returned, and the run among one node has no round.
        assert (report.renamed, report.rounds, report.messages) == (1, 0, 0)
        assert directory.compact_id(9_999) == min(before[uid]
                                                  for uid in departing)
        stayers = directory.members - {9_999}
        assert {uid: report.assignment[uid] for uid in stayers} == {
            uid: before[uid] for uid in stayers}
        assert max(report.assignment.values()) <= 2 * report.members
        # Shrink past the slack: once a kept name would sit above twice
        # the membership, the epoch renames everyone into 1..members.
        top = max(directory.members, key=directory.compact_id)
        for uid in sorted(directory.members - {top})[:4]:
            directory.leave(uid)
        assert directory.compact_id(top) > 2 * len(directory.members)
        assert directory.participants() == tuple(sorted(directory.members))
        compacted = directory.run_epoch()
        assert (compacted.members, compacted.renamed) == (4, 4)
        assert sorted(compacted.assignment.values()) == [1, 2, 3, 4]

    def test_epochs_replay_from_seed(self):
        a = fresh_directory(seed=9)
        b = fresh_directory(seed=9)
        assert a.run_epoch().assignment == b.run_epoch().assignment

    def test_history_accumulates(self):
        directory = fresh_directory(n=6)
        directory.run_epoch()
        directory.run_epoch()
        assert [report.epoch for report in directory.history] == [1, 2]


class TestReportImmutability:
    def test_assignment_rejects_mutation(self):
        directory = fresh_directory(n=6)
        report = directory.run_epoch()
        with pytest.raises(TypeError):
            report.assignment[100] = 999
        with pytest.raises((TypeError, AttributeError)):
            report.assignment.clear()

    def test_mutation_attempt_leaves_directory_intact(self):
        directory = fresh_directory(n=6)
        report = directory.run_epoch()
        before = directory.assignment
        try:
            report.assignment[100] = 999
        except TypeError:
            pass
        assert directory.assignment == before
        assert dict(report.assignment) == before

    def test_history_survives_later_churn(self):
        directory = fresh_directory(n=6)
        first = directory.run_epoch()
        frozen = dict(first.assignment)
        directory.join(9_999)
        directory.run_epoch()
        assert dict(directory.history[0].assignment) == frozen

    def test_assignment_property_returns_a_copy(self):
        directory = fresh_directory(n=6)
        directory.run_epoch()
        copy = directory.assignment
        copy[100] = 999
        assert directory.assignment != copy


class TestServingSurface:
    def test_compact_id_or_none_miss_and_hit(self):
        directory = fresh_directory(n=6)
        assert directory.compact_id_or_none(100) is None
        directory.run_epoch()
        assert directory.compact_id_or_none(100) == directory.compact_id(100)
        assert directory.compact_id_or_none(9_999) is None

    def test_withdraw_assignment_clears_both_tables(self):
        directory = fresh_directory(n=4)
        directory.run_epoch()
        compact = directory.compact_id(100)
        directory.withdraw_assignment()
        assert directory.compact_id_or_none(100) is None
        with pytest.raises(KeyError):
            directory.original_id(compact)
        # Membership and history are untouched -- only the names went.
        assert len(directory.members) == 4
        assert len(directory.history) == 1

    def test_failed_epoch_changes_nothing(self):
        from repro.faults.spec import build_fault_model

        directory = fresh_directory(n=8, seed=2)
        directory.run_epoch()
        # Churn for the failing epoch to act on: a returned name (a
        # free slot) and three joiners -- the run is among those three,
        # so that is what the channel is sized to.
        directory.leave(sorted(directory.members)[2])
        for uid in (9_001, 9_002, 9_003):
            directory.join(uid)
        epoch = directory.epoch
        members = set(directory.members)
        assignment = directory.assignment
        participants = directory.participants()
        assert participants == (9_001, 9_002, 9_003)
        lethal = build_fault_model(
            [{"kind": "omission", "p": 1.0}], len(participants), seed=5,
        )
        with pytest.raises(Exception):
            directory.run_epoch(fault_model=lethal)
        assert directory.epoch == epoch
        assert directory.members == members
        assert directory.assignment == assignment
        assert directory.participants() == participants
        assert len(directory.history) == 1
        # The same epoch number then runs clean: the slot the leaver
        # returned was not lost in the rollback.
        report = directory.run_epoch()
        assert report.epoch == epoch + 1
        assert sorted(report.assignment[uid] for uid in participants) == [
            3, 9, 10]

    def test_round_trip_release_then_rejoin(self):
        directory = fresh_directory(n=8)
        directory.run_epoch()
        uid = sorted(directory.members)[0]
        directory.leave(uid)
        directory.run_epoch()
        assert directory.compact_id_or_none(uid) is None
        directory.join(uid)
        report = directory.run_epoch()
        assert report.assignment[uid] == directory.compact_id(uid)
        assert sorted(report.assignment.values()) == list(range(1, 9))


class TestChurnUnderFailures:
    def test_crashed_members_are_departed(self):
        directory = fresh_directory(n=16, seed=3)
        report = directory.run_epoch(
            adversary=RandomCrash(5, 0.1, Random(4))
        )
        assert set(report.departed_during_epoch).isdisjoint(directory.members)
        assert report.renamed == report.members - len(
            report.departed_during_epoch
        )
        # Survivors still hold distinct compact ids within [1, members].
        values = list(report.assignment.values())
        assert len(set(values)) == len(values)
        assert all(1 <= value <= report.members for value in values)

    def test_next_epoch_runs_clean_after_an_attack(self):
        directory = fresh_directory(n=16, seed=5)
        attacked = directory.run_epoch(
            adversary=CommitteeHunter(8, Random(6)))
        assert attacked.departed_during_epoch
        survivors = dict(attacked.assignment)
        assert set(survivors) == directory.members
        # Nobody joined or left: an epoch with nobody to rename runs no
        # protocol and moves no name.
        quiet = directory.run_epoch()
        assert (quiet.renamed, quiet.rounds, quiet.messages) == (0, 0, 0)
        assert dict(quiet.assignment) == survivors
        # Newcomers rename among themselves into the lowest free names.
        newcomers = (9_001, 9_002, 9_003)
        for uid in newcomers:
            directory.join(uid)
        report = directory.run_epoch()
        assert report.renamed == len(newcomers)
        assert report.departed_during_epoch == ()
        free = [slot for slot in range(1, 2 * report.members)
                if slot not in survivors.values()]
        assert sorted(report.assignment[uid] for uid in newcomers) == (
            free[:len(newcomers)])
        assert {uid: report.assignment[uid] for uid in survivors} == survivors

    def test_attacked_epoch_costs_more_per_member(self):
        quiet = fresh_directory(n=24, seed=7)
        quiet_report = quiet.run_epoch()
        noisy = fresh_directory(n=24, seed=7)
        noisy_report = noisy.run_epoch(
            adversary=CommitteeHunter(12, Random(8))
        )
        assert noisy_report.departed_during_epoch
        # The report retains enough to do this accounting at all --
        # which is the operational point of the class.
        assert noisy_report.messages > 0
        assert quiet_report.rounds == noisy_report.rounds
