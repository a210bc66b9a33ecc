"""Cross-module integration scenarios.

Each test composes several subsystems end to end the way a downstream
user would: directory epochs with timelines, early stopping inside the
directory, mixed baselines over one uid population, and the
analysis-layer plumbing over real executions.
"""

from random import Random

from repro.adversary.crash import CommitteeHunter, MidSendPartitioner
from repro.analysis.experiments import check_renaming, sample_uids
from repro.analysis.tables import plain_table
from repro.analysis.timeline import describe, render_timeline
from repro.apps.overlay_directory import OverlayDirectory
from repro.baselines.balls_into_slots import run_balls_into_slots
from repro.baselines.obg_halving import run_obg_halving
from repro.core.crash_renaming import CrashRenamingConfig, run_crash_renaming
from repro.obs import EventRecorder


class TestDirectoryLifecycle:
    def test_three_epochs_with_churn_and_attacks(self):
        directory = OverlayDirectory(
            1 << 20,
            config=CrashRenamingConfig(election_constant=4,
                                       early_stopping=True),
            seed=11,
        )
        rng = Random(1)
        for uid in rng.sample(range(1, 1 << 20), 20):
            directory.join(uid)

        first = directory.run_epoch()
        assert sorted(first.assignment.values()) == list(range(1, 21))

        # Epoch 2: voluntary churn plus an attack on the joiners' run
        # (the epoch's protocol execution is among them alone).
        leavers = sorted(directory.members)[:3]
        for uid in leavers:
            directory.leave(uid)
        joiners = rng.sample(range(1 << 19, 1 << 20), 8)
        for uid in joiners:
            directory.join(uid)
        second = directory.run_epoch(
            adversary=CommitteeHunter(3, Random(2))
        )
        assert second.members == 25
        assert second.departed_during_epoch
        assert set(second.departed_during_epoch) < set(joiners)
        assert second.renamed == 8 - len(second.departed_during_epoch)
        assert set(second.assignment) == directory.members
        stayers = set(first.assignment) - set(leavers)
        assert all(second.assignment[uid] == first.assignment[uid]
                   for uid in stayers)

        # Epoch 3: newcomers fill the freed compact space -- the
        # leavers' names and the slots the victims never claimed --
        # lowest first, and nobody else moves.
        taken = set(second.assignment.values())
        free = [slot for slot in range(1, 60) if slot not in taken]
        newcomers = rng.sample(range(1, 1 << 19), 4)
        for uid in newcomers:
            directory.join(uid)
        third = directory.run_epoch()
        assert sorted(third.assignment[uid] for uid in newcomers) == free[:4]
        assert all(third.assignment[uid] == name
                   for uid, name in second.assignment.items())
        values = list(third.assignment.values())
        assert len(set(values)) == len(values) == len(directory.members)
        assert max(values) <= 2 * third.members
        assert [r.epoch for r in directory.history] == [1, 2, 3]


class TestTimelineOverRealRuns:
    def test_crash_renaming_timeline_shows_attack_shape(self):
        n = 24
        recorder = EventRecorder()
        result = run_crash_renaming(
            range(1, n + 1),
            adversary=MidSendPartitioner(6, Random(3), per_round=1),
            config=CrashRenamingConfig(election_constant=4),
            seed=4, observer=recorder,
        )
        text = render_timeline(result, recorder.events())
        assert text.count("\n") + 1 == result.rounds
        assert "crash:" in text
        summary = describe(result)
        assert f"{len(result.crashed)} crashed" in summary

    def test_tables_render_experiment_rows(self):
        from repro.analysis.experiments import crash_run_summary

        rows = [crash_run_summary(8, 0, seed=s, adversary=None)
                for s in (1, 2)]
        text = plain_table(rows, columns=["n", "rounds", "messages",
                                          "unique"])
        assert "rounds" in text and "yes" in text


class TestOnePopulationAcrossAlgorithms:
    def test_same_uids_through_three_protocols(self):
        """The same node population renamed by three different
        algorithms: all strong, and the two rank-based ones agree on
        the mapping exactly."""
        namespace = 5000
        uids = sample_uids(20, namespace, Random(5))

        halving = run_obg_halving(uids, namespace=namespace, seed=6)
        balls = run_balls_into_slots(uids, namespace=namespace, seed=6)
        committee = run_crash_renaming(
            uids, namespace=namespace,
            config=CrashRenamingConfig(election_constant=4), seed=6,
        )
        for result in (halving, balls, committee):
            checks = check_renaming(result, 20)
            assert checks["unique"] and checks["strong"]

        # Failure-free halving and committee renaming both realise the
        # rank mapping (deterministic splits by identity order).
        assert halving.outputs_by_uid() == committee.outputs_by_uid()
