"""Tests for schedule capture, deterministic replay, and shrinking."""

import pytest

from repro.adversary.base import CrashPlanError, kept_indices
from repro.falsify.campaign import (
    artifact_from_row,
    falsify_run_summary,
    replay_artifact,
)
from repro.falsify.monitors import InvariantViolation
from repro.falsify.replay import (
    ReplayAdversary,
    ReplayMismatch,
    RecordingAdversary,
    ReproArtifact,
    normalize_schedule,
    schedule_from_json,
    schedule_size,
    schedule_to_json,
)
from repro.falsify.scenarios import (
    make_adversary,
    monitors_for,
    resolve_scenario,
    run_scenario,
)
from repro.falsify.shrink import probe, shrink_artifact

#: A configuration known to falsify the planted-duplicate fixture (the
#: partitioner's mid-send crash splits the survivors' views).
PLANTED = dict(scenario="planted-duplicate", adversary="partitioner")
PLANTED_N, PLANTED_F, PLANTED_SEED = 10, 2, 1


def planted_row():
    return falsify_run_summary(PLANTED_N, PLANTED_F, PLANTED_SEED, **PLANTED)


def planted_monitors(n=PLANTED_N, f=PLANTED_F):
    return monitors_for(resolve_scenario("planted-duplicate"), n, f)


class TestIndices:
    """What the recorder writes down: ``kept_indices`` of the plan."""

    def test_positions_with_duplicates_consumed(self):
        assert kept_indices(["a", "a"], ["a", "b", "a"]) == (0, 2)
        assert kept_indices(["b"], ["a", "b"]) == (1,)

    def test_unproposed_message_rejected(self):
        with pytest.raises(CrashPlanError, match="never proposed"):
            kept_indices(["c"], ["a", "b"])

    def test_indices_are_recorded_as_they_are(self):
        assert kept_indices([2, 0], ["a", "b", "a"]) == (2, 0)


class TestNormalize:
    def test_canonical_form(self):
        raw = {"2": {"1": [0, 1]}, 3: {}, 4: {0: (2,)}}
        assert normalize_schedule(raw) == {2: {1: (0, 1)}, 4: {0: (2,)}}

    def test_size_counts_victims(self):
        assert schedule_size({1: {0: (), 2: (1,)}, 5: {3: ()}}) == 3
        assert schedule_size({}) == 0

    def test_json_roundtrip(self):
        schedule = {2: {1: (0, 2)}, 7: {0: ()}}
        data = schedule_to_json(schedule)
        assert schedule_from_json(data) == schedule


class TestRecordAndReplay:
    def test_recorder_captures_applied_schedule(self):
        inner = make_adversary("partitioner", PLANTED_F, PLANTED_SEED)
        recorder = RecordingAdversary(inner)
        with pytest.raises(InvariantViolation):
            run_scenario(
                "planted-duplicate", PLANTED_N, PLANTED_F, PLANTED_SEED,
                adversary=recorder, monitors=planted_monitors(),
            )
        assert schedule_size(recorder.schedule) >= 1
        assert recorder.crashed == inner.crashed  # note_crashes forwarded
        for step in recorder.schedule.values():
            for victim, kept in step.items():
                assert all(isinstance(i, int) for i in kept)

    def test_strict_replay_reproduces_same_violation(self):
        inner = make_adversary("partitioner", PLANTED_F, PLANTED_SEED)
        recorder = RecordingAdversary(inner)
        with pytest.raises(InvariantViolation) as original:
            run_scenario(
                "planted-duplicate", PLANTED_N, PLANTED_F, PLANTED_SEED,
                adversary=recorder, monitors=planted_monitors(),
            )
        with pytest.raises(InvariantViolation) as replayed:
            run_scenario(
                "planted-duplicate", PLANTED_N, PLANTED_F, PLANTED_SEED,
                adversary=ReplayAdversary(recorder.schedule, strict=True),
                monitors=planted_monitors(),
            )
        assert str(replayed.value) == str(original.value)
        assert replayed.value.nodes == original.value.nodes

    def test_clean_replay_matches_recorded_run(self):
        inner = make_adversary("random", 2, 3)
        recorder = RecordingAdversary(inner)
        recorded = run_scenario("gossip", 8, 2, 3, adversary=recorder)
        replayed = run_scenario(
            "gossip", 8, 2, 3,
            adversary=ReplayAdversary(recorder.schedule, strict=True),
        )
        assert replayed.results == recorded.results
        assert replayed.crashed == recorded.crashed
        assert replayed.rounds == recorded.rounds

    def test_strict_replay_rejects_dead_victim(self):
        # Node 0 cannot crash twice; strict replay must notice.
        schedule = {1: {0: ()}, 2: {0: ()}}
        with pytest.raises(ReplayMismatch, match="not.*alive|alive"):
            run_scenario(
                "gossip", 6, 2, 0,
                adversary=ReplayAdversary(schedule, strict=True),
            )

    def test_strict_replay_rejects_out_of_range_index(self):
        # A gossip node proposes 6 sends at n=6; index 99 cannot exist.
        schedule = {1: {0: (99,)}}
        with pytest.raises(ReplayMismatch, match="kept indices"):
            run_scenario(
                "gossip", 6, 1, 0,
                adversary=ReplayAdversary(schedule, strict=True),
            )

    def test_lenient_replay_skips_what_no_longer_applies(self):
        schedule = {1: {0: (99,)}, 2: {0: ()}}
        result = run_scenario(
            "gossip", 6, 2, 0,
            adversary=ReplayAdversary(schedule, strict=False),
        )
        # The bogus index is dropped, the crash still happens once.
        assert result.crashed == {0}


class TestStrategyRoundTrips:
    """Record -> strict replay must be exact for every adaptive strategy,
    including those whose decisions depend on observed fanout."""

    def _round_trip(self, scenario, n, f, seed, adversary):
        recorder = RecordingAdversary(adversary)
        recorded = run_scenario(scenario, n, f, seed, adversary=recorder)
        assert recorded.crashed  # the strategy actually fired
        replayed = run_scenario(
            scenario, n, f, seed,
            adversary=ReplayAdversary(recorder.schedule, strict=True),
        )
        assert replayed.metrics.summary() == recorded.metrics.summary()
        assert list(replayed.metrics.messages_per_round) == list(
            recorded.metrics.messages_per_round)
        assert list(replayed.metrics.bits_per_round) == list(
            recorded.metrics.bits_per_round)
        assert replayed.results == recorded.results
        assert replayed.crashed == recorded.crashed
        assert replayed.rounds == recorded.rounds

    def test_committee_hunter_round_trips(self):
        from random import Random

        from repro.adversary.crash import CommitteeHunter

        self._round_trip("crash", 12, 2, 3, CommitteeHunter(2, Random(4)))

    def test_committee_hunter_mid_send_round_trips(self):
        from random import Random

        from repro.adversary.crash import CommitteeHunter

        self._round_trip(
            "crash", 12, 2, 3,
            CommitteeHunter(2, Random(4), deliver_fraction=0.5))

    def test_budgeted_adaptive_round_trips(self):
        from repro.adversary.crash import BudgetedAdaptiveCrash

        def policy(round_no, proposed, alive, trace, remaining):
            # Crash the lowest alive index mid-send on even rounds.
            if round_no % 2 or not remaining:
                return {}
            victim = min(alive)
            sends = list(proposed.get(victim, []))
            return {victim: sends[: len(sends) // 2]}

        self._round_trip("gossip", 8, 3, 1, BudgetedAdaptiveCrash(3, policy))


class TestArtifact:
    def test_json_roundtrip(self, tmp_path):
        artifact = ReproArtifact(
            scenario="planted-duplicate", n=8, f=1, seed=1,
            invariant="unique-names", schedule={1: {0: (2,)}},
            params={"slots": None}, violation_round=1, nodes=(6, 7),
            detail={"7": [6, 7]}, code_version="abc123",
        )
        assert ReproArtifact.from_json(artifact.to_json()) == artifact
        path = artifact.save(tmp_path / "sub" / "repro.json")
        assert ReproArtifact.load(path) == artifact
        assert "unique-names" in artifact.describe()

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="not a falsify repro"):
            ReproArtifact.from_json({"kind": "something-else"})

    def test_unsupported_format_rejected(self):
        data = ReproArtifact(
            scenario="crash", n=4, f=0, seed=0, invariant="unique-names",
        ).to_json()
        data["format"] = 99
        with pytest.raises(ValueError, match="unsupported artifact format"):
            ReproArtifact.from_json(data)


class TestProbe:
    def test_clean_execution_returns_none(self):
        assert probe("gossip", 6, 0, {}) is None

    def test_violation_classified(self):
        row = planted_row()
        artifact = artifact_from_row(row, PLANTED)
        outcome = probe(artifact.scenario, artifact.n, artifact.seed,
                        artifact.schedule)
        assert outcome is not None
        assert outcome.invariant == "unique-names"
        round_no, nodes, _detail = outcome.violation_fields()
        assert round_no >= 1 and len(nodes) >= 2


class TestShrink:
    def test_end_to_end_minimizes_and_replays(self):
        row = planted_row()
        assert row["violation"] == "unique-names"
        raw = artifact_from_row(row, PLANTED)
        report = shrink_artifact(raw)
        minimal = report.artifact

        assert report.entries_after <= report.entries_before
        assert minimal.n <= raw.n
        assert schedule_size(minimal.schedule) == minimal.f == 1
        # One mid-send crash with a single leaked message is the
        # minimal counterexample shape for the planted race.
        ((step,),) = [list(stepmap.values())
                      for stepmap in minimal.schedule.values()]
        assert len(step) <= 1

        error = replay_artifact(minimal)
        assert isinstance(error, InvariantViolation)
        assert error.invariant == "unique-names"
        # Deterministic: replaying twice gives the identical failure.
        assert str(replay_artifact(minimal)) == str(error)

    def test_shrunk_artifact_survives_json_roundtrip(self, tmp_path):
        report = shrink_artifact(artifact_from_row(planted_row(), PLANTED))
        path = report.artifact.save(tmp_path / "repro.json")
        loaded = ReproArtifact.load(path)
        assert replay_artifact(loaded) is not None

    def test_shrink_is_bounded(self):
        raw = artifact_from_row(planted_row(), PLANTED)
        report = shrink_artifact(raw, max_executions=1)
        # With a budget of 1 nothing can shrink, but the artifact must
        # still re-record and replay.
        assert report.executions <= 2
        assert replay_artifact(report.artifact) is not None
