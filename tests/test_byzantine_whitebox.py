"""White-box unit tests for the Byzantine node's building blocks.

These drive individual methods / generator stages directly with
hand-built envelopes, pinning down the exact filtering rules:
candidate checks on ELECT, authenticated-uid usage on announcements,
and the accept threshold of the distribution wait loop.
"""

import pytest

from repro.core.byzantine_renaming import (
    ByzantineRenamingConfig,
    ByzantineRenamingNode,
    CommitteeParameters,
    Elect,
    NewId,
    _committee_view,
)
from repro.sim.messages import Envelope


def env(sender, message, sender_uid):
    return Envelope(sender=sender, round_no=1, message=message,
                    sender_uid=sender_uid)


def params(b_max=1, cg=5):
    return CommitteeParameters(
        candidate_probability=1.0, max_byzantine=b_max, b_max=b_max,
        cg_lower=cg, diff_threshold=max(b_max + 1, (cg + 1) // 2),
        consensus_iterations=8, full_committee=True,
    )


def collected(inbox, candidates):
    """The view ``_committee_view`` derives, after checking its links
    are the view's sorted keys."""
    view, links = _committee_view(inbox, frozenset(candidates))
    assert links == tuple(sorted(view))
    return view


class TestCollectView:
    def test_accepts_authentic_candidates(self):
        inbox = [env(3, Elect(50), sender_uid=50)]
        assert collected(inbox, {50}) == {3: 50}

    def test_rejects_non_candidates(self):
        inbox = [env(3, Elect(51), sender_uid=51)]
        assert collected(inbox, {50}) == {}

    def test_rejects_claim_mismatching_authenticated_uid(self):
        # A corrupted node announcing a candidate identity it does not
        # own: the stamped uid (its real one) disagrees with the claim.
        inbox = [env(3, Elect(50), sender_uid=77)]
        assert collected(inbox, {50, 77}) == {}

    def test_first_announcement_per_link_wins(self):
        inbox = [
            env(3, Elect(50), sender_uid=50),
            env(3, Elect(50), sender_uid=50),
        ]
        assert collected(inbox, {50}) == {3: 50}

    def test_ignores_other_message_types(self):
        inbox = [env(3, NewId(1), sender_uid=50)]
        assert collected(inbox, {50}) == {}


def drive_await(node, parameters, view, batches):
    """Feed inbox batches to _await_new_id; return decision or None."""
    gen = node._await_new_id(parameters, view, first_inbox=batches[0])
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    for batch in batches[1:]:
        try:
            gen.send(batch)
        except StopIteration as stop:
            return stop.value
    gen.close()
    return None


class TestAwaitNewId:
    def test_accepts_after_b_max_plus_one_votes(self):
        node = ByzantineRenamingNode(uid=1)
        view = {0: 10, 1: 11, 2: 12}
        batches = [[env(0, NewId(4), 10), env(1, NewId(4), 11)]]
        assert drive_await(node, params(b_max=1), view, batches) == 4

    def test_b_max_votes_are_not_enough(self):
        node = ByzantineRenamingNode(uid=1)
        view = {0: 10, 1: 11, 2: 12}
        batches = [[env(0, NewId(4), 10)], []]
        assert drive_await(node, params(b_max=1), view, batches) is None

    def test_null_votes_never_count(self):
        node = ByzantineRenamingNode(uid=1)
        view = {0: 10, 1: 11, 2: 12}
        batches = [[env(0, NewId(None), 10), env(1, NewId(None), 11)], []]
        assert drive_await(node, params(b_max=1), view, batches) is None

    def test_one_vote_per_view_member(self):
        # A single Byzantine member repeating itself cannot reach the
        # threshold alone.
        node = ByzantineRenamingNode(uid=1)
        view = {0: 10, 1: 11, 2: 12}
        batches = [[env(0, NewId(4), 10), env(0, NewId(4), 10)], []]
        assert drive_await(node, params(b_max=1), view, batches) is None

    def test_votes_from_outside_the_view_are_ignored(self):
        node = ByzantineRenamingNode(uid=1)
        view = {0: 10}
        batches = [[env(5, NewId(4), 99), env(6, NewId(4), 98)], []]
        assert drive_await(node, params(b_max=1), view, batches) is None

    def test_votes_accumulate_across_rounds(self):
        node = ByzantineRenamingNode(uid=1)
        view = {0: 10, 1: 11, 2: 12}
        batches = [[env(0, NewId(7), 10)], [env(1, NewId(7), 11)]]
        assert drive_await(node, params(b_max=1), view, batches) == 7


class TestParameterObject:
    def test_validate_rejects_unsound_bounds(self):
        from repro.core.byzantine_renaming import ByzantineRenamingError

        bad = CommitteeParameters(
            candidate_probability=1.0, max_byzantine=3, b_max=3,
            cg_lower=6, diff_threshold=4, consensus_iterations=8,
            full_committee=True,
        )
        with pytest.raises(ByzantineRenamingError, match="infeasible"):
            bad.validate()

    def test_config_is_immutable(self):
        config = ByzantineRenamingConfig()
        with pytest.raises(Exception):
            config.epsilon0 = 0.1


class TestSharedWorkIsDoneOncePerRun:
    """The committee lottery and the derived parameters are common
    knowledge: a run pays for each once, not once per node."""

    def test_one_lottery_draw_and_one_derivation_for_n_nodes(self, monkeypatch):
        from random import Random

        from repro.adversary.byzantine import corrupt_set, make_withholder
        from repro.analysis.experiments import check_renaming, population
        from repro.core.byzantine_renaming import run_byzantine_renaming
        from repro.crypto.shared_randomness import SharedRandomness

        draws = []
        stream = SharedRandomness.stream
        monkeypatch.setattr(
            SharedRandomness, "stream",
            lambda self, label: draws.append(label) or stream(self, label))
        derivations = []
        bounds = ByzantineRenamingConfig._concentration_bounds
        monkeypatch.setattr(
            ByzantineRenamingConfig, "_concentration_bounds",
            lambda self, n, *rest: derivations.append(n)
            or bounds(self, n, *rest))
        # A config value no other test uses, so the derivation is cold.
        config = ByzantineRenamingConfig(
            max_byzantine=2, candidate_probability=0.47, slack_sigmas=2.49)

        # The family's seed rule at seed 1, on an explicit config.
        uids, namespace = population(48, 1)
        corrupt = corrupt_set(uids, 2, Random(2))
        result = run_byzantine_renaming(
            uids, namespace=namespace,
            byzantine={uid: make_withholder(0.5, salt=1) for uid in corrupt},
            config=config, shared_seed=4, seed=5)
        checks = check_renaming(result, 48)

        assert checks["unique"] and checks["strong"]
        assert not config.parameters(48).full_committee
        assert draws.count("committee-lottery") == 1
        assert derivations == [48]
