"""White-box vectors for the paper's pseudocode (Figures 2 and 3).

Each test drives one committee / node action with a hand-constructed
message set and checks the exact response the pseudocode prescribes --
the rank rule ``|B| + rank(ID) <= |bot(I)|``, the minimum-depth gate,
the response sort order, and the p-propagation rules.
"""

from random import Random

from repro.core.crash_renaming import (
    CrashRenamingConfig,
    CrashRenamingNode,
    Response,
    Status,
)
from repro.core.intervals import Interval
from repro.sim.messages import CostModel
from repro.sim.node import Context


def committee_replies(statuses, p_self=0):
    """Run Figure 2 on (link, status) pairs; return {uid: response}."""
    node = CrashRenamingNode(uid=999)
    sends = node._committee_action(list(enumerate(statuses)), p_self)
    return {send.message.uid: send.message for send in sends}


def make_node(uid=5, interval=Interval(1, 8), depth=0, p=0, elected=False):
    node = CrashRenamingNode(uid, CrashRenamingConfig(election_constant=0.0))
    node.interval = interval
    node.depth = depth
    node.p = p
    node.elected = elected
    return node


def ctx_for(n=8):
    return Context(n=n, namespace=64, index=0, rng=Random(1),
                   cost=CostModel(n=n, namespace=64))


class TestCommitteeActionFigure2:
    def test_four_nodes_split_root_evenly(self):
        """Four nodes on [1,4]: ranks 1,2 fit in bot [1,2]; 3,4 go top."""
        root = Interval(1, 4)
        statuses = [Status(uid, root, 0, 0) for uid in (10, 20, 30, 40)]
        replies = committee_replies(statuses)
        assert replies[10].interval == Interval(1, 2)
        assert replies[20].interval == Interval(1, 2)
        assert replies[30].interval == Interval(3, 4)
        assert replies[40].interval == Interval(3, 4)
        assert all(reply.depth == 1 for reply in replies.values())

    def test_rank_is_by_identity_not_arrival_order(self):
        root = Interval(1, 4)
        statuses = [Status(uid, root, 0, 0) for uid in (40, 10, 30, 20)]
        replies = committee_replies(statuses)
        assert replies[10].interval == Interval(1, 2)
        assert replies[40].interval == Interval(3, 4)

    def test_occupied_bot_pushes_new_arrivals_up(self):
        """|B| nodes already inside bot(I) consume its slots."""
        parent = Interval(1, 4)
        statuses = [
            Status(50, parent, 0, 0),               # the one to place
            Status(7, Interval(1, 2), 1, 0),        # already in bot
            Status(8, Interval(1, 1), 2, 0),        # deeper inside bot
        ]
        replies = committee_replies(statuses)
        # |B| = 2, rank(50) = 1 -> 3 > |bot| = 2 -> top.
        assert replies[50].interval == Interval(3, 4)

    def test_min_depth_gate_echoes_deeper_nodes(self):
        statuses = [
            Status(10, Interval(1, 8), 0, 0),
            Status(20, Interval(1, 4), 1, 2),
        ]
        replies = committee_replies(statuses, p_self=5)
        # uid 20 sits above the minimum depth: echoed unchanged, with
        # the committee member's own p substituted.
        assert replies[20].interval == Interval(1, 4)
        assert replies[20].depth == 1
        assert replies[20].p == 5
        # uid 10 is at the minimum depth: halved.
        assert replies[10].depth == 1

    def test_singleton_at_min_depth_advances_without_halving(self):
        statuses = [
            Status(10, Interval(3, 3), 1, 0),
            Status(20, Interval(1, 2), 1, 0),
        ]
        replies = committee_replies(statuses)
        assert replies[10].interval == Interval(3, 3)
        assert replies[10].depth == 2

    def test_empty_message_set_sends_nothing(self):
        assert committee_replies([]) == {}

    def test_same_interval_not_counted_as_inside_bot(self):
        """I_u == I_w must not land in B (I_w is not inside bot(I_w))."""
        root = Interval(1, 4)
        statuses = [Status(10, root, 0, 0), Status(20, root, 0, 0)]
        replies = committee_replies(statuses)
        # |B| = 0; rank(10)=1, rank(20)=2, both <= |bot|=2 -> both bot.
        assert replies[10].interval == Interval(1, 2)
        assert replies[20].interval == Interval(1, 2)


class TestNodeActionFigure3:
    def test_adopts_deepest_response_first(self):
        node = make_node(interval=Interval(1, 8), depth=0)
        node._node_action([
            Response(5, Interval(1, 8), 0, 0),
            Response(5, Interval(1, 4), 1, 0),
        ], ctx_for())
        assert node.interval == Interval(1, 4)
        assert node.depth == 1

    def test_ties_break_toward_smaller_left_endpoint(self):
        node = make_node(interval=Interval(1, 8), depth=0)
        node._node_action([
            Response(5, Interval(5, 8), 1, 0),
            Response(5, Interval(1, 4), 1, 0),
        ], ctx_for())
        assert node.interval == Interval(1, 4)

    def test_singleton_keeps_interval_but_advances_depth(self):
        node = make_node(interval=Interval(3, 3), depth=2)
        node._node_action([Response(5, Interval(3, 3), 3, 0)], ctx_for())
        assert node.interval == Interval(3, 3)
        assert node.depth == 3

    def test_no_responses_increments_p(self):
        node = make_node(p=1)
        node._node_action([], ctx_for())
        assert node.p == 2

    def test_adopts_maximum_p_from_responses(self):
        node = make_node(p=0)
        node._node_action([
            Response(5, Interval(1, 4), 1, 3),
            Response(5, Interval(1, 4), 1, 1),
        ], ctx_for())
        assert node.p == 3

    def test_smaller_p_does_not_regress(self):
        node = make_node(p=4)
        node._node_action([Response(5, Interval(1, 4), 1, 2)], ctx_for())
        assert node.p == 4

    def test_election_probability_saturates_at_one(self):
        config = CrashRenamingConfig(election_constant=256)
        assert config.election_probability(p=0, n=16) == 1.0

    def test_election_probability_saturates_for_a_huge_p(self):
        """A bit-flipped p (corrupting channel) must not overflow."""
        config = CrashRenamingConfig(election_constant=2.0)
        assert config.election_probability(p=10**4, n=1 << 20) == 1.0

    def test_election_probability_zero_for_single_node(self):
        config = CrashRenamingConfig()
        assert config.election_probability(p=0, n=1) == 0.0

    def test_phase_count(self):
        config = CrashRenamingConfig()
        assert config.phase_count(1) == 0
        assert config.phase_count(16) == 12
        assert config.phase_count(17) == 15
