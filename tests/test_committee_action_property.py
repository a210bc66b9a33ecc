"""Property test: the grouped committee action decides what Figure 2 decides.

``_committee_decision`` answers every reporter from one grouping pass
and one sweep.  The oracle below is the body it replaced
-- the pseudocode transliterated, rescanning every status for every
reporter -- and lives only here.  On arbitrary status lists (mixed
depths, singletons at the minimum depth, duplicated statuses, repeated
uids, overlapping intervals that are vertices of no halving tree, no
statuses at all) the two must denote the same ``Send`` list (the
grouped one as a ``Scatter``): same order, same links, same
``Response`` fields.
"""

from hypothesis import given, settings, strategies as st

from repro.core.crash_renaming import Response, Status, _committee_decision
from repro.core.intervals import Interval
from repro.sim.messages import Scatter, Send


def naive_committee_action(statuses, p_self):
    """Figure 2, one rescan of all statuses per reporter (the oracle)."""
    if not statuses:
        return []
    min_depth = min(status.depth for _, status in statuses)
    out = []
    for link, status in statuses:
        if status.depth != min_depth:
            reply = Response(status.uid, status.interval, status.depth, p_self)
            out.append(Send(link, reply))
            continue
        if status.interval.is_singleton:
            reply = Response(status.uid, status.interval,
                             status.depth + 1, p_self)
            out.append(Send(link, reply))
            continue
        same_interval_ids = sorted(
            other.uid for _, other in statuses
            if other.interval == status.interval
        )
        bot = status.interval.bot()
        below_bot = [
            other.uid for _, other in statuses
            if bot.contains_interval(other.interval)
        ]
        rank = same_interval_ids.index(status.uid) + 1
        if len(below_bot) + rank <= bot.size:
            child = bot
        else:
            child = status.interval.top()
        reply = Response(status.uid, child, status.depth + 1, p_self)
        out.append(Send(link, reply))
    return out


def tree_vertices(n):
    vertices, frontier = [], [Interval(1, n)]
    while frontier:
        interval = frontier.pop()
        vertices.append(interval)
        if not interval.is_singleton:
            frontier.extend(interval.halves())
    return vertices


#: Arbitrary closed intervals over a small range: plenty of overlaps,
#: nestings and singletons, mostly not vertices of any halving tree.
any_interval = st.tuples(
    st.integers(1, 12), st.integers(0, 6)
).map(lambda pair: Interval(pair[0], pair[0] + pair[1]))

#: Vertices of the [1, 13] halving tree (uneven halves, shallow leaves).
tree_interval = st.sampled_from(tree_vertices(13))

#: Few distinct uids and depths, so repeats and ties are the norm.
status = st.builds(
    Status,
    uid=st.integers(1, 9),
    interval=st.one_of(any_interval, tree_interval),
    depth=st.integers(0, 3),
    p=st.integers(0, 3),
)

#: (link, status) pairs; sampling with replacement duplicates whole
#: statuses, as a duplicating channel does.
status_lists = st.lists(st.tuples(st.integers(0, 40), status), max_size=24)


def both(statuses, p_self=2):
    return (list(Scatter(*_committee_decision(statuses, p_self))),
            naive_committee_action(statuses, p_self))


@settings(max_examples=400, deadline=None)
@given(statuses=status_lists, p_self=st.integers(0, 5))
def test_grouped_action_equals_the_naive_reference(statuses, p_self):
    grouped, naive = both(statuses, p_self)
    assert grouped == naive


@settings(max_examples=200, deadline=None)
@given(statuses=st.lists(
    st.tuples(st.integers(0, 40),
              st.builds(Status, uid=st.integers(1, 30),
                        interval=tree_interval, depth=st.just(1),
                        p=st.integers(0, 2))),
    max_size=40), doubled=st.booleans())
def test_equal_on_one_depth_with_duplicated_reports(statuses, doubled):
    """All reports at the minimum depth -- every one is a halving or a
    singleton decision -- optionally with every report delivered twice."""
    if doubled:
        statuses = statuses + statuses
    grouped, naive = both(statuses)
    assert grouped == naive


def test_no_statuses_no_sends():
    assert both([]) == ([], [])


def test_duplicated_uid_shares_the_first_rank_and_counts_twice():
    """uid 10 reported twice on [1,4]: both copies rank 1; uid 20 is
    pushed to rank 3 > |bot| and goes top."""
    root = Interval(1, 4)
    statuses = [(0, Status(10, root, 0, 0)), (1, Status(20, root, 0, 0)),
                (0, Status(10, root, 0, 0))]
    grouped, naive = both(statuses)
    assert grouped == naive
    assert [send.message.interval for send in grouped] == [
        Interval(1, 2), Interval(3, 4), Interval(1, 2)]


def test_reports_at_other_depths_still_crowd_bot():
    """A deeper report inside bot(I) takes a slot there, and a deeper
    report of I itself takes a rank."""
    root = Interval(1, 4)
    statuses = [(0, Status(30, root, 0, 0)),
                (1, Status(10, root, 2, 0)),
                (2, Status(77, Interval(1, 1), 2, 0))]
    grouped, naive = both(statuses)
    assert grouped == naive
    # uid 30 has rank 2 (after 10) and one report sits inside [1,2].
    assert grouped[0].message.interval == Interval(3, 4)
