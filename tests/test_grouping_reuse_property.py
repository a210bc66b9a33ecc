"""A round of the shape of the last reuses its grouping, invisibly.

``ColumnarRound._group`` sorts a round's attached recipients into views
by the blocks they read.  That sorting depends only on the groups'
``(targets, stride)`` keys, in order, and on the alive set, so the
network keeps the last one and a round of the same shape -- a lockstep
committee voting to the view tuples of the round before -- reuses it
instead of walking its target tuples again.  Nothing of that may be
observable:

- generated multi-round runs repeat the same tuple objects, swap one
  tuple for an equal copy, change one stride or the group order, change
  the alive set by a crash or a finish, name a link twice, and mix
  scatters, multicasts, broadcasts, plain ``Send`` lists and held mail;
  on ``SyncNetwork`` and on the per-envelope oracle ``ReferenceNetwork``
  every ledger and every inbox (its length, its envelopes, its
  messages) must be equal, and every round's views -- their blocks and
  their reader counts, which decide what ``derive`` keeps -- must be
  those the round's own blocks make;
- white-box counts: the paper's Byzantine run walks its target tuples
  in a handful of its 1,644 rounds, and a hand-made run reuses exactly
  where its shape repeats.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

from collections import Counter
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.faults.base import FaultModel, hold
from repro.sim.columnar import ColumnarRound, messages
from repro.sim.messages import Broadcast, CostModel, Multicast, Scatter, Send
from repro.sim.node import Process
from repro.sim.runner import run_network
from tests import test_golden_digests as golden
from tests.test_fastpath_ab import (
    ReferenceNetwork,
    _Letter,
    _PlannedCrashes,
    engine_observables,
    reference_observables,
)

#: What a node yields in a round: (kind, pool slot).
KINDS = ("multicast", "scatter", "copy", "share", "broadcast", "list",
         "quiet")


class _World:
    """The run's target tuples -- one object per pool slot, named again
    every round -- and the round's shared multicasts."""

    def __init__(self, n, pool):
        self.n = n
        self.pool = pool
        self._shared = {}

    def sends(self, op, round_no, node):
        kind, slot = op
        targets = self.pool[slot]
        letter = _Letter(10 * round_no + node)
        if kind == "multicast":
            return Multicast(targets, letter)
        if kind == "scatter":
            return Scatter(targets, [_Letter(7 * round_no + at)
                                     for at in range(len(targets))])
        if kind == "copy":  # an equal tuple, not the same object
            return Multicast(tuple(list(targets)), letter)
        if kind == "share":
            key = (round_no, slot)
            if key not in self._shared:
                self._shared[key] = Multicast(targets, _Letter(round_no))
            return self._shared[key]
        if kind == "broadcast":
            return Broadcast(self.n, letter)
        if kind == "list":
            return [Send(to, letter) for to in targets]
        return []


class _Player(Process):
    """Plays its script, reading each inbox one of three ways, and
    returns what it read as plain values."""

    def __init__(self, uid, script, world):
        super().__init__(uid)
        self.script = script
        self.world = world

    def program(self, ctx):
        read = []
        for round_no, op in enumerate(self.script, start=1):
            inbox = yield self.world.sends(op, round_no, ctx.index)
            way = (round_no + ctx.index) % 3
            if way == 0:
                read.append(len(inbox))
            elif way == 1:
                read.append(tuple(message.value
                                  for message in messages(inbox)))
            else:
                read.append(tuple(
                    (env.sender, env.round_no, env.sender_uid,
                     env.message.value) for env in inbox))
        return tuple(read)


class _Holds(FaultModel):
    """Holds the sends ``(round, sender)`` names by one round."""

    def __init__(self, plan):
        self.plan = plan

    def plan_round(self, round_no, delivered, alive):
        return {sender: {at: hold(round_no + 1)
                         for at in range(len(delivered[sender]))
                         if at % 2 == 0}
                for when, sender in sorted(self.plan)
                if when == round_no and delivered.get(sender)}


OPS = st.tuples(st.sampled_from(KINDS), st.integers(0, 2))


@st.composite
def _runs(draw):
    n = draw(st.integers(3, 7))
    link = st.integers(0, n - 1)
    # Tuples may name a link twice, and may be empty.
    pool = [tuple(draw(st.lists(link, max_size=n + 2))) for _ in range(3)]
    rounds = [[draw(OPS) for _ in range(n)]]
    for _ in range(draw(st.integers(1, 6))):
        ops = list(rounds[-1])
        change = draw(st.sampled_from(
            ["same", "same", "same", "swap", "redraw", "stride", "copy"]))
        i, j = draw(link), draw(link)
        if change == "swap":  # two senders trade: the group order moves
            ops[i], ops[j] = ops[j], ops[i]
        elif change == "redraw":
            ops[i] = draw(OPS)
        elif change == "stride":
            kind, slot = ops[i]
            ops[i] = ("scatter" if kind != "scatter" else "multicast", slot)
        elif change == "copy":
            ops[i] = ("copy", ops[i][1])
        rounds.append(ops)
    # Node 0 plays every round; the others may finish early.
    lengths = [len(rounds)] + [draw(st.integers(1, len(rounds)))
                               for _ in range(n - 1)]
    scripts = [[rounds[r][node] for r in range(lengths[node])]
               for node in range(n)]
    when = st.tuples(st.integers(1, len(rounds)), st.integers(1, n - 1))
    crashes = draw(st.dictionaries(
        when, st.sampled_from(["none", "first", "odd", "all"]), max_size=2))
    holds = draw(st.sets(when, max_size=2))
    return n, pool, scripts, crashes, holds


def _checked(group):
    """``group``, its views held to the round's own blocks: who reads
    which, who shares a view, and how many read each (what `derive`
    keeps is decided by these counts)."""
    def checked_group(self):
        views = group(self)
        wanted = self._wanted
        expected = {}
        for (targets, stride), firsts in self._groups.items():
            for position, to in enumerate(targets):
                if to in wanted:
                    expected.setdefault(to, []).append(
                        (id(firsts), stride * position))
        assert {recipient: [(id(firsts), offset)
                            for firsts, offset in view.blocks]
                for recipient, view in views.items()} == expected
        readers = Counter(map(id, views.values()))
        assert len(readers) == len({tuple(key) for key in expected.values()})
        assert all(view.readers == readers[id(view)]
                   for view in views.values())
        assert self._common.readers == len(wanted) - len(views)
        return views
    return checked_group


def _run(n, pool, scripts, crashes, holds, reference=False):
    world = _World(n, pool)
    processes = [_Player(index + 1, scripts[index], world)
                 for index in range(n)]
    options = dict(crash_adversary=_PlannedCrashes(crashes, n),
                   fault_model=_Holds(holds))
    cost = CostModel(n=n, namespace=4 * n)
    if reference:
        network = ReferenceNetwork(processes, cost, **options)
        network.run()
        observed = reference_observables(network)
    else:
        with mock.patch.object(ColumnarRound, "_group",
                               _checked(ColumnarRound._group)):
            network = run_network(processes, cost, **options)
        observed = engine_observables(network)
    observed["fault_stats"] = network.fault_stats.as_dict()
    return observed


def _counting(monkeypatch):
    """Counts `_group` calls and lists the rounds that walked: those
    whose classes no kept shape had (`ColumnarRound._classes`)."""
    calls = {"_group": 0, "walked": []}
    group, classes = ColumnarRound._group, ColumnarRound._classes

    def counted_group(self):
        calls["_group"] += 1
        return group(self)

    def counted_classes(self, shape):
        calls["walked"].append(self.round_no)
        return classes(self, shape)

    monkeypatch.setattr(ColumnarRound, "_group", counted_group)
    monkeypatch.setattr(ColumnarRound, "_classes", counted_classes)
    return calls


class TestReuseIsInvisible:
    @settings(max_examples=300, deadline=None)
    @given(_runs())
    def test_every_ledger_and_inbox_as_the_oracle(self, run):
        assert _run(*run) == _run(*run, reference=True)

    def test_a_hand_made_run_reuses_where_its_shape_repeats(
            self, monkeypatch):
        calls = _counting(monkeypatch)
        pool = [(0, 1, 1, 2), (2, 3), (3, 0, 4)]
        same = [("multicast", 0), ("share", 1), ("scatter", 2),
                ("quiet", 0), ("multicast", 0)]
        swapped = [same[1], same[0], *same[2:]]
        strided = [same[0], same[1], ("multicast", 2), *same[3:]]
        copied = [("copy", 0), *same[1:]]
        rounds = [same, same, same, swapped, swapped, strided, copied,
                  copied, same]
        scripts = [[ops[node] for ops in rounds] for node in range(5)]
        scripts[4] = scripts[4][:7]  # finishes after round 7
        run = (5, pool, scripts, {}, set())
        assert _run(*run) == _run(*run, reference=True)
        # Round 1 walks; 2-3 reuse; 4 (group order) walks, 5 reuses;
        # 6 (a stride) walks; 7, back from it to an equal copy of round
        # 1's shape, reuses round 1's classes (it walked while the run
        # kept only its last grouping: [1, 4, 6, 7, 8]); 8 has one node
        # less alive (it finished in 7) and walks; 9 names the tuple
        # object of which 8 named an equal copy: reused.
        assert calls["_group"] == 9
        assert calls["walked"] == [1, 4, 6, 8]


class TestPaperRun:
    def test_a_vote_round_reuses_the_grouping_before_it(self, monkeypatch):
        """1,644 rounds, each grouped by a walk at the parent."""
        calls = _counting(monkeypatch)
        result = golden.CASES["byz-withholder-n48"]()
        assert golden.digest(result) == golden.GOLDEN["byz-withholder-n48"]
        assert result.rounds == calls["_group"] == 1_644
        assert len(calls["walked"]) < 50
