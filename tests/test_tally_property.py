"""Counting once per round and folding a view's own rows on top:
invisible, and it happens.

``tally(inbox, fn, *args)`` (``repro.sim.columnar``) computes a rule
that is commutative over rows once per *round* over the rows every view
reads, and hands each reader the messages of its own targeted rows to
fold on top; the two all-to-all baselines read through it, and the
balls keep one shared ``seen`` / free tuple per round plus a small
private set each (DESIGN decision 15).  On a plain list ``tally`` is the
plain call, so the per-envelope oracle ``ReferenceNetwork`` tabulates
everything per node -- the unshared implementation the shared one is
held to here:

- (a) ``obg`` and ``balls`` (strong, and loose with ``slots = 2n``, the
  F13 race) under ``RandomCrash``, ``MidSendPartitioner`` and a recorded
  ``ReplayAdversary``, with and without link faults: rounds, per-round
  messages and bits, outputs, the round every node finished in and
  every node's protocol state must be equal;
- (b) by hand: a lossy and a corrupting link eating a node's own report,
  a duplicating channel, a forged claim that reaches some balls only;
- (c) the reader itself, on a hand-built column;
- (d) the free-slot pick against the list it replaces;
- (e) it happens, by count and not by clock: at most one tabulation per
  round, no ``Send`` built for any strategy's victim, and a memory peak
  a set per ball cannot meet; what the balls share is read-only and
  keeps no round alive.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

import gc
import tracemalloc
import weakref
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.crash import (
    MidSendPartitioner,
    RandomCrash,
    ScheduledCrash,
)
from repro.analysis.experiments import (
    FAMILIES,
    default_namespace,
    execute,
    sample_uids,
    summary,
)
from repro.baselines import balls_into_slots, obg_halving
from repro.baselines.balls_into_slots import (
    BallsIntoSlotsNode,
    SlotClaim,
    _free_slot,
)
from repro.baselines.obg_halving import ObgHalvingNode
from repro.falsify.replay import RecordingAdversary, ReplayAdversary
from repro.faults import build_fault_model
from repro.faults.base import FaultModel, corrupt, drop
from repro.faults.channels import DuplicateDelivery
from repro.faults.degradation import (
    SAFE_STALLED,
    SAFE_TERMINATED,
    classify_outcome,
)
from repro.sim.columnar import ColumnarRound, LazyInbox, tally
from repro.sim.messages import CostModel, multicast
from repro.sim.network import SyncNetwork
from repro.sim.node import Process
from repro.sim.runner import run_network
from tests.test_columnar_property import Probe, _fault_entries
from tests.test_crash_plan_indices import no_send_is_built
from tests.test_fastpath_ab import ReferenceNetwork
from tests.test_shared_views_property import _column, _count_calls

PROTOCOLS = ("obg", "balls", "balls-loose")
ADVERSARIES = ("random", "partitioner", "replay")

#: Per-node protocol state of the two baselines.
STATE_FIELDS = ("interval", "my_slot", "rounds_to_name")

ROUND_CAP = 200


def _processes(protocol, n, seed):
    namespace = default_namespace(n)
    uids = sample_uids(n, namespace, Random(seed))
    if protocol == "obg":
        nodes = [ObgHalvingNode(uid) for uid in uids]
    else:
        slots = 2 * n if protocol == "balls-loose" else None
        nodes = [BallsIntoSlotsNode(uid, slots=slots) for uid in uids]
    return nodes, CostModel(n=n, namespace=max(namespace, 2 * n))


def _adversary(kind, n, seed):
    if kind == "random":
        return RandomCrash(budget=n // 3, rate=0.1, rng=Random(seed))
    if kind == "partitioner":
        return MidSendPartitioner(n // 3, Random(seed), per_round=2)
    return None


def _play(protocol, n, seed, adversary, fault_spec, reference,
          fault_model=None, processes=None):
    """Everything one execution counted, when every node finished and
    every node's final state."""
    nodes, cost = _processes(protocol, n, seed)
    nodes = processes(nodes) if processes else nodes
    if fault_spec:
        fault_model = build_fault_model(fault_spec, n, seed=seed)
    network = (ReferenceNetwork if reference else SyncNetwork)(
        nodes, cost, crash_adversary=adversary, seed=seed + 2,
        fault_model=fault_model)
    finished_in, error = {}, None
    try:
        network._start()
        while network._correct_pending() and network.round_no < ROUND_CAP:
            network.step()
            for index in network.finished:
                finished_in.setdefault(index, network.round_no)
    except Exception as failure:  # a fault may break a baseline
        error = (type(failure).__name__, str(failure))
    if reference:
        ledgers = (network.messages_per_round, network.bits_per_round)
    else:
        ledgers = (network.metrics.messages_per_round,
                   network.metrics.bits_per_round)
    stats = network.fault_stats
    return {
        "rounds": network.round_no,
        "messages_per_round": list(ledgers[0]),
        "bits_per_round": list(ledgers[1]),
        "outputs": dict(network.finished),
        "finished_in": finished_in,
        "crashed": set(network.crashed),
        "error": error,
        "state": [tuple(getattr(node, name, None) for name in STATE_FIELDS)
                  for node in nodes],
        "fault_stats": stats.as_dict() if stats is not None else None,
    }


def _both(protocol, n, seed, kind, fault_spec=(), **keywords):
    """One scenario on the engine and on the oracle.  ``replay`` records
    a partitioner's schedule on the engine first and replays it, strict
    where no link fault can make the run diverge from the recording."""
    if kind == "replay":
        recorder = RecordingAdversary(_adversary("partitioner", n, seed + 1))
        _play(protocol, n, seed, recorder, (), False)

        def adversary():
            return ReplayAdversary(recorder.schedule, strict=not (
                fault_spec or keywords))
    else:
        def adversary():
            return _adversary(kind, n, seed + 1)

    engine = _play(protocol, n, seed, adversary(), fault_spec, False,
                   **keywords)
    oracle = _play(protocol, n, seed, adversary(), fault_spec, True,
                   **keywords)
    return engine, oracle


# ---------------------------------------------------------------------------
# (a) the baselines on both executors


class TestBaselinesAgainstTheUnsharedOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(PROTOCOLS), st.integers(3, 14),
           st.integers(0, 999), st.sampled_from((None, *ADVERSARIES)),
           _fault_entries(5))
    def test_under_crashes_and_link_faults(self, protocol, n, seed, kind,
                                           fault_spec):
        engine, oracle = _both(protocol, n, seed, kind, fault_spec)
        assert engine == oracle

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("kind", ADVERSARIES)
    @pytest.mark.parametrize("seed", [2, 11])
    def test_crash_only_runs_finish_identically(self, protocol, kind, seed):
        n = 24
        engine, oracle = _both(protocol, n, seed, kind)
        assert engine == oracle
        assert engine["error"] is None and engine["crashed"]
        names = [name for index, name in engine["outputs"].items()
                 if index not in engine["crashed"]]
        slots = 2 * n if protocol == "balls-loose" else n
        assert len(set(names)) == len(names) == n - len(engine["crashed"])
        assert all(1 <= name <= slots for name in names)


# ---------------------------------------------------------------------------
# (b) by hand: faults on a node's own report, duplicates, a forged claim


class _OwnLink(FaultModel):
    """One verdict on what ``node`` sends itself in ``round_no``."""

    def __init__(self, node, round_no, verdict):
        self.node = node
        self.round_no = round_no
        self.verdict = verdict

    def plan_round(self, round_no, delivered, alive):
        if round_no != self.round_no or self.node not in delivered:
            return {}
        return {self.node: {self.node: self.verdict}}


class _ClaimForger(Process):
    """A Byzantine ball: for four rounds it claims each of ``slots``
    under an identity nobody can beat, to the upper half of the links
    only -- targeted rows, so they reach a ball through its own rows
    alone."""

    byzantine = True

    def __init__(self, uid, slots):
        super().__init__(uid)
        self.slots = slots

    def program(self, ctx):
        upper = range(ctx.n // 2, ctx.n)
        for _ in range(4):
            yield [send for slot in self.slots
                   for send in multicast(upper, SlotClaim(slot, 0))]


class TestFaultsOnTheRowsOfOneView:
    @pytest.mark.parametrize("verdict", [drop(), corrupt(0), corrupt(1)],
                             ids=["lossy", "corrupt-uid", "corrupt-interval"])
    def test_a_link_eating_a_nodes_own_report(self, verdict):
        engine, oracle = _both("obg", 12, 3, None,
                               fault_model=_OwnLink(4, 2, verdict))
        assert engine == oracle
        kind, text = engine["error"]
        assert kind == "RenamingFailure" and "own report missing" in text
        assert engine["rounds"] == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_a_lossy_own_link_is_a_classified_stall(self, seed):
        n = 16
        namespace = default_namespace(n)
        uids = sample_uids(n, namespace, Random(seed))
        outcome, detail = classify_outcome(lambda: obg_halving.run_obg_halving(
            uids, namespace=namespace, seed=seed,
            fault_model=_OwnLink(seed, 1, drop())))
        assert outcome == SAFE_STALLED
        assert detail["error"] == "RenamingFailure"

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("kind", [None, "random"])
    def test_a_duplicating_channel(self, protocol, kind):
        def channel():
            return DuplicateDelivery(0.3, copies=2, seed=5)

        engine = _play(protocol, 10, 4, _adversary(kind, 10, 5), (), False,
                       fault_model=channel())
        oracle = _play(protocol, 10, 4, _adversary(kind, 10, 5), (), True,
                       fault_model=channel())
        assert engine == oracle
        assert engine["fault_stats"]["duplicated"] > 0
        if protocol != "obg":
            # A claim read twice is still one claim: the race is won.
            assert engine["error"] is None

    @pytest.mark.parametrize("protocol", ["balls", "balls-loose"])
    @pytest.mark.parametrize("kind", [None, "partitioner"])
    def test_a_forged_claim_only_some_balls_hear(self, protocol, kind):
        n = 12

        def forge(nodes):
            nodes[0] = _ClaimForger(nodes[0].uid, slots=(1, 2, 5))
            return nodes

        engine, oracle = _both(protocol, n, 7, kind, processes=forge)
        assert engine == oracle
        if protocol == "balls-loose" and kind is None:
            # With room to spare everybody is named, and nobody above
            # the split by a slot forged in its first draw.
            assert engine["error"] is None and len(engine["outputs"]) == n
            first_round = [name for index, name in engine["outputs"].items()
                           if index >= n // 2
                           and engine["state"][index][2] == 1]
            assert first_round and not {1, 2, 5} & set(first_round)

    def test_forged_claims_can_exhaust_the_slots(self):
        n = 6

        def forge(nodes):
            nodes[0] = _ClaimForger(nodes[0].uid, slots=range(1, n + 1))
            return nodes

        engine, oracle = _both("balls", n, 1, None, processes=forge)
        assert engine == oracle
        kind, text = engine["error"]
        assert kind == "RenamingFailure" and "no free slots left" in text

    def test_corrupt_input_is_still_classified(self):
        from tests.test_baselines import TestCorruptInputIsClassified

        classified = TestCorruptInputIsClassified()
        for baseline in ("obg", "balls"):
            for seed in range(6):
                outcome, detail = classified._outcome(baseline, seed)
                assert outcome in (SAFE_STALLED, SAFE_TERMINATED), detail


# ---------------------------------------------------------------------------
# (c) the reader, on a hand-built column


def _values(received, shift):
    return tuple(sorted(message.value + shift for message in received))


class TestTheReader:
    def test_common_once_and_each_views_own_rows(self):
        column, inboxes = _column()
        values = _count_calls(_values)
        own = {}
        for link in range(8):
            counted, own[link] = tally(inboxes[link], values, 10)
            assert counted == (10, 10)  # rows 0 and 4, the broadcasts
        assert len(values.calls) == 1
        assert [message.value for message in values.calls[0][0]] == [0, 0]
        assert {link: [message.value for message in rows]
                for link, rows in own.items()} == {
            0: [], 7: [], 1: [0], 2: [0], 3: [0, 0], 4: [0], 5: [0],
            6: [0, 0]}
        # Messages: no envelope is asked for.
        fresh = ColumnarRound()
        fresh.add_broadcast(((0, 100, None), Probe(1)))
        fresh.add_run(((1, 101, None), Probe(2)), (1, 2))
        fresh.attach(range(3))
        assert tally(LazyInbox(fresh, 1), values, 0)[0] == (1,)
        assert fresh.env == [None, None]

    def test_memoised_on_the_column_under_the_common_view(self):
        column, inboxes = _column()
        values = _count_calls(_values)
        tally(inboxes[3], values, 0)
        tally(inboxes[0], values, 0)
        tally(inboxes[3], values, 1)
        assert [args[1:] for args in values.calls] == [(0,), (1,)]
        common = column.view_of(0)
        assert set(column._memo) == {(common, values, (0,)),
                                     (common, values, (1,))}
        assert tally(inboxes[5], values, 1)[0] is tally(
            inboxes[6], values, 1)[0]

    def test_a_plain_sequence_is_a_plain_call(self):
        column, inboxes = _column()
        values = _count_calls(_values)
        envelopes = list(inboxes[3])
        for _ in range(2):
            assert tally(envelopes, values, 1) == ((1, 1, 1, 1), ())
        assert len(values.calls) == 2

    def test_folding_equals_counting_everything(self):
        column, inboxes = _column()
        for link in range(8):
            counted, own = tally(inboxes[link], _values, 0)
            folded = tuple(sorted([*counted,
                                   *[message.value for message in own]]))
            assert folded == tally(list(inboxes[link]), _values, 0)[0]


# ---------------------------------------------------------------------------
# (d) the free-slot pick


class TestFreeSlotPick:
    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.integers(1, 40)), st.sets(st.integers(-3, 45)),
           st.integers(0, 10**6))
    def test_it_is_the_pick_from_the_filtered_list(self, free, mine, draw):
        free = tuple(sorted(free))
        left = [slot for slot in free if slot not in mine]
        asked = []

        def pick(count):
            asked.append(count)
            return draw % count

        chosen = _free_slot(free, set(mine), pick)
        if not left:
            assert chosen is None and asked == []
        else:
            assert asked == [len(left)] and chosen == left[draw % len(left)]

    def test_the_first_round_reads_a_range(self):
        assert _free_slot(range(1, 9), set(), lambda count: count - 1) == 8
        assert _free_slot(range(1, 9), {8, 1, 20}, lambda count: 0) == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_loose_renaming_draws_what_the_list_drew(self, seed):
        """F13's race at ``slots = 2n`` under mid-send cuts: the names
        depend on every draw of every ball, and equal the oracle's."""
        engine, oracle = _both("balls-loose", 20, seed, "partitioner")
        assert engine == oracle and engine["error"] is None
        assert max(engine["outputs"].values()) > 20


# ---------------------------------------------------------------------------
# (e) it happens: counts, a memory bound, nothing shared can be changed
# or keeps a round alive


def _counted(monkeypatch, module, name):
    counted = _count_calls(getattr(module, name))
    monkeypatch.setattr(module, name, counted)
    return counted


class TestWorkGuards:
    @pytest.mark.parametrize("family, module, table", [
        ("obg", obg_halving, "_halving_table"),
        ("balls", balls_into_slots, "_claims"),
    ])
    def test_one_tabulation_per_round_under_random_crashes(
            self, monkeypatch, family, module, table):
        tables = _counted(monkeypatch, module, table)
        built = no_send_is_built(monkeypatch)
        row = summary(family, 256, 32, 0, adversary="random")
        assert row["f_actual"] > 10 and row["unique"] and row["strong"]
        # One per recipient of a victim's partial broadcast, at the
        # parent: thousands.
        assert 0 < len(tables.calls) <= row["rounds"]
        assert built == []

    @pytest.mark.parametrize("family", ["obg", "balls", "crash"])
    @pytest.mark.parametrize("adversary", [
        "random", "hunter", "partitioner",
        lambda: ScheduledCrash({1: [3, 200], 2: [7], 3: [100, 101]},
                               deliver_prefix={3: 100, 7: 5, 100: 255}),
    ], ids=["random", "hunter", "partitioner", "scheduled"])
    def test_no_strategy_makes_a_victim_build_a_send(
            self, monkeypatch, family, adversary):
        built = no_send_is_built(monkeypatch)
        if not isinstance(adversary, str):
            adversary = adversary()
        result = execute(FAMILIES[family], 256, 32, 0, adversary=adversary)
        assert result.crashed and built == []

    def test_the_balls_share_what_they_have_seen(self):
        """Peak traced memory of a run whose per-ball ``taken`` sets
        (1,024 sets of up to 1,024 slots: 32 KB of hash table each, so
        32 MB before anything else; 134 MB measured at the parent, 16 MB
        here) cannot fit the bound."""
        gc.collect()
        tracemalloc.start()
        try:
            row = summary("balls", 1024, 128, 1, adversary="random")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert row["unique"] and row["strong"] and row["f_actual"] > 50
        assert peak < 32 * 2**20, f"{peak / 2**20:.1f} MB"


class _WatchedBall(BallsIntoSlotsNode):
    """A ball that keeps a weak reference to every round's column and
    what it was handed from the round's tally."""

    def __init__(self, uid, columns, shared):
        super().__init__(uid)
        self.columns = columns
        self.shared = shared

    def program(self, ctx):
        inner = super().program(ctx)
        sends = next(inner)
        round_no = 0
        while True:
            inbox = yield sends
            round_no += 1
            self.columns.setdefault(round_no, weakref.ref(inbox._column))
            try:
                sends = inner.send(inbox)
            except StopIteration as stop:
                return stop.value
            finally:
                frame = inner.gi_frame
                if frame is not None:
                    self.shared.setdefault(round_no, []).append(
                        (frame.f_locals["seen"], frame.f_locals["free"]))
            del inbox


def test_what_the_balls_share_is_read_only_and_keeps_no_round_alive():
    columns, shared = {}, {}
    n = 12
    gc.collect()
    gc.disable()
    try:
        result = run_network(
            [_WatchedBall(uid + 1, columns, shared) for uid in range(n)],
            CostModel(n=n, namespace=64),
            crash_adversary=MidSendPartitioner(3, Random(2)), seed=1)
        alive = [round_no for round_no, ref in columns.items()
                 if ref() is not None]
    finally:
        gc.enable()
    assert result.crashed and result.rounds >= 3
    # Every ball of a round holds the same two objects ...
    for round_no, held in shared.items():
        assert len({(id(seen), id(free)) for seen, free in held}) == 1
        seen, free = held[0]
        assert type(seen) is frozenset and type(free) is tuple
        assert sorted(seen | set(free)) == list(range(1, n + 1))
    # ... which outlive, here in `shared`, the round whose memo made
    # them: no column is reachable from what it handed out.
    assert sorted(columns) == list(range(1, result.rounds + 1))
    assert alive == []
