"""Reading per view and deriving per view: invisible, and it happens.

Recipients of the same rows share one view of a round, and
``derive(inbox, fn, *args)`` computes a replicated decision once per
view (``repro.sim.columnar``).  On a plain list ``derive`` is a plain
call, so the per-envelope oracle ``ReferenceNetwork`` recomputes
everything per node -- it is the unshared implementation every shared
one is held to here:

- the paper's crash renaming (paper and sparse constants), the two
  all-to-all baselines and Byzantine renaming (withholder,
  equivocator, chaos monkey, crash simulator -- the committee's view
  is derived too, and its votes shared per round) run on both executors
  under mid-send crash adversaries and link faults (drop, duplicate,
  corrupt, hold/release): ledgers, outputs and every node's protocol
  state must be equal;
- random send scripts whose nodes ``derive`` from every inbox, so views
  that differ in one row, one duplicate or one argument are drawn;
- white-box counts: the sharing really happens (and did not at the
  parent commit, by construction);
- the memo's two rules -- a view with one reader caches nothing, and a
  round is freed by refcounting alone -- and the read-only contract of
  every derived value the protocols ship.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

import gc
import weakref
from collections import Counter
from random import Random
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import byzantine as byzantine_strategies
from repro.adversary.crash import CommitteeHunter, RandomCrash
from repro.analysis.experiments import (
    byzantine_config_for,
    default_namespace,
    sample_uids,
)
from repro.baselines import balls_into_slots, obg_halving
from repro.baselines.balls_into_slots import (
    BallsIntoSlotsNode,
    SlotClaim,
    SlotRelease,
)
from repro.baselines.obg_halving import HalvingStatus, ObgHalvingNode
from repro.consensus import comm
from repro.consensus.comm import SubVote
from repro.core import byzantine_renaming, crash_renaming
from repro.core.byzantine_renaming import ByzantineRenamingNode, Elect
from repro.core.crash_renaming import (
    CommitteeNotice,
    CrashRenamingConfig,
    CrashRenamingNode,
    Status,
)
from repro.core.intervals import Interval
from repro.crypto.shared_randomness import SharedRandomness
from repro.faults import build_fault_model
from repro.sim.columnar import ColumnarRound, LazyInbox, derive
from repro.sim.messages import (
    HEADER_BITS,
    CostModel,
    Envelope,
    Message,
    Scatter,
    broadcast,
    multicast,
)
from repro.sim.network import SyncNetwork
from repro.sim.node import Process
from repro.sim.runner import run_network
from tests import test_golden_digests as golden
from tests.test_columnar_property import (
    Probe,
    ScriptedNode,
    _execute,
    _fault_entries,
    scenarios,
)
from tests.test_fastpath_ab import (
    ReferenceNetwork,
    engine_observables,
    reference_observables,
)

# ---------------------------------------------------------------------------
# (a) the protocols that derive, on both executors

CRASH_PROTOCOLS = ("crash-paper", "crash-sparse", "crash-early",
                   "crash-split", "obg", "balls")
#: protocol -> the strategy of its one corrupt node.
BYZANTINE = {
    "byz-withholder": golden.WITHHOLDER,
    "byz-equivocator": golden.EQUIVOCATOR,
    # Forged `SubVote`s: a shared vote must never merge with one.
    "byz-chaos": golden.CHAOS,
    "byz-crash-sim": byzantine_strategies.crash_simulator,
}
BYZANTINE_PROTOCOLS = tuple(BYZANTINE)

#: Per-node protocol state, whichever protocol the node runs.
STATE_FIELDS = ("phase_log", "interval", "depth", "p", "elected",
                "ever_elected", "my_slot", "rounds_to_name",
                "was_committee", "segment_log", "dirty_intervals")

#: Byzantine renaming at n <= 10 ends within ~600 rounds; a run that a
#: link fault stalls is compared at this round instead.
ROUND_CAP = 700


class _SplitCommitteeNode(CrashRenamingNode):
    """The upper half of the links counts one more silent phase before
    every round, so the committee holds two opinions of ``p`` and one
    reporter is answered with two different ``Response`` objects: round
    3 reads its answers in one pass that skips repeats by identity, and
    may drop neither."""

    def program(self, ctx):
        inner = super().program(ctx)
        sends = next(inner)
        while True:
            inbox = yield sends
            self.p += ctx.index >= ctx.n // 2
            try:
                sends = inner.send(inbox)
            except StopIteration as stop:
                return stop.value


#: protocol -> (node class, config) of the crash-renaming runs.
CRASH_RENAMING = {
    "crash-paper": (CrashRenamingNode, CrashRenamingConfig()),
    "crash-sparse": (CrashRenamingNode,
                     CrashRenamingConfig(election_constant=2.0)),
    # `Done` rides the same pass of round 3 as the answers.
    "crash-early": (CrashRenamingNode,
                    CrashRenamingConfig(early_stopping=True)),
    "crash-split": (_SplitCommitteeNode, CrashRenamingConfig()),
}


def _population(protocol, n, seed):
    namespace = default_namespace(n)
    uids = sample_uids(n, namespace, Random(seed))
    shared = None
    if protocol in CRASH_RENAMING:
        node, config = CRASH_RENAMING[protocol]
        processes = [node(uid, config) for uid in uids]
    elif protocol == "obg":
        processes = [ObgHalvingNode(uid) for uid in uids]
    elif protocol == "balls":
        processes = [BallsIntoSlotsNode(uid) for uid in uids]
    else:
        config = byzantine_config_for(n, 1)
        corrupt = byzantine_strategies.corrupt_set(uids, 1, Random(seed + 1))
        factory = BYZANTINE[protocol]
        processes = [factory(uid, config) if uid in corrupt
                     else ByzantineRenamingNode(uid, config) for uid in uids]
        shared = SharedRandomness(seed + 3)
    return processes, CostModel(n=n, namespace=namespace), shared


def _adversary(kind, n, seed):
    if kind == "random":
        return RandomCrash(budget=n // 3, rate=0.1, rng=Random(seed))
    if kind == "hunter":
        # Half of a victim's in-flight messages still leak out.
        return CommitteeHunter(n // 3, Random(seed), deliver_fraction=0.5)
    return None


def _play(scenario, reference):
    """Everything one execution counted and every node's final state."""
    protocol, n, seed, adversary, fault_spec = scenario
    processes, cost, shared = _population(protocol, n, seed)
    network = (ReferenceNetwork if reference else SyncNetwork)(
        processes, cost, crash_adversary=_adversary(adversary, n, seed + 1),
        shared=shared, seed=seed + 2,
        fault_model=(build_fault_model(fault_spec, n, seed=seed)
                     if fault_spec else None))
    error = None
    try:
        network._start()
        while network._correct_pending() and network.round_no < ROUND_CAP:
            network.step()
    except Exception as failure:  # a fault may stall or break a protocol
        error = (type(failure).__name__, str(failure))
    if reference:
        observed = reference_observables(network)
    else:  # the fields of an ExecutionResult, read off a stopped engine
        observed = engine_observables(SimpleNamespace(
            metrics=network.metrics, results=network.finished,
            crashed=network.crashed))
    observed["error"] = error
    observed["state"] = [
        tuple(getattr(process, name, None) for name in STATE_FIELDS)
        for process in processes
    ]
    stats = network.fault_stats
    observed["fault_stats"] = stats.as_dict() if stats is not None else None
    return observed


def _protocol_scenarios(protocols, sizes):
    return st.tuples(
        st.sampled_from(protocols), sizes, st.integers(0, 999),
        st.sampled_from([None, "random", "hunter"]), _fault_entries(6))


class TestProtocolsAgainstTheUnsharedOracle:
    @settings(max_examples=120, deadline=None)
    @given(_protocol_scenarios(CRASH_PROTOCOLS, st.integers(3, 13)))
    def test_crash_renaming_and_the_baselines(self, scenario):
        assert _play(scenario, False) == _play(scenario, True)

    @settings(max_examples=12, deadline=None)
    @given(_protocol_scenarios(BYZANTINE_PROTOCOLS, st.integers(6, 10)))
    def test_byzantine_renaming(self, scenario):
        assert _play(scenario, False) == _play(scenario, True)

    @pytest.mark.parametrize("protocol",
                             CRASH_PROTOCOLS + BYZANTINE_PROTOCOLS)
    @pytest.mark.parametrize("adversary", [None, "random", "hunter"])
    def test_fault_free_runs_finish_identically(self, protocol, adversary):
        scenario = (protocol, 9, 5, adversary, [])
        engine = _play(scenario, False)
        assert engine == _play(scenario, True)
        if adversary is None or protocol in CRASH_PROTOCOLS:
            # (Byzantine renaming tolerates no crashes: it is compared
            # at the cap, like a run a link fault stalled.)
            assert engine["error"] is None
            assert engine["summary"]["rounds"] < ROUND_CAP


# ---------------------------------------------------------------------------
# (a') random scripts whose nodes derive from every inbox


def _summary(envelopes, shift):
    return tuple((env.sender, env.round_no, env.message.value + shift,
                  env.message.tag) for env in envelopes)


def _senders(envelopes, shift):
    return tuple(env.sender + shift for env in envelopes)


class DerivingNode(ScriptedNode):
    """A :class:`ScriptedNode` that reads its inboxes only through
    ``derive``: two functions, two argument values each."""

    def program(self, ctx):
        received = []
        for op in self.script:
            inbox = yield self._outgoing(op, ctx)
            received.append((
                len(inbox),
                derive(inbox, _summary, 0), derive(inbox, _summary, 1),
                derive(inbox, _senders, 0), derive(inbox, _senders, 1),
                derive(inbox, _summary, 0),
            ))
        return tuple(received)


class TestDerivedScripts:
    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    def test_derive_equals_the_plain_call(self, scenario):
        assert (_execute(*scenario, node=DerivingNode)
                == _execute(*scenario, reference=True, node=DerivingNode))


# ---------------------------------------------------------------------------
# Views, by hand


def _row(sender, value=0):
    return Envelope(sender, 1, Probe(value), sender + 100)


def _column():
    """Rows 0..5: a broadcast, then targeted rows; links 0-7 attached.

    ========  =======================  ====================
    link      targeted rows            view
    ========  =======================  ====================
    0, 7      none                     the common view
    1, 2      (1,)                     shared, two readers
    3         (1, 2)                   one reader
    4         (2,)                     one reader
    5         (3,)                     one reader
    6         (3, 3) -- a duplicate    one reader
    ========  =======================  ====================
    """
    column = ColumnarRound()
    column.add_broadcast(_row(0))               # row 0
    column.add_run(_row(1), (1, 2, 3))          # row 1
    column.add_run(_row(2), (3, 4))             # row 2
    column.add_run(_row(3), (5, 6, 6))          # row 3: link 6 duplicated
    column.add_broadcast(_row(4))               # row 4
    column.add_run(_row(5), (9,))               # row 5: link 9 is gone
    column.attach(range(8))
    return column, [LazyInbox(column, link) for link in range(8)]


def _count_calls(fn):
    def counted(*args):
        counted.calls.append(args)
        return fn(*args)
    counted.calls = []
    return counted


class TestViews:
    def test_recipients_of_the_same_rows_share_one_view(self):
        column, inboxes = _column()
        views = {link: column.view_of(link) for link in range(8)}
        assert views[0] is views[7] and views[1] is views[2]
        distinct = {id(view) for view in views.values()}
        assert len(distinct) == 6
        assert [views[link].readers for link in (0, 1, 3, 4, 5, 6)] == [
            2, 2, 1, 1, 1, 1]
        assert [views[link].rows for link in (0, 1, 3, 4, 5, 6)] == [
            (), (1,), (1, 2), (2,), (3,), (3, 3)]

    def test_a_view_lists_its_rows_in_global_send_order(self):
        column, inboxes = _column()
        senders = {link: [env.sender for env in inboxes[link]]
                   for link in range(8)}
        assert senders == {
            0: [0, 4], 7: [0, 4], 1: [0, 1, 4], 2: [0, 1, 4],
            3: [0, 1, 2, 4], 4: [0, 2, 4], 5: [0, 3, 4], 6: [0, 3, 3, 4]}
        # One envelope tuple per view, shared by its readers.
        assert inboxes[1]._materialize() is inboxes[2]._materialize()
        assert inboxes[5]._materialize() is not inboxes[6]._materialize()

    def test_len_and_truth_come_from_the_row_counts(self):
        column, inboxes = _column()
        assert [len(inboxes[link]) for link in range(8)] == [
            2, 3, 3, 4, 3, 3, 4, 2]
        assert all(view.envelopes is None
                   for view in map(column.view_of, range(8)))
        empty = ColumnarRound()
        empty.add_run(_row(1), (1,))
        empty.attach(range(3))
        quiet = [LazyInbox(empty, link) for link in range(3)]
        assert not quiet[0] and not (quiet[2] or ()) and quiet[1]
        assert empty.view_of(0).envelopes is None

    def test_derive_runs_once_per_view_function_and_arguments(self):
        column, inboxes = _column()
        senders = _count_calls(_senders)
        summary = _count_calls(_summary)
        for link in (1, 2, 1):
            assert derive(inboxes[link], senders, 0) == (0, 1, 4)
            assert derive(inboxes[link], senders, 10) == (10, 11, 14)
            assert derive(inboxes[link], summary, 0)[1] == (1, 1, 0, 0)
        assert derive(inboxes[0], senders, 0) == (0, 4)
        assert derive(inboxes[7], senders, 0) == (0, 4)
        assert [args[1:] for args in senders.calls] == [(0,), (10,), (0,)]
        assert len(summary.calls) == 1
        shared = derive(inboxes[1], senders, 0)
        assert shared is derive(inboxes[2], senders, 0)

    def test_a_view_with_one_reader_caches_nothing(self):
        column, inboxes = _column()
        senders = _count_calls(_senders)
        for link in (3, 4, 5, 6, 3):
            derive(inboxes[link], senders, 0)
        assert len(senders.calls) == 5
        assert column._memo == {}
        derive(inboxes[1], senders, 0)
        assert len(column._memo) == 1

    def test_derive_on_a_plain_sequence_is_a_plain_call(self):
        senders = _count_calls(_senders)
        envelopes = [_row(3), _row(1)]
        for _ in range(3):
            assert derive(envelopes, senders, 1) == (4, 2)
            assert derive(tuple(envelopes), senders, 1) == (4, 2)
        assert len(senders.calls) == 6
        assert all(args[0] is envelopes for args in senders.calls[::2])


# ---------------------------------------------------------------------------
# (b) it happens: white-box counts


def _counting(monkeypatch, module, name):
    counted = _count_calls(getattr(module, name))
    monkeypatch.setattr(module, name, counted)
    return counted


class TestComputedOnce:
    def test_one_committee_decision_per_phase_at_paper_constants(
            self, monkeypatch):
        decisions = _counting(monkeypatch, crash_renaming,
                              "_committee_decision")
        result = golden.CASES["crash-paper-n96"]()
        # 96 members, 21 phases, one inbox per phase: 21, not 2,016.
        assert len(decisions.calls) == 21 == result.rounds // 3
        assert golden.digest(result) == golden.GOLDEN["crash-paper-n96"]

    def test_one_halving_table_per_round_without_crashes(self, monkeypatch):
        tables = _counting(monkeypatch, obg_halving, "_halving_table")
        result = golden.CASES["obg-n33-f0"]()
        assert len(tables.calls) == result.rounds == 6
        assert golden.digest(result) == golden.GOLDEN["obg-n33-f0"]

    def test_one_claim_table_per_round_without_crashes(self, monkeypatch):
        claims = _counting(monkeypatch, balls_into_slots, "_claims")
        result = golden.CASES["balls-n33-f0"]()
        assert len(claims.calls) == result.rounds
        assert golden.digest(result) == golden.GOLDEN["balls-n33-f0"]

    def test_votes_are_collected_once_per_distinct_view(self, monkeypatch):
        collected = _counting(monkeypatch, comm, "_collect")
        tallied = _counting(monkeypatch, comm, "_tally")
        asked = []

        def counting(ask):
            def counted(self, inbox, kind, *args):
                asked.append(kind)
                return ask(self, inbox, kind, *args)
            return counted

        for name in ("collect", "tally"):
            monkeypatch.setattr(comm.CommitteeComm, name,
                                counting(getattr(comm.CommitteeComm, name)))
        result = golden.CASES["byz-withholder-n48"]()
        assert golden.digest(result) == golden.GOLDEN["byz-withholder-n48"]
        # The envelope tuple *is* the view (kept alive here, so ids are
        # unique): no (view, step, kind, members[, without]) was
        # computed twice.  A tally reads runs, not `_collect`'s table.
        tallies = [(id(envelopes), *args)
                   for envelopes, *args in tallied.calls]
        assert tallies and len(set(tallies)) == len(tallies)
        keys = [(id(envelopes), *args)
                for envelopes, *args in collected.calls]
        assert keys and len(set(keys)) == len(keys)
        # ~22 members ask every step; far fewer distinct answers exist.
        assert len(asked) > 5 * (len(keys) + len(tallies))
        assert {"gb-input", "gb-echo"} < set(asked)

    def test_the_committee_shares_one_view_tuple(self, monkeypatch):
        comms = []
        make_comm = ByzantineRenamingNode._make_comm

        def recording(self, links, params):
            made = make_comm(self, links, params)
            if not self.byzantine:
                comms.append(made)
            return made

        monkeypatch.setattr(ByzantineRenamingNode, "_make_comm", recording)
        result = golden.CASES["byz-withholder-n48"]()
        assert golden.digest(result) == golden.GOLDEN["byz-withholder-n48"]
        # Checked in bounds and filed by `id` once a round, not 21 times.
        assert len(comms) == 21
        assert all(made.view is comms[0].view for made in comms)

    def test_one_vote_is_built_and_sized_per_distinct_vote(self, monkeypatch):
        built, sized, voted = [], [], set()
        init, bit_size = SubVote.__init__, SubVote.bit_size
        sends = comm.CommitteeComm.sends

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.step)

        def counting_bit_size(self, cost):
            sized.append(self.step)
            return bit_size(self, cost)

        def recording_sends(self, kind, value, width):
            voted.add((self.step, kind, type(value), value))
            return sends(self, kind, value, width)

        monkeypatch.setattr(SubVote, "__init__", counting_init)
        monkeypatch.setattr(SubVote, "bit_size", counting_bit_size)
        monkeypatch.setattr(comm.CommitteeComm, "sends", recording_sends)
        result = golden.CASES["byz-withholder-n48"]()
        assert golden.digest(result) == golden.GOLDEN["byz-withholder-n48"]
        # The committee is in lockstep: a step is a round, and each
        # vote, the first one too, is one object per distinct vote of
        # its round (1,671 objects for 34,461 fan-outs; 1,688 while each
        # member built its own first vote).
        distinct = Counter(step for step, *_ in voted)
        for counted in (Counter(built), Counter(sized)):
            assert all(counted[step] <= distinct[step] for step in counted)
        assert len(sized) == len(built) == 1_671

    def test_a_view_votes_with_one_fanout_object(self, monkeypatch):
        sends = comm.CommitteeComm.sends
        fanouts: dict[tuple, set[int]] = {}
        kept = []  # every fan-out and member set stays alive: ids unique

        def recording_sends(self, kind, value, width):
            fanout = sends(self, kind, value, width)
            # A step is a round.
            if self.outgoing_value is None:
                kept.append((fanout, self._members))
                key = (self.step, id(self._members), kind, type(value),
                       value)
                fanouts.setdefault(key, set()).add(id(fanout))
            return fanout

        monkeypatch.setattr(comm.CommitteeComm, "sends", recording_sends)
        result = golden.CASES["byz-withholder-n48"]()
        assert golden.digest(result) == golden.GOLDEN["byz-withholder-n48"]
        # Members of one member set that vote alike in a round yield
        # one `Multicast` object, not one each.
        assert all(len(ids) == 1 for ids in fanouts.values())
        assert len(kept) > 20 * len(fanouts)

    @pytest.mark.parametrize("protocol, answers", [
        ("crash-paper", {1}), ("crash-split", {2})])
    def test_round_three_counts_each_distinct_answer_once(
            self, monkeypatch, protocol, answers):
        heard = []
        node_action = CrashRenamingNode._node_action

        def counting_node_action(self, responses, ctx):
            heard.append(len(responses))
            return node_action(self, responses, ctx)

        monkeypatch.setattr(CrashRenamingNode, "_node_action",
                            counting_node_action)
        engine = _play((protocol, 9, 5, None, []), False)
        # Nine members answer every node: from one shared decision with
        # the same `Response` nine times over, from two opinions of `p`
        # with two, and the pass over `messages(inbox)` keeps each once.
        assert engine["error"] is None and set(heard) == answers

    def test_a_reply_type_is_sized_once_per_run(self, monkeypatch):
        sized = []
        bit_size = crash_renaming.Response.bit_size

        def counting_bit_size(self, cost):
            sized.append(self)
            return bit_size(self, cost)

        monkeypatch.setattr(crash_renaming.Response, "bit_size",
                            counting_bit_size)
        result = golden.CASES["crash-paper-n33"]()
        assert golden.digest(result) == golden.GOLDEN["crash-paper-n33"]
        responses = result.metrics.sends_by_type["Response"]
        # 33 members send the same 33 answers in each of 18 phases: a
        # fixed-width type, sized once for all 19,602 of them.
        assert crash_renaming.Response.fixed_width
        assert len(sized) == 1 and responses == 33 * 33 * 18


class _RoundSized(Message):
    """A test device: its size is the round it is sent in, so one
    message *object* has a different size in every round."""

    def __init__(self, clock):
        self.clock = clock

    def payload_bits(self, cost):
        return self.clock["round"]


class _SharedScatterer(Process):
    """Every node answers links ``0..n-1`` from one shared tuple -- what
    ``derive`` hands a committee -- and here the same one every round."""

    def __init__(self, uid, messages, clock, rounds):
        super().__init__(uid)
        self.messages = messages
        self.clock = clock
        self.rounds = rounds

    def program(self, ctx):
        for round_no in range(1, self.rounds + 1):
            self.clock["round"] = round_no
            yield Scatter(range(ctx.n), self.messages)
        return self.uid


def test_reply_sizes_are_not_remembered_across_rounds():
    """A width-varying type (no ``fixed_width``) is sized per object,
    and that memo is keyed by identity, which names an object only
    while the round keeps it alive: the tuple is sized anew in every
    round."""
    n, rounds, clock = 5, 6, {}
    messages = tuple(_RoundSized(clock) for _ in range(n))
    result = run_network(
        [_SharedScatterer(uid + 1, messages, clock, rounds)
         for uid in range(n)], CostModel(n=n, namespace=4 * n))
    assert list(result.metrics.bits_per_round) == [
        n * n * (HEADER_BITS + round_no) for round_no in range(1, rounds + 1)]


# ---------------------------------------------------------------------------
# (c) a round is freed by refcounting alone


class _RoundWatcher(Process):
    """Derives from every inbox (shared views, targeted rows, a memo)
    and keeps only a weak reference to each round's column."""

    def __init__(self, uid, rounds, columns, memo_sizes):
        super().__init__(uid)
        self.rounds = rounds
        self.columns = columns
        self.memo_sizes = memo_sizes

    def program(self, ctx):
        for round_no in range(1, self.rounds + 1):
            outgoing = (broadcast(ctx.n, Probe(round_no)) if ctx.index % 2
                        else multicast((0, 1, 2), Probe(-round_no)))
            inbox = yield outgoing
            assert derive(inbox, _senders, 0)
            column = inbox._column
            self.columns.setdefault(round_no, weakref.ref(column))
            self.memo_sizes[round_no] = len(column._memo)
            del column
            if round_no > 2:
                # Round r's column is gone once round r + 2 is delivered.
                assert self.columns[round_no - 2]() is None
        return self.uid


def test_a_round_is_freed_by_refcounting_alone():
    columns, memo_sizes = {}, {}
    gc.collect()
    gc.disable()
    try:
        result = run_network(
            [_RoundWatcher(uid + 1, 6, columns, memo_sizes)
             for uid in range(6)], CostModel(n=6, namespace=24))
        alive = [round_no for round_no, ref in columns.items()
                 if ref() is not None]
    finally:
        gc.enable()
    assert result.rounds == 6 and sorted(columns) == [1, 2, 3, 4, 5, 6]
    # There was something to free: links 0-2 and links 3-5 each shared
    # a view, and each view left its derivation in the round's memo.
    assert memo_sizes == dict.fromkeys(range(1, 7), 2)
    assert alive == []


# ---------------------------------------------------------------------------
# (d) what nodes share, nobody can change


def _assert_read_only(value):
    if isinstance(value, tuple):
        with pytest.raises(TypeError):
            value[0:0] = ()
        for item in value:
            _assert_read_only(item)
    elif isinstance(value, frozenset):
        with pytest.raises(AttributeError):
            value.add(0)
    elif isinstance(value, MappingProxyType):
        with pytest.raises(TypeError):
            value[0] = 0
        with pytest.raises(AttributeError):
            value.clear()
        for item in value.values():
            _assert_read_only(item)
    elif isinstance(value, (Message, Interval)):
        with pytest.raises(AttributeError):  # FrozenInstanceError
            value.uid = 0
    else:
        assert value is None or isinstance(value, (int, str, bool)), value


def _envelopes(*messages):
    return [Envelope(link, 1, message, link + 100)
            for link, message in enumerate(messages)]


def _inbox(*messages):
    """Link 0's inbox of a round in which link ``k`` sent it
    ``messages[k]``: the rows the report helpers read."""
    column = ColumnarRound(1)
    for link, message in enumerate(messages):
        column.add_run(((link, link + 100, None), message), (0,))
    column.attach({0})
    return LazyInbox(column, 0)


def _answers(fanout):
    return fanout.targets, fanout.messages


ROOT = Interval(1, 4)

SHIPPED = {
    "committee links": lambda: crash_renaming._committee_links(
        _envelopes(CommitteeNotice(), CommitteeNotice())),
    # The report helpers read rows: `senders` and `messages`.
    "status reports": lambda: crash_renaming._status_reports(
        _inbox(Status(7, ROOT, 0, 1), Status(9, ROOT, 0, 2))),
    "committee answers": lambda: _answers(crash_renaming._committee_fanout(
        _inbox(Status(7, ROOT, 0, 1), Status(9, ROOT, 0, 2)), 2)),
    # The two tallies (`repro.sim.columnar.tally`) read messages.
    "halving table": lambda: obg_halving._halving_table(
        [HalvingStatus(7, ROOT), HalvingStatus(9, ROOT)]),
    "claims": lambda: balls_into_slots._claims(
        [SlotClaim(2, 7), SlotClaim(2, 9), SlotRelease(1, 5)],
        frozenset({4}), 5),
    "votes": lambda: comm._collect(
        _envelopes(SubVote(1, "x", (3, 4), 8), SubVote(1, "x", 0, 8)),
        1, "x", frozenset({0, 1})),
    # Link 2 (uid 102, a candidate) announces somebody else's identity.
    "committee view": lambda: byzantine_renaming._committee_view(
        _envelopes(Elect(100), Elect(101), Elect(100), Elect(103)),
        frozenset({100, 101, 102, 103})),
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_every_shipped_derived_value_is_read_only(name):
    value = SHIPPED[name]()
    assert value  # non-trivial: something to protect
    _assert_read_only(value)


def test_the_shipped_values_are_what_the_protocols_read():
    assert SHIPPED["committee links"]() == (0, 1)
    statuses, p_reported = SHIPPED["status reports"]()
    assert [link for link, _ in statuses] == [0, 1] and p_reported == 2
    links, replies = SHIPPED["committee answers"]()
    assert links == (0, 1)
    assert [reply.interval for reply in replies] == [
        Interval(1, 2), Interval(1, 2)]
    assert SHIPPED["halving table"]() == {(1, 4): ((7, 9), 0)}
    winners, seen, free, fresh = SHIPPED["claims"]()
    # The smallest identity wins a slot, not the first claim received.
    assert balls_into_slots._claims(
        [SlotClaim(2, 9), SlotClaim(2, 7)], frozenset(), 2)[0] == {2: 7}
    assert (dict(winners), seen, free, fresh) == (
        {2: 7}, {1, 2, 4}, (3, 5), True)
    assert SHIPPED["votes"]() == {0: (3, 4), 1: 0}
    view, links = SHIPPED["committee view"]()
    assert view == {0: 100, 1: 101, 3: 103} and links == (0, 1, 3)


def test_an_engine_inbox_is_a_lazy_inbox():
    """The sharing above is reached on the run path, not only by hand."""
    kinds = set()

    class Reader(Process):
        def program(self, ctx):
            inbox = yield broadcast(ctx.n, Probe(1))
            kinds.add(type(inbox))
            return len(inbox)

    result = run_network([Reader(uid + 1) for uid in range(3)],
                         CostModel(n=3, namespace=12))
    assert kinds == {LazyInbox} and set(result.results.values()) == {3}
