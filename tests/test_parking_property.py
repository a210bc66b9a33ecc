"""Parking is invisible, and it happens.

A program that yields ``UNTIL_MAIL`` says "I send nothing, and an empty
inbox would change nothing I do"; ``SyncNetwork.step`` keeps such a
node in a parked set it does not iterate and wakes it in the first
round some row of the column names it (``repro.sim.messages``,
DESIGN decision 14).  ``ReferenceNetwork`` does not know the value --
to it it is the empty send list it stands for -- and resumes every
node every round, which the contract allows; it is the oracle.

- (a) random programs mixing ``yield []``, ``UNTIL_MAIL`` and real
  sends (broadcasts, multicasts over tuples naming a link twice,
  scatters, ``Send`` lists), correct and Byzantine, under crash
  adversaries and link faults (drop, duplicate, corrupt, hold/release),
  cut off at a round cap: rounds, per-round messages and bits, what
  every node read and in which round (``ctx.current_round`` at every
  resumption that saw mail), outputs, ``FaultStats`` and the nodes
  pending at the cap must be equal on both executors;
- (b) each way of being woken, or not, by hand;
- (c) observability: the event stream of a run is the same with and
  without parking, but for the two counts that say how much was parked;
- (d) it happens: the listeners of a Byzantine run are not resumed (a
  count, not a clock), and a crashed sender's last fan-out is freed.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

import gc
import weakref
from dataclasses import dataclass
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import byzantine as byzantine_strategies
from repro.adversary.crash import RandomCrash, ScheduledCrash
from repro.core.byzantine_renaming import ByzantineRenamingNode
from repro.faults import build_fault_model
from repro.faults.channels import DuplicateDelivery, TransientPartition
from repro.obs import EventRecorder, idle_share
from repro.sim.columnar import messages
from repro.sim.messages import (
    UNTIL_MAIL,
    CostModel,
    Message,
    Multicast,
    Scatter,
    Send,
    broadcast,
    multicast,
)
from repro.sim.network import NonTerminationError, SyncNetwork
from repro.sim.node import Process
from tests import test_golden_digests as golden
from tests.test_columnar_property import _fault_entries
from tests.test_fastpath_ab import (
    ReferenceNetwork,
    engine_observables,
    reference_observables,
)

#: Round cap of every run here: nodes may wait for mail that never comes.
CAP = 12


@dataclass(frozen=True)
class Note(Message):
    value: int

    def payload_bits(self, cost):
        return 8 + self.value % 5


class Sleeper(Process):
    """Plays a script of ``(kind, slot, value)`` ops, one per round but
    for ``park``, which waits -- on ``UNTIL_MAIL`` -- for ``1 + value %
    2`` rounds with mail, looking at each (so a node can be woken, find
    the mail is not what it waits for, and park again).  With
    ``park=False`` it waits on ``[]`` instead: the same program as an
    engine that never parks runs it.

    What it returns is a function of its mail alone: one entry per
    resumption that is not an empty-handed wait, stamped with
    ``ctx.current_round``.  ``resumptions`` counts them all (white box:
    not part of the output).
    """

    def __init__(self, uid, script, pool=(), park=True, byzantine=False):
        super().__init__(uid)
        self.script = script
        self.pool = pool
        self.idle = UNTIL_MAIL if park else []
        self.byzantine = byzantine
        self.resumptions = 0

    def _outgoing(self, kind, slot, value, ctx):
        note = Note(value)
        if kind == "idle":
            return []
        if kind == "broadcast":
            return broadcast(ctx.n, note)
        if kind == "multicast":
            return multicast(self.pool[slot], note)
        if kind == "scatter":
            links = self.pool[slot]
            return Scatter(links, [Note(value + at)
                                   for at in range(len(links))])
        if kind == "sends":
            return [Send(to, note, claim=9 if value % 2 else None)
                    for to in self.pool[slot]]
        raise AssertionError(kind)

    @staticmethod
    def _look(inbox, how, ctx):
        if how == 0:  # mail, whatever it says: no view is even read
            return ctx.current_round, len(inbox)
        if how == 1:
            return ctx.current_round, tuple(
                note.value for note in messages(inbox))
        return ctx.current_round, tuple(
            (env.sender, env.round_no, env.message.value, env.sender_uid)
            for env in inbox)

    def program(self, ctx):
        seen = []
        for kind, slot, value in self.script:
            if kind == "park":
                waits = 1 + value % 2
                while waits:
                    inbox = yield self.idle
                    self.resumptions += 1
                    if inbox:
                        waits -= 1
                        seen.append(self._look(inbox, value % 3, ctx))
                continue
            inbox = yield self._outgoing(kind, slot, value, ctx)
            self.resumptions += 1
            seen.append(self._look(inbox, value % 3, ctx))
        return tuple(seen)


def _adversary(spec):
    if spec is None:
        return None
    kind, arg = spec
    if kind == "random":
        budget, seed = arg
        return RandomCrash(budget=budget, rate=0.3, rng=Random(seed))
    schedule, prefix = arg
    return ScheduledCrash(schedule, deliver_prefix=prefix)


def _execute(n, pool, scripts, byzantine, adversary, fault_spec, seed,
             reference=False, park=True, fault_model=None, observer=None):
    """One scenario's observables at the cap, and the network."""
    pool = [tuple(targets) for targets in pool]
    processes = [Sleeper(index + 1, scripts[index], pool, park=park,
                         byzantine=index in byzantine)
                 for index in range(n)]
    if fault_model is None and fault_spec:
        fault_model = build_fault_model(fault_spec, n, seed=seed)
    cost = CostModel(n=n, namespace=4 * n)
    if reference:
        network = ReferenceNetwork(
            processes, cost, crash_adversary=_adversary(adversary),
            seed=seed, fault_model=fault_model)
        network._start()
        while network._correct_pending() and network.round_no < CAP:
            network.step()
        pending = network._correct_pending()
        observed = reference_observables(network)
    else:
        network = SyncNetwork(
            processes, cost, crash_adversary=_adversary(adversary),
            seed=seed, fault_model=fault_model, max_rounds=CAP,
            observer=observer)
        try:
            network.run()
            pending = []
        except NonTerminationError as error:
            assert error.round_no == CAP
            pending = list(error.pending)
        observed = engine_observables(SimpleNamespace(
            metrics=network.metrics, results=network.finished,
            crashed=network.crashed))
    observed["pending"] = pending
    stats = network.fault_stats
    if stats is not None:
        if not pending and reference:  # the engine's run-end drain
            stats.expired = stats.in_flight()
        assert stats.held == (stats.released + stats.released_to_dead
                              + stats.in_flight())
        observed["fault_stats"] = stats.as_dict()
    return observed, network


# ---------------------------------------------------------------------------
# (a) random programs on both executors

OPS = st.tuples(
    st.sampled_from(["park", "park", "idle", "broadcast", "multicast",
                     "scatter", "sends"]),
    st.integers(0, 2), st.integers(0, 11))


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 7))
    rounds = draw(st.integers(1, 5))
    link = st.integers(0, n - 1)
    # Three target lists, any order, links may repeat.
    pool = [draw(st.lists(link, max_size=n + 1)) for _ in range(3)]
    scripts = [draw(st.lists(OPS, min_size=1, max_size=rounds))
               for _ in range(n)]
    byzantine = draw(st.sets(link, max_size=n // 3))
    victims = draw(st.lists(link, unique=True, max_size=n // 2))
    adversary = draw(st.sampled_from([
        None,
        ("random", (n // 2, draw(st.integers(0, 999)))),
        ("scheduled", (
            {round_no: [victim for at, victim in enumerate(victims)
                        if 1 + at % (rounds + 2) == round_no]
             for round_no in range(1, rounds + 3)},
            {victim: at % 3 for at, victim in enumerate(victims)})),
    ]))
    fault_spec = draw(_fault_entries(rounds + 2))
    seed = draw(st.integers(0, 999))
    return n, pool, scripts, byzantine, adversary, fault_spec, seed


class TestParkingAgainstTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_a_parked_node_is_a_node_that_yields_nothing(self, scenario):
        engine, network = _execute(*scenario)
        assert engine == _execute(*scenario, reference=True)[0]
        # Whoever is left is awake or parked, never both, never lost.
        assert not network._parked & set(network._awake)
        assert network._parked | set(network._awake) == network._alive_set
        assert list(network._pending) == sorted(network._alive_set)

    @settings(max_examples=100, deadline=None)
    @given(scenarios())
    def test_the_event_stream_does_not_say_who_parked(self, scenario):
        parked = _events(scenario, park=True)
        awake = _events(scenario, park=False)
        assert _but_for_parking(parked) == _but_for_parking(awake)
        for with_parking, without in zip(_round_ends(parked),
                                         _round_ends(awake)):
            assert without["parked"] == 0
            assert with_parking["resumed"] <= without["resumed"]
            assert (with_parking["parked"]
                    <= with_parking["alive"] == without["alive"])


def _events(scenario, park):
    recorder = EventRecorder(capacity=None)
    _execute(*scenario, park=park, observer=recorder)
    return recorder.events()


def _round_ends(events):
    return [event["data"] for event in events if event["kind"] == "round.end"]


def _but_for_parking(events):
    return [
        (event["kind"], event.get("round"), event.get("node"),
         {key: value for key, value in (event.get("data") or {}).items()
          if key not in ("resumed", "parked")})
        for event in events]


# ---------------------------------------------------------------------------
# (b) each way of being woken, by hand

PARK = ("park", 0, 2)     # one round with mail, read as envelopes
PARK_TWICE = ("park", 0, 5)   # two rounds with mail, read as envelopes
IDLE = ("idle", 0, 2)


def _both(n, pool, scripts, byzantine=(), adversary=None, fault_model=None):
    scenario = (n, pool, scripts, set(byzantine), adversary, [], 1)
    models = fault_model or (lambda: None)
    engine, network = _execute(*scenario, fault_model=models())
    reference, oracle = _execute(*scenario, reference=True,
                                 fault_model=models())
    assert engine == reference
    resumptions = [
        [process.resumptions for process in executor.processes]
        for executor in (network, oracle)]
    return engine, network, resumptions


def test_a_byzantine_sender_wakes_a_parked_node():
    engine, _, (parked, polled) = _both(
        3, [(0,)],
        [[PARK], [IDLE] * 4, [IDLE, IDLE, ("multicast", 0, 7)]],
        byzantine=[2])
    assert engine["outputs"][0] == ((3, ((2, 3, 7, 3),)),)
    # Resumed once, by the letter; the oracle polled it every round.
    assert (parked[0], polled[0]) == (1, 3)


def test_a_scatter_and_a_link_named_twice_wake_it():
    engine, _, (parked, _) = _both(
        3, [(0, 0), (2, 0, 0)],
        [[PARK_TWICE], [IDLE, ("scatter", 1, 10), IDLE],
         [IDLE, IDLE, IDLE, ("multicast", 0, 4), IDLE]])
    assert engine["outputs"][0] == (
        (2, ((1, 2, 11, 2), (1, 2, 12, 2))),
        (4, ((2, 4, 4, 3), (2, 4, 4, 3))))
    assert parked[0] == 2


def test_a_duplicated_delivery_wakes_it_once_and_is_read_twice():
    engine, _, (parked, _) = _both(
        2, [(0,)], [[PARK], [IDLE, ("sends", 0, 6), IDLE]],
        fault_model=lambda: DuplicateDelivery(1.0, copies=1, seed=3))
    assert engine["outputs"][0] == ((2, ((1, 2, 6, 2), (1, 2, 6, 2))),)
    assert engine["fault_stats"]["duplicated"] == 1
    assert parked[0] == 1


def test_mail_released_by_a_healing_partition_wakes_it():
    # Rounds 1-3 cut node 0 off; what node 1 sent it in round 2 is
    # released, stamped with the heal round, in round 4.
    engine, network, (parked, polled) = _both(
        2, [(0,)], [[PARK], [IDLE, ("multicast", 0, 8)] + [IDLE] * 3],
        fault_model=lambda: TransientPartition(1, 4, left=[0]))
    assert engine["outputs"][0] == ((4, ((1, 4, 8, 2),)),)
    assert engine["fault_stats"]["released"] == 1
    assert (parked[0], polled[0]) == (1, 4)
    assert network.contexts[0].current_round == 4


def test_mail_released_to_a_node_that_crashed_while_parked_is_booked():
    engine, network, (parked, _) = _both(
        3, [(0,)],
        [[PARK], [IDLE, ("multicast", 0, 8)] + [IDLE] * 3, [IDLE] * 5],
        adversary=("scheduled", ({3: [0]}, {})),
        fault_model=lambda: TransientPartition(1, 4, left=[0]))
    assert engine["crashed"] == {0} and 0 not in engine["outputs"]
    assert engine["fault_stats"]["released_to_dead"] == 1
    assert engine["fault_stats"]["released"] == 0
    assert parked[0] == 0 and not network._parked


def test_a_scheduled_crash_of_a_parked_node_costs_what_it_always_did():
    recorder = EventRecorder(capacity=None)
    scenario = (3, [(0,)], [[PARK], [IDLE] * 4, [IDLE] * 4], set(),
                ("scheduled", ({2: [0]}, {})), [], 1)
    engine, network = _execute(*scenario, observer=recorder)
    assert engine == _execute(*scenario, reference=True)[0]
    assert engine["crashed"] == {0} and network.adversary.crashed == {0}
    (crash,) = recorder.events("crash.apply")
    assert (crash["round"], crash["node"]) == (2, 0)
    assert crash["data"] == {"delivered": 0, "proposed": 0, "budget_left": 0}
    assert [end["parked"] for end in _round_ends(recorder.events())] == [
        1, 0, 0, 0]


def test_a_node_that_is_woken_and_parks_again_waits_for_the_next_letter():
    engine, _, (parked, polled) = _both(
        2, [(0,)],
        [[("park", 0, 3)],  # two rounds with mail, the content ignored
         [IDLE, ("multicast", 0, 1), IDLE, IDLE, ("multicast", 0, 2), IDLE]])
    assert engine["outputs"][0] == ((2, 1), (5, 1))
    assert (parked[0], polled[0]) == (2, 5)


def test_when_everybody_left_is_parked_the_cap_names_them():
    scenario = (4, [()], [[PARK], [IDLE, IDLE], [PARK], [PARK]], {3},
                None, [], 1)
    engine, network = _execute(*scenario)
    assert engine == _execute(*scenario, reference=True)[0]
    # Node 3 is Byzantine: parked like the others, but nobody's concern.
    assert engine["pending"] == [0, 2]
    assert network._parked == {0, 2, 3} and not network._awake
    assert network.round_no == CAP
    assert [process.resumptions for process in network.processes] == [
        0, 2, 0, 0]


class _Clocked(Process):
    """Broadcasts in round 3 and 7; everybody else parks and checks the
    clock against the mail's own round stamp whenever it is resumed."""

    def program(self, ctx):
        if ctx.index == 0:
            for round_no in range(1, 8):
                assert ctx.current_round == round_no - 1
                yield (broadcast(ctx.n, Note(round_no))
                       if round_no in (3, 7) else [])
            return ctx.current_round
        heard = []
        while len(heard) < 2:
            inbox = yield UNTIL_MAIL
            for envelope in inbox:
                assert envelope.round_no == ctx.current_round
                heard.append(ctx.current_round)
        return tuple(heard)


def test_the_clock_is_right_at_every_resumption():
    network = SyncNetwork([_Clocked(uid) for uid in (1, 2, 3)],
                          CostModel(n=3, namespace=12))
    network.run()
    assert network.finished == {0: 7, 1: (3, 7), 2: (3, 7)}


def test_until_mail_is_the_empty_send_list_it_stands_for():
    assert len(UNTIL_MAIL) == 0 and list(UNTIL_MAIL) == []
    assert not UNTIL_MAIL and UNTIL_MAIL == ()
    with pytest.raises(TypeError):
        UNTIL_MAIL[0] = Send(0, Note(1))
    with pytest.raises(AttributeError):
        UNTIL_MAIL.mark = 1


# ---------------------------------------------------------------------------
# (c) observability


def test_round_end_counts_the_resumed_and_the_parked():
    recorder = EventRecorder(capacity=None)
    scenario = (3, [(0,)],
                [[PARK], [IDLE, IDLE, ("multicast", 0, 7), IDLE], [PARK]],
                set(), None, [], 1)
    _execute(*scenario, observer=recorder)
    ends = _round_ends(recorder.events())
    assert [(end["resumed"], end["parked"]) for end in ends[:4]] == [
        (1, 2), (1, 2), (2, 1), (1, 1)]
    # 12 rounds of 3, 3, 3, 2 and then 1 alive: 5 of 19 were resumed.
    assert idle_share(recorder.events()) == pytest.approx(1 - 5 / 19)
    assert idle_share([]) is None


# ---------------------------------------------------------------------------
# (d) it happens


class _Counted:
    """A node program whose resumptions are counted."""

    def __init__(self, inner, tally):
        self._inner = inner
        self._tally = tally

    def send(self, value):
        self._tally.append(1)
        return self._inner.send(value)

    def __next__(self):
        return self._inner.send(None)

    def close(self):
        self._inner.close()


def test_the_listeners_of_a_byzantine_run_are_not_resumed(monkeypatch):
    """The ``byz_withholder`` shape at n=64: only the committee and the
    Byzantine nodes may cost a resumption per round.  A count, so an
    edit that quietly un-parks the listeners fails whatever the box."""
    tally = []
    program = ByzantineRenamingNode.program
    monkeypatch.setattr(
        ByzantineRenamingNode, "program",
        lambda self, ctx: _Counted(program(self, ctx), tally))
    n, f = 64, 2
    result = golden.byzantine_case(n, f, 0, golden.WITHHOLDER)
    committee = sum(1 for process in result.processes
                    if getattr(process, "was_committee", False))
    assert 0 < committee < n // 2
    assert len(tally) <= (committee + f) * result.rounds + 3 * n
    # Every node, every round, at the parent.
    assert len(tally) < n * result.rounds // 2


def test_a_crash_simulator_without_a_seat_is_not_resumed(monkeypatch):
    """``CrashSimulatingByzantine`` reads nothing after its two opening
    rounds: holding no committee seat it gets no mail and parks; holding
    one it is woken by the committee's traffic and parks again, as
    polling did.  A count: of the two simulators of this run one drew a
    candidate identity and one did not; at the parent both cost a
    resumption per round."""
    tallies = {}
    program = byzantine_strategies.CrashSimulatingByzantine.program
    monkeypatch.setattr(
        byzantine_strategies.CrashSimulatingByzantine, "program",
        lambda self, ctx: _Counted(
            program(self, ctx), tallies.setdefault(self.uid, [])))
    n, f = 64, 2
    result = golden.byzantine_case(
        n, f, 0, byzantine_strategies.crash_simulator)
    outputs = result.outputs_by_uid()
    assert len(set(outputs.values())) == len(outputs) == n - f
    # The seatless one: its two opening rounds and the announcements
    # that reach everybody; the seated one: mailed every round.
    assert sorted(map(len, tallies.values())) == [3, result.rounds]
    assert result.rounds == 46


class Tracked(Multicast):
    """``Multicast`` has slots; a weak reference needs one more."""

    __slots__ = ("__weakref__",)


def test_a_multicast_subclass_takes_the_multicast_path():
    """``Fanout`` is a plain class registered as a ``Sequence``: the
    engine's type checks still see a subclass of ``Multicast`` as one,
    so its fan-out is bounds-checked and charged whole, filed as one
    row, and never expanded into ``Send``s (the ``Send``-list path
    would iterate it)."""
    sent = []

    class Talker(Process):
        def program(self, ctx):
            for round_no in range(3):
                sends = Tracked((0, 1, 1), Note(round_no))
                sent.append(sends)
                inbox = yield sends
                # Link 1 is named twice by both talkers.
                assert [note.value for note in messages(inbox)] == (
                    [round_no] * 2 * (1 + ctx.index))
            return self.uid

    network = SyncNetwork([Talker(1), Talker(2)], CostModel(n=2, namespace=8))
    network.run()
    assert network.metrics.total_messages == 3 * 2 * 3
    assert len(sent) == 6
    assert all(sends._sends is None for sends in sent)


def test_a_crashed_senders_last_fanout_is_freed_with_its_crash_round():
    fanouts = []

    def fanout(ctx):
        sends = Tracked((0, 1), Note(ctx.current_round))
        if ctx.index == 0:
            fanouts.append(weakref.ref(sends))
        return sends

    class Talker(Process):
        def program(self, ctx):
            while True:
                yield fanout(ctx)

    network = SyncNetwork(
        [Talker(1), Talker(2)], CostModel(n=2, namespace=8),
        crash_adversary=ScheduledCrash({2: [0]}, deliver_prefix={0: 1}))
    gc.collect()
    gc.disable()
    try:
        network._start()
        network.step()
        network.step()  # node 0 crashes mid-send: one of two delivered
        assert network.crashed == {0} and len(fanouts) == 2
        # At the parent `_pending` held it until the run ended.
        assert fanouts[1]() is None
        assert 0 not in network._pending
    finally:
        gc.enable()


def test_a_crashed_nodes_last_inbox_is_freed_with_its_crash_round():
    columns = {}

    class Listener(Process):
        def program(self, ctx):
            while True:
                inbox = yield Multicast((0, 1), Note(ctx.current_round))
                if ctx.index == 0:
                    columns[ctx.current_round] = weakref.ref(inbox._column)

    network = SyncNetwork(
        [Listener(1), Listener(2)], CostModel(n=2, namespace=8),
        crash_adversary=ScheduledCrash({3: [0]}))
    gc.collect()
    gc.disable()
    try:
        network._start()
        for _ in range(3):
            network.step()
        # Node 0 crashed in round 3, suspended with round 2's inbox in
        # hand (node 1 has moved on to round 3's).  At the parent its
        # program -- hence that inbox and its column -- lived until the
        # run ended; `_retire` now closes it at the crash.
        assert network.crashed == {0} and sorted(columns) == [1, 2]
        assert columns[2]() is None
    finally:
        gc.enable()
