"""Blocks are invisible, and they happen.

A round's column keeps every fan-out whole: a delivery is a *block*
filed under its target tuple (found by ``id``, then by value), a row
becomes an ``Envelope`` the first time somebody reads it, and
``messages(inbox)`` reads a view without building one
(``repro.sim.columnar``).  None of that may be observable:

- (a) programs that yield, in one round and across senders, the *same*
  target tuple object, equal-but-distinct tuples, permuted tuples,
  tuples naming a link twice, ``range`` targets, ``Scatter``s sharing
  links and/or message tuples, plain ``Send`` lists with interleaved
  runs and forged claims, and empty fan-outs, run on ``SyncNetwork``
  and on the per-envelope oracle ``ReferenceNetwork`` under mid-send
  crash adversaries and link faults (drop, duplicate, corrupt,
  hold/release): what every node read -- ``list(inbox)``,
  ``messages(inbox)``, ``len(inbox)``, down to which entries are the
  same message object -- and everything counted must be equal;
- (b) white-box counts: the structure is really kept (and was not at
  the parent commit, by construction), and a fan-out object several
  senders yield is sized and filed once per round;
- (c) ``id`` keys are safe: the column pins what it has keyed;
- (d) ``messages`` on a plain sequence is the plain comprehension;
- (e) round 3 of crash renaming, driven by hand: the pass over
  ``distinct(inbox)`` skips a repeat by identity only, and honours
  ``Done`` only for a node that holds its name;
- (f) ``distinct`` on random columns -- broadcast rows, runs, scatters
  sharing message tuples or not, links listed twice, held rows, one
  message object in several groups -- is the identity dedupe of what
  the recipient reads, and it reads one row per decision of the paper
  run.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

from dataclasses import dataclass
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.crash_renaming as crash
from repro.adversary.crash import (
    CommitteeHunter,
    MidSendPartitioner,
    RandomCrash,
)
from repro.core.crash_renaming import (
    CrashRenamingConfig,
    CrashRenamingNode,
    Done,
    Response,
)
from repro.core.intervals import Interval
from repro.crypto.auth import Authenticator
from repro.faults import build_fault_model
from repro.faults.base import FaultModel, hold
from repro.sim.columnar import ColumnarRound, LazyInbox, distinct, messages
from repro.sim.messages import (
    CostModel,
    Envelope,
    Message,
    Multicast,
    Scatter,
    Send,
    broadcast,
    multicast,
)
from repro.sim.metrics import Metrics
from repro.sim.network import SyncNetwork
from repro.sim.node import Context, Process
from repro.sim.runner import run_network
from tests import test_golden_digests as golden
from tests.test_columnar_property import _fault_entries
from tests.test_fastpath_ab import (
    ReferenceNetwork,
    engine_observables,
    reference_observables,
)

# ---------------------------------------------------------------------------
# (a) every shape of fan-out, on both executors


@dataclass(frozen=True)
class Letter(Message):
    value: int

    def payload_bits(self, cost):
        return 8 + self.value % 5


class World:
    """What the nodes of one execution share: the target tuples several
    senders name (the very same objects), the message tuples several
    scatters answer from, and a registry that numbers every message
    *object* in the order it is first read -- executions agree on the
    numbering iff they agree on which inbox entries are the same
    object."""

    def __init__(self, pool):
        self.pool = [tuple(targets) for targets in pool]
        self._replies = {}
        self._serials = {}
        self._alive = []
        #: (round, sender) -> the envelope instances read for it.
        self.read = {}

    def replies(self, round_no, slot):
        key = (round_no, slot)
        if key not in self._replies:
            self._replies[key] = tuple(
                Letter(100 * round_no + at)
                for at in range(len(self.pool[slot])))
        return self._replies[key]

    def serial(self, message):
        self._alive.append(message)
        return self._serials.setdefault(id(message), len(self._serials))


#: Ops whose traffic is one row: all its readers hold one envelope.
ONE_ROW = ("broadcast", "same", "equal", "permuted", "range")


class ShapedNode(Process):
    """Plays a per-round script of fan-out shapes and records every
    inbox the way the script says to read it."""

    def __init__(self, uid, script, world):
        super().__init__(uid)
        self.script = script
        self.world = world

    def _outgoing(self, op, ctx, round_no):
        kind, slot, value = op[:3]
        pool = self.world.pool
        letter = Letter(value)
        if kind == "broadcast":
            return broadcast(ctx.n, letter)
        if kind == "same":  # the pool's own tuple: one id for all senders
            return multicast(pool[slot], letter)
        if kind == "equal":  # an equal tuple of its own
            return multicast(list(pool[slot]), letter)
        if kind == "permuted":
            return multicast(pool[slot][::-1], letter)
        if kind == "range":
            low = min(slot, ctx.n)
            return Multicast(range(low, min(ctx.n, low + value % 4)), letter)
        if kind == "scatter":
            links = pool[slot] if value % 2 else list(pool[slot])
            replies = (self.world.replies(round_no, slot) if value % 3
                       else [Letter(value + at) for at in range(len(links))])
            return Scatter(links, replies)
        if kind == "sends":
            # Three message objects, interleaved: a run ends wherever
            # the object or the claim changes.
            letters = [letter, Letter(value), Letter(value + 1)]
            return [Send(to, letters[(at + slot) % 3 % (1 + value % 3)],
                         claim=7 if (at + value) % 4 == 0 else None)
                    for at, to in enumerate(pool[slot])]
        if kind == "empty":
            return [Multicast((), letter), Scatter((), ()), []][slot]
        raise AssertionError(kind)

    def program(self, ctx):
        received = []
        serial = self.world.serial
        for round_no, op in enumerate(self.script, start=1):
            inbox = yield self._outgoing(op, ctx, round_no)
            how = op[3]
            seen = [len(inbox)] if how % 2 else []
            if how in (1, 2):
                seen.append(tuple(map(serial, messages(inbox))))
            if how in (2, 3, 4):
                listing = list(inbox)
                seen.append(tuple(
                    (env.sender, env.round_no, serial(env.message),
                     env.message.value, env.sender_uid, env.claimed_sender)
                    for env in listing))
                seen.append(tuple(map(serial, messages(inbox))))
                assert len(inbox) == len(listing)
                if type(inbox) is LazyInbox:
                    self._engine_checks(inbox, listing)
            received.append(tuple(seen))
        return tuple(received)

    def _engine_checks(self, inbox, listing):
        """What only the engine promises: instances, not just values."""
        assert all(inbox[at] is env for at, env in enumerate(listing))
        assert all(env.message is message
                   for env, message in zip(listing, messages(inbox)))
        assert messages(inbox) is messages(inbox)
        assert type(messages(inbox)) is tuple
        for env in listing:
            self.world.read.setdefault(
                (env.round_no, env.sender), []).append(env)


#: One round of one node: (shape, pool slot, value, how to read).  The
#: inbox is read 0: not at all; 1: len, messages; 2: messages,
#: envelopes, messages; 3: len, envelopes, messages; 4: envelopes,
#: messages.
OPS = st.tuples(
    st.sampled_from(ONE_ROW + ("scatter", "sends", "empty")),
    st.integers(0, 2), st.integers(0, 11), st.integers(0, 4))


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 7))
    rounds = draw(st.integers(1, 4))
    link = st.integers(0, n - 1)
    # Three target lists, any order, links may repeat.
    pool = [draw(st.lists(link, max_size=n + 2)) for _ in range(3)]
    scripts = [draw(st.lists(OPS, min_size=1, max_size=rounds))
               for _ in range(n)]
    adversary = draw(st.sampled_from([None, "random", "hunter", "splitter"]))
    fault_spec = draw(_fault_entries(rounds))
    seed = draw(st.integers(0, 999))
    return n, pool, scripts, adversary, fault_spec, seed


def _adversary(kind, n, seed):
    if kind == "random":
        return RandomCrash(budget=n // 2, rate=0.3, rng=Random(seed))
    if kind == "hunter":
        return CommitteeHunter(n // 2, Random(seed), deliver_fraction=0.5)
    if kind == "splitter":
        return MidSendPartitioner(n // 2, Random(seed))
    return None


def _execute(n, pool, scripts, adversary, fault_spec, seed, reference=False,
             fault_model=None, node=ShapedNode):
    """One scenario's observables, and the world its nodes shared."""
    world = World(pool)
    processes = [node(index + 1, scripts[index], world)
                 for index in range(n)]
    if fault_model is None and fault_spec:
        fault_model = build_fault_model(fault_spec, n, seed=seed)
    network = (ReferenceNetwork if reference else SyncNetwork)(
        processes, CostModel(n=n, namespace=4 * n),
        crash_adversary=_adversary(adversary, n, seed + 1), seed=seed,
        fault_model=fault_model,
        # Forged claims reach the receiver: headers carry them.
        authenticator=Authenticator(enabled=False))
    network.run()
    if reference:
        observed = reference_observables(network)
    else:  # the fields of an ExecutionResult, read off a finished engine
        observed = engine_observables(SimpleNamespace(
            metrics=network.metrics, results=network.finished,
            crashed=network.crashed))
    stats = network.fault_stats
    observed["fault_stats"] = stats.as_dict() if stats is not None else None
    return observed, world


class TestEveryShapeAgainstTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(scenarios())
    def test_blocks_rows_and_messages_are_invisible(self, scenario):
        engine, world = _execute(*scenario)
        assert engine == _execute(*scenario, reference=True)[0]
        n, pool, scripts, adversary, fault_spec, seed = scenario
        if fault_spec:
            return  # a faulted sender's sends are a row each
        # Two recipients of one row read the same envelope instance.
        for (round_no, sender), envelopes in world.read.items():
            if scripts[sender][round_no - 1][0] in ONE_ROW:
                assert len({id(env) for env in envelopes}) == 1


class _HoldRound(FaultModel):
    """Holds every letter of one round until the next."""

    def __init__(self, round_no):
        self.round_no = round_no

    def plan_round(self, round_no, delivered, alive):
        if round_no != self.round_no:
            return {}
        verdict = hold(round_no + 1)
        return {sender: dict.fromkeys(range(len(sends)), verdict)
                for sender, sends in sorted(delivered.items()) if sends}


def test_released_mail_is_read_beside_a_scatter_and_a_multicast():
    n = 5
    pool = [(0, 1, 2, 3, 4), (4, 2, 2, 0), (1, 3)]
    everything = 3  # len, envelopes, messages
    scripts = [
        [("sends", 0, node, everything), ("scatter", 0, 5, everything),
         ("same", 1, node, everything)]
        for node in range(n)]
    scripts[3] = scripts[3][:2] + [("scatter", 1, 3, everything)]
    scenario = (n, pool, scripts, None, [], 3)
    engine, _ = _execute(*scenario, fault_model=_HoldRound(1))
    reference, _ = _execute(*scenario, reference=True,
                            fault_model=_HoldRound(1))
    assert engine == reference
    assert engine["fault_stats"]["released"] == n * n
    # Round 2 at node 0: five released letters, then five answers.
    round_two = engine["outputs"][0][1]
    assert round_two[0] == 10
    assert [entry[0] for entry in round_two[1]] == [0, 1, 2, 3, 4] * 2


# ---------------------------------------------------------------------------
# (b) it happens: white-box counts


@pytest.fixture
def built(monkeypatch):
    """The message of every ``Envelope`` constructed, through any name."""
    built = []
    new = Envelope.__new__

    def counting_new(cls, *args, **kwargs):
        envelope = new(cls, *args, **kwargs)
        built.append(envelope.message)
        return envelope

    monkeypatch.setattr(Envelope, "__new__", counting_new)
    return built


@pytest.fixture
def columns(monkeypatch):
    """Every round's column, in round order, with the ``(targets,
    stride)`` of every block filed into it."""
    columns = []
    attach = ColumnarRound.attach
    file = ColumnarRound._file

    def recording_file(self, targets, first, stride=0):
        self.__dict__.setdefault("filed", []).append((tuple(targets), stride))
        return file(self, targets, first, stride)

    def recording_attach(self, alive):
        columns.append(self)
        return attach(self, alive)

    class Recorded(ColumnarRound):
        """``ColumnarRound`` has slots; the recorder needs a dict."""

        _file = recording_file
        attach = recording_attach

    monkeypatch.setattr("repro.sim.network.ColumnarRound", Recorded)
    return columns


@pytest.fixture
def proposals(monkeypatch):
    """Every round's ``(n, delivered sends)``, in round order; kept, so
    an ``id`` names one object for as long as the test runs."""
    proposals = []
    apply = SyncNetwork._apply_crash_plan

    def recording_apply(self, proposed):
        delivered = apply(self, proposed)
        proposals.append((self.n, delivered))
        return delivered

    monkeypatch.setattr(SyncNetwork, "_apply_crash_plan", recording_apply)
    return proposals


def _charged_once(delivered, n, widths):
    """``(sizings, filings)`` a fault-free round's charge makes.

    Filings: one per distinct fan-out object, or per sender of a claimed
    multicast (none for a whole-network fan-out, a broadcast row), one
    per maximal constant-``(message, claim)`` run of a plain ``Send``
    list.  Sizings -- ``message_bits`` calls: a fixed-width class is
    sized once per run (``widths``, the classes sized so far, carried
    from round to round) and read by class after that; any other message
    once per filed fan-out, or per run of a list.  A scatter of one fixed-width class is sized as a
    whole; one that mixes classes, or is not fixed-width, per message."""
    sized = filed = 0
    seen = set()

    def sizing(message):
        cls = type(message)
        if cls in widths:
            return 0
        if cls.fixed_width:
            widths.add(cls)
        return 1

    for sends in delivered.values():
        if not sends or id(sends) in seen:
            continue
        if isinstance(sends, Scatter):
            kinds = {type(message) for message in sends.messages}
            if len(kinds) == 1 and next(iter(kinds)).fixed_width:
                sized += sizing(sends.messages[0])
            else:
                sized += len(sends.messages)
                widths.update(cls for cls in kinds if cls.fixed_width)
            filed += 1
        elif isinstance(sends, Multicast):
            sized += sizing(sends.message)
            filed += sends.targets != range(n)
            if sends.claim is not None:
                continue  # its next sender is filed anew
        else:
            runs = [send.message for at, send in enumerate(sends)
                    if at == 0 or send.message is not sends[at - 1].message
                    or send.claim != sends[at - 1].claim]
            sized += sum(map(sizing, runs))
            filed += len(runs)
        seen.add(id(sends))
    return sized, filed


class TestKeptWhole:
    def test_no_answer_of_the_paper_run_ever_becomes_an_envelope(
            self, built, columns):
        result = golden.CASES["crash-paper-n96"]()
        assert golden.digest(result) == golden.GOLDEN["crash-paper-n96"]
        assert result.metrics.sends_by_type["Response"] == 193_536
        # 193,536 at the parent: an envelope per scatter row, at fill.
        assert not any(isinstance(message, Response) for message in built)
        # The notices and the status reports are read as rows too
        # (`senders` beside `messages`): no envelope at all, where
        # 2 * 96 * 21 were built before the reports were, and 96 * 21
        # before the notices were.
        assert built == []
        assert len(columns) == result.rounds == 63
        for round_no, column in enumerate(columns, start=1):
            if round_no % 3 == 1:  # announcements: broadcast rows only
                assert not column._groups and len(column.b_seq) == 96
                continue
            # 96 reporters name the committee tuple `derive` handed all
            # of them, 96 members the links of their one decision.
            (targets, stride), = column._groups
            assert (len(targets), stride) == (96, round_no % 3 == 0)
            assert len(column._groups[targets, stride]) == 96
            assert len(column._by_id) == 1

    def test_equal_view_tuples_of_a_vote_round_are_one_group(
            self, columns, proposals):
        result = golden.CASES["byz-withholder-n48"]()
        assert golden.digest(result) == golden.GOLDEN["byz-withholder-n48"]
        assert len(columns) == len(proposals) == result.rounds
        vote_rounds = one_vote = 0
        for column, (n, delivered) in zip(columns, proposals):
            filed = column.__dict__.get("filed", [])
            assert len(column._groups) == len(set(filed))
            # Every record is a broadcast row, in one block of one group,
            # a scatter's repeat -- one record (its message tuple) in the
            # group of the block it repeats -- or a row a read resolved
            # from such a record (`_place`).
            rows = [*column.b_seq, *column._place]
            for (targets, stride), firsts in column._groups.items():
                for first in firsts:
                    rows += range(first, first + (
                        len(targets) if stride and type(
                            column.msg[first]) is not tuple else 1))
            assert sorted(rows) == list(range(len(column.msg)))
            # One filing per distinct fan-out object, not per sender: a
            # repeat joins the group its first sender's block opened.
            assert len(filed) == _charged_once(delivered, n, set())[1]
            (firsts, *others) = column._groups.values() or [[]]
            if len(firsts) >= 20 and not others:
                # ~21 members name the one view tuple they derived, so
                # the group is found by `id` (it was found by value
                # when each member sorted a tuple of its own).
                assert len(column._by_id) == 1
                vote_rounds += 1
                # Members who vote alike yield one multicast: one filing.
                one_vote += len(filed) == 1
        assert vote_rounds > 1000 and one_vote > 1000

    def test_a_shared_fan_out_is_sized_and_filed_once(
            self, monkeypatch, proposals):
        """35,518 ``message_bits`` and 34,530 ``_file`` calls at the
        parent: one per member and round."""
        calls = {"message_bits": 0, "_file": 0}

        def counting(cls, name):
            method = getattr(cls, name)

            def counted(self, *args):
                calls[name] += 1
                return method(self, *args)

            monkeypatch.setattr(cls, name, counted)

        counting(Metrics, "message_bits")
        counting(ColumnarRound, "_file")
        result = golden.CASES["byz-withholder-n48"]()
        assert golden.digest(result) == golden.GOLDEN["byz-withholder-n48"]
        widths = set()
        sized, filed = map(sum, zip(*[
            _charged_once(delivered, n, widths)
            for n, delivered in proposals]))
        assert (calls["message_bits"], calls["_file"]) == (sized, filed)
        # (2,745, 1,757) before the members that rank alike shared one
        # distribution `Scatter`: 17 filings and 799 sizings of `NewId`s;
        # (1,946, 1,740) while every filing of a fixed-width message
        # called `message_bits`, where the charge now reads its class;
        # (1,691, 1,740) while step 1's votes, cast before any read, were
        # each member's own, where they are kept on the member set now.
        assert (sized, filed) == (1_674, 1_723)
        # 34,552 sender-rounds, 1,745 distinct fan-out objects (1,762
        # with step 1's votes unshared, 1,779 before that).
        assert sum(1 for _, delivered in proposals
                   for sends in delivered.values() if sends) == 34_552
        assert sum(len({id(sends) for sends in delivered.values() if sends})
                   for _, delivered in proposals) == 1_745

    def test_an_unread_round_builds_nothing_and_walks_nothing(
            self, built, monkeypatch):
        walks = []
        group = ColumnarRound._group
        monkeypatch.setattr(
            ColumnarRound, "_group",
            lambda self: walks.append(self) or group(self))

        class Deaf(Process):
            def program(self, ctx):
                for round_no in range(4):
                    yield [broadcast(ctx.n, Letter(1)),
                           multicast((0, 1, 1), Letter(2)),
                           Scatter((2, 0), (Letter(3), Letter(4))),
                           [Send(1, Letter(5)), Send(2, Letter(6))],
                           ][(round_no + ctx.index) % 4]
                return self.uid

        result = run_network([Deaf(uid + 1) for uid in range(4)],
                             CostModel(n=4, namespace=16))
        assert result.rounds == 4 and result.metrics.total_messages == 44
        assert built == [] and walks == []


# ---------------------------------------------------------------------------
# (c) ids are pinned


class _Reader(Process):
    """Broadcasts for ``rounds`` rounds and returns the senders it read
    each round, in order."""

    def __init__(self, uid, rounds):
        super().__init__(uid)
        self.rounds = rounds

    def program(self, ctx):
        read = []
        for _ in range(self.rounds):
            inbox = yield broadcast(ctx.n, Letter(ctx.index))
            read.append(tuple(
                (env.sender, env.message.value) for env in inbox))
        return tuple(read)


def test_ids_of_released_letters_are_not_reused_within_a_fill():
    """Round 1 is held whole: 72 x 72 letters are released in round 2,
    each filed under a temporary ``(to,)``.  From the second sender on,
    the temporary equals a tuple already keyed and would be freed on the
    spot -- and the next one, of equal size, allocated in its place and
    found under its id."""
    n = 72
    result = run_network([_Reader(uid + 1, 2) for uid in range(n)],
                         CostModel(n=n, namespace=4 * n),
                         fault_model=_HoldRound(1))
    assert result.fault_stats.released == n * n
    everyone = tuple((sender, sender) for sender in range(n))
    for link in range(n):
        assert result.results[link] == ((), everyone + everyone)


# ---------------------------------------------------------------------------
# (d) messages()


def _envelopes(*values):
    return [Envelope(link, 1, Letter(value), link + 100)
            for link, value in enumerate(values)]


class TestMessages:
    def test_on_a_plain_sequence_it_is_the_plain_comprehension(self):
        envelopes = _envelopes(3, 1, 2)
        for inbox in (envelopes, tuple(envelopes), iter(envelopes)):
            read = messages(inbox)
            assert type(read) is tuple
            assert all(message is envelope.message
                       for message, envelope in zip(read, envelopes))
            assert len(read) == 3
        assert messages([]) == ()

    def test_it_is_one_read_only_object_per_view(self):
        column = ColumnarRound(4)
        column.add_broadcast(((0, 100, None), Letter(0)))
        column.add_run(((1, 101, None), Letter(1)), (1, 2, 2))
        column.add_scatter((2, 102, None), (Letter(2), Letter(3)), (0, 3))
        column.attach(range(5))
        inboxes = [LazyInbox(column, link) for link in range(5)]
        read = {link: messages(inboxes[link]) for link in range(5)}
        assert {link: [letter.value for letter in letters]
                for link, letters in read.items()} == {
            0: [0, 2], 1: [0, 1], 2: [0, 1, 1], 3: [0, 3], 4: [0]}
        assert type(read[1]) is tuple
        with pytest.raises(TypeError):
            read[1][0] = Letter(9)
        assert all(messages(inboxes[link]) is read[link] for link in range(5))
        # No envelope was asked for, so none of the four rows has one...
        assert len(column.msg) == 4 and column.env == {}
        # ...until somebody does; it then carries the column's round.
        assert [(env.sender, env.round_no, env.message.value, env.sender_uid)
                for env in inboxes[2]] == [
            (0, 4, 0, 100), (1, 4, 1, 101), (1, 4, 1, 101)]
        assert inboxes[2][1] is inboxes[2][2] is inboxes[1][1]
        # ...and only the rows read as envelopes: not the scatter's two.
        assert sorted(column.env) == [0, 1]

    def test_a_row_filed_with_its_envelope_keeps_it(self):
        """Held mail was stamped when it was held: the row is that
        envelope, beside rows that get theirs when read."""
        stamped = Envelope(3, 9, Letter(7), 103)
        early = Envelope(2, 8, Letter(6), 102)
        column = ColumnarRound(4)
        column.add_broadcast(((0, 100, None), Letter(0)))
        column.add_run(stamped, (1,))
        column.add_run(((1, 101, None), Letter(1)), (1, 2))
        column.add_broadcast(early)
        column.attach(range(3))
        inboxes = [LazyInbox(column, link) for link in range(3)]
        assert [letter.value for letter in messages(inboxes[1])] == [
            0, 7, 1, 6]
        assert inboxes[1][1] is stamped and inboxes[0][1] is early
        assert [(env.sender, env.round_no) for env in inboxes[2]] == [
            (0, 4), (1, 4), (2, 8)]
        assert inboxes[2][0] is inboxes[0][0] is inboxes[1][0]

    def test_readers_of_one_view_share_the_tuple(self):
        column = ColumnarRound()
        column.add_run(((0, 100, None), Letter(0)), (1, 2))
        column.attach(range(4))
        inboxes = [LazyInbox(column, link) for link in range(4)]
        assert messages(inboxes[1]) is messages(inboxes[2])
        assert messages(inboxes[0]) is messages(inboxes[3]) == ()


# ---------------------------------------------------------------------------
# (e) round 3 of crash renaming, by hand


def _at_round_three(n=4, **config):
    """A never-elected node of an ``n``-network, stopped where it waits
    for the committee's answers, and the responses its node action got."""
    node = CrashRenamingNode(
        5, CrashRenamingConfig(election_constant=0.0, **config))
    heard = []
    node_action = node._node_action
    node._node_action = lambda responses, ctx: (
        heard.append(list(responses)), node_action(responses, ctx))[1]
    cost = CostModel(n=n, namespace=4 * n)
    program = node.program(Context(
        n=n, namespace=4 * n, index=0, rng=Random(0), cost=cost))
    next(program)       # round 1: nothing to announce
    program.send([])    # round 2: no committee heard
    program.send([])    # round 3: no decision to send
    return node, program, heard


def _answers(*responses):
    return [Envelope(link, 3, response, link + 100)
            for link, response in enumerate(responses)]


class TestRoundThreeByHand:
    def test_a_repeat_is_skipped_by_identity_never_by_equality(self):
        node, program, heard = _at_round_three()
        answer = Response(5, Interval(1, 2), 1, 0)
        equal = Response(5, Interval(1, 2), 1, 0)
        other = Response(5, Interval(3, 4), 1, 2)
        assert equal == answer and equal is not answer
        program.send(_answers(answer, answer, equal, equal, other, answer))
        assert len(heard) == 1
        # Every repeat, not only a consecutive one; `equal` is another
        # object, so it is read.
        assert [id(response) for response in heard[0]] == [
            id(answer), id(equal), id(other)]
        assert (node.interval, node.depth, node.p) == (Interval(1, 2), 1, 2)

    def test_done_is_not_for_a_node_without_its_name(self):
        node, program, heard = _at_round_three(early_stopping=True)
        assert not node.interval.is_singleton
        answer = Response(5, Interval(1, 2), 1, 0)
        # The next phase's announcement round, not a return.
        assert program.send(_answers(Done(), answer, Done())) == []
        assert heard == [[answer]] and node.interval == Interval(1, 2)

    def test_done_ends_a_node_that_holds_its_name(self):
        node, program, heard = _at_round_three(n=1 + 1, early_stopping=True)
        program.send(_answers(Response(5, Interval(2, 2), 1, 0)))
        program.send([])
        program.send([])
        assert node.interval.is_singleton and len(heard) == 1
        with pytest.raises(StopIteration) as stop:
            program.send(_answers(Done()))
        assert stop.value.value == 2 and len(heard) == 1


# ---------------------------------------------------------------------------
# (f) distinct()


def _dedupe(read):
    """The oracle: each object once, where it first occurs."""
    seen, kept = set(), []
    for message in read:
        if id(message) not in seen:
            seen.add(id(message))
            kept.append(message)
    return kept


#: One filing of a synthetic column: (kind, pool slot, which tuple,
#: letter, targets of a run).
FILINGS = ("broadcast", "run", "held", "shared", "copied", "own")


@st.composite
def filled_columns(draw):
    n = draw(st.integers(1, 6))
    link = st.integers(0, n - 1)
    # A few message objects, drawn again and again: one object lands in
    # broadcast rows, runs and scatters alike.
    letters = [Letter(value) for value in range(draw(st.integers(1, 4)))]
    letter = st.sampled_from(letters)
    # Two target tuples, links may repeat, each with two message tuples
    # that several scatters may answer from.
    pool = [tuple(draw(st.lists(link, min_size=1, max_size=n + 2)))
            for _ in range(2)]
    answers = [[tuple(draw(st.lists(letter, min_size=len(targets),
                                    max_size=len(targets))))
                for _ in range(2)] for targets in pool]
    filings = draw(st.lists(st.tuples(
        st.sampled_from(FILINGS), st.integers(0, 1), st.integers(0, 1),
        letter, st.lists(link, max_size=n + 1)), max_size=12))
    attached = draw(st.sets(link, min_size=1))
    return pool, answers, filings, attached


def _fill(pool, answers, filings):
    column = ColumnarRound(2)
    for sender, (kind, slot, which, letter, targets) in enumerate(filings):
        header = (sender, 100 + sender, None)
        links = pool[slot] if which else list(pool[slot])
        if kind == "broadcast":
            column.add_broadcast((header, letter))
        elif kind == "run":
            column.add_run((header, letter), tuple(targets))
        elif kind == "held":  # stamped in the round it was held
            column.add_run(Envelope(sender, 1, letter, 100 + sender),
                           tuple(targets))
        elif kind == "shared":  # one decision, the very same tuple
            column.add_scatter(header, answers[slot][which], links)
        elif kind == "copied":  # the same objects, a tuple of its own
            column.add_scatter(header, tuple(list(answers[slot][which])),
                               links)
        else:  # answers nobody else sends
            column.add_scatter(header, tuple(
                Letter(10 + at) for at in range(len(links))), links)
    return column


def _ids(read):
    return [id(message) for message in read]


class TestDistinct:
    @settings(max_examples=400, deadline=None)
    @given(filled_columns())
    def test_it_is_the_identity_dedupe_of_what_the_recipient_reads(
            self, scenario):
        pool, answers, filings, attached = scenario
        column = _fill(pool, answers, filings)
        column.attach(attached)
        for recipient in sorted(attached):
            # First, before anything of the view is built.
            once = distinct(LazyInbox(column, recipient))
            assert type(once) is tuple
            inbox = LazyInbox(column, recipient)
            envelopes = list(inbox)
            assert _ids(once) == _ids(_dedupe(messages(inbox))) == _ids(
                _dedupe([envelope.message for envelope in envelopes]))
            # The oracle's inbox is a plain sequence of the same rows.
            assert _ids(distinct(envelopes)) == _ids(once)
            assert distinct(LazyInbox(column, recipient)) == once

    def test_a_decision_is_read_once_however_many_members_send_it(self):
        links = (0, 1, 1, 2)  # link 1 is listed twice
        decision = (Letter(1), Letter(2), Letter(3), Letter(4))
        other = (decision[1], Letter(5), Letter(5), Letter(6))
        column = ColumnarRound(3)
        column.add_run(Envelope(9, 2, decision[2], 109), (1,))
        for member in range(3):
            column.add_scatter((member, 100 + member, None), decision, links)
        column.add_scatter((3, 103, None), other, list(links))
        column.add_scatter((4, 104, None), decision, links)
        column.add_broadcast(((5, 105, None), decision[1]))
        column.attach(range(4))
        inbox = LazyInbox(column, 1)
        assert len(messages(inbox)) == 1 + 2 * 5 + 1
        # The held row, then both listings of two distinct tuples, then
        # the broadcast row: the other three blocks repeat a tuple.
        rows = column._by_recipient()[1]
        assert len(rows) + len(column.b_seq) == 1 + 2 * 2 + 1
        assert _ids(distinct(inbox)) == _ids(_dedupe(messages(inbox)))
        # Two equal letters that are two objects are both read.
        assert _ids(distinct(inbox)) == _ids(
            [decision[2], decision[1], other[1], other[2]])
        assert _ids(distinct(LazyInbox(column, 0))) == _ids(
            [decision[0], decision[1]])
        assert _ids(distinct(LazyInbox(column, 3))) == _ids([decision[1]])

    def test_the_paper_run_reads_one_answer_per_node_and_phase(
            self, monkeypatch):
        lengths, rows = [], []
        read = crash.distinct

        def counting_distinct(inbox):
            answers = read(inbox)
            lengths.append(len(answers))
            # The rows the read walked: the recipient's from the
            # round's index, and every broadcast row.
            column = inbox._column
            rows.append(len(column._by_recipient().get(inbox._recipient, ()))
                        + len(column.b_seq))
            return answers

        monkeypatch.setattr(crash, "distinct", counting_distinct)
        result = golden.CASES["crash-paper-n96"]()
        assert golden.digest(result) == golden.GOLDEN["crash-paper-n96"]
        # 193,536 answers sent, each node reading all 96 of a phase's
        # at the parent; one decision per phase, read once.
        assert result.metrics.sends_by_type["Response"] == 193_536
        assert len(lengths) == 96 * 21
        assert sum(lengths) == sum(rows) == 2_016
