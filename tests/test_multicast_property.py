"""The lazy fan-outs against the oracle.

A :class:`~repro.sim.messages.Multicast` must be indistinguishable from
the ``[Send(t, m, claim) for t in targets]`` list it denotes, and a
:class:`~repro.sim.messages.Scatter` from ``[Send(l, m) for l, m in
zip(links, messages)]``.  Random programs mixing ``Multicast``,
``Broadcast`` (whole and partial), ``Scatter`` (mixed message types and
sizes, whole and sliced), shared-message ``Send`` lists, materialized
fan-outs spliced into lists, duplicate targets, empty targets and
forged ``claim``s run once
on ``SyncNetwork`` and once on the naive per-envelope oracle
``ReferenceNetwork`` (which only ever sees ``list(sends)``), with
authentication on and off, with and without a crash adversary and a
link-fault model.  Inboxes (order, sender, perceived uid, recorded
claim) and every ledger (totals, per-round series, ``sends_by_node``,
``sends_by_type``, ``max_message_bits``) must be equal.

CI runs this file under two ``PYTHONHASHSEED`` values.
"""

from dataclasses import dataclass
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.crash import RandomCrash
from repro.crypto.auth import Authenticator
from repro.faults import build_fault_model
from repro.sim.messages import (
    Broadcast,
    CostModel,
    Fanout,
    Message,
    Multicast,
    Scatter,
    Send,
    broadcast,
    multicast,
)
from repro.sim.node import Process
from repro.sim.runner import run_network
from tests.test_columnar_property import _fault_entries
from tests.test_fastpath_ab import (
    ReferenceNetwork,
    _Tag,
    engine_observables,
    reference_observables,
)


@dataclass(frozen=True)
class Narrow(Message):
    value: int = 0
    tag: int = 0

    def payload_bits(self, cost):
        return 3


@dataclass(frozen=True)
class Wide(Message):
    """Size depends on the value, so ``max_message_bits`` and the bit
    ledgers tell one fan-out from another."""

    value: int = 0
    tag: int = 0

    def payload_bits(self, cost):
        return 20 + self.value + cost.index_bits


class FanoutNode(Process):
    """Plays a per-round script of fan-outs; returns every inbox read."""

    def __init__(self, uid, script, byzantine=False):
        super().__init__(uid)
        self.script = script
        self.byzantine = byzantine

    def _outgoing(self, op, ctx):
        kind, value, targets, claim = op
        message = (Wide if value % 2 else Narrow)(value, ctx.index)
        if kind == "multicast":
            return Multicast(targets, message, claim)
        if kind == "generator":
            return multicast((to for to in targets), message)
        if kind == "broadcast":
            return Broadcast(ctx.n, message, claim)
        if kind == "partial":
            return Broadcast(len(targets) % (ctx.n + 1), message, claim)
        if kind == "sends":
            return [Send(to, message, claim) for to in targets]
        if kind in ("scatter", "sliced"):
            # One message per link, types and sizes alternating.
            fanout = Scatter(targets, [
                (Narrow if (value + k) % 2 else Wide)(value + k, ctx.index)
                for k in range(len(targets))])
            # Sliced: a kept subset is a plain list on the run path.
            return fanout if kind == "scatter" else fanout[::2]
        if kind == "spliced":
            # A materialized fan-out inside a plain list: the widest
            # message first, then the fan-out's run, then the same
            # message under another claim (a run of its own).
            return [Send(0, Wide(value + 7, ctx.index)),
                    *Multicast(targets, message, claim),
                    Send(ctx.n - 1, message, 5 if claim is None else None)]
        return []

    def program(self, ctx):
        received = []
        for op in self.script:
            inbox = yield self._outgoing(op, ctx)
            received.append(tuple(
                (env.sender, ctx.index, env.round_no, env.sender_uid,
                 env.claimed_sender, type(env.message).__name__,
                 env.message.value, env.message.tag)
                for env in inbox))
        return tuple(received)


def _ops(n):
    kinds = st.sampled_from(["multicast", "generator", "broadcast", "partial",
                             "sends", "spliced", "scatter", "sliced", "quiet"])
    # Duplicates and the empty tuple are both likely.
    targets = st.lists(st.integers(0, n - 1), max_size=2 * n).map(tuple)
    claim = st.none() | st.integers(1, 99)
    return st.tuples(kinds, st.integers(0, 5), targets, claim)


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 6))
    rounds = draw(st.integers(1, 4))
    scripts = [draw(st.lists(_ops(n), min_size=1, max_size=rounds))
               for _ in range(n)]
    byzantine = [draw(st.booleans()) for _ in range(n - 1)] + [False]
    authenticated = draw(st.booleans())
    crash_seed = draw(st.none() | st.integers(0, 999))
    fault_spec = draw(_fault_entries(rounds))
    seed = draw(st.integers(0, 999))
    return n, scripts, byzantine, authenticated, crash_seed, fault_spec, seed


def _execute(scenario, reference):
    n, scripts, byzantine, authenticated, crash_seed, fault_spec, seed = scenario
    processes = [FanoutNode(index + 1, scripts[index], byzantine[index])
                 for index in range(n)]
    options = dict(
        crash_adversary=(RandomCrash(budget=n // 2, rate=0.3,
                                     rng=Random(crash_seed))
                         if crash_seed is not None else None),
        authenticator=Authenticator(enabled=authenticated),
        fault_model=(build_fault_model(fault_spec, n, seed=seed)
                     if fault_spec else None),
        seed=seed,
    )
    cost = CostModel(n=n, namespace=4 * n)
    if reference:
        network = ReferenceNetwork(processes, cost, **options)
        network.run()
        return reference_observables(network)
    return engine_observables(run_network(processes, cost, **options))


class TestFanoutAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_engine_and_oracle_agree(self, scenario):
        assert _execute(scenario, False) == _execute(scenario, True)

    def test_forged_claim_reaches_receivers_only_unauthenticated(self):
        script = [("multicast", 1, (1, 1, 0), 77)]
        for authenticated, perceived in ((True, (1, None)), (False, (77, 77))):
            scenario = (2, [script, [("quiet", 0, (), None)]], [False, False],
                        authenticated, None, [], 0)
            observed = _execute(scenario, False)
            assert observed == _execute(scenario, True)
            inbox = observed["outputs"][1][0]
            # The duplicated link got two envelopes, in send order.
            assert [env[:2] for env in inbox] == [(0, 1), (0, 1)]
            assert {env[3:5] for env in inbox} == {perceived}

    def test_scatter_over_a_repeated_link_delivers_each_message_in_order(self):
        script = [("scatter", 2, (1, 0, 1, 1), None)]
        scenario = (2, [script, [("multicast", 1, (1,), None)]],
                    [True, False], True, None, [], 0)
        observed = _execute(scenario, False)
        assert observed == _execute(scenario, True)
        # Node 1 reads the Byzantine sender's scatter (values 2, 4, 5 --
        # Wide, Wide, Narrow) ahead of its own later multicast.
        assert [env[5:7] for env in observed["outputs"][1][0]] == [
            ("Wide", 2), ("Wide", 4), ("Narrow", 5), ("Wide", 1)]
        assert observed["summary"]["byzantine_messages"] == 4
        assert observed["sends_by_type"] == {"Wide": 3, "Narrow": 2}


class TestScatterSequence:
    def test_behaves_like_the_send_list(self):
        first, second = _Tag(), _Tag()
        fanout = Scatter([4, 1, 4], [first, second, first])
        assert isinstance(fanout, Fanout) and not isinstance(fanout, Multicast)
        assert list(fanout) == [Send(4, first), Send(1, second),
                                Send(4, first)]
        assert len(Scatter(range(3), [first] * 3)) == 3

    def test_shares_the_lazy_sequence_body_with_multicast(self):
        for method in ("_materialize", "__len__", "__getitem__", "__iter__"):
            assert getattr(Scatter, method) is getattr(Multicast, method)
        fanout = Scatter((to for to in (2, 0)), (m for m in (_Tag(), _Tag())))
        assert len(fanout) == 2 and fanout._sends is None
        assert fanout[1] is fanout[1] and list(fanout)[0] is fanout[0]

    def test_links_and_messages_are_snapshotted_and_must_pair_up(self):
        links, messages = [0, 2], [_Tag(), _Tag()]
        fanout = Scatter(links, messages)
        links.append(1)
        messages.pop()
        assert [send.to for send in fanout] == [0, 2]
        with pytest.raises(ValueError, match="2 messages over 3 links"):
            Scatter(links, [_Tag(), _Tag()])

    def test_empty_scatter_is_falsy_and_sends_nothing(self):
        assert not Scatter([], []) and list(Scatter((), ())) == []


class TestMulticastSequence:
    def test_behaves_like_the_send_list(self):
        message = _Tag()
        fanout = multicast([4, 1, 4], message)
        assert isinstance(fanout, Multicast)
        assert list(fanout) == [Send(4, message), Send(1, message),
                                Send(4, message)]
        assert [send.claim for send in Multicast([2], message, 9)] == [9]

    def test_len_is_free_and_indexing_is_identity_stable(self):
        fanout = multicast(range(5), _Tag())
        assert len(fanout) == 5 and fanout._sends is None
        assert fanout[3] is fanout[3]
        assert list(fanout)[1] is fanout[1]
        assert fanout[1:3] == [fanout[1], fanout[2]]

    def test_targets_are_snapshotted_at_construction(self):
        targets = [0, 2]
        fanout = multicast(targets, _Tag())
        targets.append(1)
        assert [send.to for send in fanout] == [0, 2]
        drained = multicast((to for to in (3, 3)), _Tag())
        assert len(drained) == 2 and [s.to for s in drained] == [3, 3]

    def test_empty_fanout_is_falsy_and_sends_nothing(self):
        assert not multicast([], _Tag())
        assert list(multicast((), _Tag())) == []

    def test_broadcast_is_the_whole_range_case(self):
        fanout = broadcast(4, _Tag())
        assert isinstance(fanout, Multicast) and type(fanout) is Broadcast
        assert fanout.n == 4 and fanout.targets == range(4)
        assert Broadcast._materialize is Multicast._materialize
        assert Broadcast.__getitem__ is Multicast.__getitem__
        assert Broadcast.__iter__ is Multicast.__iter__
        assert Broadcast.__len__ is Multicast.__len__


class _Addresser(Process):
    """Yields one fan-out to the given targets, then stops."""

    def __init__(self, uid, targets, byzantine=False, scatter=False):
        super().__init__(uid)
        self.targets = targets
        self.byzantine = byzantine
        self.scatter = scatter

    def program(self, ctx):
        yield []
        if self.scatter:
            yield Scatter(self.targets, [_Tag() for _ in self.targets])
        else:
            yield multicast(self.targets, _Tag())
        return "done"


class TestFanoutValidation:
    @pytest.mark.parametrize("targets, link", [
        ((0, 17, 1), 17), ((1, -3, 0), -3), ((12, 0, 40), 12),
    ])
    def test_out_of_range_target_names_node_and_link(self, targets, link,
                                                     scatter=False):
        processes = [_Addresser(uid + 1, ()) for uid in range(12)]
        processes[3] = _Addresser(4, targets, scatter=scatter)
        with pytest.raises(ValueError) as error:
            run_network(processes, CostModel(n=12, namespace=64))
        assert str(error.value) == (
            f"node 3 addressed link {link} outside [0, 12)")

    def test_out_of_range_scatter_link_names_node_and_link(self):
        self.test_out_of_range_target_names_node_and_link(
            (0, 17, 1), 17, scatter=True)
        self.test_out_of_range_target_names_node_and_link(
            (1, -3, 0), -3, scatter=True)

    def test_first_yield_is_validated_too(self):
        class Eager(Process):
            def program(self, ctx):
                yield multicast([ctx.n], _Tag())

        with pytest.raises(ValueError, match=r"node 0 addressed link 2 "):
            run_network([Eager(1), Eager(2)], CostModel(n=2, namespace=8))

    def test_byzantine_offender_is_silenced_not_the_run(self):
        processes = [_Addresser(1, (0, 1)), _Addresser(2, (0, 9), True)]
        result = run_network(processes, CostModel(n=2, namespace=8))
        assert result.results == {0: "done", 1: None}
        assert result.metrics.sends_by_node == {0: 2}

    def test_a_shared_tuple_is_checked_once_and_a_bad_one_by_everyone(
            self, monkeypatch):
        """Senders resumed one after the other that name one tuple
        *object* (the committee ``derive`` hands every reporter) share
        its bounds check; a bad tuple is never noted as checked, so the
        error is raised at the yield of each sender that names it --
        here the second, the first being a Byzantine node the engine
        silences."""
        import builtins

        scanned = []
        smallest = builtins.min
        monkeypatch.setattr(
            "repro.sim.network.min",
            lambda targets: scanned.append(targets) or smallest(targets),
            raising=False)
        good, other = (0, 5, 11), tuple([0, 5, 11])  # equal, two objects
        processes = [_Addresser(uid + 1, good) for uid in range(12)]
        processes[7] = _Addresser(8, other)
        result = run_network(processes, CostModel(n=12, namespace=64))
        assert set(result.results.values()) == {"done"}
        # Nodes 0-6, node 7 with an equal tuple of its own, nodes 8-11.
        assert [id(targets) for targets in scanned] == [
            id(good), id(other), id(good)]
        assert result.metrics.sends_by_node == dict.fromkeys(range(12), 3)

        bad = (0, 17, 1)
        processes = [_Addresser(uid + 1, ()) for uid in range(12)]
        processes[2] = _Addresser(3, bad, byzantine=True)
        processes[5] = _Addresser(6, bad)
        processes[9] = _Addresser(10, bad)
        with pytest.raises(ValueError) as error:
            run_network(processes, CostModel(n=12, namespace=64))
        assert str(error.value) == "node 5 addressed link 17 outside [0, 12)"
