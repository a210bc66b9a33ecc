"""Property test: the columnar round engine is observationally silent.

Random per-node send scripts (broadcasts, shared-instance targeted
runs, per-target fresh messages as a list and as a ``Scatter``, quiet
rounds) are executed under
randomly drawn crash adversaries and link-fault specs
(drop / duplicate / corrupt / hold), once on ``SyncNetwork`` and once
on the naive per-envelope oracle ``ReferenceNetwork``.  Every counted
observable — ``Metrics.summary()``, the per-round ledgers, node outputs
(each node returns a digest of every inbox it read, so inbox contents
and order are covered), crash sets, and ``FaultStats`` — must be
identical, and the held-mail ledger identity ``held == released +
released_to_dead + in_flight()`` must hold at the end of every run.
"""

from dataclasses import dataclass
from random import Random

from hypothesis import given, settings, strategies as st

from repro.adversary.crash import RandomCrash
from repro.faults import NoFaults, build_fault_model
from repro.sim.messages import CostModel, Message, Scatter, Send, broadcast
from repro.sim.node import Process
from repro.sim.runner import run_network
from tests.test_fastpath_ab import (
    ReferenceNetwork,
    engine_observables,
    reference_observables,
)


@dataclass(frozen=True)
class Probe(Message):
    value: int = 0
    tag: int = 0

    def payload_bits(self, cost):
        return 12


class ScriptedNode(Process):
    """Plays a fixed per-round send script and digests every inbox."""

    def __init__(self, uid, script):
        super().__init__(uid)
        self.script = script

    def _outgoing(self, op, ctx):
        if op[0] == "broadcast":
            return broadcast(ctx.n, Probe(op[1], ctx.index))
        if op[0] == "sends":
            # One shared message instance: a maximal constant run.
            message = Probe(op[1], ctx.index)
            return [Send(to, message) for to in op[2]]
        if op[0] == "varied":
            # Fresh, pairwise-unequal messages: no batching at all.
            return [Send(to, Probe(op[1] + k, ctx.index))
                    for k, to in enumerate(op[2])]
        if op[0] == "scatter":
            # The same traffic as one per-link fan-out.
            return Scatter(op[2], [Probe(op[1] + k, ctx.index)
                                   for k in range(len(op[2]))])
        return []

    def program(self, ctx):
        received = []
        for op in self.script:
            inbox = yield self._outgoing(op, ctx)
            received.append(tuple(
                (env.sender, env.round_no, env.message.value, env.message.tag)
                for env in inbox))
        return tuple(received)


def _round_ops(n):
    value = st.integers(0, 7)
    targets = st.lists(st.integers(0, n - 1), max_size=2 * n).map(tuple)
    return st.one_of(
        st.tuples(st.just("broadcast"), value),
        st.tuples(st.just("sends"), value, targets),
        st.tuples(st.just("varied"), value, targets),
        st.tuples(st.just("scatter"), value, targets),
        st.tuples(st.just("quiet")),
    )


def _fault_entries(rounds):
    probability = st.sampled_from([0.0, 0.3, 1.0])
    seed = st.integers(0, 99)
    channel = st.fixed_dictionaries(
        {"kind": st.sampled_from(["omission", "duplicate", "corrupt"]),
         "p": probability, "seed": seed})
    # Heals after 1-3 rounds: inside the run (held mail is released
    # ahead of the heal round's own sends, or to a receiver that died
    # meanwhile) or past its end (held mail expires at the run-end drain).
    partition = st.builds(
        lambda start, length: {"kind": "partition", "start": start,
                               "end": start + length},
        st.integers(1, rounds), st.integers(1, 3))
    return st.lists(st.one_of(channel, partition), max_size=2)


@st.composite
def scenarios(draw):
    n = draw(st.integers(2, 6))
    rounds = draw(st.integers(1, 5))
    # Scripts differ in length, so nodes terminate at different rounds
    # and mail can be released to a receiver that is already gone.
    scripts = [draw(st.lists(_round_ops(n), min_size=1, max_size=rounds))
               for _ in range(n)]
    crash_seed = draw(st.none() | st.integers(0, 999))
    fault_spec = draw(_fault_entries(rounds))
    seed = draw(st.integers(0, 999))
    return n, scripts, crash_seed, fault_spec, seed


def _execute(n, scripts, crash_seed, fault_spec, seed, fault_model=None,
             reference=False, node=ScriptedNode):
    """One scenario's observables, from the engine or from the oracle."""
    processes = [node(index + 1, scripts[index]) for index in range(n)]
    adversary = (RandomCrash(budget=n // 2, rate=0.3, rng=Random(crash_seed))
                 if crash_seed is not None else None)
    if fault_model is None:
        fault_model = build_fault_model(fault_spec, n, seed=seed)
    cost = CostModel(n=n, namespace=4 * n)
    if reference:
        network = ReferenceNetwork(processes, cost, crash_adversary=adversary,
                                   seed=seed, fault_model=fault_model)
        network.run()
        observed = reference_observables(network)
        stats = network.fault_stats
    else:
        result = run_network(processes, cost, crash_adversary=adversary,
                             seed=seed, fault_model=fault_model)
        observed = engine_observables(result)
        stats = result.fault_stats
    _assert_ledger_identity(stats)
    observed["fault_stats"] = stats.as_dict() if stats is not None else None
    return observed


def _assert_ledger_identity(stats):
    if stats is None:
        return
    assert stats.held == (stats.released + stats.released_to_dead
                          + stats.in_flight())
    # The run-end drain expired exactly what was still in flight.
    assert stats.expired == stats.in_flight()


class TestColumnarProperty:
    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    def test_columnar_and_object_paths_agree(self, scenario):
        # "Object path" is the oracle: one Envelope per delivered
        # message, verdicts applied send by send.
        assert _execute(*scenario) == _execute(*scenario, reference=True)

    @settings(max_examples=15, deadline=None)
    @given(scenarios())
    def test_faulted_path_with_nofaults_matches_columnar(self, scenario):
        # An attached fault model that never issues a verdict must
        # count exactly like no fault model at all.
        n, scripts, crash_seed, _spec, seed = scenario
        clean = _execute(n, scripts, crash_seed, [], seed)
        faulted = _execute(n, scripts, crash_seed, [], seed,
                           fault_model=NoFaults())
        assert faulted["fault_stats"] is not None
        faulted["fault_stats"] = None
        assert faulted == clean
