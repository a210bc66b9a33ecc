"""A/B proof that the round engine changes no counted result.

``ReferenceNetwork`` is a deliberately naive executor and the single
oracle for ``SyncNetwork.step``: it re-derives the alive sets by
scanning all ``n`` nodes every round, charges every send individually
with a fresh ``bit_size`` computation, allocates inboxes for every
link, builds one ``Envelope`` per delivered message, resolves a crash
plan -- kept indices or kept ``Send`` objects -- through the one rule
the engine uses (``kept_indices``) and delivers the kept sends one by
one, and applies link-fault verdicts send by send.  The A/B tests run identical protocols (same processes, seeds,
adversary and fault configurations) through both executors and require
byte-identical ``Metrics.summary()`` dicts, per-round ledgers, per-node
and per-type send counts, node outputs and ``FaultStats``.

The duplicate-send regression pins the crash-plan fix: kept sends are
resolved to *indices* by object identity end to end, so keeping the
second of two equal sends records index 1 and replays exactly.
"""

import sys
from random import Random

import pytest

from repro.adversary.base import (
    CrashPlanError,
    kept_indices,
    kept_send_indices,
)
from repro.adversary.crash import (
    BudgetedAdaptiveCrash,
    CommitteeHunter,
    MidSendPartitioner,
    RandomCrash,
)
from repro.adversary.byzantine import make_chaos_monkey, silent
from repro.analysis.experiments import default_namespace, sample_uids
from repro.baselines.balls_into_slots import run_balls_into_slots
from repro.baselines.collect_rank import CollectRankNode, run_collect_rank
from repro.baselines.obg_halving import run_obg_halving
from repro.core.byzantine_renaming import (
    ByzantineRenamingConfig,
    ByzantineRenamingNode,
    run_byzantine_renaming,
)
from repro.core.crash_renaming import (
    CrashRenamingConfig,
    CrashRenamingNode,
    run_crash_renaming,
)
from repro.crypto.auth import Authenticator
from repro.crypto.shared_randomness import SharedRandomness
from repro.falsify.faulty import RacyRankNode
from repro.falsify.replay import RecordingAdversary, ReplayAdversary
from repro.faults.base import (
    CORRUPT,
    DROP,
    DUPLICATE,
    HOLD,
    FaultStats,
    corrupt_message,
)
from repro.sim.messages import (
    Broadcast,
    CostModel,
    Envelope,
    Message,
    Send,
    broadcast,
)
from repro.sim.metrics import Metrics
from repro.sim.node import Context, Process
from repro.sim.runner import run_network
from repro.sim.trace import Trace


class ReferenceNetwork:
    """Naive per-envelope round semantics, kept as the oracle."""

    def __init__(self, processes, cost, *, crash_adversary=None, seed=0,
                 shared=None, fault_model=None, authenticator=None):
        from repro.adversary.base import NoCrashes

        self.processes = list(processes)
        self.n = len(self.processes)
        self.cost = cost
        self.adversary = crash_adversary or NoCrashes()
        self.authenticator = authenticator or Authenticator()
        self.trace = Trace(enabled=False)
        self.round_no = 0
        self.crashed = set()
        self.finished = {}
        seed_root = Random(seed)
        self.contexts = [
            Context(n=self.n, namespace=cost.namespace, index=index,
                    rng=Random(seed_root.getrandbits(64)), cost=cost,
                    shared=shared)
            for index in range(self.n)
        ]
        self._programs = {}
        self._pending = {}
        # Naive accounting: plain counters, no caching, no batching.
        self.summary = {
            "rounds": 0, "correct_messages": 0, "correct_bits": 0,
            "byzantine_messages": 0, "byzantine_bits": 0,
            "max_message_bits": 0,
        }
        self.messages_per_round = []
        self.bits_per_round = []
        self.sends_by_node = {}
        self.sends_by_type = {}
        self.fault_model = fault_model
        self.fault_stats = FaultStats() if fault_model is not None else None
        self._held = {}  # release round -> (to, envelope) a hold deferred

    def _alive_unfinished(self):
        return [i for i in range(self.n)
                if i not in self.crashed and i not in self.finished]

    def _correct_pending(self):
        return [i for i in self._alive_unfinished()
                if not self.processes[i].byzantine]

    def _start(self):
        for index, process in enumerate(self.processes):
            program = process.program(self.contexts[index])
            try:
                first_sends = next(program)
            except StopIteration as stop:
                self.finished[index] = stop.value
                continue
            self._programs[index] = program
            self._pending[index] = list(first_sends)

    def _apply_crash_plan(self, proposed):
        alive = frozenset(self._alive_unfinished())
        plan = self.adversary.plan_round(
            self.round_no, proposed, alive, self.trace)
        if not plan:
            return proposed
        kept_by_victim = {}
        for victim, kept in plan.items():
            sends = list(proposed.get(victim, []))
            kept_by_victim[victim] = [
                sends[i] for i in kept_indices(kept, sends)]
        delivered = dict(proposed)
        for victim, kept in kept_by_victim.items():
            delivered[victim] = kept
            self.crashed.add(victim)
        self.adversary.note_crashes(set(plan))
        return delivered

    def _record(self, sender, message, byzantine):
        name = type(message).__name__
        self.sends_by_node[sender] = self.sends_by_node.get(sender, 0) + 1
        self.sends_by_type[name] = self.sends_by_type.get(name, 0) + 1
        bits = message.bit_size(self.cost)
        kind = "byzantine" if byzantine else "correct"
        self.summary[f"{kind}_messages"] += 1
        self.summary[f"{kind}_bits"] += bits
        self.summary["max_message_bits"] = max(
            self.summary["max_message_bits"], bits)
        self.messages_per_round[-1] += 1
        self.bits_per_round[-1] += bits

    def step(self):
        self.round_no += 1
        self.summary["rounds"] += 1
        self.messages_per_round.append(0)
        self.bits_per_round.append(0)
        for ctx in self.contexts:
            ctx.current_round = self.round_no

        proposed = {i: self._pending.get(i, [])
                    for i in self._alive_unfinished()}
        delivered = self._apply_crash_plan(proposed)
        alive = self._alive_unfinished()
        plan = {}
        if self.fault_model is not None:
            plan = self.fault_model.plan_round(
                self.round_no, delivered, frozenset(alive))
        stats = self.fault_stats

        inboxes = {i: [] for i in range(self.n)}
        # Held mail healing this round has been in flight the longest:
        # it is read before anything sent this round.
        for to, envelope in self._held.pop(self.round_no, []):
            if to in alive:
                inboxes[to].append(envelope)
                stats.released += 1
            else:
                stats.released_to_dead += 1
        for sender, sends in delivered.items():
            byz = self.processes[sender].byzantine
            uid = self.processes[sender].uid
            verdicts = plan.get(sender, {})
            for index, send in enumerate(sends):
                # Charged once at transmission, whatever the link does.
                self._record(sender, send.message, byz)
                perceived, claim = self.authenticator.resolve(uid, send.claim)
                fields = dict(sender=sender, sender_uid=perceived,
                              claimed_sender=claim)
                inbox = inboxes[send.to]
                verdict = verdicts.get(index)
                kind = None if verdict is None else verdict.kind
                if kind == DROP:
                    stats.dropped += 1
                elif kind == HOLD:
                    stats.held += 1
                    self._held.setdefault(verdict.release_round, []).append(
                        (send.to, Envelope(round_no=verdict.release_round,
                                           message=send.message, **fields)))
                elif kind == CORRUPT:
                    stats.corrupted += 1
                    inbox.append(Envelope(
                        round_no=self.round_no, **fields,
                        message=corrupt_message(send.message, verdict.salt)))
                else:
                    copies = 1
                    if kind == DUPLICATE:
                        stats.duplicated += verdict.copies
                        copies += verdict.copies
                    inbox.extend(
                        Envelope(round_no=self.round_no, message=send.message,
                                 **fields)
                        for _ in range(copies))

        for index in alive:
            program = self._programs.get(index)
            if program is None:
                continue
            try:
                self._pending[index] = list(program.send(inboxes[index]))
            except StopIteration as stop:
                self.finished[index] = stop.value
                self._pending.pop(index, None)
            except Exception:
                if not self.processes[index].byzantine:
                    raise
                # A Byzantine strategy that crashed its own program
                # falls silent, as on the engine.
                self.finished[index] = None
                self._pending.pop(index, None)

    def run(self):
        self._start()
        while self._correct_pending():
            assert self.round_no < 10_000, "reference executor runaway"
            self.step()
        for index in sorted(set(self._programs) - set(self.finished)):
            self._programs[index].close()
        # Mail still held when the run ends expires, so the books close:
        # held == released + released_to_dead + expired.
        for envelopes in self._held.values():
            self.fault_stats.expired += len(envelopes)
        self._held.clear()


def reference_observables(network):
    """A finished ``ReferenceNetwork``'s counted results, keyed like
    :func:`engine_observables`."""
    return {
        "summary": dict(network.summary),
        "messages_per_round": list(network.messages_per_round),
        "bits_per_round": list(network.bits_per_round),
        "sends_by_node": dict(network.sends_by_node),
        "sends_by_type": dict(network.sends_by_type),
        "outputs": dict(network.finished),
        "crashed": set(network.crashed),
    }


def engine_observables(result):
    metrics = result.metrics
    return {
        "summary": metrics.summary(),
        "messages_per_round": list(metrics.messages_per_round),
        "bits_per_round": list(metrics.bits_per_round),
        "sends_by_node": dict(metrics.sends_by_node),
        "sends_by_type": dict(metrics.sends_by_type),
        "outputs": dict(result.results),
        "crashed": set(result.crashed),
    }


def _observables_fast(processes_fn, cost, adversary_fn, seed, shared=None):
    result = run_network(processes_fn(), cost,
                         crash_adversary=adversary_fn(), seed=seed,
                         shared=shared)
    return engine_observables(result)


def _observables_reference(processes_fn, cost, adversary_fn, seed,
                           shared=None):
    network = ReferenceNetwork(processes_fn(), cost,
                               crash_adversary=adversary_fn(), seed=seed,
                               shared=shared)
    network.run()
    return reference_observables(network)


def _population(n, seed):
    namespace = default_namespace(n)
    return sample_uids(n, namespace, Random(seed)), namespace


class TestFastPathAB:
    """The engine and the reference executor must count identically."""

    def _assert_identical(self, processes_fn, cost, adversary_fn, seed):
        reference = _observables_reference(
            processes_fn, cost, adversary_fn, seed)
        fast = _observables_fast(processes_fn, cost, adversary_fn, seed)
        assert fast == reference

    def test_gossip_broadcast_heavy_no_crashes(self):
        uids, namespace = _population(14, seed=3)
        cost = CostModel(n=14, namespace=namespace)
        self._assert_identical(
            lambda: [CollectRankNode(uid, assumed_faults=3) for uid in uids],
            cost, lambda: None, seed=5)

    @pytest.mark.parametrize("adversary_fn", [
        lambda: RandomCrash(4, rate=0.15, rng=Random(11)),
        lambda: MidSendPartitioner(4, rng=Random(12)),
    ], ids=["random", "partitioner"])
    def test_gossip_under_crashes(self, adversary_fn):
        uids, namespace = _population(12, seed=7)
        cost = CostModel(n=12, namespace=namespace)
        self._assert_identical(
            lambda: [CollectRankNode(uid, assumed_faults=4) for uid in uids],
            cost, adversary_fn, seed=9)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_crash_renaming_under_hunter(self, seed):
        uids, namespace = _population(16, seed=seed)
        cost = CostModel(n=16, namespace=namespace)
        config = CrashRenamingConfig()
        self._assert_identical(
            lambda: [CrashRenamingNode(uid, config) for uid in uids],
            cost, lambda: CommitteeHunter(4, rng=Random(seed + 1)),
            seed=seed + 2)

    def test_racy_rank_fixture(self):
        uids, namespace = _population(10, seed=4)
        cost = CostModel(n=10, namespace=namespace)
        self._assert_identical(
            lambda: [RacyRankNode(uid) for uid in uids],
            cost, lambda: MidSendPartitioner(3, rng=Random(8)), seed=6)


def _reference_run_network(processes, cost, *, crash_adversary=None, seed=0,
                           shared=None, **_engine_only):
    """``run_network`` stand-in that executes on the oracle and returns
    its observables (the entry points return it unchanged)."""
    network = ReferenceNetwork(processes, cost,
                               crash_adversary=crash_adversary, seed=seed,
                               shared=shared)
    network.run()
    return reference_observables(network)


class TestColumnarEntryPoints:
    """All five public ``run_*`` entry points count identically on the
    engine and — with ``run_network`` swapped for the oracle in the
    entry point's own module — on ``ReferenceNetwork``."""

    def _ab(self, monkeypatch, entry_point, run):
        engine = engine_observables(run())
        monkeypatch.setattr(sys.modules[entry_point.__module__],
                            "run_network", _reference_run_network)
        assert run() == engine
        return engine

    def test_run_crash_renaming_under_random_crashes(self, monkeypatch):
        uids, namespace = _population(16, seed=21)
        self._ab(monkeypatch, run_crash_renaming, lambda: run_crash_renaming(
            uids, namespace=namespace,
            adversary=RandomCrash(5, rate=0.2, rng=Random(3)), seed=13))

    def test_run_byzantine_renaming_with_corruptions(self, monkeypatch):
        uids, namespace = _population(10, seed=31)
        corrupt = {uids[2]: silent,
                   uids[7]: make_chaos_monkey(salt=1, volume=3)}
        observed = self._ab(
            monkeypatch, run_byzantine_renaming,
            lambda: run_byzantine_renaming(
                uids, namespace=namespace, byzantine=corrupt,
                shared_seed=5, seed=17))
        assert observed["summary"]["byzantine_messages"] > 0

    def test_run_collect_rank_under_partitioner(self, monkeypatch):
        uids, namespace = _population(12, seed=7)
        self._ab(monkeypatch, run_collect_rank, lambda: run_collect_rank(
            uids, namespace=namespace, assumed_faults=4,
            adversary=MidSendPartitioner(4, rng=Random(12)), seed=9))

    def test_run_obg_halving_under_random_crashes(self, monkeypatch):
        uids, namespace = _population(16, seed=11)
        self._ab(monkeypatch, run_obg_halving, lambda: run_obg_halving(
            uids, namespace=namespace,
            adversary=RandomCrash(4, rate=0.15, rng=Random(2)), seed=3))

    def test_run_balls_into_slots_clean(self, monkeypatch):
        uids, namespace = _population(14, seed=19)
        self._ab(monkeypatch, run_balls_into_slots,
                 lambda: run_balls_into_slots(
                     uids, namespace=namespace, seed=23))

    def test_byzantine_protocol_matches_reference_oracle(self):
        # The oracle gained shared-randomness support for exactly this
        # case: the Byzantine committee lottery reads ``ctx.shared``.
        uids, namespace = _population(8, seed=41)
        cost = CostModel(n=8, namespace=namespace)
        config = ByzantineRenamingConfig()

        def processes():
            return [ByzantineRenamingNode(uid, config) for uid in uids]

        reference = _observables_reference(
            processes, cost, lambda: None, seed=9,
            shared=SharedRandomness(7))
        fast = _observables_fast(
            processes, cost, lambda: None, seed=9,
            shared=SharedRandomness(7))
        assert fast == reference


class _Tag(Message):
    """Identity-equality message: distinguishes equal-valued sends."""

    def payload_bits(self, cost):
        return 2


class _EqualTag(Message):
    """All instances equal: the duplicate-send ambiguity trigger."""

    def payload_bits(self, cost):
        return 2

    def __eq__(self, other):
        return type(other) is _EqualTag

    def __hash__(self):
        return hash(_EqualTag)


class _DupSender(Process):
    """Round 1: two *equal* sends to link 0, then one ordinary round."""

    def program(self, ctx):
        yield [Send(0, _EqualTag()), Send(0, _EqualTag())]
        yield []
        return ctx.index


class TestDuplicateSendCrashPlan:
    """Kept sends resolve to indices by identity, end to end."""

    def _run_recorded(self, keep_position):
        def policy(round_no, proposed, alive, trace, remaining):
            if round_no == 1 and 1 in alive:
                return {1: [proposed[1][keep_position]]}
            return {}

        adversary = RecordingAdversary(BudgetedAdaptiveCrash(1, policy))
        processes = [_DupSender(uid=10), _DupSender(uid=20)]
        result = run_network(processes, CostModel(n=2, namespace=32),
                             crash_adversary=adversary, seed=0)
        return adversary.schedule, result

    @pytest.mark.parametrize("keep_position", [0, 1])
    def test_recorded_index_matches_kept_instance(self, keep_position):
        schedule, result = self._run_recorded(keep_position)
        # Equality matching cannot tell the two sends apart and always
        # recorded index 0; identity matching records the true position.
        assert schedule == {1: {1: (keep_position,)}}
        # Node 0's two sends plus the victim's single kept send.
        assert result.metrics.messages_per_round[0] == 3

    @pytest.mark.parametrize("keep_position", [0, 1])
    def test_strict_replay_reproduces_recording(self, keep_position):
        schedule, recorded = self._run_recorded(keep_position)
        replay = ReplayAdversary(schedule, strict=True)
        processes = [_DupSender(uid=10), _DupSender(uid=20)]
        replayed = run_network(processes, CostModel(n=2, namespace=32),
                               crash_adversary=replay, seed=0)
        assert replayed.metrics.summary() == recorded.metrics.summary()
        assert replayed.results == recorded.results
        assert replayed.crashed == recorded.crashed


class TestKeptSendIndices:
    def test_identity_match_beats_equality(self):
        first, second = _EqualTag(), _EqualTag()
        proposed = [Send(0, first), Send(0, second)]
        assert proposed[0] == proposed[1]
        assert kept_send_indices([proposed[1]], proposed) == (1,)
        assert kept_send_indices([proposed[0]], proposed) == (0,)
        assert kept_send_indices([proposed[1], proposed[0]], proposed) == (1, 0)

    def test_equality_fallback_for_fresh_objects(self):
        proposed = [Send(0, _EqualTag()), Send(1, _EqualTag())]
        fresh = Send(1, _EqualTag())
        assert kept_send_indices([fresh], proposed) == (1,)

    def test_unmatched_send_raises(self):
        proposed = [Send(0, _EqualTag())]
        with pytest.raises(CrashPlanError, match="never proposed"):
            kept_send_indices([Send(3, _EqualTag())], proposed)

    def test_duplicate_identical_objects_consume_positions(self):
        send = Send(0, _EqualTag())
        proposed = [send, send]
        assert kept_send_indices([send, send], proposed) == (0, 1)


class TestBroadcastSequence:
    def test_behaves_like_the_send_list(self):
        message = _Tag()
        fanout = broadcast(4, message)
        assert isinstance(fanout, Broadcast)
        assert len(fanout) == 4
        assert [send.to for send in fanout] == [0, 1, 2, 3]
        assert all(send.message is message for send in fanout)
        assert list(fanout) == [Send(to, message) for to in range(4)]

    def test_materialization_is_cached_for_identity_matching(self):
        fanout = broadcast(3, _Tag())
        assert fanout[1] is fanout[1]
        assert list(fanout)[2] is fanout[2]

    def test_oversized_broadcast_rejected(self):
        class Overbroadcaster(Process):
            def program(self, ctx):
                yield broadcast(ctx.n + 1, _Tag())
                return None

        with pytest.raises(ValueError, match="broadcast to 3 links"):
            run_network([Overbroadcaster(uid=1), Overbroadcaster(uid=2)],
                        CostModel(n=2, namespace=8))

    def test_negative_fanout_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Broadcast(-1, _Tag())


class TestBitSizeCache:
    class _CountingBlob(Message):
        computations = 0

        def __init__(self, payload):
            self.payload = payload

        def payload_bits(self, cost):
            type(self).computations += 1
            return self.payload

        def __eq__(self, other):
            return (type(other) is type(self)
                    and other.payload == self.payload)

        def __hash__(self):
            return hash((type(self), self.payload))

    def setup_method(self):
        self._CountingBlob.computations = 0

    def test_identity_hits_compute_once(self):
        metrics = Metrics(cost=CostModel(n=4, namespace=16))
        metrics.begin_round()
        blob = self._CountingBlob(9)
        for _ in range(50):
            metrics.record_send(0, blob, byzantine=False)
        assert self._CountingBlob.computations == 1
        assert metrics.correct_messages == 50
        assert metrics.correct_bits == 50 * blob.bit_size(metrics.cost)

    def test_equal_but_distinct_messages_charge_equal_bits(self):
        """The cache is by identity only; equal messages need no cache
        to cost the same."""
        metrics = Metrics(cost=CostModel(n=4, namespace=16))
        metrics.begin_round()
        first, second = self._CountingBlob(9), self._CountingBlob(9)
        assert first == second and first is not second
        metrics.record_send(0, first, byzantine=False)
        after_first = metrics.correct_bits
        metrics.record_send(0, second, byzantine=False)
        assert metrics.correct_bits == 2 * after_first
        assert metrics.max_message_bits == first.bit_size(metrics.cost)
        assert metrics.sends_by_type == {"_CountingBlob": 2}

    def test_cache_resets_each_round(self):
        metrics = Metrics(cost=CostModel(n=4, namespace=16))
        blob = self._CountingBlob(9)
        metrics.begin_round()
        metrics.record_send(0, blob, byzantine=False)
        metrics.begin_round()
        metrics.record_send(0, blob, byzantine=False)
        assert self._CountingBlob.computations == 2

    def test_batched_record_matches_singles(self):
        cost = CostModel(n=4, namespace=16)
        batched, singles = Metrics(cost=cost), Metrics(cost=cost)
        blob = self._CountingBlob(11)
        batched.begin_round()
        batched.record_sends(2, blob, 7, byzantine=True)
        singles.begin_round()
        for _ in range(7):
            singles.record_send(2, blob, byzantine=True)
        assert batched.summary() == singles.summary()
        assert batched.messages_per_round == singles.messages_per_round
        assert batched.bits_per_round == singles.bits_per_round
        assert batched.sends_by_node == singles.sends_by_node
        assert batched.sends_by_type == singles.sends_by_type

    def test_record_before_begin_round_raises(self):
        metrics = Metrics(cost=CostModel(n=4, namespace=16))
        with pytest.raises(RuntimeError, match="begin_round"):
            metrics.record_send(0, self._CountingBlob(3), byzantine=False)
