"""The synchronous round-based network engine.

Model (Section 1 of the paper): a fully connected network of ``n``
nodes.  All nodes are activated simultaneously and exchange messages in
synchronous rounds; each node owns ``n`` links, one to every node
(including itself).  Messages sent in round ``r`` are delivered at the
end of round ``r``.

The engine drives each :class:`~repro.sim.node.Process` as a generator:
it collects the sends every alive process yielded, lets the crash
adversary pick victims and decide which of their in-flight messages are
still delivered (the mid-send crash), stamps envelopes with the true
sender (authentication), charges the metrics ledgers, and feeds every
surviving process its inbox -- except that a process which yielded
:data:`~repro.sim.messages.UNTIL_MAIL` is left alone until it has mail.
There is one round body, :meth:`SyncNetwork.step`, whatever is
attached: observers, profilers and fault models are guarded hooks
inside it, not alternative bodies.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from time import perf_counter
from typing import Optional, Sequence

from repro.adversary.base import (
    CrashAdversary,
    CrashPlanError,
    NoCrashes,
    kept_indices,
)
from repro.crypto.auth import Authenticator
from repro.faults.base import (
    CORRUPT,
    DROP,
    HOLD,
    FaultModel,
    FaultStats,
    corrupt_message,
    validate_plan,
)
from repro.crypto.shared_randomness import SharedRandomness
from repro.sim.columnar import ColumnarRound, LazyInbox
from repro.sim.messages import (
    UNTIL_MAIL,
    Broadcast,
    CostModel,
    Envelope,
    Fanout,
    Multicast,
    Scatter,
    Send,
)
from repro.sim.metrics import Metrics
from repro.sim.node import Context, Process, Program

#: Hard cap on rounds; hitting it means a protocol failed to terminate.
DEFAULT_MAX_ROUNDS = 1_000_000


class NonTerminationError(RuntimeError):
    """A protocol exceeded the round cap without all correct nodes done.

    Carries the partial execution state so callers (and the
    :mod:`repro.falsify` harness) can capture a replayable artifact from
    a hang instead of a bare message:

    ``round_no``
        The round at which the cap was hit.
    ``pending``
        Indices of the correct, alive nodes that had not terminated.
    ``metrics``
        The live :class:`~repro.sim.metrics.Metrics` at abort time.
    """

    def __init__(
        self,
        message: str,
        *,
        round_no: int = 0,
        pending: Sequence[int] = (),
        metrics: Optional[Metrics] = None,
    ):
        super().__init__(message)
        self.round_no = round_no
        self.pending = tuple(pending)
        self.metrics = metrics


class SyncNetwork:
    """One execution of a protocol over a synchronous complete network.

    Parameters
    ----------
    processes:
        One :class:`Process` per link index; position ``i`` owns link
        ``i``.  Processes whose ``byzantine`` flag is set are charged to
        the adversary ledger and excluded from termination checks.
    cost:
        The :class:`CostModel` used for bit accounting.
    crash_adversary:
        The crash adversary consulted every round (default: none).
    shared:
        Optional shared-randomness handle made available to every node.
    seed:
        Seeds the per-node private RNG streams.
    monitors:
        Per-round invariant monitors (see :mod:`repro.falsify.monitors`).
        Each object is called as ``monitor.on_start(network)`` once,
        ``monitor.on_round(network)`` after every completed round, and
        ``monitor.on_finish(network)`` after termination; a monitor
        signals a falsified invariant by raising.  The default ``()``
        costs nothing.
    observer:
        Optional :class:`repro.obs.events.Observer`.  When enabled,
        :meth:`step` emits structured events (round begin/end, the
        end counting the nodes that terminated, crash-plan application,
        delivery fan-out, link faults, a Byzantine program's own fault,
        monitor fire) -- the run's only execution log; when it carries a
        :class:`~repro.obs.profile.PhaseProfiler`, :meth:`step` charges
        wall time to its four phases.  Both are guarded hooks in the
        one round body, so every counted quantity is identical with or
        without them (see ``tests/test_obs_ab.py``).
    fault_model:
        Optional :class:`repro.faults.base.FaultModel` consulted every
        round *after* the crash plan is applied: it sees each sender's
        resolved sends and may drop, duplicate, corrupt, or hold
        (partition) individual envelopes.  Every resolved send is still
        charged to the ledgers exactly once, so faults change delivery
        only, never counted quantities.  Senders the plan does not name
        are charged and delivered exactly as without a fault model.
    """

    def __init__(
        self,
        processes: Sequence[Process],
        cost: CostModel,
        *,
        crash_adversary: Optional[CrashAdversary] = None,
        authenticator: Optional[Authenticator] = None,
        shared: Optional[SharedRandomness] = None,
        seed: int = 0,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        monitors: Sequence[object] = (),
        observer: Optional[object] = None,
        fault_model: Optional[FaultModel] = None,
    ):
        if not processes:
            raise ValueError("need at least one process")
        self.processes = list(processes)
        self.n = len(self.processes)
        self.cost = cost
        self.adversary = crash_adversary or NoCrashes()
        self.authenticator = authenticator or Authenticator()
        self.shared = shared
        self.max_rounds = max_rounds
        self.monitors = tuple(monitors)
        self.observer = observer
        self.profiler = (getattr(observer, "profiler", None)
                         if observer is not None else None)
        # Guards every obs.emit(); `enabled` is fixed per observer class.
        self._emitting = (observer is not None
                          and getattr(observer, "enabled", False))
        self.fault_model = fault_model
        self.fault_stats = FaultStats() if fault_model is not None else None
        # (to, envelope) pairs a `hold` verdict deferred, by release round.
        self._held: dict[int, list[tuple[int, Envelope]]] = {}
        self.metrics = Metrics(cost=cost)
        self.round_no = 0
        self.crashed: set[int] = set()
        self.finished: dict[int, object] = {}
        self._seed_root = Random(seed)
        self.contexts = [
            Context(
                n=self.n,
                namespace=cost.namespace,
                index=index,
                rng=Random(self._seed_root.getrandbits(64)),
                cost=cost,
                shared=shared,
            )
            for index in range(self.n)
        ]
        self._programs: dict[int, Program] = {}
        # What each alive node proposes for the coming round, in index
        # order (`_start` inserts ascending, a resumption overwrites in
        # place, `_retire` pops): a copy of it *is* the round's
        # `proposed`.
        self._pending: dict[int, Sequence[Send]] = {}
        # Alive-set bookkeeping, maintained incrementally: `_finish` and
        # `_apply_crash_plan` retire indices as nodes terminate or crash,
        # so `step`/`run` never rescan all n nodes.  An alive node is
        # either awake -- resumed every round, in ascending index order,
        # and the only kind that can have something to send -- or
        # parked on `UNTIL_MAIL`, resumed when a row names it.
        self._alive_set: set[int] = set(range(self.n))
        self._alive_frozen: Optional[frozenset[int]] = None
        self._awake: list[int] = []
        self._parked: set[int] = set()
        # The target tuple last found in bounds: senders resumed one
        # after the other that name the same tuple *object* share its
        # check.
        self._in_bounds: Optional[Sequence[int]] = None
        self._correct_order: list[int] = [
            index for index in range(self.n)
            if not self.processes[index].byzantine
        ]

    # ------------------------------------------------------------------
    # Lifecycle

    def _start(self) -> None:
        for index, process in enumerate(self.processes):
            program = process.program(self.contexts[index])
            try:
                first_sends = next(program)
            except StopIteration as stop:
                self._finish(index, stop.value)
                continue
            self._programs[index] = program
            if first_sends is UNTIL_MAIL:
                self._pending[index] = first_sends
                self._parked.add(index)
            else:
                self._pending[index] = self._validated(index, first_sends)
                self._awake.append(index)

    def _finish(self, index: int, value: object) -> None:
        self.finished[index] = value
        self.processes[index].result = value
        self._retire(index)

    def _retire(self, index: int) -> None:
        """Drop a crashed or terminated node from the alive bookkeeping.

        Its pending sends go with it, and a crashed node's suspended
        program is closed: a victim's last fan-out, its last inbox and
        that round's column are not kept until the run ends.  (`_awake`
        is the caller's: `step` rebuilds it as it resumes, a crash plan
        drops its victims.)
        """
        if index in self._alive_set:
            self._alive_set.discard(index)
            self._alive_frozen = None
            self._parked.discard(index)
            self._pending.pop(index, None)
            program = self._programs.get(index)
            if program is not None:
                program.close()
            if not self.processes[index].byzantine:
                self._correct_order.remove(index)

    def _alive(self) -> frozenset[int]:
        """The alive set, frozen; rebuilt only after it changed."""
        alive = self._alive_frozen
        if alive is None:
            alive = self._alive_frozen = frozenset(self._alive_set)
        return alive

    def _validated(self, index: int, sends):
        n = self.n
        if isinstance(sends, Fanout):
            # One bound check over all the targets replaces one per send.
            targets = sends.targets
            if type(sends) is Broadcast:
                if len(targets) > n:
                    raise ValueError(
                        f"node {index} broadcast to {len(targets)} links, "
                        f"network has {n}"
                    )
            elif targets is not self._in_bounds and targets:
                # A tuple many senders share by reference (the committee
                # `derive` hands every reporter) is checked once; a bad
                # one is never noted, so each of its senders raises.
                if not (0 <= min(targets) and max(targets) < n):
                    link = next(to for to in targets if not 0 <= to < n)
                    raise ValueError(
                        f"node {index} addressed link {link} outside "
                        f"[0, {n})"
                    )
                self._in_bounds = targets
            return sends
        if type(sends) is list and not sends:
            return sends  # a suspended program cannot change it: no copy
        out = list(sends)
        for send in out:
            if not 0 <= send.to < n:
                raise ValueError(
                    f"node {index} addressed link {send.to} outside [0, {n})"
                )
        return out

    # ------------------------------------------------------------------
    # Round execution

    def _correct_pending(self) -> list[int]:
        """Correct (non-Byzantine) alive, unfinished indices (a copy)."""
        return list(self._correct_order)

    def _apply_crash_plan(self, proposed: dict[int, Sequence[Send]]
                          ) -> dict[int, Sequence[Send]]:
        """Validate the adversary's plan and return the delivered sends.

        The whole plan is validated before any state changes, so a
        rejected plan (:class:`CrashPlanError`) leaves ``self.crashed``
        and ``adversary.crashed`` untouched — no half-applied crashes.

        A victim's kept part is named by *position* in its proposed
        fan-out (:func:`~repro.adversary.base.kept_indices`, the rule
        the falsification recorder shares: indices pass through checked,
        a policy's ``Send`` objects are matched identity first) and is
        delivered, in the plan's order, *as a fan-out*: a ``Multicast``
        over the kept targets, a ``Scatter`` over the kept pairs, a list
        of the kept sends of a list.  No ``Send`` is built for a victim,
        and the instance delivered is always the proposed instance the
        recorded index names, even when a victim proposed duplicate
        identical sends.
        """
        alive = self._alive()
        plan = self.adversary.plan_round(self.round_no, proposed, alive)
        victims = set(plan)
        if not victims:
            return proposed
        if not victims <= alive:
            raise CrashPlanError(f"plan names non-alive victims: {victims - alive}")
        already = victims & self.crashed
        if already:
            raise CrashPlanError(f"victims already crashed: {already}")
        if len(self.adversary.crashed) + len(victims) > self.adversary.budget:
            raise CrashPlanError(
                f"budget {self.adversary.budget} exceeded by crashing {victims}"
            )
        kept_by_victim: dict[int, Sequence[Send]] = {}
        for victim, kept in plan.items():
            sends = proposed.get(victim, [])
            try:
                indices = kept_indices(kept, sends)
            except CrashPlanError as error:
                raise CrashPlanError(f"victim {victim}: {error}") from None
            kept_by_victim[victim] = (
                sends.kept(indices) if isinstance(sends, Fanout)
                else [sends[i] for i in indices])
        delivered = dict(proposed)
        obs = self.observer
        emit = self._emitting
        for victim, kept in kept_by_victim.items():
            delivered[victim] = kept
            self.crashed.add(victim)
            self._retire(victim)
            if emit:
                obs.emit(
                    "crash.apply", round_no=self.round_no, node=victim,
                    delivered=len(kept),
                    proposed=len(proposed.get(victim, [])),
                    budget_left=self.adversary.budget
                    - len(self.adversary.crashed) - len(victims),
                )
        self.adversary.note_crashes(victims)
        # A new list: `step` still charges the victims' kept sends.
        self._awake = [index for index in self._awake
                       if index not in victims]
        return delivered

    def step(self) -> None:
        """Execute one synchronous round — the only round body.

        Four phases, each charged to an attached profiler every round:

        ``plan``
            Copy the pending sends as the round's ``proposed``, apply
            the crash adversary's plan, then ask the fault model (if
            any) for per-send verdicts on what survived.  Both plans
            are validated before any delivery state changes.
        ``charge``
            Charge every resolved send exactly once and fill the round's
            :class:`~repro.sim.columnar.ColumnarRound`, no envelope yet:
            a ``Multicast`` is one row read by its target tuple (a
            broadcast row when it targets the whole network), a
            ``Scatter`` one row per message, a plain ``Send`` list one
            row per maximal constant-``(message, claim)`` run; a fan-out
            object is sized and filed once, for its first sender.  The
            round's counts are summed as it goes and advance the ledgers
            once (one ``sends_by_node`` update, one ``Metrics.flush``);
            a faulted sender is charged send by send.
            Only awake nodes are visited (a parked one proposed nothing).
        ``deliver``
            ``attach`` freezes the alive set; messages addressed to
            crashed or terminated links vanish (they were still
            charged).  Then the parked nodes some row of the column
            names are woken -- any broadcast row wakes all, otherwise
            one pass over the distinct target tuples -- so mail of any
            origin (Byzantine, duplicated, corrupted, held and released
            this round) wakes through the one rule.
        ``advance``
            Drive the awake programs, in index order, each handed a
            lazy inbox made on the spot -- an inbox is read only if its
            program reads it, recipients of the same rows read one
            shared view, and a row becomes an envelope the first time
            one is asked for, so listen-free rounds cost O(senders),
            not O(messages) -- then the monitors.  A program that
            yields :data:`~repro.sim.messages.UNTIL_MAIL` is parked: it
            stays alive in every respect (proposed with its empty
            sends, shown to both adversaries, crashable, counted as a
            reader, pending at the round cap) but is not resumed until
            it has mail, so a round costs its talkers and listeners
            with mail, not n.
        """
        obs = self.observer
        emit = self._emitting
        prof = self.profiler
        self.round_no += 1
        round_no = self.round_no
        metrics = self.metrics
        contexts = self.contexts
        processes = self.processes
        if emit:
            done = len(self.finished)
            obs.emit("round.begin", round_no=round_no,
                     alive=len(self._alive_set))

        t0 = perf_counter()
        metrics.begin_round()
        pending = self._pending
        senders = self._awake  # a parked node proposed nothing
        delivered = self._apply_crash_plan(pending.copy())
        plan = {}
        if self.fault_model is not None:
            # Verdicts name (sender, send index) in the post-crash
            # sends — a crash plan's convention.
            plan = self.fault_model.plan_round(
                round_no, delivered, self._alive())
            if plan:
                validate_plan(plan, round_no, delivered)
        t1 = perf_counter()

        column = ColumnarRound(round_no)
        add_run = column.add_run
        message_bits = metrics.message_bits
        resolve = self.authenticator.resolve
        by_node = metrics.sends_by_node
        whole = range(self.n)
        # The round's charge, flushed into the ledgers once at the end.
        correct = correct_bits = byz = byz_bits = widest = 0
        by_type: dict[type, int] = {}
        # id(fan-out) -> (count, bits, group[, by-type]); `delivered` pins ids
        fanouts: dict[int, tuple] = {}
        sent: dict[int, int] = {}  # sender -> its sends this round
        if self._held:
            # Healing partition traffic has been in flight the longest:
            # it enters the column ahead of the round's own sends.
            self._release_held(column)
        for sender in senders:
            sends = delivered[sender]
            # A fan-out's `len` is a Python call; a multicast's targets not.
            if not (sends.targets if type(sends) is Multicast else sends):
                continue
            verdicts = plan.get(sender)
            if verdicts:
                self._fill_faulted(column, sender, sends, verdicts)
                continue
            process = processes[sender]
            # `resolve(uid, None)` is `(uid, None)` whatever the policy.
            unclaimed = (sender, process.uid, None)
            if isinstance(sends, Multicast):
                # One message to many links: one row, a repeat's in its group.
                header = (unclaimed if sends.claim is None else
                          (sender, *resolve(process.uid, sends.claim)))
                message = sends.message
                fanout = fanouts.get(id(sends))
                if fanout is None:
                    targets = sends.targets
                    count = len(targets)
                    bits = message_bits(message)
                    if bits > widest:
                        widest = bits
                    row = (header, message)
                    fanout = fanouts[id(sends)] = (
                        count, bits * count, column.add_broadcast(row)
                        if targets == whole else add_run(row, targets))
                else:
                    column.add_repeat(header, (message,), fanout[2])
                count, sent_bits, _ = fanout
                cls = type(message)
                by_type[cls] = by_type.get(cls, 0) + count
            elif isinstance(sends, Scatter):
                # One message per link: a row each; a repeat likewise.
                messages = sends.messages
                fanout = fanouts.get(id(sends))
                if fanout is None:
                    sizes = [message_bits(message) for message in messages]
                    widest = max(widest, max(sizes))
                    fanout = fanouts[id(sends)] = (
                        len(sizes), sum(sizes),
                        column.add_scatter(unclaimed, messages, sends.targets),
                        tuple(Counter(map(type, messages)).items()))
                else:
                    column.add_repeat(unclaimed, messages, fanout[2])
                count, sent_bits, _, types = fanout
                for cls, number in types:
                    by_type[cls] = by_type.get(cls, 0) + number
            else:
                # A plain Send list: one row per maximal constant-(message,
                # claim) run, closed into its tuple when the next opens.
                count = len(sends)
                sent_bits = 0
                message = sends  # no run open yet: no send carries this
                run: list[int] = []
                for send in sends:
                    if send.message is not message or send.claim != claim:
                        if run:
                            add_run(row, tuple(run))
                            run = []
                        message = send.message
                        claim = send.claim
                        cls = type(message)
                        bits = message_bits(message)
                        if bits > widest:
                            widest = bits
                        row = (unclaimed if claim is None else
                               (sender, *resolve(process.uid, claim)), message)
                    run.append(send.to)
                    sent_bits += bits
                    by_type[cls] = by_type.get(cls, 0) + 1
                add_run(row, tuple(run))
            sent[sender] = count
            if process.byzantine:
                byz += count
                byz_bits += sent_bits
            else:
                correct += count
                correct_bits += sent_bits
        get = by_node.get  # one C-level update: `Counter.__setitem__` is not
        dict.update(by_node, {node: get(node, 0) + number
                              for node, number in sent.items()})
        metrics.flush(correct, correct_bits, byz, byz_bits, widest,
                      by_type.items())
        t2 = perf_counter()

        column.attach(self._alive())
        awake = self._awake
        parked = self._parked
        if parked:
            woken = column.named(parked)
            if woken:
                parked -= woken
                awake = sorted([*awake, *woken])
        if emit:
            obs.emit("deliver.fanout", round_no=round_no,
                     senders=len({header[0] for header in column.hdr}),
                     rows=len(column.hdr),
                     envelopes=column.attached_envelopes())
        t3 = perf_counter()

        programs = self._programs
        validated = self._validated
        until_mail = UNTIL_MAIL
        self._awake = still = []
        for index in awake:
            contexts[index].current_round = round_no
            try:
                sends = programs[index].send(LazyInbox(column, index))
                if sends is not until_mail:
                    sends = validated(index, sends)
            except StopIteration as stop:
                self._finish(index, stop.value)
                continue
            except Exception:
                if not processes[index].byzantine:
                    raise
                # A Byzantine strategy crashed its own program (e.g. its
                # desynchronised view made honest-code reuse blow up).
                # That is the adversary's problem, not the network's:
                # the node simply falls silent.
                if emit:
                    obs.emit("byzantine.fault", round_no=round_no,
                             node=index)
                self._finish(index, None)
                continue
            pending[index] = sends
            if sends is until_mail:
                parked.add(index)
            else:
                still.append(index)
        for monitor in self.monitors:
            try:
                monitor.on_round(self)
            except Exception as error:
                if emit:
                    obs.emit("monitor.fire", round_no=round_no,
                             monitor=type(monitor).__name__,
                             error=type(error).__name__)
                raise
        t4 = perf_counter()

        if prof is not None:
            prof.add("plan", t1 - t0)
            prof.add("charge", t2 - t1)
            prof.add("deliver", t3 - t2)
            prof.add("advance", t4 - t3)
        if emit:
            obs.emit("round.end", round_no=round_no,
                     messages=metrics.messages_per_round[-1],
                     bits=metrics.bits_per_round[-1],
                     alive=len(self._alive_set),
                     resumed=len(awake), parked=len(parked),
                     finished=len(self.finished) - done)

    def _fault_event(self, kind: str, sender: int, to: int, **data) -> None:
        if self._emitting:
            self.observer.emit(kind, round_no=self.round_no, node=sender,
                               to=to, **data)

    def _release_held(self, column: ColumnarRound) -> None:
        """Fill ``column`` with the held mail due this round.

        A receiver that crashed or terminated while the mail was in
        flight never sees it, but the books must not lose it: ``held ==
        released + released_to_dead + in_flight()`` at every instant.
        """
        stats = self.fault_stats
        alive = self._alive_set
        for to, envelope in self._held.pop(self.round_no, ()):
            sender = envelope.sender
            if to not in alive:
                stats.released_to_dead += 1
                self._fault_event("fault.release", sender, to, dead=True)
                continue
            column.add_run(envelope, (to,))
            stats.released += 1
            self._fault_event("fault.release", sender, to)

    def _fill_faulted(self, column: ColumnarRound, sender: int, sends,
                      verdicts) -> None:
        """Charge and fill one sender's sends under link-fault verdicts.

        *Every* resolved send is charged once (``Metrics.record_send``)
        whatever its verdict — a dropped message was transmitted and
        lost, a duplicate was transmitted once, a corrupted message
        charges its original, a held message at transmission — so the ledgers
        equal the fault-free execution of the same sends (per-send and
        batched charging agree, ``tests/test_metrics_ledgers.py``).
        Only delivery changes: drop fills no row, corrupt a row with
        the bit-flipped copy, duplicate a row naming the link ``1 +
        copies`` times (the receiver reads the row's one envelope that
        often), hold stashes the envelope for its release round.
        """
        stats = self.fault_stats
        process = self.processes[sender]
        byz = process.byzantine
        sender_true_uid = process.uid
        record_send = self.metrics.record_send
        resolve = self.authenticator.resolve
        get_verdict = verdicts.get
        for index in range(len(sends)):
            send = sends[index]
            message = send.message
            to = send.to
            record_send(sender, message, byzantine=byz)
            perceived_uid, recorded_claim = resolve(sender_true_uid, send.claim)
            recipients = (to,)
            verdict = get_verdict(index)
            if verdict is not None:
                kind = verdict.kind
                if kind == DROP:
                    stats.dropped += 1
                    self._fault_event("fault.drop", sender, to)
                    continue
                if kind == HOLD:
                    stats.held += 1
                    release = verdict.release_round
                    self._held.setdefault(release, []).append((to, Envelope(
                        sender, release, message,
                        perceived_uid, recorded_claim,
                    )))
                    self._fault_event("fault.hold", sender, to,
                                      release=release)
                    continue
                if kind == CORRUPT:
                    stats.corrupted += 1
                    self._fault_event("fault.corrupt", sender, to,
                                      salt=verdict.salt)
                    message = corrupt_message(message, verdict.salt)
                else:  # DUPLICATE
                    stats.duplicated += verdict.copies
                    self._fault_event("fault.dup", sender, to,
                                      copies=verdict.copies)
                    recipients = (to,) * (1 + verdict.copies)
            column.add_run(((sender, perceived_uid, recorded_claim), message),
                           recipients)

    def _expire_held(self) -> None:
        """Terminal accounting for mail still held when the run ends.

        An envelope whose release round lies beyond the last executed
        round would otherwise vanish from :class:`FaultStats` — booked
        as ``held`` forever with no terminal disposition.  Each one is
        counted in ``expired`` and announced with a ``fault.expire``
        event, so ``in_flight()`` equals ``expired`` after a completed
        run and the ledger identity ``held == released +
        released_to_dead + in_flight()`` is auditable end to end.
        """
        for release_round in sorted(self._held):
            for to, envelope in self._held[release_round]:
                self.fault_stats.expired += 1
                self._fault_event("fault.expire", envelope.sender, to,
                                  release=release_round)
        self._held.clear()

    def run(self) -> None:
        """Run rounds until every correct, non-crashed node terminates."""
        obs = self.observer
        emit = self._emitting
        if emit:
            obs.emit("run.begin", n=self.n,
                     namespace=self.cost.namespace,
                     adversary=type(self.adversary).__name__)
        self._start()
        for monitor in self.monitors:
            monitor.on_start(self)
        while self._correct_order:
            if self.round_no >= self.max_rounds:
                # One snapshot serves both the error message and the
                # structured payload — no redundant recomputation.
                pending = list(self._correct_order)
                raise NonTerminationError(
                    f"protocol still running after {self.max_rounds} rounds; "
                    f"pending correct nodes: {pending[:10]}",
                    round_no=self.round_no,
                    pending=pending,
                    metrics=self.metrics,
                )
            self.step()
        for index in sorted(set(self._programs) - set(self.finished)):
            self._programs[index].close()
        self._expire_held()
        for monitor in self.monitors:
            monitor.on_finish(self)
        if emit:
            obs.emit("run.end", round_no=self.round_no,
                     rounds=self.round_no,
                     messages=self.metrics.total_messages,
                     bits=self.metrics.total_bits,
                     crashed=len(self.crashed))
