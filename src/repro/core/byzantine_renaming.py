"""Byzantine-resilient, order-preserving strong renaming (Theorem 1.3).

Structure (Section 3.1):

1. **Committee election** -- a lottery over the whole original
   namespace ``[N]``, drawn from shared randomness, elects *candidate*
   identities; a node owning a candidate identity announces itself and
   becomes a committee member.  Authentication stops non-candidates
   from impersonating candidates, but a Byzantine candidate may
   announce to only part of the network, so correct nodes hold
   *views* ``C_v`` with ``G \\subseteq C_v`` (Lemma 3.5).
2. **Identity aggregation** -- every node sends its (authenticated)
   original identity to the committee members in its view; member ``v``
   obtains the identity list ``L_v``.
3. **Fingerprinted divide-and-conquer consensus** -- the committee
   agrees on ``L`` segment by segment: hash + count through
   ``Validator``; ``Consensus`` on the validator's ``same`` flag; a
   ``diff`` poll deciding whether enough members hold the agreed
   segment verbatim; on failure the segment splits in half and both
   halves are pushed (singletons fall back to plain bit consensus).
   Members whose accepted segment does not match the agreed hash mark
   it *dirty* and repair their local count so global ranks stay right.
4. **Distribution** -- each member sends every registered node the rank
   of its identity in ``L`` (or ``null`` inside dirty segments); a node
   adopts the first value reported by more than ``b_max`` committee
   members, which only correct members can achieve.

Rounds scale with the *actual* number of Byzantine nodes: with no
discrepancies the very first segment (the whole of ``[1, N]``)
validates, so the loop runs once; each withheld/forged identity can
force at most ``O(log N)`` extra splits (Lemma 3.10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import AbstractSet, Callable, Iterable, Mapping, Optional, Sequence

from repro.consensus.binary import DEFAULT_ITERATIONS, binary_consensus
from repro.consensus.comm import CommitteeComm, exchange, members_of
from repro.consensus.validator import validator
from repro.core.identity_list import IdentityList
from repro.crypto.hashing import FingerprintFamily
from repro.crypto.shared_randomness import SharedRandomness
from repro.sim.columnar import derive, messages, runs, sender_uids, senders
from repro.sim.messages import (
    UNTIL_MAIL,
    CostModel,
    Message,
    Scatter,
    broadcast,
    multicast,
    record,
)
from repro.sim.node import Context, Process, Program
from repro.sim.runner import ExecutionResult, admit_identities, run_network


class ByzantineRenamingError(RuntimeError):
    """The execution left the protocol's with-high-probability envelope
    (e.g. the committee lottery elected no correct member)."""


# ---------------------------------------------------------------------------
# Messages


@record
class Elect(Message, fixed_width=True):
    """Committee announcement ``<ELECT, ID(v)>``."""

    uid: int

    def payload_bits(self, cost: CostModel) -> int:
        return cost.id_bits


@record
class IdAnnounce(Message, fixed_width=True):
    """Identity aggregation ``<ID, ID(v)>``."""

    uid: int

    def payload_bits(self, cost: CostModel) -> int:
        return cost.id_bits


@record
class NewId(Message, fixed_width=True):
    """Distribution ``<NEW, NewID(u)>`` (``None`` encodes ``null``)."""

    value: Optional[int]

    def payload_bits(self, cost: CostModel) -> int:
        return cost.index_bits + 1


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class CommitteeParameters:
    """Derived, common-knowledge parameters of one execution."""

    candidate_probability: float
    max_byzantine: int
    b_max: int
    cg_lower: int
    diff_threshold: int
    consensus_iterations: int
    full_committee: bool

    def validate(self) -> None:
        if 2 * self.b_max >= self.cg_lower:
            raise ByzantineRenamingError(
                f"infeasible committee bounds: b_max={self.b_max} must be "
                f"< cg/2={self.cg_lower / 2}"
            )


@dataclass(frozen=True)
class ByzantineRenamingConfig:
    """Tunables of the Byzantine-resilient algorithm.

    ``epsilon0`` is the paper's resilience margin
    (``f < (1/3 - epsilon0) * n``).  ``max_byzantine`` is the corruption
    bound the thresholds are provisioned for; it defaults to the paper's
    worst case.  ``candidate_probability`` overrides the paper's
    ``p0 = 8 log n / ((1 - 3 eps) eps^2 n)``; at practical ``n`` that
    formula exceeds 1, i.e. the paper's constants put *every* node on
    the committee, so benchmarks pass a smaller probability together
    with a smaller ``max_byzantine`` (documented in EXPERIMENTS.md).
    When the concentration slack cannot separate ``b_max`` from
    ``cg / 2``, the configuration falls back to the always-sound full
    committee (``p0 = 1``).
    """

    epsilon0: float = 0.05
    max_byzantine: Optional[int] = None
    candidate_probability: Optional[float] = None
    pool_constant: float = 8.0
    slack_sigmas: float = 2.5
    consensus_iterations: int = DEFAULT_ITERATIONS
    #: Ablation switch: with ``False`` the committee exchanges raw
    #: segment contents (the one-positions) instead of O(log N)-bit
    #: fingerprints.  Control flow is identical; each validator vote
    #: then costs up to ``n log N`` bits -- the cost the paper's
    #: fingerprinting trick removes (measured in F10).
    use_fingerprints: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon0 < 1.0 / 3.0:
            raise ValueError(
                f"epsilon0 must lie in (0, 1/3), got {self.epsilon0}"
            )

    def default_max_byzantine(self, n: int) -> int:
        return max(0, math.floor((1.0 / 3.0 - self.epsilon0) * n) )

    @lru_cache(maxsize=64)
    def parameters(self, n: int) -> CommitteeParameters:
        """The common-knowledge parameters for ``n`` nodes.  Derived
        once per ``(config, n)``: every node of a run asks for them."""
        f_max = (
            self.max_byzantine
            if self.max_byzantine is not None
            else self.default_max_byzantine(n)
        )
        if not 0 <= f_max < max(1, math.ceil(n / 3.0)):
            raise ValueError(
                f"max_byzantine={f_max} violates f < n/3 for n={n}"
            )
        log_n = math.log2(n) if n > 1 else 1.0
        if self.candidate_probability is not None:
            p0 = self.candidate_probability
            if not 0.0 < p0 <= 1.0:
                raise ValueError(f"candidate probability {p0} not in (0, 1]")
        else:
            p0 = min(
                1.0,
                self.pool_constant * log_n
                / ((1.0 - 3.0 * self.epsilon0) * self.epsilon0 ** 2 * n),
            )

        params = self._concentration_bounds(n, f_max, p0, log_n)
        if 2 * params.b_max >= params.cg_lower:
            # Sampled committee too small to separate the Byzantine bound
            # from half the correct quorum: fall back to the full
            # committee, where the bounds are exact and f < n/3 suffices.
            params = self._concentration_bounds(n, f_max, 1.0, log_n)
        params.validate()
        return params

    def _concentration_bounds(
        self, n: int, f_max: int, p0: float, log_n: float
    ) -> CommitteeParameters:
        if p0 >= 1.0:
            b_max = f_max
            cg = n - f_max
            full = True
        else:
            # Poisson-style deviation bounds: the committee memberships
            # are independent Bernoullis, so ``slack_sigmas`` standard
            # deviations around the means bound |B| from above and |G|
            # from below, with per-run error exp(-slack^2/2)-ish.  The
            # paper uses log-factor slack for with-high-probability-in-n
            # guarantees; the sigma form keeps committees measurable at
            # benchmark scales (EXPERIMENTS.md discusses the trade).
            mu_byz = f_max * p0
            mu_good = (n - f_max) * p0
            slack = self.slack_sigmas
            b_max = math.floor(mu_byz + slack * math.sqrt(max(mu_byz, 1.0))) + 1
            cg = max(1, math.floor(
                mu_good - slack * math.sqrt(max(mu_good, 1.0))
            ))
            full = False
        return CommitteeParameters(
            candidate_probability=min(p0, 1.0),
            max_byzantine=f_max,
            b_max=b_max,
            cg_lower=cg,
            diff_threshold=max(b_max + 1, math.ceil(cg / 2)),
            consensus_iterations=self.consensus_iterations,
            full_committee=full,
        )


# ---------------------------------------------------------------------------
# The protocol


class ByzantineRenamingNode(Process):
    """One correct participant of the Byzantine-resilient algorithm."""

    def __init__(self, uid: int, config: Optional[ByzantineRenamingConfig] = None):
        super().__init__(uid)
        self.config = config or ByzantineRenamingConfig()
        # Introspection for tests and the F9 ablation.
        self.was_committee = False
        self.segments_processed = 0
        self.segments_split = 0
        self.dirty_intervals: list[tuple[int, int]] = []
        #: Every interval popped from the segment stack, in order --
        #: Lemma 3.8 says this log is identical at all correct members.
        self.segment_log: list[tuple[int, int]] = []

    # -- hooks (overridden by Byzantine strategy subclasses) -----------------

    def _make_comm(self, view_links: Iterable[int], params: CommitteeParameters
                   ) -> CommitteeComm:
        return CommitteeComm(view_links, params.b_max)

    def _announce_targets(self, view: Mapping[int, int], ctx: Context) -> list[int]:
        """Links this node announces its identity to (all of its view)."""
        return sorted(view)

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _shared(ctx: Context) -> SharedRandomness:
        if ctx.shared is None:
            raise ByzantineRenamingError(
                "Byzantine renaming requires shared randomness; pass "
                "shared=SharedRandomness(seed) when running the network"
            )
        return ctx.shared

    # -- the synchronous program ----------------------------------------------

    def program(self, ctx: Context) -> Program:
        shared = self._shared(ctx)
        params = self.config.parameters(ctx.n)
        candidates = shared.bernoulli_subset(
            "committee-lottery", ctx.namespace, params.candidate_probability
        )
        elected = self.uid in candidates

        # Round 1: committee election and announcement (a view, derived).
        inbox = yield (broadcast(ctx.n, Elect(self.uid)) if elected else [])
        view, _ = derive(inbox, _committee_view, candidates)
        if not view:
            raise ByzantineRenamingError(
                f"node {self.uid}: committee lottery produced an empty view "
                f"(p0={params.candidate_probability}); re-run with another "
                f"shared seed or a larger candidate probability"
            )
        members = elected and derive(inbox, _committee_members, candidates)

        # Round 2: original identity aggregation.
        announce = IdAnnounce(self.uid)
        inbox = yield multicast(self._announce_targets(view, ctx), announce)

        if not elected:
            result = yield from self._await_new_id(params, view, first_inbox=None)
            return result

        self.was_committee = True
        uids, links = derive(inbox, _registry)
        result = yield from self._committee_program(
            ctx, params, view, members,
            IdentityList(ctx.namespace, uids), uids, links, shared
        )
        return result

    # -- committee side ---------------------------------------------------------

    def _committee_program(
        self,
        ctx: Context,
        params: CommitteeParameters,
        view: Mapping[int, int],
        members: frozenset[int],
        identity_list: IdentityList,
        uids: tuple[int, ...],
        links: tuple[int, ...],
        shared: SharedRandomness,
    ):
        comm = self._make_comm(members, params)
        iterations = params.consensus_iterations
        tuple_width = ctx.cost.digest_bits + ctx.cost.counter_bits

        stack: list[tuple[int, int]] = [(1, ctx.namespace)]
        dirty: list[tuple[int, int]] = []
        step = 0
        while stack:
            lo, hi = stack.pop()
            step += 1
            self.segments_processed += 1
            self.segment_log.append((lo, hi))

            if lo == hi:
                # Base case: classical consensus on the single bit.
                agreed_bit = yield from binary_consensus(
                    comm, identity_list[lo], shared, f"bit:{step}", iterations
                )
                if agreed_bit:
                    identity_list.set_bit(lo)
                else:
                    identity_list.clear_bit(lo)
                continue

            count = identity_list.count_ones_in(lo, hi)
            if self.config.use_fingerprints:
                hasher = FingerprintFamily.of(shared).draw(f"segment:{step}")
                digest: object = identity_list.fingerprint(hasher, lo, hi)
                width = tuple_width
            else:
                # Ablation: ship the segment itself.  Equality of these
                # tuples is exactly segment equality, so the recursion
                # behaves identically -- only the bit cost changes.
                digest = tuple(identity_list.ones_in(lo, hi))
                width = max(1, count) * ctx.cost.id_bits + ctx.cost.counter_bits
            same, agreed = yield from validator(
                comm, (digest, count), width
            )
            same_agreed = yield from binary_consensus(
                comm, same, shared, f"same:{step}", iterations
            )
            if same_agreed:
                # Weak agreement: every correct member now holds the same
                # ``agreed`` tuple, which is some correct member's input.
                diff = 0 if agreed == (digest, count) else 1
                reports = yield from exchange(comm, f"diff:{step}", diff,
                                              width=1)
                loud = sum(1 for value in reports.values() if value == 1)
                diff_merged = 1 if loud >= params.diff_threshold else diff
                diff_agreed = yield from binary_consensus(
                    comm, diff_merged, shared, f"diff:{step}", iterations
                )
            if not same_agreed or diff_agreed:
                mid = (lo + hi) // 2
                stack += [(mid + 1, hi), (lo, mid)]
                self.segments_split += 1
            elif diff:
                # Accepted segment, but mine is not the agreed one: mark
                # dirty and repair the count so global ranks stay right.
                agreed_count = (
                    agreed[1]
                    if isinstance(agreed, tuple) and len(agreed) == 2
                    and isinstance(agreed[1], int)
                    else count
                )
                identity_list.replace_segment(
                    lo, hi, max(0, min(agreed_count, hi - lo + 1))
                )
                dirty.append((lo, hi))

        self.dirty_intervals = list(dirty)

        # Distribution: answer every registered node, in one merge.  The
        # members of one view whose registries and ranks agree (all
        # correct ones, as a rule) send one `Scatter`, kept on their
        # member set: the engine files it once and the rest as repeats.
        ranks = tuple(identity_list.ranks(uids, sorted(dirty)))
        key = (NewId, links, ranks)
        try:
            answers = comm.kept[key]
        except KeyError:
            answers = comm.kept[key] = Scatter(links, map(NewId, ranks))
        inbox = yield answers
        result = yield from self._await_new_id(params, view, first_inbox=inbox)
        return result

    # -- node side ----------------------------------------------------------------

    def _await_new_id(self, params: CommitteeParameters,
                      view: Mapping[int, int], first_inbox):
        """Wait until more than ``b_max`` view members report one value.

        A view member's first answer counts, in delivery order.  The
        inbox is read as :func:`~repro.sim.columnar.runs`: the members
        that repeat one distribution ``Scatter`` are one run, tallied
        at once -- its value, times those of its senders still in
        ``unheard`` (the view members not heard yet), which one
        ``difference_update`` strikes off.  ``unheard`` is made when the
        first inbox is read: every non-member waits here, parked, from
        round 2 on."""
        counts: dict[int, int] = {}
        inbox = first_inbox
        if inbox is None:
            inbox = yield UNTIL_MAIL
        unheard = set(view)
        while True:
            for message, sent_by in runs(inbox):
                if isinstance(message, NewId):
                    before = len(unheard)
                    unheard.difference_update(sent_by)
                    heard = before - len(unheard)
                    value = message.value
                    if heard and value is not None:
                        counts[value] = counts.get(value, 0) + heard
            for value, count in counts.items():
                if count >= params.b_max + 1:
                    return value
            inbox = yield UNTIL_MAIL


def _committee_view(inbox, candidates: AbstractSet[int]):
    """Read-only ``link -> uid`` of authentic candidates, and its sorted
    links: read from round 1's rows, no envelope built."""
    view: dict[int, int] = {}
    for link, uid, message in zip(senders(inbox), sender_uids(inbox),
                                  messages(inbox)):
        if (
            isinstance(message, Elect)
            and uid in candidates
            and message.uid == uid
            and link not in view
        ):
            view[link] = uid
    return MappingProxyType(view), tuple(sorted(view))


def _registry(inbox) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Round 2's registry as ``(uids, links)``: every authentic announced
    uid, ascending, and the link it was first heard on."""
    registry: dict[int, int] = {}
    for link, uid, message in zip(senders(inbox), sender_uids(inbox),
                                  messages(inbox)):
        if isinstance(message, IdAnnounce) and uid:
            registry.setdefault(uid, link)
    uids = tuple(sorted(registry))
    return uids, tuple([registry[uid] for uid in uids])


def _committee_members(inbox, candidates: AbstractSet[int]):
    """:func:`_committee_view`'s links as the view's one member set."""
    return members_of(derive(inbox, _committee_view, candidates)[1])


# ---------------------------------------------------------------------------
# Runner

#: A factory turning ``(uid, config)`` into a Byzantine process.
ByzantineFactory = Callable[[int, ByzantineRenamingConfig], Process]


def run_byzantine_renaming(
    uids: Sequence[int],
    *,
    namespace: Optional[int] = None,
    byzantine: Optional[Mapping[int, ByzantineFactory]] = None,
    config: Optional[ByzantineRenamingConfig] = None,
    shared_seed: int = 0,
    max_rounds: int = 200_000,
    **network: object,
) -> ExecutionResult:
    """Run the Byzantine-resilient algorithm.

    ``byzantine`` maps corrupted original identities to strategy
    factories (see :mod:`repro.adversary.byzantine`).  Per the static
    adversary model, the corrupt set must be chosen independently of
    ``shared_seed``.  ``network`` is handed to
    :func:`repro.sim.runner.run_network` as it stands.
    """
    uids, cost = admit_identities(uids, namespace)
    config = config or ByzantineRenamingConfig()
    byzantine = dict(byzantine or {})
    unknown = set(byzantine) - set(uids)
    if unknown:
        raise ValueError(f"byzantine identities not in the system: {unknown}")
    f_bound = config.parameters(len(uids)).max_byzantine
    if len(byzantine) > f_bound:
        raise ValueError(
            f"{len(byzantine)} Byzantine nodes exceed the configured bound "
            f"{f_bound}; raise max_byzantine or corrupt fewer nodes"
        )

    processes: list[Process] = []
    for uid in uids:
        if uid in byzantine:
            processes.append(byzantine[uid](uid, config))
        else:
            processes.append(ByzantineRenamingNode(uid, config))
    return run_network(
        processes, cost, shared=SharedRandomness(shared_seed),
        max_rounds=max_rounds, **network,
    )
