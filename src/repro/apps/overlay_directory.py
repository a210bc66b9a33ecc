"""An epoch-based compact-identity directory for churning overlays.

The paper motivates renaming with practical systems "such as
cryptocurrency networks", where communicating via original identities
from huge, heterogeneous namespaces is costly.  A real deployment does
not rename once: membership churns, so the directory renames in
*epochs* -- and is a *long-lived* renaming object across them: a member
keeps its compact id from the epoch that named it until it leaves.

Between epochs, nodes ``join`` and ``leave``; ``run_epoch`` executes
the crash-resilient strong renaming algorithm among the epoch's
*participants* -- the members that hold no name yet -- and the
participant ranked ``r`` takes the ``r``-th lowest free slot (names
returned by leavers first, fresh slots above the top after them).  An
epoch therefore costs its change, not its membership: its rounds,
messages and bits are those of a fresh run over the joiners alone.

What is traded for that is tightness.  Names live in ``[1, 2 *
members]`` (Definition 1.1's general ``M``) instead of ``[1,
members]``; an epoch that would leave a name above twice its
membership renames *everyone* into ``1..members`` instead -- the same
body with every member a participant -- which departures can force at
most once per ``members / 2`` of them.  Order across epochs is not
traded: the crash algorithm never promised it.

Lookup goes both ways (``compact_id`` / ``original_id``), and per-epoch
reports retain the protocol's cost so operators can watch what each
batch of churn cost -- the resource-competitive story of Theorem 1.2,
operationalised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from repro.adversary.base import CrashAdversary
from repro.core.crash_renaming import CrashRenamingConfig, run_crash_renaming
from repro.faults.base import FaultModel


@dataclass(frozen=True)
class EpochReport:
    """What one directory epoch did and what it cost.

    ``members`` counts the membership the epoch started with,
    ``renamed`` the participants it gave a name; ``rounds`` /
    ``messages`` / ``bits`` are the protocol run among the participants
    (all zero when fewer than two took part).  ``assignment`` is a
    read-only view of the whole table the epoch installed: mutating a
    report cannot corrupt directory state, and the directory never
    mutates an installed table (each epoch builds the next one), so
    churn after the epoch cannot rewrite history.
    """

    epoch: int
    members: int
    renamed: int
    departed_during_epoch: tuple[int, ...]
    rounds: int
    messages: int
    bits: int
    assignment: Mapping[int, int] = field(hash=False)


class OverlayDirectory:
    """Compact identities for a churning membership.

    Parameters
    ----------
    namespace:
        Size ``N`` of the original identity namespace.
    config:
        Crash-renaming configuration for every epoch (default: the
        paper's constants).
    seed:
        Seeds each epoch's protocol randomness (epoch index is mixed
        in, so epochs are independent but the whole history replays).
    """

    def __init__(self, namespace: int,
                 config: Optional[CrashRenamingConfig] = None,
                 seed: int = 0):
        if namespace < 1:
            raise ValueError(f"namespace must be positive, got {namespace}")
        self.namespace = namespace
        self.config = config or CrashRenamingConfig()
        self.seed = seed
        self.members: set[int] = set()
        self.epoch = 0
        self.history: list[EpochReport] = []
        self._compact_by_uid: dict[int, int] = {}
        self._uid_by_compact: dict[int, int] = {}

    # -- membership -----------------------------------------------------

    def join(self, uid: int) -> None:
        """Admit a node; the next epoch names it (a node that left and
        rejoins before an epoch ran still holds its name)."""
        if not 1 <= uid <= self.namespace:
            raise ValueError(
                f"identity {uid} outside [1, {self.namespace}]"
            )
        if uid in self.members:
            raise ValueError(f"identity {uid} is already a member")
        self.members.add(uid)

    def leave(self, uid: int) -> None:
        """Retire a node; the next epoch frees its name."""
        try:
            self.members.remove(uid)
        except KeyError:
            raise ValueError(f"identity {uid} is not a member") from None

    # -- lookups -----------------------------------------------------------

    def compact_id(self, uid: int) -> int:
        """Current compact identity of ``uid`` (kept until it leaves)."""
        try:
            return self._compact_by_uid[uid]
        except KeyError:
            raise KeyError(
                f"identity {uid} has no compact id; run an epoch after it "
                f"joins"
            ) from None

    def original_id(self, compact: int) -> int:
        """Inverse lookup: which member holds compact identity ``compact``."""
        try:
            return self._uid_by_compact[compact]
        except KeyError:
            raise KeyError(f"compact id {compact} is unassigned") from None

    def compact_id_or_none(self, uid: int) -> Optional[int]:
        """Like :meth:`compact_id`, but a miss returns ``None``.

        The hot read path of the serving layer: one dict probe, no
        exception on the (routine) lookup-before-rename miss.
        """
        return self._compact_by_uid.get(uid)

    @property
    def assignment(self) -> dict[int, int]:
        """The current ``original -> compact`` table (a copy)."""
        return dict(self._compact_by_uid)

    def withdraw_assignment(self) -> None:
        """Clear the current assignment without running an epoch.

        Used when membership empties out entirely between epochs
        (everyone released): there is nobody left to rename, but the
        departed holders' compact ids must stop resolving.
        """
        self._compact_by_uid = {}
        self._uid_by_compact = {}

    # -- epochs ---------------------------------------------------------------

    def _plan(self) -> tuple[list[int], list[int], dict[int, int]]:
        """The next epoch, without running it: ``(uids, slots, kept)``.

        ``kept`` is the part of the table that stays (members that hold
        a name), ``uids`` the participants in ascending order and
        ``slots`` the names they rename into, rank ``r`` taking
        ``slots[r - 1]``: the lowest positive integers no kept name
        occupies.  Free slots are not stored anywhere -- they are the
        gaps of the table, so install and rollback cannot lose one.  If
        that placement would put a name above ``2 * members``, the
        epoch compacts instead: nothing is kept, everyone participates,
        the slots are ``1..members``.
        """
        members = self.members
        kept = {uid: compact
                for uid, compact in self._compact_by_uid.items()
                if uid in members}
        uids = sorted(uid for uid in members if uid not in kept)
        held = set(kept.values())
        slots: list[int] = []
        slot = 0
        while len(slots) < len(uids):
            slot += 1
            if slot not in held:
                slots.append(slot)
        if max(slot, max(held, default=0)) > 2 * len(members):
            return sorted(members), list(range(1, len(members) + 1)), {}
        return uids, slots, kept

    def participants(self) -> tuple[int, ...]:
        """Who the next epoch's protocol run is among (read-only).

        The members that hold no name, ascending -- or every member,
        when the epoch will compact.  What a caller sizes a fault model
        or an adversary to: the run is among these, not the membership.
        """
        return tuple(self._plan()[0])

    def run_epoch(
        self,
        adversary: Optional[CrashAdversary] = None,
        *,
        fault_model: Optional[FaultModel] = None,
        observer: Optional[object] = None,
        monitors: Sequence[object] = (),
        seed_salt: int = 0,
    ) -> EpochReport:
        """Name the members that hold no name; install the new table.

        Leavers' names are freed, everyone else keeps theirs, and the
        crash-resilient algorithm runs among the participants only (see
        the module docstring for the slot rule and the ``2 * members``
        compaction).  With no participant nothing is run; with one the
        run has zero rounds -- either way it is an epoch with a report.

        Participants crashed by the adversary during the epoch are
        treated as having churned out: they lose membership, receive
        no compact identity, and the slot their rank would have taken
        stays free.  ``fault_model`` injects link faults into the
        epoch's protocol execution, ``observer`` receives its round
        events and ``monitors`` ride it -- the same hooks every
        ``run_*`` entry point takes.

        ``seed_salt`` varies the protocol seed for *re-executions* of
        the same epoch number: a failed epoch is rolled back without
        advancing ``self.epoch``, so a retry with ``seed_salt=0`` would
        replay the identical randomness.  ``0`` (the default) keeps the
        historical seed formula bit-for-bit.

        The install is atomic: if the execution raises (renaming
        failure under injected faults, non-termination, a protocol
        bug), no directory state changes — membership, the lookup
        tables (hence the free slots), the epoch counter, and history
        are all exactly as they were, so a serving layer can fail the
        batch and keep going.
        """
        if not self.members:
            raise ValueError("cannot run an epoch with no members")
        epoch = self.epoch + 1
        uids, slots, compact_by_uid = self._plan()
        if seed_salt:
            seed = hash((self.seed, epoch, seed_salt)) & 0x7FFFFFFF
        else:
            seed = hash((self.seed, epoch)) & 0x7FFFFFFF
        named: dict[int, int] = {}
        departed: tuple[int, ...] = ()
        rounds = messages = bits = 0
        if uids:
            result = run_crash_renaming(
                uids,
                namespace=self.namespace,
                adversary=adversary,
                config=self.config,
                seed=seed,
                fault_model=fault_model,
                observer=observer,
                monitors=monitors,
            )
            named = {uid: slots[rank - 1]
                     for uid, rank in result.outputs_by_uid().items()}
            departed = tuple(sorted(uids[index] for index in result.crashed))
            rounds = result.rounds
            messages = result.metrics.correct_messages
            bits = result.metrics.correct_bits
        compact_by_uid.update(named)
        uid_by_compact = {
            compact: uid for uid, compact in compact_by_uid.items()
        }
        if len(uid_by_compact) != len(compact_by_uid):
            raise AssertionError(
                "renaming produced duplicate compact ids -- protocol bug"
            )
        report = EpochReport(
            epoch=epoch,
            members=len(self.members),
            renamed=len(named),
            departed_during_epoch=departed,
            rounds=rounds,
            messages=messages,
            bits=bits,
            assignment=MappingProxyType(compact_by_uid),
        )
        # Install: nothing above mutated self, so an exception anywhere
        # earlier leaves the directory exactly as it was.  The lookup
        # tables are rebound wholesale (never mutated in place), which
        # is what lets a concurrent reader on another thread always see
        # a consistent epoch, and a report share the table it installed.
        self.epoch = epoch
        self.members -= set(departed)
        self._compact_by_uid = compact_by_uid
        self._uid_by_compact = uid_by_compact
        self.history.append(report)
        return report
