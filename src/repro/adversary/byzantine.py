"""Static Byzantine corruption strategies ("Carlo").

Carlo picks the corrupt set before execution (and, by the static-model
convention, independently of the shared randomness).  Each strategy is
a factory ``(uid, config) -> Process`` suitable for the ``byzantine``
argument of :func:`repro.core.byzantine_renaming.run_byzantine_renaming`.

The strategies cover the attack channels the algorithm defends:

* :func:`silent` -- contributes nothing; pure liveness pressure.
* :func:`crash_simulator` -- participates in election and aggregation,
  then dies; costs the committee a member without creating conflicts.
* :func:`make_withholder` -- announces its identity to only part of the
  committee, which is *the* attack that desynchronises identity lists
  and forces the divide-and-conquer splits of Lemma 3.10.
* :func:`make_equivocator` -- a corrupted committee member that sends
  different votes to different members in every subprotocol round and
  withholds its identity from half the network; stresses the threshold
  logic of graded broadcast / Validator / Consensus.
"""

from __future__ import annotations

import math
from random import Random


from repro.consensus.comm import CommitteeComm
from repro.core.byzantine_renaming import (
    ByzantineRenamingConfig,
    ByzantineRenamingNode,
    Elect,
    IdAnnounce,
)
from repro.sim.messages import (
    UNTIL_MAIL,
    Message,
    Send,
    broadcast,
    multicast,
    record,
)
from repro.sim.node import Context, Process, Program


class SilentByzantine(Process):
    """Sends nothing, ever (indistinguishable from an initial crash)."""

    byzantine = True

    def program(self, ctx: Context) -> Program:
        while True:
            yield UNTIL_MAIL


class CrashSimulatingByzantine(Process):
    """Joins election and aggregation honestly, then goes silent.

    If it holds a candidate identity this wastes a committee seat; the
    thresholds must absorb the missing votes.
    """

    byzantine = True

    def __init__(self, uid: int, config: ByzantineRenamingConfig):
        super().__init__(uid)
        self.config = config

    def program(self, ctx: Context) -> Program:
        params = self.config.parameters(ctx.n)
        candidates = ctx.shared.bernoulli_subset(
            "committee-lottery", ctx.namespace, params.candidate_probability
        )
        inbox = yield (broadcast(ctx.n, Elect(self.uid))
                       if self.uid in candidates else [])
        view = sorted({
            envelope.sender for envelope in inbox
            if isinstance(envelope.message, Elect)
            and envelope.sender_uid in candidates
        })
        yield multicast(view, IdAnnounce(self.uid))
        while True:
            # It reads nothing from here on: with a committee seat it is
            # mailed (and woken) every round, without one it parks.
            yield UNTIL_MAIL


class WithholdingByzantine(ByzantineRenamingNode):
    """Announces its identity to only a fraction of its committee view.

    Correct members then disagree on the bit at this node's position,
    so every enclosing segment hash mismatches and the committee must
    split down to the singleton -- about ``log2 N`` extra iterations per
    withholder, the workload behind experiment F9.  If elected, it
    additionally deserts the committee (stays silent in the loop).
    """

    byzantine = True

    def __init__(self, uid: int, config: ByzantineRenamingConfig,
                 fraction: float = 0.5, salt: int = 0):
        super().__init__(uid, config)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self.fraction = fraction
        self.salt = salt

    def _announce_targets(self, view, ctx):
        links = sorted(view)
        keep = math.ceil(len(links) * self.fraction)
        rng = Random(hash((self.uid, self.salt)))
        return sorted(rng.sample(links, keep)) if keep else []

    def _committee_program(self, *args, **kwargs):
        # Not UNTIL_MAIL: the committee mails a deserter every round,
        # so parking would wake and re-park it each time.
        while True:
            yield []

    def _await_new_id(self, params, view, first_inbox):
        while True:
            yield UNTIL_MAIL


class EquivocatingComm(CommitteeComm):
    """Sends honest votes to even links and perturbed votes to odd links."""

    def outgoing_value(self, kind, value, receiver):
        if receiver % 2 == 0:
            return value
        if value in (0, 1):
            return 1 - value
        if isinstance(value, tuple) and len(value) == 2:
            digest, count = value
            if isinstance(digest, int) and isinstance(count, int):
                return (digest ^ 0x5DEECE66D, count + 1)
        return value


class EquivocatingByzantine(ByzantineRenamingNode):
    """A corrupted committee member that equivocates in every vote round
    and withholds its identity announcement from odd-numbered links."""

    byzantine = True

    def _make_comm(self, view_links, params):
        return EquivocatingComm(view_links, params.b_max)

    def _announce_targets(self, view, ctx):
        return [link for link in sorted(view) if link % 2 == 0]


class ChaosMonkeyByzantine(Process):
    """Sprays syntactically well-formed garbage at every round.

    Sends random messages of every protocol type -- forged SubVotes
    with random steps/kinds/values, ELECTs for its own identity, bogus
    NewIds, stray IdAnnounces -- to random links, every round, forever.
    Useless as a *strategic* adversary, invaluable as a robustness
    fuzzer: honest nodes must discard all of it (wrong step, wrong
    kind, sender outside view, value below the accept threshold) and
    still meet every guarantee.  See tests/test_chaos_fuzz.py.
    """

    byzantine = True

    def __init__(self, uid: int, config: ByzantineRenamingConfig,
                 salt: int = 0, volume: int = 6):
        super().__init__(uid)
        self.config = config
        self.salt = salt
        self.volume = volume

    def _random_message(self, rng: Random, n: int):
        from repro.consensus.comm import SubVote
        from repro.core.byzantine_renaming import NewId

        kind = rng.randrange(5)
        if kind == 0:
            return Elect(self.uid)
        if kind == 1:
            return IdAnnounce(self.uid)
        if kind == 2:
            return NewId(rng.choice([None, rng.randint(1, n)]))
        if kind == 3:
            return SubVote(rng.randint(0, 500),
                           rng.choice(["gb-input", "gb-echo", "diff:1",
                                       "coin-commit:x", "junk"]),
                           rng.choice([0, 1, "__bottom__",
                                       (rng.getrandbits(32), rng.randint(0, n))]),
                           width=8)
        return SlotNoise(rng.getrandbits(16))

    def program(self, ctx: Context) -> Program:
        rng = Random(hash((self.uid, self.salt)))
        while True:
            sends = [
                Send(rng.randrange(ctx.n), self._random_message(rng, ctx.n))
                for _ in range(self.volume)
            ]
            yield sends


@record
class SlotNoise(Message):
    """A message type no honest protocol knows, for type-filter tests."""

    payload: int

    def payload_bits(self, cost) -> int:
        return 16


# ---------------------------------------------------------------------------
# Factories (the public face used by run_byzantine_renaming)


def silent(uid: int, config: ByzantineRenamingConfig) -> Process:
    return SilentByzantine(uid)


def crash_simulator(uid: int, config: ByzantineRenamingConfig) -> Process:
    return CrashSimulatingByzantine(uid, config)


def make_withholder(fraction: float = 0.5, salt: int = 0):
    def factory(uid: int, config: ByzantineRenamingConfig) -> Process:
        return WithholdingByzantine(uid, config, fraction=fraction, salt=salt)

    return factory


def make_equivocator():
    def factory(uid: int, config: ByzantineRenamingConfig) -> Process:
        return EquivocatingByzantine(uid, config)

    return factory


def make_chaos_monkey(salt: int = 0, volume: int = 6):
    def factory(uid: int, config: ByzantineRenamingConfig) -> Process:
        return ChaosMonkeyByzantine(uid, config, salt=salt, volume=volume)

    return factory


def corrupt_set(uids, f: int, rng: Random) -> list[int]:
    """Carlo's static choice: ``f`` victims drawn before execution."""
    if f > len(list(uids)):
        raise ValueError(f"cannot corrupt {f} of {len(list(uids))} nodes")
    return sorted(rng.sample(list(uids), f))
