"""Process abstraction: a synchronous protocol as a generator coroutine.

A :class:`Process` models one node of the distributed system.  Its
:meth:`Process.program` method is a generator that *yields* the node's
outgoing messages for the current round and *receives* the round's inbox
(the envelopes delivered to it at the end of the round)::

    def program(self, ctx):
        inbox = yield broadcast(ctx.n, Hello(self.uid))   # round 1
        inbox = yield []                                   # round 2: listen
        return my_result

Returning from the generator terminates the node with that value as its
protocol output.  This style keeps the round structure of the paper's
pseudocode visible in the implementation instead of burying it in an
explicit state machine.

A node that only waits to hear something -- Theorem 1.3's n - |C|
non-members waiting for one ``NewId`` -- yields
:data:`~repro.sim.messages.UNTIL_MAIL` in place of ``[]``::

        while not decided:
            inbox = yield UNTIL_MAIL        # costs nothing until mail comes
            ...

The contract: it *is* an empty send sequence (nothing is sent, every
adversary, fault model and ledger sees ``[]``); the node is resumed no
later than the first round in which it has mail; it may be resumed
earlier with an empty inbox (an executor that does not park, such as
the test oracle, resumes it every round), so it is valid only where an
empty inbox would change nothing the node does.  A node that counts
rounds or acts on a timer yields ``[]``.
"""

from __future__ import annotations

from random import Random
from typing import Generator, Optional, Sequence

from repro.crypto.shared_randomness import SharedRandomness
from repro.sim.messages import CostModel, Envelope, Send

#: Type of the coroutine driven by the network.
Program = Generator[Sequence[Send], Sequence[Envelope], object]


class Context:
    """Everything a node is allowed to know about its environment.

    Per the paper's model, a node knows ``n``, the size ``N`` of the
    original namespace, its own link index, and (in the Byzantine
    setting) has access to shared randomness.  ``rng`` is the node's
    private coin source, seeded by the runner so executions replay;
    given as a seed, it is built the first time it is read.
    """

    __slots__ = ("n", "namespace", "index", "_rng", "cost", "shared",
                 "current_round")

    def __init__(self, n: int, namespace: int, index: int, rng: Random | int,
                 cost: CostModel, shared: Optional[SharedRandomness] = None,
                 current_round: int = 0):
        self.n, self.namespace, self.index, self._rng = n, namespace, index, rng
        self.cost, self.shared, self.current_round = cost, shared, current_round

    @property
    def rng(self) -> Random:
        if not isinstance(self._rng, Random):
            self._rng = Random(self._rng)
        return self._rng


class Process:
    """Base class for protocol participants.

    Parameters
    ----------
    uid:
        The node's original identity, a value in ``[1, N]``.
    """

    #: Processes flagged Byzantine are excluded from termination checks
    #: and their sends are charged to the adversary's ledger.
    byzantine = False

    def __init__(self, uid: int):
        if uid < 1:
            raise ValueError(f"original identity must be >= 1, got {uid}")
        self.uid = uid
        self.result: object = None

    def program(self, ctx: Context) -> Program:
        """The node's synchronous program; see module docstring."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator if subclassed lazily

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(uid={self.uid})"


class IdleProcess(Process):
    """A node that sends nothing and never terminates on its own.

    Useful as a stand-in for nodes whose behaviour is irrelevant to a
    unit test.  It is resumed every round (``yield []``), mail or not.
    """

    def program(self, ctx: Context) -> Program:
        while True:
            yield []
