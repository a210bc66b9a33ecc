"""Per-round invariant monitors for the falsification harness.

A :class:`Monitor` hooks into :meth:`repro.sim.network.SyncNetwork.step`
via the network's ``monitors=`` parameter and checks one safety
invariant after every completed round.  A falsified invariant raises a
structured :class:`InvariantViolation` carrying the round and the
offending nodes, so the campaign runner (:mod:`repro.falsify.campaign`)
can serialize a replayable repro artifact on the spot.

The concrete monitors cover the paper's safety claims:

* :class:`UniqueNames` — no two decided correct nodes share a name
  (Theorems 1.2/1.3, uniqueness).
* :class:`NamespaceBounds` — decided names stay inside the target
  namespace: ``strong`` ``[1, n]``, ``tight`` ``[1, n + f]``, or
  ``loose`` ``[1, 8n]`` depending on the algorithm's contract.
* :class:`CrashBudget` — the adversary never exceeds its budget ``f``
  and the network/adversary crash ledgers stay in lock-step.
* :class:`LedgerMonotone` — the bit/message ledgers only grow and the
  per-round series always sums to the running totals.
* :class:`RoundBudget` — a watchdog that fails fast (with the pending
  node set) long before the network's hard 1M-round cap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.experiments import lookup

if TYPE_CHECKING:  # annotations only; sim never imports falsify back
    from repro.sim.network import SyncNetwork


class InvariantViolation(AssertionError):
    """A per-round safety invariant was falsified.

    Attributes
    ----------
    invariant:
        The short name of the violated invariant (``monitor.name``).
    round_no:
        The round after which the violation was detected.
    nodes:
        Link indices of the offending nodes (may be empty).
    detail:
        A JSON-friendly payload with invariant-specific evidence.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        round_no: int,
        nodes: Sequence[int] = (),
        detail: object = None,
    ):
        super().__init__(f"[{invariant}] round {round_no}: {message}")
        self.invariant = invariant
        self.round_no = round_no
        self.nodes = tuple(nodes)
        self.detail = detail


class Monitor:
    """Base class: override any of the three hooks; raise via :meth:`fail`."""

    #: Short, stable identifier used in violations and repro artifacts.
    name = "monitor"

    def on_start(self, network: "SyncNetwork") -> None:
        """Called once after the processes are started, before round 1."""

    def on_round(self, network: "SyncNetwork") -> None:
        """Called after every completed round."""

    def on_finish(self, network: "SyncNetwork") -> None:
        """Called once after every correct, non-crashed node terminated."""

    def fail(
        self,
        network: "SyncNetwork",
        message: str,
        *,
        nodes: Sequence[int] = (),
        detail: object = None,
    ) -> None:
        raise InvariantViolation(
            self.name, message,
            round_no=network.round_no, nodes=nodes, detail=detail,
        )


def decided_correct(network: "SyncNetwork") -> dict[int, object]:
    """Outputs of nodes that terminated and are neither crashed nor
    Byzantine — the set all renaming guarantees quantify over."""
    return {
        index: value
        for index, value in network.finished.items()
        if index not in network.crashed
        and not network.processes[index].byzantine
    }


class UniqueNames(Monitor):
    """No two decided correct nodes may hold the same name."""

    name = "unique-names"

    def on_round(self, network: "SyncNetwork") -> None:
        holders: dict[object, list[int]] = {}
        for index, value in decided_correct(network).items():
            holders.setdefault(value, []).append(index)
        duplicates = {
            value: nodes for value, nodes in holders.items()
            if len(nodes) > 1 and value is not None
        }
        if duplicates:
            offending = sorted(
                node for nodes in duplicates.values() for node in nodes
            )
            self.fail(
                network,
                f"duplicate names {sorted(duplicates)} held by nodes "
                f"{offending}",
                nodes=offending,
                detail={str(value): nodes
                        for value, nodes in duplicates.items()},
            )

    on_finish = on_round


class NamespaceBounds(Monitor):
    """Every decided name must be an integer in ``[lo, hi]``.

    Use the constructors for the paper's three contracts:
    :meth:`strong` (``[1, n]``), :meth:`tight` (``[1, n + f]``), or
    :meth:`loose` (``[1, 8n]``).
    """

    name = "namespace-bounds"

    def __init__(self, hi: int, lo: int = 1, label: str = "strong"):
        if hi < lo:
            raise ValueError(f"empty namespace [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.label = label

    @classmethod
    def strong(cls, n: int) -> "NamespaceBounds":
        return cls(n, label="strong")

    @classmethod
    def tight(cls, n: int, f: int) -> "NamespaceBounds":
        return cls(n + f, label="tight")

    @classmethod
    def loose(cls, n: int) -> "NamespaceBounds":
        return cls(8 * n, label="loose")

    def on_round(self, network: "SyncNetwork") -> None:
        out_of_range = {
            index: value
            for index, value in decided_correct(network).items()
            if not (isinstance(value, int) and not isinstance(value, bool)
                    and self.lo <= value <= self.hi)
        }
        if out_of_range:
            self.fail(
                network,
                f"names outside {self.label} namespace [{self.lo}, {self.hi}]: "
                f"{out_of_range}",
                nodes=sorted(out_of_range),
                detail={str(k): repr(v) for k, v in out_of_range.items()},
            )

    on_finish = on_round


class CrashBudget(Monitor):
    """Crash-budget conservation: never more than ``f`` crashes, the
    network and adversary ledgers agree, and crashes are permanent."""

    name = "crash-budget"

    def __init__(self) -> None:
        self._seen: set[int] = set()

    def on_round(self, network: "SyncNetwork") -> None:
        adversary = network.adversary
        crashed = set(network.crashed)
        if len(crashed) > adversary.budget:
            self.fail(
                network,
                f"{len(crashed)} crashes exceed budget {adversary.budget}",
                nodes=sorted(crashed),
                detail={"budget": adversary.budget, "crashed": sorted(crashed)},
            )
        if crashed != adversary.crashed:
            drift = crashed ^ adversary.crashed
            self.fail(
                network,
                f"network/adversary crash ledgers disagree on {sorted(drift)}",
                nodes=sorted(drift),
                detail={"network": sorted(crashed),
                        "adversary": sorted(adversary.crashed)},
            )
        if not self._seen <= crashed:
            revived = self._seen - crashed
            self.fail(
                network,
                f"crashed nodes came back to life: {sorted(revived)}",
                nodes=sorted(revived),
            )
        self._seen = crashed


class LedgerMonotone(Monitor):
    """Bit/message ledger sanity: totals never decrease and the
    per-round series always sums to the running totals."""

    name = "ledger-monotone"

    def __init__(self) -> None:
        self._last_totals = (0, 0)
        self._last_max = 0

    def on_round(self, network: "SyncNetwork") -> None:
        metrics = network.metrics
        totals = (metrics.total_messages, metrics.total_bits)
        if totals[0] < self._last_totals[0] or totals[1] < self._last_totals[1]:
            self.fail(
                network,
                f"ledger totals decreased: {self._last_totals} -> {totals}",
                detail={"before": self._last_totals, "after": totals},
            )
        if metrics.max_message_bits < self._last_max:
            self.fail(
                network,
                f"max message size shrank: {self._last_max} -> "
                f"{metrics.max_message_bits}",
            )
        per_round = (sum(metrics.messages_per_round),
                     sum(metrics.bits_per_round))
        if per_round != totals:
            self.fail(
                network,
                f"per-round ledgers sum to {per_round}, totals say {totals}",
                detail={"per_round": per_round, "totals": totals},
            )
        if len(metrics.messages_per_round) != metrics.rounds:
            self.fail(
                network,
                f"{len(metrics.messages_per_round)} ledger entries for "
                f"{metrics.rounds} rounds",
            )
        self._last_totals = totals
        self._last_max = metrics.max_message_bits


class RoundBudget(Monitor):
    """Watchdog: fail once the execution exceeds ``max_rounds`` rounds.

    Much tighter than the network's hard cap, so falsification
    campaigns turn hangs into structured violations (with the pending
    node set attached) in seconds rather than hours.
    """

    name = "round-budget"

    def __init__(self, max_rounds: int):
        if max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
        self.max_rounds = max_rounds

    def on_round(self, network: "SyncNetwork") -> None:
        if network.round_no > self.max_rounds:
            # The network maintains this set incrementally; asking it is
            # O(pending) instead of rescanning all n nodes every round.
            pending = network._correct_pending()
            self.fail(
                network,
                f"still running after {self.max_rounds} rounds; "
                f"pending correct nodes: {pending[:10]}",
                nodes=pending,
                detail={"max_rounds": self.max_rounds,
                        "pending": pending[:32]},
            )


def default_watchdog_rounds(n: int) -> int:
    """A generous per-scenario round budget: every protocol in this
    repo terminates in ``O(f + log n)``-ish rounds, so ``32 n + 256``
    flags a hang orders of magnitude sooner than the 1M-round cap."""
    return 32 * n + 256


def default_monitors(
    n: int,
    f: int = 0,
    *,
    bound: str = "strong",
    watchdog_rounds: Optional[int] = None,
) -> tuple[Monitor, ...]:
    """The standard falsification suite for one renaming execution.

    ``bound`` selects the namespace contract (``strong`` | ``tight`` |
    ``loose``); ``watchdog_rounds`` overrides the hang watchdog
    (``None`` picks :func:`default_watchdog_rounds`).
    """
    namespace_monitor = lookup({
        "strong": lambda: NamespaceBounds.strong(n),
        "tight": lambda: NamespaceBounds.tight(n, f),
        "loose": lambda: NamespaceBounds.loose(n),
    }, "bound", bound)
    return (
        UniqueNames(),
        namespace_monitor(),
        CrashBudget(),
        LedgerMonotone(),
        RoundBudget(watchdog_rounds or default_watchdog_rounds(n)),
    )
