"""Convenience entry point and execution results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.adversary.base import CrashAdversary
from repro.crypto.auth import Authenticator
from repro.crypto.shared_randomness import SharedRandomness
from repro.faults.base import FaultModel, FaultStats
from repro.sim.messages import CostModel
from repro.sim.metrics import Metrics
from repro.sim.network import DEFAULT_MAX_ROUNDS, SyncNetwork
from repro.sim.node import Process


@dataclass
class ExecutionResult:
    """Everything observable after one protocol execution."""

    results: dict[int, object]
    metrics: Metrics
    crashed: set[int]
    byzantine: set[int]
    rounds: int
    processes: Sequence[Process] = field(repr=False, default=())
    #: Applied link-fault tallies, or ``None`` when no fault model ran.
    fault_stats: Optional[FaultStats] = None

    @property
    def correct_results(self) -> dict[int, object]:
        """Outputs of nodes that are neither crashed nor Byzantine."""
        return {
            index: value
            for index, value in self.results.items()
            if index not in self.crashed and index not in self.byzantine
        }

    def outputs_by_uid(self) -> dict[int, object]:
        """Map each surviving correct node's original identity to its output."""
        return {
            self.processes[index].uid: value
            for index, value in self.correct_results.items()
        }


def admit_identities(
    uids: Sequence[int], namespace: Optional[int] = None, *, floor: int = 0
) -> tuple[list[int], CostModel]:
    """The preamble of every ``run_*`` entry point: check the original
    identities and size the cost model they are charged under.

    Identities must be distinct values in ``[1, namespace]``;
    ``namespace`` defaults to the largest identity, and to no less than
    ``n`` or ``floor``.
    """
    uids = list(uids)
    if len(set(uids)) != len(uids):
        raise ValueError("original identities must be distinct")
    if namespace is None:
        namespace = max(max(uids), len(uids), floor)
    if any(not 1 <= uid <= namespace for uid in uids):
        raise ValueError(f"identities must lie in [1, {namespace}]")
    return uids, CostModel(n=len(uids), namespace=namespace)


def run_network(
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
) -> ExecutionResult:
    """Build a :class:`SyncNetwork`, run it to completion, package results."""
    network = SyncNetwork(
        processes,
        cost,
        crash_adversary=crash_adversary,
        authenticator=authenticator,
        shared=shared,
        seed=seed,
        max_rounds=max_rounds,
        monitors=monitors,
        observer=observer,
        fault_model=fault_model,
    )
    network.run()
    byzantine = {
        index for index, process in enumerate(processes) if process.byzantine
    }
    return ExecutionResult(
        results=dict(network.finished),
        metrics=network.metrics,
        crashed=set(network.crashed),
        byzantine=byzantine,
        rounds=network.round_no,
        processes=list(processes),
        fault_stats=network.fault_stats,
    )
