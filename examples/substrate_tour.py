"""Scenario: a tour of the substrate underneath the Byzantine stack.

The paper's Byzantine algorithm stands on classical primitives that
this library implements as reusable components.  This example runs its
committee's decision core directly: the weak validator and binary
consensus (Lemmas 3.3/3.4), back to back, standalone.

Run:  python examples/substrate_tour.py
"""

from repro.consensus.binary import binary_consensus
from repro.consensus.validator import validator
from repro.sim.messages import CostModel
from repro.sim.node import Process
from repro.sim.runner import run_network
from repro.crypto.shared_randomness import SharedRandomness


class CommitteeMember(Process):
    """Runs validator -> consensus, back to back."""

    def __init__(self, uid, proposal):
        super().__init__(uid)
        self.proposal = proposal

    def program(self, ctx):
        from repro.consensus.comm import CommitteeComm

        comm = CommitteeComm(range(ctx.n), b_max=(ctx.n - 1) // 3)
        same, out = yield from validator(comm, self.proposal, width=16)
        bit = yield from binary_consensus(
            comm, int(same), ctx.shared, "tour", iterations=8
        )
        return {"validated": out, "all_same": bit}


def tour_committee_core() -> None:
    print("validator + consensus among a 7-member committee")
    proposals = [("cfg-a", 3)] * 5 + [("cfg-b", 9)] * 2  # honest disagreement
    processes = [
        CommitteeMember(uid=i + 1, proposal=p) for i, p in enumerate(proposals)
    ]
    result = run_network(
        processes, CostModel(n=7, namespace=100),
        shared=SharedRandomness(5), seed=6,
    )
    outputs = list(result.results.values())
    validated = {str(o["validated"]) for o in outputs}
    print(f"   rounds: {result.rounds}")
    print(f"   validated outputs agree: {len(validated) == 1} "
          f"(value: {validated.pop()})")
    print(f"   consensus on sameness bit: "
          f"{ {o['all_same'] for o in outputs} }\n")


def main() -> None:
    tour_committee_core()
    print("these are the same components the renaming algorithms compose;")
    print("see repro.core for how they fit together.")


if __name__ == "__main__":
    main()
