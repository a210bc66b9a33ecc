"""Sweep drivers behind the benchmark suite and EXPERIMENTS.md.

Every driver returns plain dict rows so benchmarks, tests, and the
bench report printer all consume the same data.  Namespaces default to
``5 n^2`` (the regime of Theorem 1.4) and original identities are
sampled uniformly from the namespace, seeded, so runs replay exactly.
The protocol families -- both of the paper's algorithms, their
ablations and the prior-work baselines -- are a table
(:data:`FAMILIES`) run one way (:func:`execute`): what populates,
attacks and seeds one of them does so for all, which is what makes
their rows a comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from random import Random
from typing import Callable, Mapping, Optional

from repro.adversary import byzantine as byzantine_strategies
from repro.adversary.base import CrashAdversary
from repro.adversary.crash import (
    CommitteeHunter,
    MidSendPartitioner,
    RandomCrash,
)
from repro.baselines.balls_into_slots import run_balls_into_slots
from repro.baselines.collect_rank import run_collect_rank
from repro.baselines.obg_halving import run_obg_halving
from repro.core.byzantine_renaming import (
    ByzantineFactory,
    ByzantineRenamingConfig,
    run_byzantine_renaming,
)
from repro.core.crash_renaming import CrashRenamingConfig, run_crash_renaming
from repro.sim.runner import ExecutionResult

#: Election constant used throughout the experiments.  The paper's 256
#: makes the committee the whole network for any measurable n (see
#: CrashRenamingConfig); 4 keeps committees at ~4 log2(n) expected
#: members, preserving the algorithm's structure and all thresholds.
EXPERIMENT_ELECTION_CONSTANT = 2.0

#: Candidate-lottery probability factor for the Byzantine experiments:
#: p0 = BYZ_POOL_FACTOR * log2(n) / n, with the full-committee fallback
#: applying automatically whenever the bound separation fails.
BYZ_POOL_FACTOR = 4.0


def default_namespace(n: int) -> int:
    """The ``N >= 5 n^2`` regime of Theorem 1.4."""
    return max(5 * n * n, 16)


def sample_uids(n: int, namespace: int, rng: Random) -> list[int]:
    """``n`` distinct original identities drawn from ``[1, N]``."""
    if namespace < n:
        raise ValueError(f"namespace {namespace} smaller than n={n}")
    return sorted(rng.sample(range(1, namespace + 1), n))


def check_renaming(
    result: ExecutionResult, n: int, *, order_preserving: bool = False
) -> dict[str, bool]:
    """Uniqueness / strong / order-preservation of a finished execution."""
    outputs = result.outputs_by_uid()
    values = list(outputs.values())
    unique = len(set(values)) == len(values)
    strong = all(isinstance(v, int) and 1 <= v <= n for v in values)
    ordered = True
    if order_preserving:
        by_uid = sorted(outputs)
        ordered = all(
            outputs[a] < outputs[b] for a, b in zip(by_uid, by_uid[1:])
        )
    return {"unique": unique, "strong": strong, "order_preserving": ordered}


def lookup(table: Mapping[str, object], noun: str, name: str):
    """``table[name]``: every name table (families, drivers, scenarios,
    adversaries, strategies, fault kinds) resolves a name here, so an
    unknown one is the same ``ValueError`` wherever it is given."""
    if isinstance(name, str) and name in table:
        return table[name]
    raise ValueError(
        f"unknown {noun} {name!r}; known: {', '.join(sorted(table))}")


# ---------------------------------------------------------------------------
# The protocol families and the one way to run them


#: The crash adversaries by kind, each ``(budget, rng, rate)`` -> the
#: adversary; ``"none"`` is no adversary.
CRASH_ADVERSARIES: dict[str, Optional[Callable[..., CrashAdversary]]] = {
    "none": None,
    "random": lambda budget, rng, rate: RandomCrash(budget, rate=rate,
                                                    rng=rng),
    "hunter": lambda budget, rng, rate: CommitteeHunter(budget, rng),
    "partitioner": lambda budget, rng, rate: MidSendPartitioner(budget, rng),
}


def make_crash_adversary(
    kind: Optional[str], budget: int, rng: Random, *, rate: float = 0.05
) -> Optional[CrashAdversary]:
    """The crash adversary of ``kind`` with ``budget`` crashes, on ``rng``;
    ``None`` / ``"none"`` / an empty budget is no adversary.  ``rate``
    is the per-round crash probability of ``"random"``: 0.05 in sweep
    rows, ``FALSIFY_CRASH_RATE`` in the falsifier's probes."""
    make = None if kind is None else lookup(CRASH_ADVERSARIES, "adversary",
                                            kind)
    return make(budget, rng, rate) if make and budget > 0 else None


def crash_attack(kind: Optional[str], uids: list[int], f: int,
                 seed: int) -> Optional[CrashAdversary]:
    """A crash-model run's adversary: ``kind``'s, budget ``f``, on
    ``Random(seed + 1)``."""
    return make_crash_adversary(kind, f, Random(seed + 1))


#: The Byzantine strategies by kind, each built from the run's seed.
BYZANTINE_STRATEGIES: dict[str, Callable[[int], ByzantineFactory]] = {
    "withholder": lambda seed: byzantine_strategies.make_withholder(
        0.5, salt=seed),
    "equivocator": lambda seed: byzantine_strategies.make_equivocator(),
    "silent": lambda seed: byzantine_strategies.silent,
    "crash-sim": lambda seed: byzantine_strategies.crash_simulator,
}


def byzantine_attack(kind: Optional[str], uids: list[int], f: int,
                     seed: int) -> Optional[dict[int, ByzantineFactory]]:
    """A Byzantine run's corrupt identities, each running strategy
    ``kind``: Carlo picks ``f`` of them on ``Random(seed + 1)``, before
    any shared randomness exists."""
    if kind in (None, "none"):
        return None
    strategy = lookup(BYZANTINE_STRATEGIES, "strategy", kind)(seed)
    corrupt = byzantine_strategies.corrupt_set(uids, f, Random(seed + 1))
    return {uid: strategy for uid in corrupt}


@dataclass(frozen=True)
class Family:
    """A named protocol family: what Table 1, the sweeps and the
    falsifier need to run it the same way as every other."""

    name: str
    #: Entry point ``run(uids, *, namespace, adversary, **keywords)``.
    run: Callable[..., ExecutionResult]
    #: The ``algorithm`` column of its rows (Table 1's label).
    label: str
    #: Adversary kind of its sweep rows unless a request names one.
    adversary: Optional[str] = "random"
    order_preserving: bool = False
    #: Driver params it takes; handed to ``run`` as keywords, or to
    #: ``config(n, f, **params)`` when the entry point takes a config
    #: object instead.
    params: tuple[str, ...] = ()
    config: Optional[Callable[..., object]] = None
    #: ``attack(kind, uids, f, seed)``: what ``run`` gets for a kind.
    attack: Callable[..., object] = crash_attack
    #: The family's own counters, read off a result into its rows.
    columns: Callable[[ExecutionResult], dict] = lambda result: {}


def _crash_config(n: int, f: int,
                  election_constant: float = EXPERIMENT_ELECTION_CONSTANT,
                  early_stopping: bool = False) -> CrashRenamingConfig:
    return CrashRenamingConfig(election_constant=election_constant,
                               early_stopping=early_stopping)


def _reelection_columns(result: ExecutionResult) -> dict:
    """How far re-election climbed (Lemmas 2.4-2.7): the survivors'
    largest ``p`` and its spread, and how many nodes were ever elected."""
    p = [node.final_p for index, node in enumerate(result.processes)
         if index not in result.crashed] or [0]
    return {"max_p": max(p), "p_spread": max(p) - min(p),
            "ever_elected": sum(node.ever_elected
                                for node in result.processes)}


def byzantine_config_for(n: int, f_assumed: int, *,
                         full_committee: bool = False,
                         consensus_iterations: int = 10
                         ) -> ByzantineRenamingConfig:
    """Experiment configuration: sampled committee unless forced full."""
    p0 = (1.0 if full_committee
          else min(1.0, BYZ_POOL_FACTOR * max(1.0, math.log2(n)) / n))
    return ByzantineRenamingConfig(
        max_byzantine=f_assumed,
        candidate_probability=p0,
        consensus_iterations=consensus_iterations,
    )


def _byzantine_config(n: int, f: int, f_assumed: Optional[int] = None,
                      **options) -> ByzantineRenamingConfig:
    """Provisioned for ``f_assumed`` corruptions, by default ``max(f, 1)``."""
    return byzantine_config_for(
        n, max(f, 1) if f_assumed is None else f_assumed, **options)


def _run_byzantine(uids, *, adversary=None, seed: int = 0,
                   **keywords) -> ExecutionResult:
    """The Byzantine algorithm on a family's keywords: its adversary is
    the corrupt set, and ``execute``'s ``seed + 2`` becomes shared
    randomness ``seed + 3`` and network ``seed + 4``."""
    return run_byzantine_renaming(uids, byzantine=adversary,
                                  shared_seed=seed + 1, seed=seed + 2,
                                  **keywords)


def _split_columns(result: ExecutionResult) -> dict:
    """The divide-and-conquer work (Lemma 3.10): the most segments an
    honest committee member split."""
    return {"segments_split": max([
        node.segments_split for node in result.processes
        if getattr(node, "was_committee", False) and not node.byzantine
    ] or [0])}


BYZANTINE = Family(
    "byzantine", _run_byzantine, "byzantine-renaming (this work)",
    adversary="withholder", order_preserving=True,
    params=("f_assumed", "consensus_iterations"), config=_byzantine_config,
    attack=byzantine_attack, columns=_split_columns)

#: The families, in Table 1's row order.  Adding one is an entry here
#: plus its ``run_*``: the driver registry, ``table1_requests``, the
#: CLI's ``--driver`` choices and the falsifier's scenario read this.
FAMILIES: dict[str, Family] = {family.name: family for family in (
    Family("crash", run_crash_renaming, "crash-renaming (this work)",
           adversary="hunter",
           params=("election_constant", "early_stopping"),
           config=_crash_config, columns=_reelection_columns),
    Family("obg", run_obg_halving, "all-to-all halving [34]-style"),
    Family("balls", run_balls_into_slots, "balls-into-slots [3]-style",
           params=("slots",)),
    Family("gossip", run_collect_rank, "full-information gossip [20]-style",
           order_preserving=True, params=("assumed_faults",)),
    BYZANTINE,
    replace(BYZANTINE, name="byzantine-full",
            label="byzantine-renaming, full committee",
            config=partial(_byzantine_config, full_committee=True)),
)}


def population(n: int, seed: int,
               namespace: Optional[int] = None) -> tuple[list[int], int]:
    """The identities of a run at ``(n, seed)`` and their namespace:
    ``n`` distinct draws of ``Random(seed)`` from ``[1, N]``."""
    namespace = namespace or default_namespace(n)
    return sample_uids(n, namespace, Random(seed)), namespace


def execute(
    family: Family,
    n: int,
    f: int,
    seed: int,
    *,
    adversary: object = None,
    params: Optional[Mapping[str, object]] = None,
    namespace: Optional[int] = None,
    **network: object,
) -> ExecutionResult:
    """Run ``family`` at ``(n, f, seed)``: the one seeding rule.

    Identities come from ``Random(seed)``, an adversary given by kind
    is the family's ``attack`` (budget ``f``, drawn on
    ``Random(seed + 1)``), the network is seeded ``seed + 2``.
    ``params`` may hold more than the family takes (a campaign's params
    reach every scenario); ``network`` is handed to the entry point,
    and through it to ``run_network``.
    """
    uids, namespace = population(n, seed, namespace)
    if isinstance(adversary, str):
        adversary = family.attack(adversary, uids, f, seed)
    params = params or {}
    keywords = {key: params[key] for key in family.params if key in params}
    if family.config is not None:
        keywords = {"config": family.config(n, f, **keywords)}
    return family.run(uids, namespace=namespace, adversary=adversary,
                      seed=seed + 2, **keywords, **network)


def summary(name: str, n: int, f: int, seed: int, *,
            namespace: Optional[int] = None, include_rounds: bool = False,
            **params) -> dict:
    """One execution of family ``name``, summarized for sweeps.

    ``params`` are the family's own plus ``adversary`` (a kind, or
    ``None`` for a failure-free run; default the family's).
    """
    family = lookup(FAMILIES, "family", name)
    adversary = params.pop("adversary", family.adversary)
    unknown = sorted(set(params) - set(family.params))
    if unknown:
        raise TypeError(f"{name} driver got unexpected params {unknown}")
    result = execute(family, n, f, seed, adversary=adversary, params=params,
                     namespace=namespace)
    row = {
        "algorithm": family.label,
        "n": n,
        "f_budget": f,
        "f_actual": len(result.crashed | result.byzantine),
        "rounds": result.rounds,
        "messages": result.metrics.correct_messages,
        "bits": result.metrics.correct_bits,
        "max_message_bits": result.metrics.max_message_bits,
        **family.columns(result),
        **check_renaming(result, n, order_preserving=family.order_preserving),
    }
    if include_rounds:
        # Last, so that the columns stay scalar: the engine pops these
        # per-round ledgers into its ``ledgers`` table.
        row["messages_per_round"] = list(result.metrics.messages_per_round)
        row["bits_per_round"] = list(result.metrics.bits_per_round)
    return row


crash_run_summary = partial(summary, "crash")
obg_run_summary = partial(summary, "obg")
gossip_run_summary = partial(summary, "gossip")
balls_run_summary = partial(summary, "balls")


def rows_or_raise(results) -> list[dict]:
    """Rows of engine results, re-raising the first recorded failure."""
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"{result.request.describe()} failed:\n{result.error}"
            )
    return [result.row for result in results]


# ---------------------------------------------------------------------------
# Table 1


def table1_rows(n: int, f: int, seed: int = 0) -> list[dict]:
    """One measured row per algorithm family of Table 1.

    Thin wrapper over the engine's serial path; see
    :func:`repro.engine.sweeps.table1_requests` for the row inventory
    and the ``f_byz`` rationale."""
    from repro.engine.pool import run_requests
    from repro.engine.sweeps import table1_requests

    return rows_or_raise(run_requests(table1_requests(n, f, seed)))
