"""Sweep drivers behind the benchmark suite and EXPERIMENTS.md.

Every driver returns plain dict rows so benchmarks, tests, and the
bench report printer all consume the same data.  Namespaces default to
``5 n^2`` (the regime of Theorem 1.4) and original identities are
sampled uniformly from the namespace, seeded, so runs replay exactly.
The crash-model families are a table (:data:`FAMILIES`) run one way
(:func:`execute`): what populates, attacks and seeds one of them does
so for all, which is what makes their rows a comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def attach_ledgers(row: dict, result: ExecutionResult,
                   include_rounds: bool) -> dict:
    """Append the per-round message/bit ledgers to a summary row.

    The engine (:mod:`repro.engine`) pops these into its ``ledgers``
    table; appended last so table columns stay scalar and stable.
    """
    if include_rounds:
        row["messages_per_round"] = list(result.metrics.messages_per_round)
        row["bits_per_round"] = list(result.metrics.bits_per_round)
    return row


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


# ---------------------------------------------------------------------------
# The protocol families of the crash model and the one way to run them


def make_crash_adversary(
    kind: Optional[str], budget: int, rng: Random, *, rate: float = 0.05
) -> Optional[CrashAdversary]:
    """The crash adversary of ``kind`` with ``budget`` crashes, on ``rng``;
    ``None`` / ``"none"`` / an empty budget is no adversary.  ``rate``
    is the per-round crash probability of ``"random"``: 0.05 in sweep
    rows, ``FALSIFY_CRASH_RATE`` in the falsifier's probes."""
    if kind in (None, "none") or budget <= 0:
        return None
    if kind == "random":
        return RandomCrash(budget, rate=rate, rng=rng)
    if kind == "hunter":
        return CommitteeHunter(budget, rng)
    if kind == "partitioner":
        return MidSendPartitioner(budget, rng)
    raise ValueError(
        f"unknown adversary kind {kind!r}; expected one of "
        f"none, random, hunter, partitioner"
    )


@dataclass(frozen=True)
class Family:
    """A named protocol family: what Table 1, the sweeps and the
    falsifier need to run it the same way as every other."""

    name: str
    #: Entry point ``run(uids, *, namespace, adversary, **keywords)``.
    run: Callable[..., ExecutionResult]
    #: The ``algorithm`` column of its rows (Table 1's label).
    label: str
    #: Crash-adversary kind of its sweep rows unless a request names one.
    adversary: Optional[str] = "random"
    order_preserving: bool = False
    #: Driver params it takes; handed to ``run`` as keywords, or to
    #: ``config`` when the entry point takes a config object instead.
    params: tuple[str, ...] = ()
    config: Optional[Callable[..., object]] = None


def _crash_config(election_constant: float = EXPERIMENT_ELECTION_CONSTANT,
                  early_stopping: bool = False) -> CrashRenamingConfig:
    return CrashRenamingConfig(election_constant=election_constant,
                               early_stopping=early_stopping)


#: The families, in Table 1's row order.  Adding one is an entry here
#: plus its ``run_*``: the driver registry, ``table1_requests``, the
#: CLI's ``--driver`` choices and the falsifier's scenario read this.
FAMILIES: dict[str, Family] = {family.name: family for family in (
    Family("crash", run_crash_renaming, "crash-renaming (this work)",
           adversary="hunter",
           params=("election_constant", "early_stopping"),
           config=_crash_config),
    Family("obg", run_obg_halving, "all-to-all halving [34]-style"),
    Family("balls", run_balls_into_slots, "balls-into-slots [3]-style",
           params=("slots",)),
    Family("gossip", run_collect_rank, "full-information gossip [20]-style",
           order_preserving=True, params=("assumed_faults",)),
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
    adversary: CrashAdversary | str | None = None,
    params: Optional[Mapping[str, object]] = None,
    namespace: Optional[int] = None,
    **network: object,
) -> ExecutionResult:
    """Run ``family`` at ``(n, f, seed)``: the one seeding rule.

    Identities come from ``Random(seed)``, an adversary given by kind
    runs on ``Random(seed + 1)`` with budget ``f``, the network is
    seeded ``seed + 2``.  ``params`` may hold more than the family
    takes (a campaign's params reach every scenario); ``network`` is
    handed to the entry point, and through it to ``run_network``.
    """
    uids, namespace = population(n, seed, namespace)
    if isinstance(adversary, str):
        adversary = make_crash_adversary(adversary, f, Random(seed + 1))
    params = params or {}
    keywords = {key: params[key] for key in family.params if key in params}
    if family.config is not None:
        keywords = {"config": family.config(**keywords)}
    return family.run(uids, namespace=namespace, adversary=adversary,
                      seed=seed + 2, **keywords, **network)


def summary(name: str, n: int, f: int, seed: int, *,
            namespace: Optional[int] = None, include_rounds: bool = False,
            **params) -> dict:
    """One execution of family ``name``, summarized for sweeps.

    ``params`` are the family's own plus ``adversary`` (a kind, or
    ``None`` for a failure-free run; default the family's).
    """
    family = FAMILIES[name]
    adversary = params.pop("adversary", family.adversary)
    unknown = sorted(set(params) - set(family.params))
    if unknown:
        raise TypeError(f"{name} driver got unexpected params {unknown}")
    result = execute(family, n, f, seed, adversary=adversary, params=params,
                     namespace=namespace)
    return attach_ledgers({
        "algorithm": family.label,
        "n": n,
        "f_budget": f,
        "f_actual": len(result.crashed),
        "rounds": result.rounds,
        "messages": result.metrics.correct_messages,
        "bits": result.metrics.correct_bits,
        "max_message_bits": result.metrics.max_message_bits,
        **check_renaming(result, n, order_preserving=family.order_preserving),
    }, result, include_rounds)


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


def reelection_run_summary(n: int, f: int, seed: int = 5,
                           include_rounds: bool = False) -> dict:
    """Committee re-election ablation (report section F8).

    Runs the crash algorithm under a :class:`CommitteeHunter` with
    budget ``f`` and reports how far the re-election escalation ``p``
    climbed and how many nodes were ever elected (Lemmas 2.4–2.7).
    """
    result = execute(FAMILIES["crash"], n, f, seed, adversary="hunter")
    survivors = [p for i, p in enumerate(result.processes)
                 if i not in result.crashed]
    p_values = [p.final_p for p in survivors]
    return attach_ledgers({
        "algorithm": "crash re-election ablation",
        "n": n,
        "f_budget": f,
        "crashed": len(result.crashed),
        "max_p": max(p_values),
        "p_spread": max(p_values) - min(p_values),
        "ever_elected": sum(p.ever_elected for p in result.processes),
        "messages": result.metrics.correct_messages,
        "unique": check_renaming(result, n)["unique"],
    }, result, include_rounds)


# ---------------------------------------------------------------------------
# Byzantine-side drivers


def byzantine_config_for(n: int, f_assumed: int, *,
                         full_committee: bool = False,
                         consensus_iterations: int = 10
                         ) -> ByzantineRenamingConfig:
    """Experiment configuration: sampled committee unless forced full."""
    if full_committee:
        p0 = 1.0
    else:
        p0 = min(1.0, BYZ_POOL_FACTOR * max(1.0, math.log2(n)) / n)
    return ByzantineRenamingConfig(
        max_byzantine=f_assumed,
        candidate_probability=p0,
        consensus_iterations=consensus_iterations,
    )


def byzantine_run_summary(
    n: int,
    f: int,
    seed: int,
    *,
    strategy: str = "withholder",
    namespace: Optional[int] = None,
    config: Optional[ByzantineRenamingConfig] = None,
    f_assumed: Optional[int] = None,
    full_committee: bool = False,
    consensus_iterations: int = 10,
    include_rounds: bool = False,
) -> dict:
    """One Byzantine-algorithm execution, summarized for sweeps."""
    uids, namespace = population(n, seed, namespace)
    # Carlo picks the corrupt set statically, before shared randomness.
    corrupt = byzantine_strategies.corrupt_set(uids, f, Random(seed + 1))
    factory = {
        "withholder": byzantine_strategies.make_withholder(0.5, salt=seed),
        "equivocator": byzantine_strategies.make_equivocator(),
        "silent": lambda: byzantine_strategies.silent,
        "crash-sim": lambda: byzantine_strategies.crash_simulator,
    }[strategy]
    if strategy in ("silent", "crash-sim"):
        factory = factory()
    if config is None:
        bound = f_assumed if f_assumed is not None else max(f, 1)
        config = byzantine_config_for(
            n, bound, full_committee=full_committee,
            consensus_iterations=consensus_iterations,
        )
    result = run_byzantine_renaming(
        uids,
        namespace=namespace,
        byzantine={uid: factory for uid in corrupt},
        config=config,
        shared_seed=seed + 3,
        seed=seed + 4,
    )
    splits = max(
        (p.segments_split for p in result.processes
         if getattr(p, "was_committee", False) and not p.byzantine),
        default=0,
    )
    return attach_ledgers({
        "algorithm": (
            "byzantine-renaming, full committee"
            if full_committee else "byzantine-renaming (this work)"
        ),
        "n": n,
        "f_actual": f,
        "rounds": result.rounds,
        "messages": result.metrics.correct_messages,
        "bits": result.metrics.correct_bits,
        "max_message_bits": result.metrics.max_message_bits,
        "segments_split": splits,
        **check_renaming(result, n, order_preserving=True),
    }, result, include_rounds)


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
