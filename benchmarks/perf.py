"""Microbenchmarks for the simulator hot path.

Usage::

    python -m benchmarks.perf           # full matrix, best-of-3 timing
    python -m benchmarks.perf --quick   # small n, single repeat (CI smoke)
    python -m benchmarks.perf --out BENCH_perf.json

(from the repo root, with ``src`` on ``PYTHONPATH``).

Every counted experiment in this repo funnels through
:meth:`repro.sim.network.SyncNetwork.step`, so this harness times the
engine itself — not any renaming algorithm — under the two regimes that
dominate real workloads:

``broadcast``
    Every node broadcasts one small message per round (the all-to-all
    pattern of gossip baselines and committee announcements): ``n**2``
    envelopes per round with maximal bit-cache reuse.

``crash``
    The same all-to-all traffic under a :class:`RandomCrash` adversary
    that kills about half the nodes over the execution, exercising
    crash-plan application and the incrementally maintained alive sets.
    A plan names what a victim keeps by position and the kept part is
    delivered as one fan-out, so the ``plan`` phase is the adversary's
    own coin per in-flight message plus one pass over what was kept.

Results are written to ``BENCH_perf.json`` mapping each benchmark name
(``<workload>_n<N>``) to ``{wall_s, rounds, messages, msgs_per_s,
phases}`` — the repo's perf trajectory.  ``msgs_per_s`` is rounded
half-even (banker's rounding), not floor-truncated.  ``phases`` is a
self-describing :mod:`repro.obs` phase-profile report (plan / charge /
deliver / advance wall times) measured at every n on one *extra*
execution with a profiler attached.  The timed repetitions run with
observability detached, but through the same round body
(``SyncNetwork.step`` is the only one), so the breakdown describes the
code the headline numbers time.  The harness touches only the
long-stable public simulator API, so it runs unmodified against older
revisions for before/after comparisons.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Sequence

from repro.adversary.crash import RandomCrash
from repro.sim.messages import CostModel, Message, broadcast
from repro.sim.node import Context, Process, Program
from repro.sim.runner import ExecutionResult, run_network

#: n values of the full matrix and of the --quick CI smoke run.
FULL_SIZES = (128, 256, 512, 10_000)
QUICK_SIZES = (32, 64)

#: From this n on a single timing repetition is used regardless of
#: ``--repeat``: an execution at n = 10k moves half a billion messages
#: and runs for seconds (about ten on the crash workload, nearly all of
#: it the adversary's coin per in-flight message of ~5,000 victims),
#: and the best-of-k spread the repeats exist to suppress is negligible
#: at these wall times.
SINGLE_REPEAT_MIN_N = 4096

#: All workloads, in matrix order.
WORKLOADS = ("broadcast", "crash")


@dataclass(frozen=True)
class PerfBeat(Message):
    """A minimal O(log n)-bit message: one epoch counter."""

    epoch: int

    def payload_bits(self, cost: CostModel) -> int:
        return cost.counter_bits


class BroadcastStorm(Process):
    """Broadcasts one fresh message per round for a fixed round count."""

    def __init__(self, uid: int, rounds: int):
        super().__init__(uid)
        self.rounds = rounds

    def program(self, ctx: Context) -> Program:
        for epoch in range(self.rounds):
            yield broadcast(ctx.n, PerfBeat(epoch))
        return ctx.index + 1


def run_broadcast_heavy(n: int, rounds: int = 6, seed: int = 7,
                        observer=None) -> ExecutionResult:
    """All-to-all traffic, no failures: n**2 envelopes per round."""
    cost = CostModel(n=n, namespace=4 * n)
    processes = [BroadcastStorm(index + 1, rounds) for index in range(n)]
    return run_network(processes, cost, seed=seed, observer=observer)


def run_crash_heavy(n: int, rounds: int = 8, seed: int = 7,
                    observer=None) -> ExecutionResult:
    """All-to-all traffic while a random adversary kills ~half the nodes."""
    cost = CostModel(n=n, namespace=4 * n)
    processes = [BroadcastStorm(index + 1, rounds) for index in range(n)]
    adversary = RandomCrash(budget=n // 2, rate=0.08, rng=Random(seed + 1))
    return run_network(processes, cost, crash_adversary=adversary, seed=seed,
                       observer=observer)


def time_execution(
    fn: Callable[[], ExecutionResult], repeat: int
) -> dict[str, object]:
    """Best-of-``repeat`` wall time and the derived throughput row."""
    best_wall = None
    result = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
    messages = result.metrics.total_messages
    return {
        "wall_s": round(best_wall, 4),
        "rounds": result.rounds,
        "messages": messages,
        # Half-even (banker's) rounding: int() floor-truncated here for
        # a long time, biasing every recorded throughput slightly low.
        "msgs_per_s": round(messages / best_wall) if best_wall else 0,
    }


def run_perf(
    sizes: Sequence[int],
    repeat: int = 3,
    workloads: Sequence[str] = WORKLOADS,
    progress: Callable[[str, dict], None] | None = None,
) -> dict[str, dict]:
    """Run the benchmark matrix; returns ``{name: stats}`` in run order."""
    from repro.obs import EventRecorder

    runners = {
        "broadcast": run_broadcast_heavy,
        "crash": run_crash_heavy,
    }
    unknown = [w for w in workloads if w not in runners]
    if unknown:
        raise ValueError(f"unknown workloads {unknown}; pick from {WORKLOADS}")

    results: dict[str, dict] = {}
    for n in sizes:
        for workload in workloads:
            fn = lambda n=n, workload=workload, **kw: runners[workload](n, **kw)
            name = f"{workload}_n{n}"
            stats = time_execution(fn, 1 if n >= SINGLE_REPEAT_MIN_N else repeat)
            # One extra execution for the phase breakdown; the timed
            # repetitions above ran with observability detached.
            recorder = EventRecorder(capacity=4, profile=True)
            fn(observer=recorder)
            stats["phases"] = recorder.profiler.report()
            results[name] = stats
            if progress is not None:
                progress(name, stats)
    return results


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"small sizes {list(QUICK_SIZES)}, one repeat "
                             "(CI smoke; timings informational)")
    parser.add_argument("--n", default=None,
                        help="comma list of n values overriding the matrix")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timing repeats per benchmark, best-of "
                             "(default 3, or 1 with --quick; always 1 "
                             f"for n >= {SINGLE_REPEAT_MIN_N})")
    parser.add_argument("--workloads", default=None,
                        help="comma list of workloads to run "
                             f"(default all: {','.join(WORKLOADS)}); e.g. "
                             "--workloads broadcast for the engine "
                             "alone at very large n")
    parser.add_argument("--out", default="BENCH_perf.json",
                        help="output JSON path (default BENCH_perf.json)")
    args = parser.parse_args(argv)

    if args.n:
        sizes = [int(part) for part in args.n.split(",") if part.strip()]
    else:
        sizes = list(QUICK_SIZES if args.quick else FULL_SIZES)
    repeat = args.repeat if args.repeat is not None else (1 if args.quick else 3)
    if args.workloads:
        workloads = [part.strip() for part in args.workloads.split(",")
                     if part.strip()]
    else:
        workloads = list(WORKLOADS)

    def progress(name: str, stats: dict) -> None:
        print(f"{name:>16}: {stats['messages']:>9} msgs in "
              f"{stats['wall_s']:7.3f}s  ({stats['msgs_per_s']:>8} msgs/s)")

    results = run_perf(sizes, repeat=repeat, workloads=workloads,
                       progress=progress)
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
