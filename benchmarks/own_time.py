"""Where one run's CPU goes: a ``SIGPROF`` own-time sampler.

Usage (from the repo root, with ``src`` on ``PYTHONPATH``)::

    python -m benchmarks.own_time FAMILY N F [--param K=V ...] [--seed S]
                                   [--repeat K] [--top K]
    python -m benchmarks.own_time --workload NAME [--seed S]
                                   [--repeat K] [--top K]

    python -m benchmarks.own_time crash 4096 3276 --param election_constant=2.0
    python -m benchmarks.own_time --workload f1_sweep

Runs ``repro.analysis.experiments.summary(FAMILY, N, F, S, **params)``,
or one rep of the end-to-end benchmark's batch workload ``NAME``
(``crash_paper``, ``byz_withholder``, ``f1_sweep``: the rep object of
:mod:`benchmarks.e2e.batch`, set up as the timed pass sets it up, with
its speed meter running -- its samples are the ``speed.py`` rows),
``--repeat`` times (default once), in this process, with the kernel
asked for a ``SIGPROF`` every millisecond of CPU time (``ITIMER_PROF``;
it is delivered at the kernel's tick, so a sample stands for one tick
or more).  Each signal
counts the Python function whose frame it interrupts (own time; time
in a C function is its Python caller's), that function under its
caller, and every distinct function on the stack (cumulative).  This is
not cProfile on purpose: cProfile charges a fixed cost to every Python
call and nothing to work inside C, so it inflates small, frequently
called functions.

A short run gives few samples (a run at n = 48 is a few dozen ticks);
``--repeat K`` samples K identical runs in one call, so the tables
stand on K times as many.  It prints the counted results (the summary
row, or a rep's ``counts_digest`` and message count, the same for every
repetition), the CPU of all repetitions
(``time.process_time``) and the process's peak RSS, the sample count,
and three markdown tables of shares of the samples: own time, own time
by caller, and cumulative.  ``--param`` values are Python literals when
they parse as one (``2.0``, ``None``), strings otherwise
(``adversary=random``).
"""

from __future__ import annotations

import argparse
import ast
import resource
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.analysis.experiments import FAMILIES, check_params, lookup, summary

#: Seconds of CPU time between two asks for a ``SIGPROF``.
INTERVAL_S = 0.001


def label(frame) -> str:
    """A frame's function as ``qualname (file:line)``, the file from the
    package; a generated method (a dataclass's ``__init__``, file
    ``<string>``) is named after the class of its ``self``."""
    code = frame.f_code
    path = code.co_filename
    name = getattr(code, "co_qualname", code.co_name)  # 3.11+
    if path == "<string>" and "self" in code.co_varnames:
        name = f"{type(frame.f_locals['self']).__qualname__}.{code.co_name}"
    elif "/src/" in path:
        path = path.rsplit("/src/", 1)[1]
    else:
        path = path.rsplit("/", 1)[-1]
    return f"{name} ({path}:{code.co_firstlineno})"


@dataclass
class Profile:
    """The samples of one sampled call, by function label."""

    samples: int = 0
    own: Counter = field(default_factory=Counter)
    by_caller: Counter = field(default_factory=Counter)  # (own, caller)
    cumulative: Counter = field(default_factory=Counter)
    base: object = None  # the sampler's frame: the stack is read above it

    def note(self, frame) -> None:
        self.samples += 1
        own = label(frame)
        self.own[own] += 1
        caller = frame.f_back
        self.by_caller[own, label(caller) if caller else "-"] += 1
        on_stack = set()
        while frame is not None and frame is not self.base:
            on_stack.add(label(frame))
            frame = frame.f_back
        self.cumulative.update(on_stack)

    def table(self, title: str, counts: Counter, top: int) -> list[str]:
        lines = [f"| {title} | share | samples |", "|---|---:|---:|"]
        for key, count in counts.most_common(top):
            name = " ← ".join(key) if isinstance(key, tuple) else key
            lines.append(f"| `{name}` | {100 * count / self.samples:.1f} % "
                         f"| {count:,} |")
        return lines


def sampled(call: Callable[[], object]) -> tuple[object, Profile, float]:
    """``call()``'s result, its samples and its CPU seconds.

    The handler and the timer that were in place are restored after,
    also when ``call`` raises.
    """
    profile = Profile(base=sys._getframe())
    previous = signal.signal(signal.SIGPROF,
                             lambda signum, frame: profile.note(frame))
    started = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        result = call()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu_s = time.process_time() - started
        signal.signal(signal.SIGPROF, previous)
    return result, profile, cpu_s


def literal(text: str) -> object:
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def workload_reps(parser, args):
    """``--repeat`` reps of batch workload ``--workload`` (full sizes,
    after the timed pass's set-up and warm-up), sampled with the meter
    running.  The harness is imported only here: a family run's peak
    RSS is the run's."""
    from benchmarks.e2e.batch import BATCH_WORKLOADS
    from benchmarks.e2e.passes import build, digest
    from benchmarks.e2e.spec import FULL
    from benchmarks.e2e.speed import SpeedMeter

    name = args.workload
    if name not in BATCH_WORKLOADS:
        parser.error(f"unknown workload {name!r}; known: "
                     + ", ".join(sorted(BATCH_WORKLOADS)))
    if args.family is not None or args.param:
        parser.error("--workload takes no FAMILY N F and no --param")
    with SpeedMeter() as meter:
        workload = build(name, args.seed, FULL, 0.0, 0, meter)
        reps, profile, cpu_s = sampled(
            lambda: [workload.rep() for _ in range(args.repeat)])
    errors = [rep.error for rep in reps if rep.error or rep.failed]
    if errors:
        raise SystemExit(f"{name}: a rep failed its checks: {errors[0]}")
    row = {"counts_digest": digest(reps[0].counted)[:16],
           "messages": reps[0].messages, "runs": reps[0].attempted}
    return (f"workload {name!r}, seed {args.seed}", row,
            [rep.counted for rep in reps], profile, cpu_s)


def family_runs(parser, args):
    """``--repeat`` summary rows of FAMILY N F, every name checked first."""
    if None in (args.family, args.n, args.f):
        parser.error("give FAMILY N F, or --workload NAME")
    try:
        family = lookup(FAMILIES, "family", args.family)
    except ValueError as error:
        parser.error(str(error))
    params = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--param wants K=V, got {item!r}")
        params[key] = literal(value)
    try:
        check_params(family, args.n, args.f, params)
    except TypeError as error:
        parser.error(str(error))
    run = partial(summary, args.family, args.n, args.f, args.seed, **params)
    rows, profile, cpu_s = sampled(
        lambda: [run() for _ in range(args.repeat)])
    title = (f"summary({args.family!r}, {args.n}, {args.f}, {args.seed}"
             + "".join(f", {k}={v!r}" for k, v in params.items()) + ")")
    return title, rows[0], rows, profile, cpu_s


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.own_time",
        description="Own-time profile of one summary(FAMILY, N, F, SEED) "
                    "run or of one e2e batch workload rep.")
    parser.add_argument("family", nargs="?")
    parser.add_argument("n", type=int, nargs="?")
    parser.add_argument("f", type=int, nargs="?")
    parser.add_argument("--workload", metavar="NAME",
                        help="sample this e2e batch workload's rep instead")
    parser.add_argument("--param", action="append", default=[],
                        metavar="K=V", help="a family parameter (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=1,
                        help="identical runs sampled in one call (default 1)")
    parser.add_argument("--top", type=int, default=15,
                        help="rows per table (default 15)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    title, row, rows, profile, cpu_s = (
        family_runs if args.workload is None else workload_reps)(parser, args)
    if any(other != rows[0] for other in rows):
        raise SystemExit("repetitions disagree: the run is not deterministic")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(title)
    print("counted: " + ", ".join(f"{k}={v}" for k, v in row.items()))
    print(f"cpu_s={cpu_s:.3f} peak_rss_mb={peak_mb:.1f} "
          f"samples={profile.samples:,}"
          + (f" repeat={args.repeat}" if args.repeat > 1 else ""))
    if not profile.samples:
        return
    for title, counts in (("own time", profile.own),
                          ("own time, by caller", profile.by_caller),
                          ("cumulative", profile.cumulative)):
        print()
        print("\n".join(profile.table(title, counts, args.top)))


if __name__ == "__main__":
    main()
