"""Command-line interface: run the paper's algorithms from a shell.

Examples::

    python -m repro crash --n 64 --f 8 --adversary hunter
    python -m repro byzantine --n 16 --f 2 --strategy withholder
    python -m repro table1 --n 32 --f 4
    python -m repro lowerbound --n 48
    python -m repro sweep --driver crash --n 16,32,64 --seeds 0-4 --jobs 4
    python -m repro sweep --driver crash --store sqlite://.repro/runs.sqlite
    python -m repro runs --format md
    python -m repro runs export --out .repro/export
    python -m repro sweep --driver serve --n 64 --seeds 0-2 --f 1
    python -m repro falsify --n 8,12 --seeds 0-3 --jobs 4
    python -m repro falsify --replay .repro/repros/repro-crash-....json
    python -m repro faults --scenario crash,gossip --n 16 --f 2
    python -m repro faults --scenario crash --faults '[{"kind": "omission", "p": 0.1}]'
    python -m repro obs profile --scenario crash --n 32 --f 4
    python -m repro obs tail events.jsonl --last 20
    python -m repro obs report --driver crash
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext
from functools import partial
from random import Random
from typing import Callable


def _print_rows(rows: list[dict], fmt: str = "plain") -> None:
    from repro.analysis.tables import markdown_table, plain_table

    if fmt == "json":
        print(json.dumps(rows, indent=2))
    elif fmt == "md":
        print(markdown_table(rows))
    else:
        print(plain_table(rows))


def parse_int_list(text: str) -> list[int]:
    """``"16,32,64"`` and range syntax ``"0-4"`` (mixable): ints, in order.

    >>> parse_int_list("16,32,64")
    [16, 32, 64]
    >>> parse_int_list("0-2,7")
    [0, 1, 2, 7]
    """
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        first, dash, last = part.partition("-")
        if dash and first:
            values.extend(range(int(first), int(last) + 1))
        else:
            values.append(int(part))
    if not values:
        raise ValueError(f"no integers in {text!r}")
    return values


def parse_param(pair: str) -> tuple[str, object]:
    """One ``key=value`` string as ``(key, value)``, the value JSON-decoded.

    Engine parameters are JSON scalars only, so a structured JSON value
    (e.g. ``faults=[{"kind": "omission"}]``) stays the raw JSON *text* —
    drivers that take structured configuration accept it as a string.
    """
    key, equals, raw = pair.partition("=")
    if not equals:
        raise ValueError(f"expected KEY=VALUE, got {pair!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    if not isinstance(value, (str, int, float, bool, type(None))):
        value = raw
    return key, value


def _flag(check: Callable[[str], object]) -> Callable[[str], object]:
    """A flag's ``type=``: ``check(text)``, whose ``ValueError`` becomes
    argparse's usage error (exit 2) with the library's message kept."""
    def parse(text: str) -> object:
        try:
            return check(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return parse


def _at_least(low: int) -> Callable[[str], object]:
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value
    return _flag(count)


def _names(resolve: Callable[[str], object], *,
           one: bool = False) -> Callable[[str], object]:
    """``type=`` of a comma list of names (or of ``one`` name), each
    checked by ``resolve``: a library name table's ``lookup``."""
    def names(text: str) -> object:
        found = (text,) if one else tuple(
            name for name in text.split(",") if name)
        for name in found:
            resolve(name)
        return text if one else found
    return _flag(names)


def _scenario(name: str) -> object:
    """``resolve_scenario``, imported on use: the falsifier's modules
    stay out of every other command's start-up."""
    from repro.falsify.scenarios import resolve_scenario

    return resolve_scenario(name)


@contextmanager
def _one_error_line(args: argparse.Namespace, context: str = ""):
    """What no one flag's ``type=`` can check — flags against each other,
    a file, the store — fails as one ``python -m repro CMD: error: ...``
    line with exit 1, before any run."""
    try:
        yield
    except (OSError, TypeError, ValueError) as error:
        raise SystemExit(f"{args.prog}: error: {context}{error}") from None


def _byzantine_bound(args: argparse.Namespace, f: int) -> None:
    """The Byzantine config's ``f < n/3`` at ``--n``, before any run."""
    from repro.analysis.experiments import FAMILIES

    with _one_error_line(args):
        FAMILIES["byzantine"].config(args.n, f).parameters(args.n)


def cmd_family(args: argparse.Namespace) -> int:
    """``crash`` / ``byzantine``: the family's summary row, with the
    flags it takes as params."""
    from repro.analysis.experiments import FAMILIES, summary

    if args.command == "byzantine":
        _byzantine_bound(args, args.f)
    params = {key: value for key, value in vars(args).items()
              if key in FAMILIES[args.command].params}
    row = summary(args.command, args.n, args.f, args.seed,
                  adversary=args.adversary, **params)
    _print_rows([row])
    ok = row["unique"] and row["strong"] and row["order_preserving"]
    return 0 if ok else 1


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import table1_rows
    from repro.engine.sweeps import table1_requests

    _byzantine_bound(args, next(r.f for r in table1_requests(
        args.n, args.f, args.seed) if r.driver == "byzantine"))
    rows = table1_rows(args.n, args.f, seed=args.seed)
    keep = ("algorithm", "rounds", "messages", "bits", "unique", "strong")
    _print_rows([{k: row.get(k) for k in keep} for row in rows])
    return 0 if all(row["unique"] and row["strong"] for row in rows) else 1


def cmd_lowerbound(args: argparse.Namespace) -> int:
    from repro.lowerbound.anonymous import (
        SilentRenamingExperiment,
        exact_success_probability,
        minimum_messages_for_success,
    )

    experiment = SilentRenamingExperiment(n=args.n, rng=Random(args.seed))
    budgets = sorted({0, args.n // 2, args.n - 2, args.n - 1, args.n})
    rows = [
        {
            "messages": budget,
            "measured": round(experiment.run(budget, args.trials), 3),
            "exact": round(exact_success_probability(args.n, budget), 3),
        }
        for budget in budgets
    ]
    _print_rows(rows)
    print(f"floor for success >= 3/4: "
          f"{minimum_messages_for_success(args.n, 0.75)} messages (n - 1)")
    return 0


def _store_url(args) -> str:
    """``--store`` or ``$REPRO_STORE`` or the default, as an absolute
    ``sqlite://`` URL."""
    from repro.engine.store import default_store_path, resolve_store_url

    with _one_error_line(args):
        return resolve_store_url(args.store or default_store_path())


def _open_store(args):
    """The run store to enter (``None`` within it under ``--no-store``)."""
    from repro.engine.store import RunStore

    if getattr(args, "no_store", False):
        return nullcontext()
    return RunStore(_store_url(args))


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    """``--store``, which :func:`_store_url` reads back."""
    parser.add_argument("--store", default=None,
                        help="run-store path or sqlite://path URL (default "
                             "$REPRO_STORE or .repro/runs.sqlite)")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["plain", "md", "json"],
                        default="plain")


def _add_param_flag(parser: argparse.ArgumentParser, target: str) -> None:
    """``--param``, a list of ``(key, value)`` pairs (:func:`parse_param`)."""
    parser.add_argument("--param", action="append", default=[],
                        type=_flag(parse_param), metavar="KEY=VALUE",
                        help=f"extra {target} keyword (JSON value); "
                             "repeatable")


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine.pool import run_requests
    from repro.engine.sweeps import SweepSpec

    # ``--f`` at each n and the params against the spec are checked
    # together here.
    with _one_error_line(args):
        requests = SweepSpec.make(args.driver, args.n, args.seeds, f=args.f,
                                  **dict(args.param)).requests()
    observer = None
    if args.telemetry:
        from repro.obs import EventRecorder

        observer = EventRecorder(profile=True)
    with _open_store(args) as store:
        results = run_requests(
            requests, jobs=args.jobs, store=store,
            timeout=args.timeout, observer=observer,
        )
    if observer is not None and observer.profiler:
        print(json.dumps(observer.profiler.report(), indent=2),
              file=sys.stderr)

    ok_rows = [r.row for r in results if r.ok]
    _print_rows(ok_rows, args.format)
    cached = sum(r.cached for r in results)
    failed = [r for r in results if not r.ok]
    print(
        f"\n{len(results)} runs: {len(results) - cached - len(failed)} "
        f"executed, {cached} cached, {len(failed)} failed"
        + (f"  [store: {store.path}]" if store is not None else ""),
        file=sys.stderr,
    )
    for result in failed:
        print(f"FAILED {result.request.describe()}\n{result.error}",
              file=sys.stderr)
    checks_ok = all(
        row.get("unique", True) and row.get("strong", True)
        for row in ok_rows
    )
    return 0 if not failed and checks_ok else 1


def cmd_falsify(args: argparse.Namespace) -> int:
    from repro.engine.sweeps import evaluate_f
    from repro.falsify.campaign import (
        CampaignConfig,
        replay_artifact,
        run_campaign,
        save_findings,
    )
    from repro.falsify.replay import ReproArtifact
    from repro.falsify.scenarios import DEFAULT_ADVERSARIES, DEFAULT_SCENARIOS

    if args.replay:
        with _one_error_line(args, f"cannot replay {args.replay}: "):
            artifact = ReproArtifact.load(args.replay)
        print(artifact.describe())
        error = replay_artifact(artifact)
        if error is None:
            print(
                f"NOT REPRODUCED: execution no longer violates "
                f"{artifact.invariant!r}",
                file=sys.stderr,
            )
            return 1
        print(f"reproduced: {error}")
        return 0

    with _one_error_line(args):
        for n in args.n:
            evaluate_f(args.f, n)
    config = CampaignConfig(
        scenarios=args.scenario or DEFAULT_SCENARIOS,
        n_values=tuple(args.n),
        seeds=tuple(args.seeds),
        f=args.f,
        adversaries=args.adversary or DEFAULT_ADVERSARIES,
        jobs=args.jobs,
        timeout=args.timeout,
        time_budget=args.time_budget,
        shrink=not args.no_shrink,
        params=dict(args.param),
    )

    def progress(done: int, total: int) -> None:
        print(f"probed {done}/{total}", file=sys.stderr)

    with _open_store(args) as store:
        result = run_campaign(config, store=store, progress=progress)

    print(
        f"\n{len(result.results)} probes: {result.executed} executed, "
        f"{result.cached} cached, {len(result.failures)} failed, "
        f"{result.skipped} skipped"
        + ("  [pool degraded to serial]" if result.degraded else ""),
        file=sys.stderr,
    )
    for failure in result.failures:
        print(f"FAILED {failure.request.describe()}\n{failure.error}",
              file=sys.stderr)

    if not result.findings:
        print("no invariant violations found")
        return 1 if result.failures else 0

    paths = save_findings(result, args.out)
    broken_replay = False
    for finding, path in zip(result.findings, paths):
        print(f"FALSIFIED {finding.describe()}\n  artifact: {path}")
        broken_replay = broken_replay or not finding.replayed
    print(f"{len(result.findings)} violation(s); artifacts in {args.out}")
    return 2 if broken_replay else 1


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.degradation import (
        SAFE_TERMINATED,
        classify_scenario,
        degradation_frontier,
        summarize_frontier,
    )
    from repro.faults.spec import build_fault_model

    with _one_error_line(args):
        # The spec's entries as built at --n and --seed, before any run.
        build_fault_model(args.faults, args.n, args.seed)
    if args.faults:
        # One explicit spec instead of the ladder: classify it per
        # scenario (the single-cell form of the frontier).
        rows = []
        for scenario in args.scenario:
            row = classify_scenario(
                scenario, args.n, args.f, args.seed, args.faults,
                adversary=args.adversary,
                watchdog_rounds=args.watchdog_rounds,
            )
            row.pop("_result", None)
            row["rung"] = "custom"
            rows.append(row)
    else:
        rows = degradation_frontier(
            args.scenario, args.n, args.f, args.seed,
            adversary=args.adversary,
            watchdog_rounds=args.watchdog_rounds,
        )
    keep = ("scenario", "rung", "outcome", "rounds", "dropped",
            "duplicated", "corrupted", "held", "detail")
    _print_rows([{k: row.get(k) for k in keep} for row in rows],
                args.format)
    print()
    _print_rows(summarize_frontier(rows), args.format)
    # The fault-free control rung must terminate safely; anything else
    # means the harness (not the fault model) is broken.
    controls = [row for row in rows if row["rung"] == "none"]
    broken = [row for row in controls
              if row["outcome"] != SAFE_TERMINATED]
    for row in broken:
        print(f"CONTROL FAILED: {row['scenario']} without faults "
              f"classified {row['outcome']}", file=sys.stderr)
    return 1 if broken else 0


def _obs_tail(args: argparse.Namespace) -> int:
    """Validate an event file and print its most recent events."""
    from repro.obs import read_jsonl, validate_events

    with _one_error_line(args):
        events = read_jsonl(args.path)
    problems = validate_events(events)
    for problem in problems:
        print(f"INVALID {problem}", file=sys.stderr)
    for event in events[-args.last:] if args.last else ():
        print(json.dumps(event, sort_keys=True))
    print(f"\n{len(events)} events, {len(problems)} schema problems",
          file=sys.stderr)
    return 1 if problems else 0


def _obs_profile(args: argparse.Namespace) -> int:
    """Profile one scenario execution; print the phase report."""
    from repro.obs import EventRecorder, idle_share, profile_scenario

    recorder = EventRecorder(profile=True)
    try:
        result, report = profile_scenario(
            args.scenario, args.n, args.f, args.seed,
            adversary=args.adversary, observer=recorder,
            params=dict(args.param),
        )
    except Exception as error:
        print(f"python -m repro obs profile: {error}", file=sys.stderr)
        return 1
    if args.events:
        path = recorder.write_jsonl(args.events)
        print(f"wrote {len(recorder)} events to {path}", file=sys.stderr)
    print(json.dumps(report, indent=2))
    idle = idle_share(recorder.events("round"))
    print(
        f"\n{args.scenario}: n={args.n} f={args.f} seed={args.seed} "
        f"adversary={args.adversary}: {result.rounds} rounds, "
        f"{result.metrics.correct_messages} messages, "
        f"{result.metrics.correct_bits} bits, "
        f"{len(result.crashed)} crashed"
        + ("" if idle is None else f", idle share {idle:.3f}"),
        file=sys.stderr,
    )
    return 0


def _obs_report(args: argparse.Namespace) -> int:
    """Aggregate the store's telemetry table per driver."""
    with _open_store(args) as store:
        rows = store.telemetry_rows(
            key="run", driver=args.driver, limit=args.limit)
    if not rows:
        print("no telemetry recorded (run a sweep with --telemetry)")
        return 0
    by_driver: dict = {}
    for _hash, _key, value in rows:
        bucket = by_driver.setdefault(value.get("driver", "?"), {
            "runs": 0, "failed": 0, "wall_s": 0.0, "retries": 0,
        })
        bucket["runs"] += 1
        bucket["failed"] += value.get("status") != "ok"
        bucket["wall_s"] += value.get("elapsed_s") or 0.0
        bucket["retries"] += (value.get("attempts") or 1) > 1
    _print_rows([
        {
            "driver": driver,
            "runs": stats["runs"],
            "failed": stats["failed"],
            "retries": stats["retries"],
            "wall_s": round(stats["wall_s"], 3),
            "mean_s": round(stats["wall_s"] / stats["runs"], 4),
        }
        for driver, stats in sorted(by_driver.items())
    ], args.format)
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    from datetime import datetime, timezone

    with _open_store(args) as store:
        stored = store.query(driver=args.driver, n=args.n,
                             status=args.status, limit=args.limit)
        stats = store.stats()
    _print_rows([
        {
            "hash": run.hash[:10],
            "driver": run.driver,
            "n": run.n,
            "f": run.f,
            "seed": run.seed,
            "status": run.status,
            "rounds": (run.row or {}).get("rounds"),
            "messages": (run.row or {}).get("messages"),
            "bits": (run.row or {}).get("bits"),
            "attempts": run.attempts,
            "elapsed_s": round(run.elapsed or 0.0, 3),
            "created": datetime.fromtimestamp(
                run.created, tz=timezone.utc
            ).strftime("%Y-%m-%d %H:%M:%S"),
        }
        for run in stored
    ], args.format)
    print(
        f"\n{stats['ok']} ok / {stats['failed']} failed of "
        f"{stats['total']} stored runs  [store: {stats['path']}]",
        file=sys.stderr,
    )
    return 0


def cmd_runs_export(args: argparse.Namespace) -> int:
    from repro.engine.export import export_store

    with _open_store(args) as store:
        exported, written = export_store(
            store, args.out, driver=args.driver, status=args.status)
    for path in written.values():
        print(path)
    print(f"\nexported {exported} runs (+ ledgers, telemetry) as jsonl "
          f"under {args.out}", file=sys.stderr)
    return 0


def _command(sub, name: str, func: Callable[[argparse.Namespace], int],
             **kwargs) -> argparse.ArgumentParser:
    """Register one command: its parser runs ``func``, and ``prog``
    names it in :func:`_one_error_line`'s line."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(func=func, prog=parser.prog)
    return parser


def build_parser() -> argparse.ArgumentParser:
    from repro.analysis.experiments import (
        BYZANTINE_STRATEGIES,
        CRASH_ADVERSARIES,
        lookup,
    )
    from repro.engine.sweeps import driver_names
    from repro.faults.spec import normalize_spec

    adversary = partial(lookup, CRASH_ADVERSARIES, "adversary")

    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    crash = _command(sub, "crash", cmd_family,
                     help="run the crash-resilient algorithm")
    crash.add_argument("--n", type=_at_least(1), default=64)
    crash.add_argument("--f", type=int, default=0,
                       help="crash budget for the adversary")
    crash.add_argument("--adversary", choices=["hunter", "random"],
                       default="hunter")
    crash.add_argument("--seed", type=int, default=1)

    byzantine = _command(sub, "byzantine", cmd_family,
                         help="run the Byzantine-resilient algorithm")
    byzantine.add_argument("--n", type=_at_least(1), default=16)
    byzantine.add_argument("--f", type=int, default=0,
                           help="number of corrupted nodes")
    byzantine.add_argument("--strategy", dest="adversary",
                           choices=list(BYZANTINE_STRATEGIES),
                           default="withholder")
    byzantine.add_argument("--consensus-iterations", type=int, default=8)
    byzantine.add_argument("--seed", type=int, default=1)

    table1 = _command(sub, "table1", cmd_table1,
                      help="regenerate Table 1 at one (n, f)")
    table1.add_argument("--n", type=_at_least(1), default=32)
    table1.add_argument("--f", type=int, default=4)
    table1.add_argument("--seed", type=int, default=1)

    lowerbound = _command(sub, "lowerbound", cmd_lowerbound,
                          help="the Theorem 1.4 message-floor experiment")
    # n - 2 is one of the message budgets tried, so n is at least 2.
    lowerbound.add_argument("--n", type=_at_least(2), default=48)
    lowerbound.add_argument("--trials", type=_at_least(1), default=2000)
    lowerbound.add_argument("--seed", type=int, default=1)

    sweep = _command(sub, "sweep", cmd_sweep,
                     help="run a parallel, store-backed sweep over n x seeds")
    sweep.add_argument("--driver", default="crash", choices=driver_names(),
                       help="named summary driver from repro.engine.sweeps")
    sweep.add_argument("--n", default="16,32,64", type=_flag(parse_int_list),
                       help="comma/range list of n values, e.g. 16,32,64")
    sweep.add_argument("--seeds", default="0-4", type=_flag(parse_int_list),
                       help="comma/range list of seeds, e.g. 0-4 or 1,3,5")
    sweep.add_argument("--f", default="0",
                       help="fault budget as an expression in n, "
                            "e.g. 0, n//8, 'max(1, n//4)'")
    _add_param_flag(sweep, "driver")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial, in-process)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-task seconds before a chunk is failed")
    _add_store_flag(sweep)
    sweep.add_argument("--no-store", action="store_true",
                       help="run without reading or writing the store")
    _add_format_flag(sweep)
    sweep.add_argument("--telemetry", action="store_true",
                       help="record engine events + per-driver timings; "
                            "persists telemetry rows into the store")

    falsify = _command(
        sub, "falsify", cmd_falsify,
        help="hunt for invariant violations; shrink and save repro "
             "artifacts",
    )
    falsify.add_argument("--scenario", default=None, type=_names(_scenario),
                         help="comma list of scenarios (default: the "
                              "clean built-in scenarios)")
    falsify.add_argument("--n", default="8,12", type=_flag(parse_int_list),
                         help="comma/range list of n values")
    falsify.add_argument("--seeds", default="0-3", type=_flag(parse_int_list),
                         help="comma/range list of seeds")
    falsify.add_argument("--f", default="max(1, n // 4)",
                         help="crash budget as an expression in n")
    falsify.add_argument("--adversary", default=None,
                         type=_names(adversary),
                         help="comma list of adversaries "
                              "(default: random,hunter,partitioner)")
    falsify.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = serial, in-process)")
    falsify.add_argument("--timeout", type=float, default=None,
                         help="per-probe seconds before a retry/failure")
    falsify.add_argument("--time-budget", type=float, default=None,
                         help="stop launching new probe batches after "
                              "this many seconds")
    falsify.add_argument("--no-shrink", action="store_true",
                         help="save raw recorded schedules without "
                              "delta-debugging them")
    falsify.add_argument("--out", default=".repro/repros",
                         help="directory for repro artifacts")
    _add_param_flag(falsify, "scenario")
    _add_store_flag(falsify)
    falsify.add_argument("--no-store", action="store_true",
                         help="run without reading or writing the store")
    falsify.add_argument("--replay", default=None, metavar="PATH",
                         help="strictly replay one repro artifact and "
                              "exit (0 = reproduced)")

    faults = _command(
        sub, "faults", cmd_faults,
        help="degradation frontier: classify scenarios under an "
             "escalating fault ladder",
    )
    faults.add_argument("--scenario", default="crash,gossip",
                        type=_names(_scenario),
                        help="comma list of scenarios "
                             "(default: crash,gossip)")
    faults.add_argument("--n", type=_at_least(1), default=16)
    faults.add_argument("--f", type=int, default=0,
                        help="crash budget for --adversary (default 0)")
    faults.add_argument("--seed", type=int, default=1)
    faults.add_argument("--adversary", default="none",
                        type=_names(adversary, one=True),
                        help="none, random, hunter, partitioner "
                             "(composed with the link faults)")
    faults.add_argument("--faults", default=None, metavar="JSON",
                        type=_flag(normalize_spec),
                        help="classify one explicit fault spec instead "
                             "of the default ladder")
    faults.add_argument("--watchdog-rounds", type=int, default=None,
                        help="stall watchdog override (default 32n+256)")
    _add_format_flag(faults)

    obs = sub.add_parser(
        "obs", help="observability: inspect events, profile, telemetry"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_tail = _command(
        obs_sub, "tail", _obs_tail,
        help="validate an event JSONL file and print the tail")
    obs_tail.add_argument("path", help="event file written by the recorder")
    obs_tail.add_argument("--last", type=_at_least(0), default=20,
                          help="events to print (default 20)")

    obs_profile = _command(
        obs_sub, "profile", _obs_profile,
        help="run one scenario with the phase profiler on")
    obs_profile.add_argument("--scenario", default="crash",
                             type=_names(_scenario, one=True),
                             help="falsification scenario name "
                                  "(default: crash)")
    obs_profile.add_argument("--n", type=_at_least(1), default=32)
    obs_profile.add_argument("--f", type=int, default=4)
    obs_profile.add_argument("--seed", type=int, default=1)
    obs_profile.add_argument("--adversary", default="random",
                             type=_names(adversary, one=True),
                             help="none, random, hunter, partitioner")
    obs_profile.add_argument("--events", default=None, metavar="PATH",
                             help="also write the event stream as JSONL")
    _add_param_flag(obs_profile, "scenario")

    obs_report = _command(
        obs_sub, "report", _obs_report,
        help="aggregate stored sweep telemetry per driver")
    obs_report.add_argument("--driver", default=None,
                            help="restrict to one driver")
    obs_report.add_argument("--limit", type=int, default=None)
    _add_format_flag(obs_report)
    _add_store_flag(obs_report)

    runs = _command(
        sub, "runs", cmd_runs,
        help="list/query cached runs; 'runs export' dumps them")
    runs.add_argument("--driver", default=None)
    runs.add_argument("--n", type=int, default=None)
    runs.add_argument("--status", choices=["ok", "failed"], default=None)
    runs.add_argument("--limit", type=int, default=None)
    _add_format_flag(runs)
    _add_store_flag(runs)

    runs_sub = runs.add_subparsers(dest="runs_command")
    runs_export = _command(
        runs_sub, "export", cmd_runs_export,
        help="dump runs+ledgers+telemetry as JSONL files for analytics "
             "SQL",
    )
    runs_export.add_argument("--out", default=".repro/export",
                             help="output directory (default .repro/export)")
    runs_export.add_argument("--driver", default=None,
                             help="restrict the export to one driver")
    runs_export.add_argument("--status", choices=["ok", "failed"],
                             default=None)
    _add_store_flag(runs_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
