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
    python -m repro fabric enqueue --driver crash --n 16,32 --seeds 0-4 --campaign night
    python -m repro fabric work --campaign night --workers 4
    python -m repro fabric status --live
    python -m repro fabric resume --campaign night --workers 2
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random


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


def _parse_params(pairs: list[str]) -> dict:
    """``key=value`` strings to a dict, JSON-decoding each value.

    Engine parameters are JSON scalars only, so a structured JSON value
    (e.g. ``faults=[{"kind": "omission"}]``) stays the raw JSON *text* —
    drivers that take structured configuration accept it as a string.
    """
    params = {}
    for pair in pairs:
        key, equals, raw = pair.partition("=")
        if not equals:
            raise SystemExit(f"--param needs key=value, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if not isinstance(value, (str, int, float, bool, type(None))):
            value = raw
        params[key] = value
    return params


def cmd_family(args: argparse.Namespace) -> int:
    """``crash`` / ``byzantine``: the family's summary row, with the
    flags it takes as params."""
    from repro.analysis.experiments import FAMILIES, summary

    params = {key: value for key, value in vars(args).items()
              if key in FAMILIES[args.command].params}
    row = summary(args.command, args.n, args.f, args.seed,
                  adversary=args.adversary, **params)
    _print_rows([row])
    ok = row["unique"] and row["strong"] and row["order_preserving"]
    return 0 if ok else 1


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import table1_rows

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
    ``sqlite://`` URL; a bad location is one line, no traceback."""
    from repro.engine.store import default_store_path, resolve_store_url

    try:
        return resolve_store_url(
            args.store if args.store else default_store_path())
    except ValueError as error:
        raise SystemExit(f"python -m repro: {error}") from None


def _open_store(args):
    from repro.engine.store import RunStore

    if getattr(args, "no_store", False):
        return None
    return RunStore(_store_url(args))


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    """``--store``, which :func:`_store_url` reads back."""
    parser.add_argument("--store", default=None,
                        help="run-store path or sqlite://path URL (default "
                             "$REPRO_STORE or .repro/runs.sqlite)")


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    """The five flags that spell one sweep spec (``sweep``, ``fabric
    enqueue``); :func:`_spec_requests` reads them back."""
    from repro.engine.sweeps import driver_names

    parser.add_argument("--driver", default="crash", choices=driver_names(),
                        help="named summary driver from repro.engine.sweeps")
    parser.add_argument("--n", default="16,32,64",
                        help="comma/range list of n values, e.g. 16,32,64")
    parser.add_argument("--seeds", default="0-4",
                        help="comma/range list of seeds, e.g. 0-4 or 1,3,5")
    parser.add_argument("--f", default="0",
                        help="fault budget as an expression in n, "
                             "e.g. 0, n//8, 'max(1, n//4)'")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="extra driver keyword (JSON value); repeatable")


def _spec_requests(args: argparse.Namespace, command: str) -> list:
    """The requests of the spec flags; a bad spec is one error line."""
    from repro.engine.sweeps import SweepSpec

    try:
        return SweepSpec.make(
            args.driver,
            parse_int_list(args.n),
            parse_int_list(args.seeds),
            f=args.f,
            **_parse_params(args.param),
        ).requests()
    except (TypeError, ValueError) as error:
        raise SystemExit(f"python -m repro {command}: error: {error}")


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine.pool import run_requests

    requests = _spec_requests(args, "sweep")
    store = _open_store(args)
    observer = None
    if args.telemetry:
        from repro.obs import EventRecorder

        observer = EventRecorder(profile=True)
    try:
        results = run_requests(
            requests, jobs=args.jobs, store=store,
            timeout=args.timeout, observer=observer,
        )
    finally:
        if store is not None:
            store.close()
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
    from repro.falsify.campaign import (
        CampaignConfig,
        replay_artifact,
        run_campaign,
        save_findings,
    )
    from repro.falsify.replay import ReproArtifact
    from repro.falsify.scenarios import DEFAULT_ADVERSARIES, DEFAULT_SCENARIOS

    if args.replay:
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

    config = CampaignConfig(
        scenarios=(tuple(s for s in args.scenario.split(",") if s)
                   if args.scenario else DEFAULT_SCENARIOS),
        n_values=tuple(parse_int_list(args.n)),
        seeds=tuple(parse_int_list(args.seeds)),
        f=args.f,
        adversaries=(tuple(a for a in args.adversary.split(",") if a)
                     if args.adversary else DEFAULT_ADVERSARIES),
        jobs=args.jobs,
        timeout=args.timeout,
        time_budget=args.time_budget,
        shrink=not args.no_shrink,
        params=_parse_params(args.param),
    )
    store = _open_store(args)

    def progress(done: int, total: int) -> None:
        print(f"probed {done}/{total}", file=sys.stderr)

    try:
        result = run_campaign(config, store=store, progress=progress)
    finally:
        if store is not None:
            store.close()

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

    scenarios = [s for s in args.scenario.split(",") if s]
    if args.faults:
        # One explicit spec instead of the ladder: classify it per
        # scenario (the single-cell form of the frontier).
        rows = []
        for scenario in scenarios:
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
            scenarios, args.n, args.f, args.seed,
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


def cmd_obs(args: argparse.Namespace) -> int:
    handler = {
        "tail": _obs_tail,
        "profile": _obs_profile,
        "report": _obs_report,
    }[args.obs_command]
    return handler(args)


def _obs_tail(args: argparse.Namespace) -> int:
    """Validate an event file and print its most recent events."""
    from repro.obs import read_jsonl, validate_events

    if args.last < 0:
        raise SystemExit("python -m repro obs tail: error: --last must be "
                         f">= 0, got {args.last}")
    try:
        events = read_jsonl(args.path)
    except (OSError, ValueError) as error:
        print(f"python -m repro obs tail: {error}", file=sys.stderr)
        return 1
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
            params=_parse_params(args.param),
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
    store = _open_store(args)
    try:
        rows = store.telemetry_rows(
            key="run", driver=args.driver, limit=args.limit)
    finally:
        store.close()
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

    store = _open_store(args)
    try:
        stored = store.query(driver=args.driver, n=args.n,
                             status=args.status, limit=args.limit)
        stats = store.stats()
    finally:
        store.close()
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

    store = _open_store(args)
    try:
        exported, written = export_store(
            store, args.out, driver=args.driver, status=args.status)
    finally:
        store.close()
    for path in written.values():
        print(path)
    print(f"\nexported {exported} runs (+ ledgers, telemetry) as jsonl "
          f"under {args.out}", file=sys.stderr)
    return 0


def cmd_fabric(args: argparse.Namespace) -> int:
    handler = {
        "enqueue": _fabric_enqueue,
        "work": _fabric_work,
        "status": _fabric_status,
        "resume": _fabric_resume,
    }[args.fabric_command]
    return handler(args)


def _fabric_enqueue(args: argparse.Namespace) -> int:
    """Fan a sweep out as leasable tasks in the store's queue."""
    from repro.engine.fabric import enqueue_campaign

    requests = _spec_requests(args, "fabric enqueue")
    url = _store_url(args)
    total, new = enqueue_campaign(url, args.campaign, requests,
                                  events_dir=args.events)
    print(f"campaign {args.campaign!r}: {total} tasks ({new} new, "
          f"{total - new} already enqueued)  [store: {url}]")
    return 0


def _fabric_config(args: argparse.Namespace):
    from repro.engine.fabric import FabricConfig

    try:
        return FabricConfig(
            store=_store_url(args),
            campaign=args.campaign,
            lease_ttl=args.lease_ttl,
            task_timeout=args.timeout,
            max_task_attempts=args.max_attempts,
            forever=getattr(args, "forever", False),
            events_dir=args.events,
        )
    except ValueError as error:
        raise SystemExit(f"python -m repro fabric: error: {error}")


def _print_worker_summaries(summaries: list[dict]) -> int:
    crashed = 0
    for summary in summaries:
        line = (f"worker {summary['worker']}: {summary['reason']} — "
                f"{summary['settled']} settled, {summary['failed']} failed, "
                f"{summary['cached']} cached, "
                f"{summary['leases_lost']} leases lost")
        if summary.get("events"):
            line += f"  [events: {summary['events']}]"
        print(line, file=sys.stderr)
        crashed += summary["reason"] not in ("drained", "sigterm", "stopped")
    return 1 if crashed else 0


def _fabric_work(args: argparse.Namespace) -> int:
    """Run worker processes until the campaign drains (or SIGTERM)."""
    from repro.engine.fabric import run_workers

    return _print_worker_summaries(
        run_workers(_fabric_config(args), args.workers))


def _fabric_resume(args: argparse.Namespace) -> int:
    """Reclaim leases from dead workers, then drain what remains."""
    from repro.engine.fabric import resume_campaign

    return _print_worker_summaries(
        resume_campaign(_fabric_config(args), args.workers))


def _campaign_rows(status: dict) -> list[dict]:
    return [
        {
            "campaign": name,
            "pending": per["pending"],
            "leased": per["leased"],
            "settled": per["settled"],
            "failed": per["failed"],
            "total": per["total"],
        }
        for name, per in sorted(status["campaigns"].items())
    ]


def _fabric_status(args: argparse.Namespace) -> int:
    """Per-campaign counts, live leases and the store's run counts;
    ``--live`` polls until nothing is outstanding."""
    import time

    from repro.engine.fabric import campaign_status

    url = _store_url(args)
    while True:
        status = campaign_status(url, args.campaign)
        if args.format == "json":
            print(json.dumps(status, indent=2))
        else:
            if status["campaigns"]:
                _print_rows(_campaign_rows(status), args.format)
            else:
                print("no campaigns enqueued")
            for lease in status["leases"]:
                print(f"  leased {lease['task'][:10]} ({lease['campaign']}) "
                      f"by {lease['owner']} — attempt {lease['attempts']}, "
                      f"expires in {lease['expires_in']}s", file=sys.stderr)
            runs = status["runs"]
            print(f"\n{status['outstanding']} outstanding, {runs['ok']} ok "
                  f"/ {runs['failed']} failed of {runs['total']} runs  "
                  f"[store: {status['store']}]", file=sys.stderr)
        if not args.live or status["outstanding"] == 0:
            return 0
        time.sleep(args.interval)
        print()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    crash = sub.add_parser("crash", help="run the crash-resilient algorithm")
    crash.add_argument("--n", type=int, default=64)
    crash.add_argument("--f", type=int, default=0,
                       help="crash budget for the adversary")
    crash.add_argument("--adversary", choices=["hunter", "random"],
                       default="hunter")
    crash.add_argument("--seed", type=int, default=1)
    crash.set_defaults(func=cmd_family)

    from repro.analysis.experiments import BYZANTINE_STRATEGIES

    byzantine = sub.add_parser(
        "byzantine", help="run the Byzantine-resilient algorithm"
    )
    byzantine.add_argument("--n", type=int, default=16)
    byzantine.add_argument("--f", type=int, default=0,
                           help="number of corrupted nodes")
    byzantine.add_argument("--strategy", dest="adversary",
                           choices=list(BYZANTINE_STRATEGIES),
                           default="withholder")
    byzantine.add_argument("--consensus-iterations", type=int, default=8)
    byzantine.add_argument("--seed", type=int, default=1)
    byzantine.set_defaults(func=cmd_family)

    table1 = sub.add_parser("table1", help="regenerate Table 1 at one (n, f)")
    table1.add_argument("--n", type=int, default=32)
    table1.add_argument("--f", type=int, default=4)
    table1.add_argument("--seed", type=int, default=1)
    table1.set_defaults(func=cmd_table1)

    lowerbound = sub.add_parser(
        "lowerbound", help="the Theorem 1.4 message-floor experiment"
    )
    lowerbound.add_argument("--n", type=int, default=48)
    lowerbound.add_argument("--trials", type=int, default=2000)
    lowerbound.add_argument("--seed", type=int, default=1)
    lowerbound.set_defaults(func=cmd_lowerbound)

    sweep = sub.add_parser(
        "sweep",
        help="run a parallel, store-backed sweep over n x seeds",
    )
    _add_spec_flags(sweep)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial, in-process)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-task seconds before a chunk is failed")
    _add_store_flag(sweep)
    sweep.add_argument("--no-store", action="store_true",
                       help="run without reading or writing the store")
    sweep.add_argument("--format", choices=["plain", "md", "json"],
                       default="plain")
    sweep.add_argument("--telemetry", action="store_true",
                       help="record engine events + per-driver timings; "
                            "persists telemetry rows into the store")
    sweep.set_defaults(func=cmd_sweep)

    falsify = sub.add_parser(
        "falsify",
        help="hunt for invariant violations; shrink and save repro "
             "artifacts",
    )
    falsify.add_argument("--scenario", default=None,
                         help="comma list of scenarios (default: the "
                              "clean built-in scenarios)")
    falsify.add_argument("--n", default="8,12",
                         help="comma/range list of n values")
    falsify.add_argument("--seeds", default="0-3",
                         help="comma/range list of seeds")
    falsify.add_argument("--f", default="max(1, n // 4)",
                         help="crash budget as an expression in n")
    falsify.add_argument("--adversary", default=None,
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
    falsify.add_argument("--param", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="extra scenario keyword (JSON value); "
                              "repeatable")
    _add_store_flag(falsify)
    falsify.add_argument("--no-store", action="store_true",
                         help="run without reading or writing the store")
    falsify.add_argument("--replay", default=None, metavar="PATH",
                         help="strictly replay one repro artifact and "
                              "exit (0 = reproduced)")
    falsify.set_defaults(func=cmd_falsify)

    faults = sub.add_parser(
        "faults",
        help="degradation frontier: classify scenarios under an "
             "escalating fault ladder",
    )
    faults.add_argument("--scenario", default="crash,gossip",
                        help="comma list of scenarios "
                             "(default: crash,gossip)")
    faults.add_argument("--n", type=int, default=16)
    faults.add_argument("--f", type=int, default=0,
                        help="crash budget for --adversary (default 0)")
    faults.add_argument("--seed", type=int, default=1)
    faults.add_argument("--adversary", default="none",
                        help="none, random, hunter, partitioner "
                             "(composed with the link faults)")
    faults.add_argument("--faults", default=None, metavar="JSON",
                        help="classify one explicit fault spec instead "
                             "of the default ladder")
    faults.add_argument("--watchdog-rounds", type=int, default=None,
                        help="stall watchdog override (default 32n+256)")
    faults.add_argument("--format", choices=["plain", "md", "json"],
                        default="plain")
    faults.set_defaults(func=cmd_faults)

    obs = sub.add_parser(
        "obs", help="observability: inspect events, profile, telemetry"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_tail = obs_sub.add_parser(
        "tail", help="validate an event JSONL file and print the tail"
    )
    obs_tail.add_argument("path", help="event file written by the recorder")
    obs_tail.add_argument("--last", type=int, default=20,
                          help="events to print (default 20)")
    obs_tail.set_defaults(func=cmd_obs)

    obs_profile = obs_sub.add_parser(
        "profile", help="run one scenario with the phase profiler on"
    )
    obs_profile.add_argument("--scenario", default="crash",
                             help="falsification scenario name "
                                  "(default: crash)")
    obs_profile.add_argument("--n", type=int, default=32)
    obs_profile.add_argument("--f", type=int, default=4)
    obs_profile.add_argument("--seed", type=int, default=1)
    obs_profile.add_argument("--adversary", default="random",
                             help="none, random, hunter, partitioner")
    obs_profile.add_argument("--events", default=None, metavar="PATH",
                             help="also write the event stream as JSONL")
    obs_profile.add_argument("--param", action="append", default=[],
                             metavar="KEY=VALUE",
                             help="extra scenario keyword (JSON value); "
                                  "repeatable")
    obs_profile.set_defaults(func=cmd_obs)

    obs_report = obs_sub.add_parser(
        "report", help="aggregate stored sweep telemetry per driver"
    )
    obs_report.add_argument("--driver", default=None,
                            help="restrict to one driver")
    obs_report.add_argument("--limit", type=int, default=None)
    obs_report.add_argument("--format", choices=["plain", "md", "json"],
                            default="plain")
    _add_store_flag(obs_report)
    obs_report.set_defaults(func=cmd_obs)

    fabric = sub.add_parser(
        "fabric",
        help="crash-resumable distributed sweeps: enqueue, work, "
             "status, resume",
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)

    def _fabric_store_args(p, events_help):
        p.add_argument("--campaign", default="default",
                       help="campaign name (default: 'default')")
        _add_store_flag(p)
        p.add_argument("--events", default=None, metavar="DIR",
                       help=events_help)

    fabric_enqueue = fabric_sub.add_parser(
        "enqueue", help="fan a sweep out as leasable queue tasks"
    )
    _add_spec_flags(fabric_enqueue)
    _fabric_store_args(fabric_enqueue,
                       "directory for the enqueue event record")
    fabric_enqueue.set_defaults(func=cmd_fabric)

    def _fabric_worker_args(p):
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (default 1, in-process)")
        p.add_argument("--lease-ttl", type=float, default=30.0,
                       help="seconds a lease survives without a "
                            "heartbeat (default 30)")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-task seconds before an isolated "
                            "execution is failed")
        p.add_argument("--max-attempts", type=int, default=5,
                       help="lease generations before a task is "
                            "poisoned (default 5)")
        _fabric_store_args(p, "directory for per-worker fabric@1 "
                              "event streams")

    fabric_work = fabric_sub.add_parser(
        "work", help="run workers until the campaign drains"
    )
    _fabric_worker_args(fabric_work)
    fabric_work.add_argument("--forever", action="store_true",
                             help="keep polling after the queue drains "
                                  "(a standing fleet)")
    fabric_work.set_defaults(func=cmd_fabric)

    fabric_resume = fabric_sub.add_parser(
        "resume",
        help="reclaim leases from dead workers, then drain the rest",
    )
    _fabric_worker_args(fabric_resume)
    fabric_resume.set_defaults(func=cmd_fabric, forever=False)

    fabric_status = fabric_sub.add_parser(
        "status", help="per-campaign queue counts and live leases"
    )
    fabric_status.add_argument("--campaign", default=None,
                               help="restrict to one campaign")
    _add_store_flag(fabric_status)
    fabric_status.add_argument("--format", choices=["plain", "md", "json"],
                               default="plain")
    fabric_status.add_argument("--live", action="store_true",
                               help="refresh until no tasks remain "
                                    "outstanding")
    fabric_status.add_argument("--interval", type=float, default=2.0,
                               help="seconds between --live refreshes "
                                    "(default 2)")
    fabric_status.set_defaults(func=cmd_fabric)

    runs = sub.add_parser(
        "runs", help="list/query cached runs; 'runs export' dumps them"
    )
    runs.add_argument("--driver", default=None)
    runs.add_argument("--n", type=int, default=None)
    runs.add_argument("--status", choices=["ok", "failed"], default=None)
    runs.add_argument("--limit", type=int, default=None)
    runs.add_argument("--format", choices=["plain", "md", "json"],
                      default="plain")
    _add_store_flag(runs)
    runs.set_defaults(func=cmd_runs, runs_command=None)

    runs_sub = runs.add_subparsers(dest="runs_command")
    runs_export = runs_sub.add_parser(
        "export",
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
    runs_export.set_defaults(func=cmd_runs_export)

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
