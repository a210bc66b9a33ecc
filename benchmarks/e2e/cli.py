"""Command line of the benchmark: the parent of the workload children.

``python -m benchmarks.e2e`` runs all four workloads, timed and then
traced, and prints every metric; with ``--workload`` it runs one pass
of one workload and ends with the one-line JSON result the benchmark
contract asks for; ``compare A.json B.json`` judges two reports.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.analysis.tables import plain_table

from benchmarks.e2e.compare import compare
from benchmarks.e2e.spec import OUT_DIR, ROOT, WORKLOADS, declared

REPORT_FORMAT = "repro.bench/e2e@1"
#: Set-up is sampled in this many fresh processes and the median kept.
SETUP_SAMPLES = 3
#: A child is killed after this long (the contract allows a run 180 s).
CHILD_TIMEOUT_S = 170


def spawn(name: str, seed: int, seconds: float, trace: int, quick: bool,
          trace_out: Path, setup_only: bool = False) -> dict:
    """Run one worker to its end; returns the object it printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [
        sys.executable, "-m", "benchmarks.e2e.worker",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--trace-out", str(trace_out),
        "--spawned-at", repr(time.time()),
    ] + ["--quick"] * quick + ["--setup-only"] * setup_only
    done = subprocess.run(command, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if done.returncode:
        raise RuntimeError(f"worker for {name} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 quick: bool, trace_out: Path) -> dict:
    """One pass of one workload: ``{"metrics": {name: [value, samples]},
    "attempted", "failed", "errors", "invalid", "digest"}``."""
    # Set-up and memory are end-to-end metrics: a timed pass reports
    # them, with set-up sampled in extra processes (not in a smoke run).
    setups = [
        spawn(name, seed, seconds, trace, quick, trace_out,
              setup_only=True)["setup_s"]
        for _ in range(0 if quick or trace else SETUP_SAMPLES - 1)
    ]
    outcome = spawn(name, seed, seconds, trace, quick, trace_out)
    setups.append(outcome.pop("setup_s"))
    rss = outcome.pop("peak_rss_mb")
    if not trace:
        outcome["metrics"]["setup_s"] = [statistics.median(setups),
                                         len(setups)]
        outcome["metrics"]["peak_rss_mb"] = [rss, 1]
    outcome.setdefault("invalid", [])
    return outcome


def print_metrics(name: str, outcome: dict, units: dict[str, str]) -> None:
    rows = [{"workload": name, "metric": metric, "value": value,
             "unit": units.get(metric, "?"), "samples": samples}
            for metric, (value, samples) in sorted(outcome["metrics"].items())]
    print(plain_table(rows, float_digits=4))
    print(f"{name}: attempted {outcome['attempted']}, failed "
          f"{outcome['failed']}, counts_digest {outcome['digest'][:16]}")
    for reason in outcome["invalid"]:
        print(f"{name}: INVALID serve numbers: {reason}")
    for error in outcome["errors"]:
        print(f"{name}: FAILED: {error}")
    sys.stdout.flush()


def one_pass(args, spec: dict, units: dict[str, str]) -> int:
    """The contract's run: one workload, one pass, one JSON line."""
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           args.trace, args.quick, args.trace_out)
    print_metrics(args.workload, outcome, units)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    # A layer that is not on this workload's path did no work: 0.
    metrics = {
        metric["name"]: {
            "value": outcome["metrics"].get(metric["name"], [0.0])[0],
            "unit": metric["unit"],
        }
        for metric in group
    }
    correct = outcome["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0 if correct else 1


def all_workloads(args, spec: dict, units: dict[str, str]) -> int:
    """Every workload, timed then traced; prints and writes a report."""
    names = {metric["name"] for metric in spec["end_to_end"]}
    report = {"format": REPORT_FORMAT, "seed": args.seed,
              "quick": args.quick, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        timed = run_workload(name, args.seed, args.seconds, 0, args.quick,
                             args.trace_out)
        traced = run_workload(name, args.seed, args.seconds / 2, 1,
                              args.quick, args.trace_out)
        # What the timed pass measured of the layers (the spread of its
        # reps) has more reps behind it than the traced pass's own.
        merged = {
            "metrics": {**traced["metrics"], **timed["metrics"]},
            "attempted": timed["attempted"] + traced["attempted"],
            "failed": timed["failed"] + traced["failed"],
            "errors": timed["errors"] + traced["errors"],
            "invalid": timed["invalid"] + traced["invalid"],
            "digest": timed["digest"],
        }
        print_metrics(name, merged, units)
        report["workloads"][name] = {
            "end_to_end": {key: value for key, value
                           in merged["metrics"].items() if key in names},
            "per_layer": {key: value for key, value
                          in merged["metrics"].items() if key not in names},
            "attempted": merged["attempted"], "failed": merged["failed"],
            "failed_share": merged["failed"] / merged["attempted"],
            "counts_digest": merged["digest"],
            "invalid": merged["invalid"], "errors": merged["errors"],
        }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n",
                            encoding="utf-8")
    failed = sum(entry["failed"] for entry in report["workloads"].values())
    print(f"failed operations: {failed}")
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
        parser.add_argument("before", type=Path)
        parser.add_argument("after", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(json.loads(args.before.read_text(encoding="utf-8")),
                       json.loads(args.after.read_text(encoding="utf-8")),
                       declared())
    parser = argparse.ArgumentParser(prog="benchmarks.e2e",
                                     description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one pass of this workload only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="how long one timed pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, one rep: a smoke run")
    parser.add_argument("--out", type=Path,
                        help="write the report of all workloads here")
    parser.add_argument("--trace-out", type=Path, default=OUT_DIR / "spans",
                        help="directory for the spans (JSONL)")
    args = parser.parse_args(argv)
    spec = declared()
    if args.seconds is None:
        args.seconds = 3.0 if args.quick else float(spec["run_seconds"])
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    if args.workload is not None:
        return one_pass(args, spec, units)
    return all_workloads(args, spec, units)
