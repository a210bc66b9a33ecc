"""The child process of one workload: set-up, then a timed or traced pass.

Started by ``cli.py`` once per measurement (and, with ``--setup-only``,
once more per extra set-up sample).  Prints one JSON object as the
last line of its standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from benchmarks.e2e.spec import FULL, QUICK, WORKLOADS
from benchmarks.e2e.speed import PERIOD_S, SpeedMeter
from benchmarks.e2e.trace import Recorder


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.worker")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out", type=Path, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sizes = QUICK if args.quick else FULL
    name = args.workload
    recorder = Recorder(name)

    # Set-up is short (0.3-0.8 s), so its speed is sampled five times as
    # often: that halved the spread of its medians (12 % to 5 %).
    meter = SpeedMeter(PERIOD_S / 5)
    spawned = meter.mark()
    with meter:
        # The repo is imported only now, so that the meter sees it.
        from benchmarks.e2e import passes

        workload = passes.build(name, args.seed, sizes, args.seconds,
                                args.trace, meter)
        setup_s, _ = meter.since(spawned, time.time() - args.spawned_at)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        meter.every(PERIOD_S)
        if name == "serve_paced":
            outcome = (passes.trace_serve(workload, name, recorder)
                       if args.trace else passes.measure_serve(workload))
        else:
            # A smoke run makes one rep (and one traced) whatever the
            # clock says.
            budget = 0.0 if args.quick else args.seconds
            outcome = (
                passes.trace_batch(workload, name, budget, recorder)
                if args.trace
                else passes.measure_batch(workload, sizes, budget))
    if args.trace:
        args.trace_out.mkdir(parents=True, exist_ok=True)
        recorder.write(args.trace_out / f"{name}-seed{args.seed}.jsonl")
    outcome["setup_s"] = setup_s
    outcome["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
