"""Load benchmark for the renaming service.

Usage::

    python -m repro serve                 # full matrix: 120k requests
                                          # at 2, 4, and 8 shards
    python -m repro serve --quick         # CI smoke: 5k requests, 2 and
                                          # 4 shards
    python -m repro serve --events serve_events.jsonl

Each run stands up a :class:`repro.serve.service.RenamingService`,
plays the seeded default load profile against it open-loop (dispatch
as fast as the event loop accepts; epochs execute concurrently in the
shard thread pool), and measures sustained requests/sec plus
p50/p95/p99 latency per request kind.  Every request carries its
arrival stamp onto its lane's clock, lookups included (``lookup_at``),
so each count of the report — lookup hits too — is a function of the
seed.  The ``lookup`` histogram is therefore time-to-*ordered*-answer:
a stamped read queues on its lane behind the batches that closed
before it, not a microsecond probe of the installed table (that is the
synchronous ``service.lookup``, which ``benchmarks/e2e`` times).
Rename/release latency is dominated by queue wait at saturation — an
open-loop run measures the service at its throughput limit, not at a
comfortable operating point.

Results are written to ``BENCH_serve.json`` (``repro.serve/bench@1``):
one entry per shard count carrying the load report, the service's
counted totals (epochs, protocol rounds/messages/bits), per-shard
rows, and a ``repro.obs/profile@1`` phase breakdown that splits each
shard's epochs into the protocol's plan/charge/deliver/advance phases.
Serve-level ``repro.obs/serve@1`` events from every run are recorded,
schema-validated (problem counts land in the output), and optionally
written as JSONL for ``python -m repro obs tail``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.serve.loadgen import (
    DEFAULT_PROFILE,
    QUICK_PROFILE,
    LoadProfile,
    execute_profile,
)

#: Benchmark output format tag.
BENCH_FORMAT = "repro.serve/bench@1"

#: Shard counts of the full matrix and of the --quick CI smoke run.
FULL_SHARDS = (2, 4, 8)
QUICK_SHARDS = (2, 4)

#: Keys of the per-run report too bulky for the benchmark file (the
#: boundary list alone has one entry per batch).
_BULKY_KEYS = ("boundaries", "epoch_messages", "epoch_bits")


def run_serve_bench(
    shard_counts: Sequence[int],
    profile: LoadProfile,
    *,
    events_path: Optional[str] = None,
    progress: Optional[Callable[[str, dict], None]] = None,
) -> dict:
    """Run the benchmark matrix; returns the ``BENCH_serve.json`` dict.

    One service per shard count, same seeded workload otherwise.  All
    runs share one event recorder so the optional JSONL file carries
    the whole session; its serve events are schema-validated here and
    the problem count is part of the output (CI fails on problems, not
    on timings).
    """
    from repro.obs import EventRecorder, validate_events
    from repro.serve.obs import SERVE_EVENT_FORMAT, validate_serve_events

    recorder = EventRecorder(profile=True)
    results: dict = {
        "schema": BENCH_FORMAT,
        "event_format": SERVE_EVENT_FORMAT,
        "profile": asdict(profile),
        "runs": {},
    }
    for shards in shard_counts:
        run_profile = profile.scaled(shards=shards)
        report = execute_profile(
            run_profile, observer=recorder, profile_shards=True,
        )
        entry = {key: value for key, value in report.items()
                 if key not in _BULKY_KEYS}
        entry["shards"] = shards
        name = f"serve_s{shards}"
        results["runs"][name] = entry
        if progress is not None:
            progress(name, entry)
    events = recorder.events()
    problems = validate_events(events) + validate_serve_events(events)
    results["events"] = {
        "recorded": len(events),
        "dropped": recorder.dropped,
        "schema_problems": len(problems),
        "problems": problems[:20],
    }
    if events_path:
        results["events"]["path"] = str(recorder.write_jsonl(events_path))
    return results


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"~5k requests at shard counts "
                             f"{list(QUICK_SHARDS)} (CI smoke; timings "
                             "informational)")
    parser.add_argument("--shards", default=None,
                        help="comma list of shard counts overriding the "
                             "matrix")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per run (default "
                             f"{DEFAULT_PROFILE.requests}, or 5000 with "
                             "--quick)")
    parser.add_argument("--clients", type=int, default=None,
                        help="client identities (default "
                             f"{DEFAULT_PROFILE.clients})")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload + protocol seed (default "
                             f"{DEFAULT_PROFILE.seed}; same seed, same "
                             "trace, same batch boundaries)")
    parser.add_argument("--events", default=None, metavar="PATH",
                        help="also write the serve event stream as JSONL")
    parser.add_argument("--out", default="BENCH_serve.json",
                        help="output JSON path (default BENCH_serve.json)")
    args = parser.parse_args(argv)

    profile = QUICK_PROFILE.scaled(requests=5_000) if args.quick \
        else DEFAULT_PROFILE
    overrides = {}
    if args.requests is not None:
        overrides["requests"] = args.requests
    if args.clients is not None:
        overrides["clients"] = args.clients
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        profile = profile.scaled(**overrides)
    if args.shards:
        shard_counts = [int(part) for part in args.shards.split(",")
                        if part.strip()]
    else:
        shard_counts = list(QUICK_SHARDS if args.quick else FULL_SHARDS)

    def progress(name: str, entry: dict) -> None:
        rename = entry["latency"]["rename"]
        print(f"{name:>10}: {entry['requests']:>7} reqs in "
              f"{entry['wall_s']:7.2f}s  ({entry['throughput_rps']:>8.1f} "
              f"req/s)  rename p50/p99 {rename['p50_ms']:.0f}/"
              f"{rename['p99_ms']:.0f} ms  epochs {entry['service']['epochs']}")

    results = run_serve_bench(
        shard_counts, profile, events_path=args.events, progress=progress,
    )
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {out}")
    return 1 if results["events"]["schema_problems"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
