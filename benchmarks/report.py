"""Print every measured table of EXPERIMENTS.md (T1, F1-F13, F16, F17).

Usage::

    python benchmarks/report.py               # all figures (~25 s on one core)
    python benchmarks/report.py --jobs 8      # parallel across 8 workers
    python benchmarks/report.py --store .repro/runs.sqlite   # resumable
    python benchmarks/report.py --scale large --store PATH   # F1 at scale

The figures are the entries of :data:`benchmarks.figures.FIGURES`.
Every protocol execution goes through :mod:`repro.engine`: all figures'
runs are gathered into one request list, deduplicated, executed in
parallel, and (with ``--store``, on by default) cached in the run store
— an interrupted report resumes from where it stopped, and a re-run
after an algorithm change recomputes only what the new code version
invalidates.  ``--store`` takes the path of a SQLite file; see
``python -m repro runs export`` for the columnar analytics path over a
filled store.

The printed output is markdown and deterministic:
``benchmarks/results/report.md`` is the committed copy (CI diffs
against it); refresh it and EXPERIMENTS.md after a substantive change
to the algorithms or the cost model.

``--scale large`` prints the figures that have large points instead
(F1 so far: n up to 32,768, five seeds a point, minutes of CPU and
~350 MB at the largest run), through the same engine call.  Its rows
are committed as the ``runs.jsonl`` of a ``runs export`` in
``benchmarks/results/large/`` -- the one file ``load_export`` reads, so
the export's ``ledgers.jsonl`` and ``telemetry.jsonl`` are not
committed -- and its output is EXPERIMENTS.md's F1 block; to print it
from them without running anything, load them into a store first::

    python -c "from repro.engine.export import load_export; \\
        from repro.engine.store import RunStore; \\
        load_export(RunStore('large.sqlite'), 'benchmarks/results/large')"
    python benchmarks/report.py --scale large --store large.sqlite
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.figures import FIGURES, SCALES, measure  # noqa: E402
from repro.analysis.tables import markdown_table  # noqa: E402
from repro.engine.store import RunStore, default_store_path  # noqa: E402


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int,
                        default=max(1, (os.cpu_count() or 1) - 1),
                        help="engine worker processes")
    parser.add_argument("--store", default=None,
                        help="run-store file path (default $REPRO_STORE "
                             "or .repro/runs.sqlite)")
    parser.add_argument("--no-store", action="store_true",
                        help="recompute everything, touch no store")
    parser.add_argument("--scale", choices=SCALES, default="default",
                        help="the figures' points (default, what CI runs) "
                             "or their large points")
    args = parser.parse_args(argv)

    store = None
    if not args.no_store:
        try:
            store = RunStore(args.store or default_store_path())
        except ValueError as error:  # not a file path: one usage error
            parser.error(str(error))
    try:
        tables = measure(FIGURES.values(), jobs=args.jobs, store=store,
                         scale=args.scale)
    finally:
        if store is not None:
            store.close()

    large = args.scale == "large"
    for figure_id, table in tables.items():
        figure = FIGURES[figure_id]
        if large:
            print(f"\n### {figure.title}, large scale\n")
            print(markdown_table(table, figure.large_columns))
            note = figure.large_note(table)
        else:
            print(f"\n### {figure.title}\n")
            print(markdown_table(table, figure.columns, figure.digits))
            note = figure.note(table)
        if note:
            print(f"\n{note}")


if __name__ == "__main__":
    sys.exit(main())
