"""Print every measured table of EXPERIMENTS.md (T1, F1-F13).

Usage::

    python benchmarks/report.py               # all figures (~20 s on one core)
    python benchmarks/report.py --jobs 8      # parallel across 8 workers
    python benchmarks/report.py --store .repro/runs.sqlite   # resumable

The figures are the entries of :data:`benchmarks.figures.FIGURES`.
Every protocol execution goes through :mod:`repro.engine`: all figures'
runs are gathered into one request list, deduplicated, executed in
parallel, and (with ``--store``, on by default) cached in the run store
— an interrupted report resumes from where it stopped, and a re-run
after an algorithm change recomputes only what the new code version
invalidates.  ``--store`` accepts a path or a ``sqlite://path`` URL;
see ``python -m repro runs export`` for the columnar analytics path
over a filled store.

The printed output is markdown and deterministic:
``benchmarks/results/report.md`` is the committed copy (CI diffs
against it); refresh it and EXPERIMENTS.md after a substantive change
to the algorithms or the cost model.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.figures import FIGURES, measure  # noqa: E402
from repro.analysis.tables import markdown_table  # noqa: E402
from repro.engine.store import RunStore, default_store_path  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int,
                        default=max(1, (os.cpu_count() or 1) - 1),
                        help="engine worker processes")
    parser.add_argument("--store", default=None,
                        help="run-store path or sqlite://path URL (default "
                             "$REPRO_STORE or .repro/runs.sqlite)")
    parser.add_argument("--no-store", action="store_true",
                        help="recompute everything, touch no store")
    args = parser.parse_args()

    store = None
    if not args.no_store:
        store = RunStore(args.store if args.store else default_store_path())
    try:
        tables = measure(FIGURES.values(), jobs=args.jobs, store=store)
    finally:
        if store is not None:
            store.close()

    for figure in FIGURES.values():
        table = tables[figure.id]
        print(f"\n### {figure.title}\n")
        print(markdown_table(table, figure.columns))
        note = figure.note(table)
        if note:
            print(f"\n{note}")


if __name__ == "__main__":
    sys.exit(main())
