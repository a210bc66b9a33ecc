"""Workload sizes, the metric declarations and small statistics helpers.

``BENCHMARK.json`` at the repo root is the single declaration of every
metric (name, unit, direction, bound); this module only loads it.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

WORKLOADS = ("crash_paper", "byz_withholder", "f1_sweep", "serve_paced")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the four workloads."""

    crash_n: int = 96
    byz_n: int = 48
    byz_f: int = 2
    sweep_ns: tuple[int, ...] = (128, 256)
    sweep_seeds: tuple[int, ...] = (0, 1, 2)
    serve_clients: int = 96
    serve_rate: float = 300.0
    #: Fewest timed reps of a batch workload, so that the reps of one
    #: seed can be checked against each other.
    min_reps: int = 2


FULL = Sizes()
#: ``--quick`` and every warm-up rep: same shapes, seconds not minutes.
QUICK = Sizes(crash_n=32, byz_n=12, byz_f=1, sweep_ns=(32,), sweep_seeds=(0, 1),
              serve_clients=48, min_reps=1)


def declared() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile(values: Sequence[float], share: float,
               weights: Optional[Sequence[float]] = None) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of a non-empty list;
    with ``weights``, of each value counted that many times."""
    pairs = sorted(zip(values, weights or [1] * len(values)))
    rank = share * sum(weight for _, weight in pairs)
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= rank:
            return value
    return pairs[-1][0]


def middle(items: Sequence, key: Callable) -> object:
    """The item whose ``key`` is the median (the lower of two)."""
    return sorted(items, key=key)[(len(items) - 1) // 2]


def spread(values: Sequence[float]) -> float:
    """(q3 - q1) / median, the run-to-run spread the bounds are set by."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
