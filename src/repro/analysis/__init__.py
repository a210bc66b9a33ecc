"""Measurement harnesses and theoretical reference curves.

* :mod:`repro.analysis.complexity` -- closed-form envelopes for every
  theorem bound, plus log-log slope fitting to compare measured scaling
  against the claimed exponents.
* :mod:`repro.analysis.stats` -- seed-replicated summary statistics.
* :mod:`repro.analysis.experiments` -- the sweep drivers behind the
  figures of EXPERIMENTS.md (T1, F1-F13; ``benchmarks/figures.py``).
"""

from repro.analysis.complexity import (
    byzantine_message_envelope,
    byzantine_round_envelope,
    crash_message_envelope,
    crash_round_bound,
    fit_loglog_slope,
    gossip_bit_envelope,
    obg_message_envelope,
)
from repro.analysis.experiments import (
    byzantine_run_summary,
    crash_run_summary,
    table1_rows,
)
from repro.analysis.stats import replicate, summarize

__all__ = [
    "byzantine_message_envelope",
    "byzantine_round_envelope",
    "byzantine_run_summary",
    "crash_message_envelope",
    "crash_round_bound",
    "crash_run_summary",
    "fit_loglog_slope",
    "gossip_bit_envelope",
    "obg_message_envelope",
    "replicate",
    "summarize",
    "table1_rows",
]
