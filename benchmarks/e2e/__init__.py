"""The repo benchmark: end-to-end renaming wall time and paced serve latency.

Four workloads (``crash_paper``, ``byz_withholder``, ``f1_sweep``,
``serve_paced``), each run in a fresh child process, timed with tracing
off and then traced once more for the per-layer numbers.  Every layer
is timed from outside, at its public boundary; nothing under ``src/``
knows this package exists.  See ``README.md`` beside this file and the
``BENCHMARK.json`` at the repo root, which declares every metric.
"""
