"""The shared seeded backoff: both callers wait the delays they always did.

The floats below were recorded at the commit before the backoff moved
out of ``repro.serve.resilience`` into :mod:`repro.backoff`; moving it
must not move a single retry.
"""

import ast
from pathlib import Path

import repro.engine.pool
from repro.engine.pool import retry_jitter_delay
from repro.engine.sweeps import RunRequest
from repro.serve.resilience import ResiliencePolicy, retry_delay


def test_serve_retry_delays_unchanged():
    policy = ResiliencePolicy(backoff_base=0.01, backoff_factor=2.0,
                              backoff_jitter=0.5)
    assert [retry_delay(policy, 3, 1, 17, attempt)
            for attempt in (1, 2, 3)] == [
        0.013807795669105814, 0.022077038516347458, 0.040672505261130816]


def test_engine_retry_delays_unchanged():
    request = RunRequest.make("crash", 8, 1, 5)
    assert [retry_jitter_delay(0.25, request, attempt)
            for attempt in (1, 2, 3)] == [
        0.3298395910055407, 0.5513938371096919, 1.1465282989810703]


def test_engine_pool_does_not_import_the_serving_layer():
    tree = ast.parse(Path(repro.engine.pool.__file__).read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("repro.serve") for name in imported)
