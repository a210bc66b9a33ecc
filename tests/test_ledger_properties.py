"""Ledger conservation properties of the metrics accounting.

The engine batches charges (it sums a round's sends and advances the
ledgers by one ``Metrics.flush`` per round, adding each sender's count
to ``sends_by_node`` as it goes) and memoizes bit sizes, so these
properties pin what must never drift: the per-round series sum exactly
to the running totals, on every workload shape the repo exercises — the
falsification scenarios under every adversary kind, and the
crash-renaming sweep grid.
"""

from random import Random

import pytest

from repro.analysis.experiments import default_namespace, sample_uids
from repro.core.crash_renaming import run_crash_renaming
from repro.falsify.scenarios import (
    DEFAULT_ADVERSARIES,
    DEFAULT_SCENARIOS,
    make_adversary,
    monitors_for,
    resolve_scenario,
    run_scenario,
)


def assert_ledgers_conserved(metrics):
    assert sum(metrics.messages_per_round) == metrics.total_messages
    assert sum(metrics.bits_per_round) == metrics.total_bits
    assert len(metrics.messages_per_round) == metrics.rounds
    assert len(metrics.bits_per_round) == metrics.rounds
    assert sum(metrics.sends_by_node.values()) == metrics.total_messages
    assert sum(metrics.sends_by_type.values()) == metrics.total_messages
    if metrics.total_messages:
        assert max(metrics.bits_per_round) <= (
            metrics.max_message_bits * metrics.total_messages
        )


@pytest.mark.parametrize("scenario_name", DEFAULT_SCENARIOS)
@pytest.mark.parametrize("adversary_kind", DEFAULT_ADVERSARIES)
def test_scenario_ledgers_conserved(scenario_name, adversary_kind):
    n, f, seed = 16, 4, 11
    scenario = resolve_scenario(scenario_name)
    result = run_scenario(
        scenario_name, n, f, seed,
        adversary=make_adversary(adversary_kind, f, seed),
        monitors=monitors_for(scenario, n, f),
    )
    assert_ledgers_conserved(result.metrics)


@pytest.mark.parametrize("n,f", [(12, 2), (20, 5), (32, 8)])
@pytest.mark.parametrize("seed", [0, 3])
def test_crash_sweep_ledgers_conserved(n, f, seed):
    from repro.analysis.experiments import make_crash_adversary

    namespace = default_namespace(n)
    uids = sample_uids(n, namespace, Random(seed))
    result = run_crash_renaming(
        uids,
        namespace=namespace,
        adversary=make_crash_adversary("hunter", f, Random(seed + 1)),
        seed=seed + 2,
    )
    assert_ledgers_conserved(result.metrics)
    assert result.metrics.byzantine_messages == 0
