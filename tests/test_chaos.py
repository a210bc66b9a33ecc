"""The serve-level chaos frontier: classification, ladder, F17's shape."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.figures import F17
from repro.faults.degradation import (
    CRASHED,
    OUTCOMES,
    SAFE_STALLED,
    SAFE_TERMINATED,
    SAFETY_VIOLATED,
    Rung,
    outcome_rank,
)
from repro.serve.chaos import (
    DEFAULT_CHAOS_RESILIENCE,
    classify_serve_run,
    default_chaos_ladder,
    failed,
    goodput,
)
from repro.serve.driver import serve_run_summary

#: Small enough to keep a rung in CI seconds, rich enough that the
#: faulted shard sees several epochs inside the window.
CLIENTS, SEED = 40, 3
LOAD = dict(requests=1_200, shards=2, max_batch=16, max_wait=0.002,
            arrival_rate=20_000.0, namespace=5_000)


def play(rung, resilience):
    """One (rung, arm) cell as a ``serve`` driver row, clock readings
    dropped: F17's keywords, ``f`` the faulted shards."""
    arm = {} if resilience is None else {"resilience": resilience.to_json()}
    row = serve_run_summary(CLIENTS, 1 if rung.spec else 0, SEED, **LOAD,
                            **rung.params(), **arm)
    del row["telemetry"]
    return row


def report_stub(**overrides):
    report = {
        "unique": True, "unresolved": 0, "degraded": 0, "shed": 0,
        "deadline_expired": 0, "errors": 0, "renames": 100,
        "rename_misses": 10, "renamed": 90,
    }
    report.update(overrides)
    return report


class TestClassifyServeRun:
    def test_clean_run_is_safe_terminated(self):
        assert classify_serve_run(report_stub()) == (SAFE_TERMINATED, {})

    def test_failed_requests_are_safe_stalled(self):
        outcome, detail = classify_serve_run(report_stub(degraded=3, shed=1))
        assert outcome == SAFE_STALLED
        assert detail["degraded"] == 3 and detail["shed"] == 1
        assert failed(report_stub(degraded=3, shed=1, errors=2)) == 6

    def test_duplicate_names_dominate_everything(self):
        outcome, detail = classify_serve_run(
            report_stub(unique=False, unresolved=5, degraded=3))
        assert outcome == SAFETY_VIOLATED
        assert detail == {"invariant": "unique-names"}

    def test_unresolved_futures_are_crashed(self):
        outcome, detail = classify_serve_run(report_stub(unresolved=2))
        assert outcome == CRASHED
        assert detail["unresolved"] == 2

    def test_goodput_ignores_legitimate_misses(self):
        assert goodput(report_stub()) == 1.0
        assert goodput(report_stub(renamed=45)) == 0.5

    def test_outcome_rank_orders_the_vocabulary(self):
        ranks = [outcome_rank(outcome) for outcome in OUTCOMES]
        assert ranks == sorted(ranks)
        assert outcome_rank(SAFE_TERMINATED) < outcome_rank(SAFETY_VIOLATED)


class TestLadder:
    def test_full_ladder_shape(self):
        ladder = default_chaos_ladder()
        labels = [rung.label for rung in ladder]
        assert labels[0] == "none"
        assert len(labels) == len(set(labels))
        windowed = [rung for rung in ladder if rung.window is not None]
        persistent = [rung for rung in ladder
                      if rung.window is None and rung.spec]
        assert windowed and persistent

    def test_rung_spec_json_round_trips(self):
        rung = Rung("x", ({"kind": "omission", "p": 0.5},), (1, 4))
        decoded = json.loads(rung.spec_json)
        assert decoded[0]["kind"] == "omission"

    def test_rung_params_are_the_serve_drivers_keywords(self):
        control, windowed = default_chaos_ladder()[:2]
        assert (control.spec, control.params()) == ((), {})
        params = windowed.params()
        assert set(params) == {"faults", "fault_window"}
        assert json.loads(params["faults"]) == list(windowed.spec)
        assert json.loads(params["fault_window"]) == [1, 9]
        persistent = default_chaos_ladder()[-1]
        assert set(persistent.params()) == {"faults"}

    def test_f17_adds_the_resilience_arm_and_the_faulted_shards(self):
        control, windowed = (F17().runs(rung)
                             for rung in default_chaos_ladder()[:2])
        assert control["resilient"].f == control["baseline"].f == 0
        assert windowed["resilient"].f == windowed["baseline"].f == 1
        resilient = windowed["resilient"].params_dict()
        assert resilient["resilience"] == DEFAULT_CHAOS_RESILIENCE.to_json()
        assert "resilience" not in windowed["baseline"].params_dict()
        assert {key: resilient[key] for key in ("faults", "fault_window")
                } == default_chaos_ladder()[1].params()

    def test_importing_the_service_loads_no_falsifier(self):
        """The ladder vocabulary the service reads (``FaultTap``,
        ``Rung``, the outcomes) lives apart from the harness that
        classifies protocol runs."""
        code = ("import sys, repro.serve; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('repro.falsify')))")
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert done.stdout.strip() == "[]"


class TestRunRung:
    def test_control_rung_both_arms(self):
        control = default_chaos_ladder()[0]
        assert control.spec == ()
        for resilience in (DEFAULT_CHAOS_RESILIENCE, None):
            row = play(control, resilience)
            assert classify_serve_run(row) == (SAFE_TERMINATED, {})
            assert goodput(row) == 1.0
            assert row["unique"] is True

    def test_windowed_outage_resilient_beats_baseline(self):
        rung = Rung("omission-100%-window",
                    ({"kind": "omission", "p": 1.0},), (1, 9))
        resilient = play(rung, DEFAULT_CHAOS_RESILIENCE)
        baseline = play(rung, None)
        assert classify_serve_run(resilient)[0] == SAFE_TERMINATED
        assert goodput(resilient) >= 0.95
        assert resilient["breakers_open"] == 0
        assert classify_serve_run(baseline)[0] == SAFE_STALLED
        assert goodput(baseline) < goodput(resilient)
        assert baseline["retries"] == 0
        # Same seeded trace on both arms.
        assert resilient["trace_sha256"] == baseline["trace_sha256"]

    def test_rows_are_reproducible(self):
        rung = Rung("omission-50%-window",
                    ({"kind": "omission", "p": 0.5},), (1, 9))
        rows = [play(rung, DEFAULT_CHAOS_RESILIENCE) for _ in range(2)]
        assert rows[0] == rows[1]


class TestFigureShape:
    """``F17().shape`` rejects a frontier that lost a claim."""

    def sound(self):
        """The figure and a frontier, by hand, with every claim."""
        figure = F17()
        rows = [{"rung": rung.label, "resilient": SAFE_TERMINATED,
                 "goodput": 1.0, "failed": 0, "retries": 1,
                 "breaker_opens": 1, "breakers_open": 0,
                 "baseline": SAFE_STALLED, "baseline_goodput": 0.8,
                 "baseline_failed": 5}
                for rung in figure.points]
        rows[0].update(baseline=SAFE_TERMINATED, baseline_goodput=1.0,
                       baseline_failed=0)
        return figure, rows

    def test_a_sound_frontier_passes(self):
        figure, rows = self.sound()
        figure.shape(rows)

    @pytest.mark.parametrize("rung, key, value", [
        ("none", "resilient", SAFE_STALLED),
        ("omission-10%-window", "breakers_open", 1),
        ("omission-100%-window", "goodput", 0.9),
    ], ids=["control-stalled", "breaker-left-open", "resilient-goodput"])
    def test_a_doctored_frontier_fails(self, rung, key, value):
        figure, rows = self.sound()
        (row,) = [row for row in rows if row["rung"] == rung]
        row[key] = value
        with pytest.raises(AssertionError):
            figure.shape(rows)
