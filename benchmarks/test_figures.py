"""Every figure of the registry has the shape the paper claims.

One test per entry of :data:`benchmarks.figures.FIGURES`: measure the
figure's table the way ``benchmarks/report.py`` does and assert its
``shape``.  One more holds the large scale to EXPERIMENTS.md: the rows
committed in ``benchmarks/results/large/``, loaded into a store, print
its F1 block byte for byte, running nothing -- and that directory holds
only what ``load_export`` reads.  Run with ``pytest
benchmarks/test_figures.py``.
"""

from pathlib import Path

import pytest

from benchmarks import report
from benchmarks.figures import FIGURES, measure
from repro.engine.export import load_export
from repro.engine.store import RunStore, run_hash

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("figure_id", FIGURES)
def test_shape(figure_id):
    figure = FIGURES[figure_id]
    figure.shape(measure([figure])[figure_id])


def test_the_large_scale_prints_experiments_f1_block(tmp_path, capsys):
    path = tmp_path / "large.sqlite"
    with RunStore(path) as store:
        load_export(store, ROOT / "benchmarks/results/large")
        for request in FIGURES["F1"].large_requests():
            assert store.get(run_hash(request.driver, request.n, request.f,
                                      request.seed, request.params)), (
                request.describe())
    report.main(["--scale", "large", "--store", str(path), "--jobs", "1"])
    block = capsys.readouterr().out.strip()
    assert block.startswith("### F1 -- ")
    assert block in (ROOT / "EXPERIMENTS.md").read_text()


def test_the_large_export_commits_only_what_is_loaded():
    # `load_export` reads `runs.jsonl`; the ledgers and telemetry a
    # `runs export` also writes are left out of the commit.
    large = ROOT / "benchmarks/results/large"
    assert sorted(path.name for path in large.iterdir()) == ["runs.jsonl"]
