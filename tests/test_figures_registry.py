"""The figure registry, its requests and the docs that cite it agree.

Runs no protocol: ``benchmarks/test_figures.py`` measures the figures;
this holds together what names them.
"""

import inspect
import re
from pathlib import Path

from benchmarks.figures import FIGURES, Figure
from repro.analysis.experiments import FAMILIES
from repro.engine.sweeps import resolve_driver

ROOT = Path(__file__).resolve().parents[1]
#: The experiment ids of the paper's artifacts (F14+ are not figures).
PAPER_IDS = ["T1", *(f"F{k}" for k in range(1, 14))]
CITED_ID = re.compile(r"`(T1|F\d+[ab]?)`")


def experiment_of(figure_id: str) -> str:
    """``F7a`` and ``F7b`` are the two tables of experiment ``F7``."""
    return figure_id.rstrip("ab")


def test_ids_are_the_papers_artifacts_in_order():
    assert list(FIGURES) == [
        "T1", "F1", "F2", "F3", "F4", "F5", "F6", "F7a", "F7b", "F8",
        "F9a", "F9b", "F10", "F11", "F12", "F13",
    ]
    assert [figure.id for figure in FIGURES.values()] == list(FIGURES)
    assert sorted({experiment_of(id_) for id_ in FIGURES}) == sorted(PAPER_IDS)


def test_every_figure_has_a_heading_a_claim_and_a_shape():
    for figure in FIGURES.values():
        assert figure.title.startswith(experiment_of(figure.id)), figure.id
        assert type(figure).__doc__, figure.id
        assert type(figure).shape is not Figure.shape, figure.id


def test_requests_name_a_driver_and_only_params_it_takes():
    requested = [request for figure in FIGURES.values()
                 for request in figure.requests()]
    assert {request.driver for request in requested} == {
        "crash", "obg", "balls", "gossip", "byzantine", "reelection"}
    for request in requested:
        driver = resolve_driver(request.driver)
        if request.driver in FAMILIES:
            # `summary` checks a family's params when it runs; these
            # are the ones it takes besides the family's own.
            taken = {*FAMILIES[request.driver].params,
                     "adversary", "namespace"}
        else:
            taken = set(inspect.signature(driver).parameters)
        assert set(request.params_dict()) <= taken, request.describe()


def sections(text: str) -> dict[str, str]:
    """``## <id> — …`` sections of a markdown file, by id."""
    parts = re.split(r"^## (\S+)[^\n]*\n", text, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


def test_experiments_md_sections_cite_registry_ids():
    found = sections((ROOT / "EXPERIMENTS.md").read_text())
    cited = set()
    for experiment in PAPER_IDS:
        ids = set(CITED_ID.findall(found[experiment]))
        assert ids and ids <= set(FIGURES), (experiment, ids)
        assert {experiment_of(id_) for id_ in ids} == {experiment}
        assert "benchmarks/results/report.md" in found[experiment]
        cited |= ids
    assert cited == set(FIGURES)


def test_design_md_catalogue_names_registry_ids():
    rows = re.findall(r"^\| (T1|F\d+) \|.*\| ([^|]+) \|$",
                      (ROOT / "DESIGN.md").read_text(), flags=re.MULTILINE)
    assert [experiment for experiment, _ in rows] == PAPER_IDS
    cited = set()
    for experiment, cell in rows:
        ids = set(CITED_ID.findall(cell))
        assert ids and ids <= set(FIGURES), (experiment, cell)
        assert {experiment_of(id_) for id_ in ids} == {experiment}
        cited |= ids
    assert cited == set(FIGURES)


def test_no_doc_points_at_a_deleted_benchmark_file():
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
            ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
            *sorted((ROOT / "docs").glob("**/*.md"))]
    for doc in docs:
        for name in re.findall(r"benchmarks/(test_\w+\.py)", doc.read_text()):
            assert (ROOT / "benchmarks" / name).is_file(), (doc.name, name)
    assert sorted(path.name for path in (ROOT / "benchmarks").glob("test_*.py")
                  ) == ["test_figures.py"]
