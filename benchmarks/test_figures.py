"""Every figure of the registry has the shape the paper claims.

One test per entry of :data:`benchmarks.figures.FIGURES`: measure the
figure's table the way ``benchmarks/report.py`` does and assert its
``shape``.  Run with ``pytest benchmarks/test_figures.py``.
"""

import pytest

from benchmarks.figures import FIGURES, measure


@pytest.mark.parametrize("figure_id", FIGURES)
def test_shape(figure_id):
    figure = FIGURES[figure_id]
    figure.shape(measure([figure])[figure_id])
