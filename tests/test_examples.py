"""Every example runs.

Each ``examples/*.py`` is run as a script in a subprocess, from an
empty directory, and must exit 0 having written nothing there: an
example that imports a module that is gone, or calls an API that
changed, fails here rather than for its first reader.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.name for p in EXAMPLES])
def test_runs(script, tmp_path):
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert list(tmp_path.iterdir()) == []
