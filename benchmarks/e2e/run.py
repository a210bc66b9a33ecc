"""Script entry point: ``python3 benchmarks/e2e/run.py`` from a checkout.

The same program as ``PYTHONPATH=src python -m benchmarks.e2e``; this
file only puts the checkout and its ``src/`` on the path first.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks.e2e: no src/repro under {ROOT}: nothing to measure")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
