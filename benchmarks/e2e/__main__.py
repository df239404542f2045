"""Entry point: ``python benchmarks/e2e/__main__.py`` or ``python -m benchmarks.e2e``.

Puts the repository root and ``src/`` on ``sys.path`` itself, so the one
command of ``BENCHMARK.json`` needs no ``PYTHONPATH``.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
# As a script, sys.path[0] is this directory: drop it so that no module
# here can shadow a standard-library name.
sys.path[:] = [str(_ROOT / "src"), str(_ROOT)] + [
    p for p in sys.path if Path(p or ".").resolve() != Path(__file__).resolve().parent
]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
