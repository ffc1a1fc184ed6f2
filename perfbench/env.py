"""Process environment shared by the benchmark's entry points.

Call :func:`prepare` before numpy is imported: it pins BLAS and OpenMP to
one thread, so every workload runs single-threaded, and puts the
checkout's own ``src`` tree first on ``sys.path``, so the benchmark
measures the source next to it and never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare() -> None:
    """Pin threads and expose ``src``; exit nonzero when the tree is missing."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "normalshift" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no normalshift source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
