"""Process set-up shared by the benchmark's entry points.

Every benchmark process runs BLAS and OpenMP on one thread, fixed before
numpy loads: with the default two OpenBLAS threads a run on a 2-core
machine more than doubles in time when another process holds the second
core. The program is imported from this checkout's `src/` tree, never from
an installed copy, so the benchmark measures the code beside it.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class SourceMissing(RuntimeError):
    """The checkout holds no program source to measure."""


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was loaded before the BLAS thread count was fixed")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    if not (SRC / "cpdistill" / "__init__.py").is_file():
        raise SourceMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cpdistill

    if Path(cpdistill.__file__).resolve().parent != SRC / "cpdistill":
        raise SourceMissing(f"cpdistill imported from {cpdistill.__file__}, not {SRC}")
