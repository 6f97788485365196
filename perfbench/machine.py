"""The machine a result was measured on: BLAS library, version and live
thread count, numpy and Python versions, CPU model and core count."""
from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np

_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _blas_build() -> dict:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return None
    libs = {line.split()[-1] for line in maps.read_text().splitlines() if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def describe() -> dict:
    blas = _blas_build()
    return {
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
