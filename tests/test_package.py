"""Package-level behaviour: the BLAS thread defaults set on import."""
import json
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = (
    "import json, os, sys; import cpdistill; "
    "assert 'numpy' not in sys.modules; "
    f"print(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS!r}}}))"
)


def thread_env(**preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_import_pins_blas_to_one_thread():
    assert thread_env() == {v: "1" for v in THREAD_VARS}


def test_user_thread_count_wins():
    got = thread_env(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="3")
    assert got == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3",
                   "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1"}
