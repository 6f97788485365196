"""Package-level behaviour: the BLAS thread defaults set on import, the
`python -m cpdistill.cli` entry point, and the benchmark's desk script."""
import json
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PROBE = (
    "import json, os, sys; import cpdistill; "
    "assert 'numpy' not in sys.modules; "
    f"print(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS!r}}}))"
)


def run_python(*args, **preset):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


def thread_env(**preset):
    done = run_python("-c", PROBE, **preset)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_import_pins_blas_to_one_thread():
    assert thread_env() == {v: "1" for v in THREAD_VARS}


def test_user_thread_count_wins():
    got = thread_env(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="3")
    assert got == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3",
                   "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1"}


def test_module_entry_point_lists_the_commands():
    done = run_python("-m", "cpdistill.cli")
    assert done.returncode == 1
    assert "{distill,eval,report}" in done.stderr


def test_desk_script_imports_what_it_needs():
    done = run_python(str(ROOT / "perfbench" / "desk_success.py"), "--help")
    assert done.returncode == 0, done.stderr
    assert "--seed" in done.stdout
