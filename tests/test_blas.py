"""Importing fedmetaloc runs the process's OpenBLAS at one thread.

Every check that reads or sets a thread count runs in a child interpreter,
so the BLAS state of the test process itself is never touched.
"""

import ctypes.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fedmetaloc

SRC = Path(__file__).resolve().parent.parent / "src"

# Defines threads(): the thread count of the OpenBLAS mapped into the process,
# or None when there is none.
READER = textwrap.dedent("""
    import ctypes

    def threads():
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return getter()
        return None
""")


def run_child(body: str, blas_env: str | None = None, path: Path | None = None) -> dict:
    """Run READER + ``body`` in a fresh interpreter; ``body`` prints one JSON object.

    ``path`` goes on the child's module search path.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), path and str(path), env.get("PYTHONPATH")]))
    if blas_env is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_env
    proc = subprocess.run(
        [sys.executable, "-c", READER + textwrap.dedent(body)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def needs_openblas() -> None:
    """Skip unless a child's numpy loads an OpenBLAS that READER can read."""
    out = run_child("""
        import json, numpy
        print(json.dumps({"threads": threads()}))
    """)
    if out["threads"] is None:
        pytest.skip("numpy does not use an OpenBLAS this platform can find")


@pytest.mark.parametrize("first", ["numpy", "fedmetaloc"])
def test_import_pins_one_thread_in_either_order(needs_openblas, first):
    second = "fedmetaloc" if first == "numpy" else "numpy"
    out = run_child(f"""
        import json
        import {first}
        import {second}
        print(json.dumps({{"threads": threads()}}))
    """)
    assert out["threads"] == 1


def test_explicit_thread_variable_is_left_alone(needs_openblas):
    out = run_child("""
        import json, numpy
        before = threads()
        import fedmetaloc
        print(json.dumps({"before": before, "after": threads()}))
    """, blas_env="2")
    assert out["before"] == min(2, len(os.sched_getaffinity(0)))
    assert out["after"] == out["before"]


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_pool_children_run_one_thread(needs_openblas, method, tmp_path):
    # The job comes from a module that imports the package, as cmd_meta_test's
    # job does: spawn and forkserver children import it afresh, fork children
    # inherit the parent's pinned OpenBLAS.
    (tmp_path / "blas_job.py").write_text(READER + "\nimport fedmetaloc\n\ndef job(_):\n    return threads()\n")
    out = run_child(f"""
        import json
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        import blas_job

        with ProcessPoolExecutor(max_workers=2, mp_context=get_context("{method}")) as pool:
            print(json.dumps({{"children": list(pool.map(blas_job.job, range(4)))}}))
    """, path=tmp_path)
    assert out["children"] == [1, 1, 1, 1]


def test_pin_is_a_no_op_without_openblas():
    assert fedmetaloc._pin_openblas([]) == 0
    libc = ctypes.util.find_library("c")
    if libc is not None:  # loads, but exports no OpenBLAS setter
        assert fedmetaloc._pin_openblas([libc]) == 0
    assert fedmetaloc._pin_openblas(["/nonexistent/libopenblas.so"]) == 0
