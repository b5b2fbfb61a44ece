"""Importing fedmetaloc runs the process's OpenBLAS at one thread, with its
idle worker pool stopped.

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

import numpy as np
import pytest

import fedmetaloc

SRC = Path(__file__).resolve().parent.parent / "src"

# Defines threads(): the thread count of the OpenBLAS mapped into the process,
# or None when there is none; set_threads(n): sets it; os_threads(): the
# process's OS thread count.
READER = textwrap.dedent("""
    import ctypes
    import os

    def _openblas_call(names, *args):
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for name in names:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [ctypes.c_int] * len(args), ctypes.c_int
                    return fn(*args)
        return None

    def threads():
        return _openblas_call(("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                               "openblas_get_num_threads64_", "openblas_get_num_threads"))

    def set_threads(n):
        _openblas_call(("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                        "openblas_set_num_threads64_", "openblas_set_num_threads"), n)

    def os_threads():
        return len(os.listdir("/proc/self/task"))
""")

needs_task_dir = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count OS threads"
)


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


@needs_task_dir
@pytest.mark.parametrize("first", ["numpy", "fedmetaloc"])
def test_import_leaves_one_os_thread_in_either_order(needs_openblas, first):
    # OpenBLAS starts one pool worker per extra core when it loads; the
    # import stops them, so only the main thread is left
    second = "fedmetaloc" if first == "numpy" else "numpy"
    out = run_child(f"""
        import json
        import {first}
        import {second}
        print(json.dumps({{"os_threads": os_threads()}}))
    """)
    assert out["os_threads"] == 1


def test_package_root_loads_no_submodule_and_still_pins(needs_openblas):
    # the API is the submodules: the root holds the pin and loads numpy for it
    out = run_child("""
        import json, sys
        import fedmetaloc
        loaded = sorted(name for name in sys.modules if name.startswith("fedmetaloc."))
        print(json.dumps({"loaded": loaded, "threads": threads()}))
    """)
    assert out == {"loaded": [], "threads": 1}


@needs_task_dir
def test_explicit_thread_variable_is_left_alone(needs_openblas):
    out = run_child("""
        import json, numpy
        before = threads(), os_threads()
        import fedmetaloc
        print(json.dumps({"before": before, "after": (threads(), os_threads())}))
    """, blas_env="2")
    assert out["before"][0] == min(2, len(os.sched_getaffinity(0)))
    assert out["after"] == out["before"]


@needs_task_dir
@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_pool_children_run_one_thread(needs_openblas, method, tmp_path):
    # The job comes from a module that imports the package, as cmd_meta_test's
    # job does: spawn and forkserver children import it afresh, fork children
    # inherit the parent's pinned OpenBLAS.
    (tmp_path / "blas_job.py").write_text(READER + "\nimport fedmetaloc\n\ndef job(_):\n    return [threads(), os_threads()]\n")
    out = run_child(f"""
        import json
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        import blas_job

        with ProcessPoolExecutor(max_workers=2, mp_context=get_context("{method}")) as pool:
            print(json.dumps({{"children": list(pool.map(blas_job.job, range(4)))}}))
    """, path=tmp_path)
    assert out["children"] == [[1, 1]] * 4


# Writes a seeded GEMM and ClientModel.composite_loss's loss and gradients to OUT.
COMPUTE = """
    import json
    import numpy as np
    from fedmetaloc.model import ClientModel, ModelConfig

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((200, 512)), rng.standard_normal((512, 280))
    x, y = rng.standard_normal((64, 120)), rng.standard_normal((64, 2))
    loss, grads = ClientModel.build(ModelConfig(), m=120, seed=0).composite_loss(x, y)
    np.savez(OUT, gemm=a @ b, loss=np.float64(loss), **grads)
    print(json.dumps({"threads": threads()}))
"""


def test_stopped_pool_gives_the_bits_of_a_one_thread_start(needs_openblas, tmp_path):
    results = {}
    for name, blas_env in (("stopped", None), ("env", "1")):
        out = run_child(f"OUT = {str(tmp_path / name)!r}\n" + textwrap.dedent(COMPUTE), blas_env=blas_env)
        assert out["threads"] == 1
        results[name] = np.load(tmp_path / f"{name}.npz")
    stopped, env = results["stopped"], results["env"]
    assert sorted(stopped.files) == sorted(env.files) == ["decoder", "encoder", "gemm", "loss", "mapper", "meta"]
    for key in stopped.files:
        assert np.array_equal(stopped[key].view(np.uint64), env[key].view(np.uint64)), key


@needs_task_dir
def test_second_pin_is_harmless(needs_openblas):
    out = run_child("""
        import json
        import numpy as np
        import fedmetaloc

        a = np.random.default_rng(0).standard_normal((300, 300))
        before = a @ a
        libs = fedmetaloc._openblas_libraries()
        again = fedmetaloc._pin_openblas(libs)
        same = bool(np.array_equal((a @ a).view(np.uint64), before.view(np.uint64)))
        print(json.dumps({"libs": len(libs), "pinned": again, "threads": threads(), "os_threads": os_threads(),
                          "same": same}))
    """)
    assert out["pinned"] == out["libs"] >= 1
    assert (out["threads"], out["os_threads"], out["same"]) == (1, 1, True)


@needs_task_dir
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="a second BLAS thread needs a second core")
def test_raising_the_count_restarts_the_pool(needs_openblas):
    out = run_child("""
        import json
        import numpy as np
        import fedmetaloc

        a = np.random.default_rng(0).standard_normal((600, 600))
        one = a @ a
        set_threads(2)
        two = a @ a
        print(json.dumps({"os_threads": os_threads(), "close": bool(np.allclose(one, two))}))
    """)
    assert out == {"os_threads": 2, "close": True}


def test_pin_is_a_no_op_without_openblas():
    assert fedmetaloc._pin_openblas([]) == 0
    libc = ctypes.util.find_library("c")
    if libc is not None:  # loads, but exports no OpenBLAS setter
        assert fedmetaloc._pin_openblas([libc]) == 0
    assert fedmetaloc._pin_openblas(["/nonexistent/libopenblas.so"]) == 0
