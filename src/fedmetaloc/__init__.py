"""Federated meta-learning simulator for RSSI-fingerprint indoor localization.

Importing the package sets the OpenBLAS that numpy loaded to one thread, for
the whole process, and then stops OpenBLAS's idle worker pool, as OpenBLAS
itself does before a fork, unless ``OPENBLAS_NUM_THREADS`` is set in the
environment. The shapes this program multiplies gain no throughput from a
second BLAS thread, and one thread makes every output independent of the core
count. The pool is stopped because its workers, started when OpenBLAS loads,
busy-wait on another core for a while before they sleep.

The API is the submodules (``fedmetaloc.data``, ``fedmetaloc.preprocess``,
``fedmetaloc.model``, ``fedmetaloc.federation``, ``fedmetaloc.metrics``, ...):
the package root re-exports no name, and importing it loads none of them.
"""

import ctypes
import os

import numpy  # noqa: F401 - loads the OpenBLAS that the pin below sets

__version__ = "0.1.0"


def _openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process; empty off Linux."""
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []


def _pin_openblas(libraries: list[str]) -> int:
    """Set each OpenBLAS in ``libraries`` to one thread, then stop its idle
    worker pool; return how many were set.

    The pool, started when OpenBLAS loads, busy-waits for about 2^28 TSC
    cycles before it sleeps; ``blas_thread_shutdown_`` stops it, as OpenBLAS
    itself does before every fork. A one-thread call never uses the pool, and
    OpenBLAS starts it again if a caller raises the thread count. A library
    that cannot be opened or exports no thread setter is skipped; one that
    exports no shutdown (an OpenMP build, say) is only set to one thread.
    """
    pinned = 0
    for path in libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned += 1
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                    shutdown()
                break
    return pinned


if "OPENBLAS_NUM_THREADS" not in os.environ:
    _pin_openblas(_openblas_libraries())
