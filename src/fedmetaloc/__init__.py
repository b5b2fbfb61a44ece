"""Federated meta-learning simulator for RSSI-fingerprint indoor localization.

Importing the package sets the OpenBLAS that numpy loaded to one thread, for
the whole process, unless ``OPENBLAS_NUM_THREADS`` is set in the environment.
The shapes this program multiplies gain no throughput from a second BLAS
thread, and one thread makes every output independent of the core count.
"""

import ctypes
import os

from .data import (
    FingerprintDataset,
    LocalizationTask,
    SchemaConfig,
    SyntheticEnvSpec,
    load_csv,
    load_task_bundle,
    make_task,
    partition_tasks,
    save_task_bundle,
    split_support_query,
    split_support_query_by_region,
    synth_environment,
)
from .errors import ConfigError, DataError
from .federation import (
    AdaptationTrace,
    ClientState,
    ClientUpdate,
    FederationParams,
    MetaModel,
    MetaTestParams,
    RoundReport,
    client_local_train,
    contribution_factors,
    load_checkpoint,
    meta_test,
    meta_train,
    save_checkpoint,
    server_aggregate,
    server_init,
)
from .metrics import (
    cdf_curve,
    epsilon_accuracy_steps,
    improvement_percent,
    knn_baseline,
    linearization_probe,
    mde,
    steps_to_accuracy,
)
from .model import ClientModel, ModelConfig
from .preprocess import (
    PreprocessConfig,
    impute_missing,
    meta_signal_dim,
    powed_transform,
    preprocess_dataset,
    select_aps,
)

__version__ = "0.1.0"


def _openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process; empty off Linux."""
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []


def _pin_openblas(libraries: list[str]) -> int:
    """Set each OpenBLAS in ``libraries`` to one thread; return how many were set.

    A library that cannot be opened or exports no thread setter is skipped.
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
                break
    return pinned


# numpy, and with it its OpenBLAS, is loaded by the imports above
if "OPENBLAS_NUM_THREADS" not in os.environ:
    _pin_openblas(_openblas_libraries())
