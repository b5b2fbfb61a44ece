"""RSSI table preprocessing: AP column selection, sentinel imputation, powed scaling.

The pipeline runs per task dataset, in this order:

1. drop AP columns that are entirely missing (optionally also rarely-visible
   ones, controlled by the visibility threshold ``tau``),
2. replace the missing-value sentinel by ``min observed - offset`` dBm,
3. map every value through ``((v - min) / (max - min)) ** beta_pow`` into [0, 1].

Min and max are taken over the task's own dataset, never across tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import DEFAULT_SENTINEL, FingerprintDataset
from .errors import DataError, check_fields, constrained


@dataclass(frozen=True)
class PreprocessConfig:
    tau: float = constrained(0.0, ge=0, le=1)  # visibility threshold
    sentinel: float = DEFAULT_SENTINEL
    impute_offset: float = 1.0
    beta_pow: float = constrained(math.e, gt=0)  # powed exponent

    __post_init__ = check_fields


@dataclass
class PreprocessReport:
    """What the pipeline did to one dataset, for the JSON sidecar."""

    kept_indices: list[int]
    dropped_ap_names: list[str]
    sentinel_count_replaced: int
    impute_fill: float | None
    min_rssi: float
    max_rssi: float
    tau: float
    beta_pow: float


def select_aps(
    dataset: FingerprintDataset, cfg: PreprocessConfig
) -> tuple[FingerprintDataset, list[int]]:
    """Drop all-missing AP columns (and barely-visible ones when ``tau > 0``).

    Returns the reduced dataset plus the kept column indices into the original
    AP ordering; kept columns preserve their relative order.
    """
    missing_frac = np.mean(dataset.rssi == cfg.sentinel, axis=0)
    kept = np.flatnonzero((missing_frac < 1.0) & (missing_frac <= 1.0 - cfg.tau)).tolist()
    if not kept:
        raise DataError("AP selection dropped every column; signal space is empty")
    return dataset.select_aps(kept), kept


def impute_missing(
    dataset: FingerprintDataset, cfg: PreprocessConfig
) -> tuple[FingerprintDataset, float | None]:
    """Replace every sentinel entry by the dataset-wide observed minimum minus the offset.

    Returns the imputed dataset and the fill value, or the dataset itself and
    ``None`` when it holds no sentinel.
    """
    missing = dataset.rssi == cfg.sentinel
    if not missing.any():
        return dataset, None
    fill = float(dataset.rssi[~missing].min()) - cfg.impute_offset
    return replace(dataset, rssi=np.where(missing, fill, dataset.rssi)), fill


def powed_transform(dataset: FingerprintDataset, cfg: PreprocessConfig) -> FingerprintDataset:
    """Monotone map of all values into [0, 1] via the powed representation."""
    lo = float(dataset.rssi.min())
    hi = float(dataset.rssi.max())
    if not 0 < hi - lo < math.inf:  # every value equal, or a span beyond a float64
        raise DataError(f"RSSI range [{lo}, {hi}] has no finite, positive span")
    scaled = (dataset.rssi - lo) / (hi - lo)
    return replace(dataset, rssi=scaled**cfg.beta_pow)


def meta_signal_dim(ap_counts: Sequence[int]) -> int:
    """Median AP count across tasks, the shared latent dimensionality: the
    mean of the two middle counts (one count twice, for an odd number of
    tasks), a half rounded up because the result is a layer width."""
    ordered = sorted(ap_counts)
    k = len(ordered)
    return (ordered[(k - 1) // 2] + ordered[k // 2] + 1) // 2


def preprocess_dataset(
    dataset: FingerprintDataset, cfg: PreprocessConfig
) -> tuple[FingerprintDataset, PreprocessReport]:
    """Full pipeline: :func:`select_aps` -> :func:`impute_missing` ->
    :func:`powed_transform`, with a report of what happened."""
    selected, kept = select_aps(dataset, cfg)
    imputed, fill = impute_missing(selected, cfg)
    kept_set = set(kept)
    report = PreprocessReport(
        kept_indices=kept,
        dropped_ap_names=[name for i, name in enumerate(dataset.ap_names) if i not in kept_set],
        sentinel_count_replaced=int(np.count_nonzero(selected.rssi == cfg.sentinel)),
        impute_fill=fill,
        min_rssi=float(imputed.rssi.min()),
        max_rssi=float(imputed.rssi.max()),
        tau=cfg.tau,
        beta_pow=cfg.beta_pow,
    )
    return powed_transform(imputed, cfg), report
