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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import FingerprintDataset
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class PreprocessConfig:
    tau: float = 0.0
    sentinel: float = 100.0
    impute_offset: float = 1.0
    beta_pow: float = math.e

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"visibility threshold must be in [0, 1], got {self.tau}")
        if self.beta_pow <= 0:
            raise ConfigError(f"powed exponent must be > 0, got {self.beta_pow}")


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

    def to_dict(self) -> dict:
        return {
            "kept_indices": self.kept_indices,
            "dropped_ap_names": self.dropped_ap_names,
            "sentinel_count_replaced": self.sentinel_count_replaced,
            "impute_fill": self.impute_fill,
            "min_rssi": self.min_rssi,
            "max_rssi": self.max_rssi,
            "tau": self.tau,
            "beta_pow": self.beta_pow,
        }


def select_aps(
    dataset: FingerprintDataset, cfg: PreprocessConfig
) -> tuple[FingerprintDataset, list[int]]:
    """Drop all-missing AP columns (and barely-visible ones when ``tau > 0``).

    Returns the reduced dataset plus the kept column indices into the original
    AP ordering; kept columns preserve their relative order.
    """
    if dataset.n_samples == 0:
        raise DataError("cannot select APs on an empty dataset")
    missing_frac = np.mean(dataset.rssi == cfg.sentinel, axis=0)
    keep = missing_frac < 1.0
    if cfg.tau > 0.0:
        keep &= missing_frac <= 1.0 - cfg.tau
    kept = [i for i in range(dataset.n_aps) if keep[i]]
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
    mask = dataset.rssi == cfg.sentinel
    if not mask.any():
        return dataset, None
    observed = dataset.rssi[~mask]
    if observed.size == 0:
        raise DataError("no observed RSSI values anywhere; cannot impute")
    fill = float(observed.min()) - cfg.impute_offset
    rssi = dataset.rssi.copy()
    rssi[mask] = fill
    return dataset.with_rssi(rssi), fill


def powed_transform(dataset: FingerprintDataset, cfg: PreprocessConfig) -> FingerprintDataset:
    """Monotone map of all values into [0, 1] via the powed representation."""
    lo = float(dataset.rssi.min())
    hi = float(dataset.rssi.max())
    if hi == lo:
        raise DataError(f"degenerate RSSI range: every value equals {lo}")
    scaled = (dataset.rssi - lo) / (hi - lo)
    return dataset.with_rssi(scaled**cfg.beta_pow)


def meta_signal_dim(ap_counts: Sequence[int]) -> int:
    """Median AP count across tasks, the shared latent dimensionality.

    Even-length lists average the two middle values; a fractional result is
    rounded half away from zero because the result is a layer width.
    """
    if len(ap_counts) == 0:
        raise DataError("cannot take the median of an empty AP-count list")
    ordered = sorted(ap_counts)
    k = len(ordered)
    if k % 2 == 1:
        return int(ordered[k // 2])
    mid = (ordered[k // 2 - 1] + ordered[k // 2]) / 2.0
    return int(math.floor(mid + 0.5)) if mid >= 0 else int(math.ceil(mid - 0.5))


def preprocess_dataset(
    dataset: FingerprintDataset, cfg: PreprocessConfig
) -> tuple[FingerprintDataset, PreprocessReport]:
    """Full pipeline: select -> impute -> powed, with a report of what happened."""
    selected, kept = select_aps(dataset, cfg)
    dropped = [name for i, name in enumerate(dataset.ap_names) if i not in set(kept)]
    n_sentinel = int(np.sum(selected.rssi == cfg.sentinel))
    imputed, fill = impute_missing(selected, cfg)
    lo = float(imputed.rssi.min())
    hi = float(imputed.rssi.max())
    transformed = powed_transform(imputed, cfg)
    report = PreprocessReport(
        kept_indices=kept,
        dropped_ap_names=dropped,
        sentinel_count_replaced=n_sentinel,
        impute_fill=fill,
        min_rssi=lo,
        max_rssi=hi,
        tau=cfg.tau,
        beta_pow=cfg.beta_pow,
    )
    return transformed, report
