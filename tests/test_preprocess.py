import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmetaloc.data import FingerprintDataset
from fedmetaloc.errors import ConfigError, DataError
from fedmetaloc.preprocess import (
    PreprocessConfig,
    impute_missing,
    meta_signal_dim,
    powed_transform,
    preprocess_dataset,
    select_aps,
)

SENTINEL = 100.0


def dataset_from(rssi: np.ndarray) -> FingerprintDataset:
    rssi = np.asarray(rssi, dtype=np.float64)
    return FingerprintDataset(
        rssi=rssi,
        coords=np.zeros((rssi.shape[0], 2)),
        ap_names=[f"AP{i}" for i in range(rssi.shape[1])],
    )


class TestSelectAps:
    def test_fully_missing_column_dropped(self):
        ds = dataset_from([[SENTINEL, -70.0], [SENTINEL, -60.0]])
        reduced, kept = select_aps(ds, PreprocessConfig())
        assert kept == [1]
        assert reduced.ap_names == ["AP1"]

    def test_tau_zero_keeps_any_column_with_one_observation(self):
        ds = dataset_from([[SENTINEL, -70.0], [-50.0, SENTINEL]])
        reduced, kept = select_aps(ds, PreprocessConfig(tau=0.0))
        assert kept == [0, 1]
        assert reduced.n_aps == 2

    def test_visibility_threshold_fraction_rule(self):
        # column 0: 80% missing (dropped at tau=0.3), column 1: 60% missing (kept)
        col0 = [SENTINEL] * 8 + [-50.0] * 2
        col1 = [SENTINEL] * 6 + [-50.0] * 4
        ds = dataset_from(np.column_stack([col0, col1]))
        _, kept = select_aps(ds, PreprocessConfig(tau=0.3))
        assert kept == [1]

    def test_all_columns_dropped_is_an_error(self):
        ds = dataset_from([[SENTINEL], [SENTINEL]])
        with pytest.raises(DataError):
            select_aps(ds, PreprocessConfig())

    def test_kept_columns_preserve_order(self):
        rng = np.random.default_rng(0)
        rssi = rng.uniform(-90, -30, size=(20, 6))
        rssi[:, 2] = SENTINEL
        rssi[:, 4] = SENTINEL
        ds = dataset_from(rssi)
        reduced, kept = select_aps(ds, PreprocessConfig())
        assert kept == [0, 1, 3, 5]
        assert reduced.ap_names == ["AP0", "AP1", "AP3", "AP5"]
        assert np.array_equal(reduced.rssi, rssi[:, kept])


class TestImputeMissing:
    def test_sentinels_become_min_minus_offset(self):
        ds = dataset_from([[-80.0, SENTINEL], [SENTINEL, -60.0]])
        out, fill = impute_missing(ds, PreprocessConfig(impute_offset=1.0))
        assert np.array_equal(out.rssi, [[-80.0, -81.0], [-81.0, -60.0]])
        assert fill == -81.0

    def test_no_sentinels_leaves_dataset_unchanged(self):
        ds = dataset_from([[-80.0, -70.0], [-65.0, -60.0]])
        out, fill = impute_missing(ds, PreprocessConfig())
        assert out is ds
        assert fill is None

    def test_no_observed_values_is_an_error(self):
        ds = dataset_from([[SENTINEL], [SENTINEL]])
        with pytest.raises(DataError):
            impute_missing(ds, PreprocessConfig())

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent_and_sentinel_free(self, seed):
        rng = np.random.default_rng(seed)
        rssi = rng.uniform(-95, -30, size=(8, 4))
        mask = rng.random(rssi.shape) < 0.3
        rssi[mask] = SENTINEL
        if (rssi == SENTINEL).all():
            rssi[0, 0] = -50.0
        ds = dataset_from(rssi)
        cfg = PreprocessConfig()
        once, _ = impute_missing(ds, cfg)
        twice, _ = impute_missing(once, cfg)
        assert not (once.rssi == SENTINEL).any()
        assert np.array_equal(once.rssi, twice.rssi)


class TestPowedTransform:
    def test_endpoints_map_to_zero_and_one(self):
        ds = dataset_from([[-90.0, -30.0], [-60.0, -45.0]])
        out = powed_transform(ds, PreprocessConfig())
        assert out.rssi.min() == 0.0
        assert out.rssi.max() == 1.0

    def test_midpoint_value(self):
        ds = dataset_from([[0.0, 1.0, 0.5]])
        out = powed_transform(ds, PreprocessConfig())
        assert out.rssi[0, 2] == pytest.approx(0.5**math.e)
        assert 0.5**math.e == pytest.approx(0.15196, abs=1e-5)

    def test_constant_dataset_is_degenerate(self):
        ds = dataset_from([[-50.0, -50.0]])
        with pytest.raises(DataError):
            powed_transform(ds, PreprocessConfig())

    @given(
        st.lists(
            st.floats(min_value=-100.0, max_value=0.0, allow_nan=False),
            min_size=2,
            max_size=30,
            unique=True,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_bounds_and_order_preserved(self, values):
        ds = dataset_from(np.array(values).reshape(1, -1))
        out = powed_transform(ds, PreprocessConfig())
        assert (out.rssi >= 0.0).all() and (out.rssi <= 1.0).all()
        order = np.argsort(ds.rssi[0])
        transformed = out.rssi[0][order]
        assert (np.diff(transformed) >= 0).all()


def median_oracle(counts: list[int]) -> int:
    """Sort-based median with exact integer half-away-from-zero rounding."""
    ordered = sorted(counts)
    k = len(ordered)
    if k % 2 == 1:
        return ordered[k // 2]
    total = ordered[k // 2 - 1] + ordered[k // 2]
    return total // 2 if total % 2 == 0 else (total + 1) // 2


class TestMetaSignalDim:
    @pytest.mark.parametrize(
        "counts, expected",
        [([3, 5, 7], 5), ([2, 4, 6, 8], 5), ([4, 7], 6), ([9], 9)],
    )
    def test_known_medians(self, counts, expected):
        assert meta_signal_dim(counts) == expected

    def test_empty_list_is_an_error(self):
        with pytest.raises(DataError):
            meta_signal_dim([])

    @given(st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_oracle(self, counts):
        assert meta_signal_dim(counts) == median_oracle(counts)

    @given(
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=20),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, counts, rnd):
        shuffled = list(counts)
        rnd.shuffle(shuffled)
        assert meta_signal_dim(shuffled) == meta_signal_dim(counts)


class TestPipeline:
    def test_report_captures_drops_and_range(self):
        rssi = np.array(
            [
                [SENTINEL, -80.0, -40.0],
                [SENTINEL, SENTINEL, -60.0],
            ]
        )
        ds = dataset_from(rssi)
        out, report = preprocess_dataset(ds, PreprocessConfig())
        assert report.dropped_ap_names == ["AP0"]
        assert report.kept_indices == [1, 2]
        assert report.sentinel_count_replaced == 1
        assert report.impute_fill == -81.0
        assert report.min_rssi == -81.0 and report.max_rssi == -40.0
        assert out.rssi.min() == 0.0 and out.rssi.max() == 1.0
        assert out.rssi.shape == (2, 2)

    def test_invalid_tau_rejected(self):
        with pytest.raises(ConfigError):
            PreprocessConfig(tau=1.5)
