import math
from pathlib import Path

import numpy as np
import pytest

from fedmetaloc.data import (
    FingerprintDataset,
    LocalizationTask,
    SchemaConfig,
    SyntheticEnvSpec,
    load_csv,
    load_task_bundle,
    make_task,
    partition_tasks,
    path_loss_rssi,
    save_task_bundle,
    split_support_query,
    synth_environment,
)
from fedmetaloc.errors import ConfigError, DataError

from helpers import reference_write_split_csv, synth_task

UJI_SCHEMA = SchemaConfig(
    coord_columns=("LONGITUDE", "LATITUDE"),
    sentinel=100.0,
    ap_prefix="WAP",
    building_col="BUILDINGID",
    floor_col="FLOOR",
)


def write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadCsv:
    def test_hand_written_rows_round_trip(self, tmp_path):
        path = write_csv(
            tmp_path / "tiny.csv",
            ["WAP001", "WAP002", "LONGITUDE", "LATITUDE", "FLOOR", "BUILDINGID"],
            [
                [-57.0, 100.0, 1.5, 2.5, 0, 1],
                [-60.0, -71.0, 3.5, 4.5, 1, 1],
                [100.0, -80.0, 5.5, 6.5, 1, 2],
            ],
        )
        ds = load_csv(path, UJI_SCHEMA)
        assert ds.ap_names == ["WAP001", "WAP002"]
        assert np.array_equal(ds.rssi, [[-57.0, 100.0], [-60.0, -71.0], [100.0, -80.0]])
        assert np.array_equal(ds.coords, [[1.5, 2.5], [3.5, 4.5], [5.5, 6.5]])
        assert list(ds.building) == [1, 1, 2]
        assert list(ds.floor) == [0, 1, 1]

    def test_uji_style_header_shape(self, tmp_path):
        ap_cols = [f"WAP{i:03d}" for i in range(1, 521)]
        header = [*ap_cols, "LONGITUDE", "LATITUDE", "FLOOR", "BUILDINGID"]
        row = [*([100.0] * 519), -48.0, -7301.0, 4864921.0, 2, 0]
        ds = load_csv(write_csv(tmp_path / "uji.csv", header, [row]), UJI_SCHEMA)
        assert ds.n_aps == 520
        assert ds.coords.shape == (1, 2)
        assert ds.building is not None and ds.floor is not None

    def test_empty_file_and_headers_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError):
            load_csv(empty, UJI_SCHEMA)
        headers_only = write_csv(
            tmp_path / "h.csv",
            ["WAP001", "LONGITUDE", "LATITUDE", "FLOOR", "BUILDINGID"],
            [],
        )
        with pytest.raises(DataError, match="no data rows"):
            load_csv(headers_only, UJI_SCHEMA)

    def test_missing_columns_reported(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["WAP001", "LONGITUDE"], [[-50.0, 1.0]])
        with pytest.raises(DataError, match="missing columns"):
            load_csv(path, UJI_SCHEMA)

    def test_unparseable_row_reports_line_number(self, tmp_path):
        path = write_csv(
            tmp_path / "bad.csv",
            ["WAP001", "LONGITUDE", "LATITUDE", "FLOOR", "BUILDINGID"],
            [[-50.0, 1.0, 2.0, 0, 0], ["oops", 1.0, 2.0, 0, 0]],
        )
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, UJI_SCHEMA)

    def test_schema_from_json(self, tmp_path):
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(
            '{"coord_columns": ["X", "Y"], "sentinel": -200, "ap_columns": ["A", "B"]}'
        )
        schema = SchemaConfig.from_json(schema_path)
        assert schema.coord_columns == ("X", "Y")
        assert schema.sentinel == -200
        assert schema.ap_columns == ("A", "B")


def grouped_dataset(floors_per_building: list[int], rows_per_group: int = 3) -> FingerprintDataset:
    rssi, coords, buildings, floors = [], [], [], []
    rng = np.random.default_rng(0)
    for b, n_floors in enumerate(floors_per_building):
        for f in range(n_floors):
            for _ in range(rows_per_group):
                rssi.append(rng.uniform(-90, -30, size=4))
                coords.append(rng.uniform(0, 10, size=2))
                buildings.append(b)
                floors.append(f)
    return FingerprintDataset(
        rssi=np.array(rssi),
        coords=np.array(coords),
        ap_names=[f"AP{i}" for i in range(4)],
        building=np.array(buildings),
        floor=np.array(floors),
    )


class TestPartition:
    def test_three_buildings_with_4_4_5_floors_gives_13_tasks(self):
        ds = grouped_dataset([4, 4, 5])
        parts = partition_tasks(ds, "building_floor")
        assert len(parts) == 13
        assert parts[0][0] == "B0_F0"
        assert parts[-1][0] == "B2_F4"

    def test_single_group(self):
        ds = grouped_dataset([1])
        parts = partition_tasks(ds, "building_floor")
        assert [p[0] for p in parts] == ["B0_F0"]

    def test_sample_counts_are_preserved(self):
        ds = grouped_dataset([2, 3], rows_per_group=4)
        parts = partition_tasks(ds, "building_floor")
        assert sum(p[1].n_samples for p in parts) == ds.n_samples

    def test_missing_labels_rejected(self):
        ds = grouped_dataset([2])
        ds = FingerprintDataset(ds.rssi, ds.coords, ds.ap_names)
        with pytest.raises(DataError):
            partition_tasks(ds, "building_floor")

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError):
            partition_tasks(grouped_dataset([1]), "room")


class TestSplit:
    def test_seventy_thirty(self):
        ds = grouped_dataset([1], rows_per_group=10)
        support, query = split_support_query(ds, 0.7, seed=0)
        assert support.n_samples == 7
        assert query.n_samples == 3

    def test_same_seed_identical(self):
        ds = grouped_dataset([1], rows_per_group=9)
        a = split_support_query(ds, 0.6, seed=5)
        b = split_support_query(ds, 0.6, seed=5)
        assert np.array_equal(a[0].rssi, b[0].rssi)
        assert np.array_equal(a[1].coords, b[1].coords)

    def test_disjoint_and_exhaustive(self):
        ds = grouped_dataset([1], rows_per_group=11)
        support, query = split_support_query(ds, 0.5, seed=2)
        combined = np.vstack([support.rssi, query.rssi])
        assert combined.shape[0] == ds.n_samples
        original = {tuple(row) for row in ds.rssi}
        assert {tuple(row) for row in combined} == original
        assert not ({tuple(r) for r in support.rssi} & {tuple(r) for r in query.rssi})

    def test_too_few_samples(self):
        ds = grouped_dataset([1], rows_per_group=1)
        with pytest.raises(DataError):
            split_support_query(ds, 0.5, seed=0)

    def test_bad_ratio(self):
        ds = grouped_dataset([1], rows_per_group=4)
        with pytest.raises(ConfigError):
            split_support_query(ds, 1.0, seed=0)


class TestCoverageSplit:
    def region_dataset(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform((0, 0), (40, 20), size=(60, 2))
        return FingerprintDataset(
            rssi=rng.uniform(-90, -40, size=(60, 3)),
            coords=coords,
            ap_names=["A", "B", "C"],
        )

    def test_support_confined_to_region(self):
        from fedmetaloc.data import split_support_query_by_region

        ds = self.region_dataset()
        support, query = split_support_query_by_region(ds, (0, 0, 20, 20), 0.8, seed=1)
        assert (support.coords[:, 0] <= 20).all()
        assert support.n_samples + query.n_samples == ds.n_samples
        # query keeps everything else, including out-of-region points
        assert (query.coords[:, 0] > 20).any()

    def test_empty_region_rejected(self):
        from fedmetaloc.data import split_support_query_by_region

        ds = self.region_dataset()
        with pytest.raises(DataError):
            split_support_query_by_region(ds, (100, 100, 110, 110), 0.5, seed=0)


class TestSyntheticEnvironment:
    def test_rssi_at_clamped_distance(self):
        # standing on top of an AP: distance clamps to 0.1 m
        value = path_loss_rssi(np.array([0.0]), tx_power_dbm=-30.0, exponent=2.5)
        assert value[0] == pytest.approx(-30.0 - 10 * 2.5 * math.log10(0.1))

    def test_doubling_distance_drops_six_db(self):
        near, far = path_loss_rssi(np.array([5.0, 10.0]), tx_power_dbm=-30.0, exponent=2.0)
        assert near - far == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_monotone_nonincreasing_in_distance(self):
        d = np.linspace(0.0, 80.0, 200)
        values = path_loss_rssi(d, tx_power_dbm=-30.0, exponent=3.0)
        assert (np.diff(values) <= 0).all()

    def test_same_seed_bit_identical(self):
        spec = SyntheticEnvSpec(num_aps=5, samples=40, seed=9)
        a, b = synth_environment(spec), synth_environment(spec)
        assert np.array_equal(a.rssi, b.rssi)
        assert np.array_equal(a.coords, b.coords)

    def test_noise_free_matrix_is_finite_and_in_area(self):
        spec = SyntheticEnvSpec(num_aps=4, samples=30, seed=1, noise_sigma=0.0, area=(20.0, 10.0))
        ds = synth_environment(spec)
        assert np.isfinite(ds.rssi).all()
        assert (ds.coords[:, 0] <= 20.0).all() and (ds.coords[:, 1] <= 10.0).all()

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticEnvSpec(num_aps=0)
        with pytest.raises(ConfigError):
            SyntheticEnvSpec(num_aps=2, noise_sigma=-1.0)
        with pytest.raises(ConfigError):
            SyntheticEnvSpec(num_aps=2, num_walls=-1)

    def test_walls_only_attenuate(self):
        base = SyntheticEnvSpec(num_aps=4, samples=50, seed=3, noise_sigma=0.0)
        walled = SyntheticEnvSpec(
            num_aps=4, samples=50, seed=3, noise_sigma=0.0, num_walls=6, wall_loss_db=12.0
        )
        # AP/sample draws differ between the two streams unless layouts are pinned
        base = SyntheticEnvSpec(**{**base.__dict__, "ap_seed": 5})
        walled = SyntheticEnvSpec(**{**walled.__dict__, "ap_seed": 5})
        free = synth_environment(base)
        obstructed = synth_environment(walled)
        assert np.array_equal(free.coords, obstructed.coords)
        diff = free.rssi - obstructed.rssi
        assert (diff >= -1e-9).all()
        assert (diff > 1.0).any()  # at least one blocked path
        assert np.allclose(diff, 12.0 * np.round(diff / 12.0), atol=1e-9)  # integer crossings

    def test_shared_ap_seed_gives_identical_layout(self):
        a = synth_environment(SyntheticEnvSpec(num_aps=5, samples=30, seed=1, ap_seed=9, noise_sigma=0.0))
        b = synth_environment(SyntheticEnvSpec(num_aps=5, samples=30, seed=1, ap_seed=9, noise_sigma=0.0))
        assert np.array_equal(a.rssi, b.rssi)

    def test_shared_ap_seed_shares_walls_across_ap_counts(self):
        # fewer APs use a prefix of the shared grid behind the same walls, so
        # the noise-free columns of the smaller spec match the larger one's
        common = dict(samples=60, seed=4, ap_seed=11, noise_sigma=0.0, num_walls=8, wall_loss_db=9.0)
        a = synth_environment(SyntheticEnvSpec(num_aps=5, **common))
        b = synth_environment(SyntheticEnvSpec(num_aps=9, **common))
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.rssi, b.rssi[:, :5])

    def test_sensitivity_floor_produces_sentinels(self):
        spec = SyntheticEnvSpec(
            num_aps=6, samples=80, seed=2, noise_sigma=0.0,
            area=(80.0, 50.0), sensitivity_dbm=-70.0,
        )
        ds = synth_environment(spec)
        detected = ds.rssi[ds.rssi != 100.0]
        assert (ds.rssi == 100.0).any()
        assert (detected >= -70.0).all()


class TestTasksAndBundles:
    def test_make_task_scales_labels(self):
        task = synth_task(samples=50, seed=3)
        normalized = task.normalize_coords(task.support.coords)
        round_trip = task.denormalize_coords(normalized)
        assert np.allclose(round_trip, task.support.coords, rtol=1e-12)
        assert np.abs(normalized).max() <= 1.0 + 1e-12

    def test_partition_then_split_never_duplicates(self):
        ds = grouped_dataset([2, 1], rows_per_group=6)
        seen = set()
        for name, sub in partition_tasks(ds, "building_floor"):
            support, query = split_support_query(sub, 0.5, seed=1)
            for row in np.vstack([support.rssi, query.rssi]):
                key = tuple(row)
                assert key not in seen
                seen.add(key)
        assert len(seen) == ds.n_samples

    def test_bundle_round_trip_is_exact(self, tmp_path):
        task = synth_task(samples=40, seed=7)
        save_task_bundle(task, tmp_path, extra={"note": "fixture"})
        loaded = load_task_bundle(tmp_path / task.task_id)
        assert loaded.task_id == task.task_id
        assert np.array_equal(loaded.support.rssi, task.support.rssi)
        assert np.array_equal(loaded.query.coords, task.query.coords)
        assert np.array_equal(loaded.label_center, task.label_center)
        assert np.array_equal(loaded.label_scale, task.label_scale)

    def test_bundle_bytes_are_deterministic(self, tmp_path):
        task = synth_task(samples=25, seed=8)
        d1 = save_task_bundle(task, tmp_path / "a")
        d2 = save_task_bundle(task, tmp_path / "b")
        for name in ("support.csv", "query.csv", "meta.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_task_bundle(tmp_path / "nope")


EDGE_VALUES = [-0.0, 5e-324, -5e-324, 1e-05, 1e16, 0.1 + 0.2, 100.0, -87.25, -1e-300, 1.7976931348623157e308]


def edge_value_task() -> LocalizationTask:
    """Edge floats plus doubles spread over the whole exponent range, as a 10 x 6 task."""
    rng = np.random.default_rng(0)
    spread = rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, size=50)
    values = np.concatenate([EDGE_VALUES, spread]).reshape(10, 6)

    def split(rows: slice) -> FingerprintDataset:
        block = values[rows]
        return FingerprintDataset(
            rssi=block[:, :4], coords=block[:, 4:], ap_names=[f"AP{i}" for i in range(4)]
        )

    return LocalizationTask("EDGE", split(slice(0, 6)), split(slice(6, 10)), np.zeros(2), np.ones(2))


class TestBundleCsv:
    def test_bytes_equal_the_reference_writer(self, tmp_path):
        task = edge_value_task()
        bundle = save_task_bundle(task, tmp_path)
        for name, split in (("support.csv", task.support), ("query.csv", task.query)):
            reference_write_split_csv(tmp_path / name, split)
            assert (bundle / name).read_bytes() == (tmp_path / name).read_bytes()
        assert (bundle / "support.csv").read_bytes().startswith(b"AP0,AP1,AP2,AP3,x,y\r\n-0.0,5e-324,")

    def test_read_back_is_bitwise_equal(self, tmp_path):
        task = edge_value_task()
        loaded = load_task_bundle(save_task_bundle(task, tmp_path))
        for ours, theirs in ((loaded.support, task.support), (loaded.query, task.query)):
            assert np.array_equal(ours.rssi.view(np.uint64), theirs.rssi.view(np.uint64))
            assert np.array_equal(ours.coords.view(np.uint64), theirs.coords.view(np.uint64))
            assert ours.ap_names == theirs.ap_names
