import io
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedmetaloc import data
from fedmetaloc.data import (
    PARTITIONS,
    FingerprintDataset,
    LocalizationTask,
    SchemaConfig,
    SyntheticEnvSpec,
    load_csv,
    load_task_bundle,
    make_task,
    path_loss_rssi,
    save_task_bundle,
    split_support_query,
    synth_environment,
)
from fedmetaloc.errors import ConfigError, DataError
from fedmetaloc.experiments import DatasetSource, ExperimentConfig, TaskOptions, load_experiment_config

from helpers import reference_load_csv, reference_segment_crossings, synth_task

UJI_SCHEMA = SchemaConfig(
    coord_columns=("LONGITUDE", "LATITUDE"),
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
        [(name, ds)] = load_csv(path, UJI_SCHEMA)
        assert name is None
        assert ds.ap_names == ["WAP001", "WAP002"]
        assert np.array_equal(ds.rssi, [[-57.0, 100.0], [-60.0, -71.0], [100.0, -80.0]])
        assert np.array_equal(ds.coords, [[1.5, 2.5], [3.5, 4.5], [5.5, 6.5]])
        assert group_of_each_row(path, "building") == ["B1", "B1", "B2"]
        assert group_of_each_row(path, "floor") == ["F0", "F1", "F1"]

    def test_uji_style_header_shape(self, tmp_path):
        ap_cols = [f"WAP{i:03d}" for i in range(1, 521)]
        header = [*ap_cols, "LONGITUDE", "LATITUDE", "FLOOR", "BUILDINGID"]
        row = [*([100.0] * 519), -48.0, -7301.0, 4864921.0, 2, 0]
        [(name, ds)] = load_csv(write_csv(tmp_path / "uji.csv", header, [row]), UJI_SCHEMA, "building_floor")
        assert name == "B0_F2"
        assert ds.n_aps == 520
        assert ds.coords.shape == (1, 2)

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
        (tmp_path / "schema.json").write_text('{"coord_columns": ["X", "Y"], "ap_columns": ["A", "B"]}')
        write_csv(tmp_path / "data.csv", ["A", "B", "X", "Y"], [[-50.0, -60.0, 1.0, 2.0]])
        entry = {"csv": "data.csv", "schema": "schema.json"}
        (tmp_path / "exp.json").write_text(json.dumps({"datasets": [entry]}))
        source, _ = load_experiment_config(tmp_path / "exp.json").datasets[0]
        assert source.schema.coord_columns == ("X", "Y")
        assert source.schema.ap_columns == ("A", "B")


def group_of_each_row(path: Path, partition: str, schema: SchemaConfig = UJI_SCHEMA) -> list[str]:
    """The name of the group ``load_csv`` puts each CSV row in, in file order;
    each group's rows must be the file's rows in file order."""
    [(_, whole)] = load_csv(path, schema)
    names: list[str | None] = [None] * whole.n_samples
    for name, part in load_csv(path, schema, partition):
        rows = [i for i in range(whole.n_samples) if any(np.array_equal(whole.coords[i], c) for c in part.coords)]
        assert len(rows) == part.n_samples
        reference = whole.select_rows(np.array(rows))
        assert np.array_equal(part.rssi.view(np.uint64), reference.rssi.view(np.uint64))
        assert np.array_equal(part.coords, reference.coords)
        for i in rows:
            names[i] = name
    assert None not in names
    return names


def reference_table() -> list[list[str]]:
    """Header and cell texts of a UJI-shaped table: edge floats, 1e308 and NaN
    in the RSSI cells, an unselected numeric SPACEID column, and fractional
    FLOOR labels."""
    rng = np.random.default_rng(0)
    spread = rng.standard_normal(24) * 10.0 ** rng.integers(-300, 300, size=24)
    rssi = np.concatenate([EDGE_VALUES, [1e308, float("nan")], spread]).reshape(6, 6).tolist()
    coords = rng.uniform(-7700.0, 4865000.0, size=(6, 2)).tolist()
    floors = ["0", "1.5", "-0.5", "3.0", "2.9999", "4"]
    buildings = ["0", "1", "2", "0.0", "1e0", "2"]
    header = [*(f"WAP{i:03d}" for i in range(1, 7)), "SPACEID", "LONGITUDE", "LATITUDE", "FLOOR", "BUILDINGID"]
    return [header] + [
        [*map(repr, r), str(100 + i), *map(repr, c), f, b]
        for i, (r, c, f, b) in enumerate(zip(rssi, coords, floors, buildings))
    ]


CSV_LAYOUTS = {  # how each cell is written, and what ends each line
    "plain": (str, "\n"),
    "crlf": (str, "\r\n"),
    "blank_lines": (str, "\n\n"),
    "padded_cells": (lambda cell: f" {cell} ", "\n"),
    "quoted_cells": (lambda cell: f'"{cell}"', "\r\n"),
}


class TestLoadCsvMatchesReference:
    """``load_csv`` against the per-cell reader it replaced, on the inputs both accept."""

    @pytest.mark.parametrize("layout", sorted(CSV_LAYOUTS))
    def test_bitwise_equal_to_reference_reader(self, tmp_path, layout):
        cell, newline = CSV_LAYOUTS[layout]
        path = tmp_path / "uji.csv"
        path.write_bytes("".join(",".join(map(cell, row)) + newline for row in reference_table()).encode())
        for partition in PARTITIONS:
            ours, theirs = load_csv(path, UJI_SCHEMA, partition), reference_load_csv(path, UJI_SCHEMA, partition)
            assert [name for name, _ in ours] == [name for name, _ in theirs]
            for (_, mine), (_, ref) in zip(ours, theirs):
                assert np.array_equal(mine.rssi.view(np.uint64), ref.rssi.view(np.uint64))
                assert np.array_equal(mine.coords.view(np.uint64), ref.coords.view(np.uint64))
                assert mine.ap_names == ref.ap_names and mine.coord_names == ref.coord_names
        [(_, whole)] = load_csv(path, UJI_SCHEMA)
        assert whole.rssi.shape == (6, 6) and np.isnan(whole.rssi).sum() == 1
        assert group_of_each_row(path, "floor") == ["F0", "F1", "F0", "F3", "F2", "F4"]
        assert group_of_each_row(path, "building") == ["B0", "B1", "B2", "B0", "B1", "B2"]

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["-50,1,1.0,2.0,nan,0"], "FLOOR"),
            (["-50,1,1.0,2.0,1e19,0"], "FLOOR"),
            (["-50,1,1.0,2.0,0,B1"], "line 2"),
            (["-50,1,1.0,2.0,0,0", "-50,1,1.0,2.0"], "line 3"),
            # these two loaded before: the reader parsed only the schema's columns
            (["-50,lobby,1.0,2.0,0,0"], "line 2"),
            (["-50,1,1.0,2.0,0,0", "-50,1,1.0,2.0,0,0,7"], "line 3"),
        ],
        ids=["nan_label", "label_outside_int64", "non_numeric_label", "short_row",
             "non_numeric_unselected_cell", "row_wider_than_header"],
    )
    def test_malformed_rows_are_data_errors(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["WAP001,SPACEID,LONGITUDE,LATITUDE,FLOOR,BUILDINGID", *rows]) + "\n")
        with pytest.raises(DataError, match=message):
            load_csv(path, UJI_SCHEMA)


def grouped_rows(floors_per_building: list[int], rows_per_group: int = 3):
    """RSSI rows, coordinate rows, buildings and floors of ``rows_per_group``
    rows per floor, building after building and floor after floor."""
    rssi, coords, buildings, floors = [], [], [], []
    rng = np.random.default_rng(0)
    for b, n_floors in enumerate(floors_per_building):
        for f in range(n_floors):
            for _ in range(rows_per_group):
                rssi.append(rng.uniform(-90, -30, size=4))
                coords.append(rng.uniform(0, 10, size=2))
                buildings.append(b)
                floors.append(f)
    return np.array(rssi), np.array(coords), buildings, floors


def grouped_dataset(floors_per_building: list[int], rows_per_group: int = 3) -> FingerprintDataset:
    rssi, coords, _, _ = grouped_rows(floors_per_building, rows_per_group)
    return FingerprintDataset(rssi=rssi, coords=coords, ap_names=[f"AP{i}" for i in range(4)])


def labelled_csv(path: Path, rssi: np.ndarray, coords: np.ndarray, buildings, floors) -> Path:
    """A UJI-schema CSV: four WAP columns, LONGITUDE, LATITUDE, FLOOR and BUILDINGID,
    every float written in its shortest ``repr``."""
    header = ["WAP001", "WAP002", "WAP003", "WAP004", "LONGITUDE", "LATITUDE", "FLOOR", "BUILDINGID"]
    rows = zip(rssi.tolist(), coords.tolist(), floors, buildings)
    return write_csv(path, header, [[*map(repr, r), *map(repr, c), f, b] for r, c, f, b in rows])


def grouped_csv(path: Path, floors_per_building: list[int], rows_per_group: int = 3) -> Path:
    return labelled_csv(path, *grouped_rows(floors_per_building, rows_per_group))


class TestPartition:
    """``load_csv``'s partition rules, on CSV files written here."""

    def test_three_buildings_with_4_4_5_floors_gives_13_tasks(self, tmp_path):
        parts = load_csv(grouped_csv(tmp_path / "g.csv", [4, 4, 5]), UJI_SCHEMA, "building_floor")
        assert len(parts) == 13
        assert parts[0][0] == "B0_F0"
        assert parts[-1][0] == "B2_F4"

    def test_single_group(self, tmp_path):
        parts = load_csv(grouped_csv(tmp_path / "g.csv", [1]), UJI_SCHEMA, "building_floor")
        assert [p[0] for p in parts] == ["B0_F0"]

    def test_sample_counts_are_preserved(self, tmp_path):
        parts = load_csv(grouped_csv(tmp_path / "g.csv", [2, 3], rows_per_group=4), UJI_SCHEMA, "building_floor")
        assert sum(p[1].n_samples for p in parts) == 20

    @pytest.mark.parametrize("by, lacking", [("building_floor", "building"), ("floor", "floor")])
    def test_missing_labels_rejected(self, tmp_path, by, lacking):
        path = grouped_csv(tmp_path / "g.csv", [2])
        schema = SchemaConfig(coord_columns=("LONGITUDE", "LATITUDE"), ap_prefix="WAP")
        with pytest.raises(DataError, match=f"partition by {lacking} requires {lacking} labels"):
            load_csv(path, schema, by)
        building_only = replace(schema, building_col="BUILDINGID")
        assert [name for name, _ in load_csv(path, building_only, "building")] == ["B0"]

    def test_unknown_rule_rejected(self, tmp_path):
        # the rule is checked once, where a datasets entry is read
        with pytest.raises(ConfigError, match="partition must be one of"):
            DatasetSource(grouped_csv(tmp_path / "g.csv", [1]), UJI_SCHEMA, "room")

    def test_missing_label_column_rejected(self, tmp_path):
        path = write_csv(tmp_path / "g.csv", ["WAP001", "LONGITUDE", "LATITUDE", "BUILDINGID"], [[-50.0, 1.0, 2.0, 0]])
        with pytest.raises(DataError, match="missing columns"):
            load_csv(path, UJI_SCHEMA, "building")

    @pytest.mark.parametrize("by", ["building", "floor", "building_floor"])
    def test_matches_a_per_row_oracle_on_interleaved_labels(self, tmp_path, by):
        rng = np.random.default_rng(3)
        buildings = (rng.integers(0, 3, size=60) * 7 - 2).tolist()  # -2, 5, 12: ordered numerically, not as text
        floors = rng.integers(-1, 3, size=60).tolist()
        rssi, coords = rng.uniform(-90, -30, size=(60, 4)), rng.uniform(0, 10, size=(60, 2))
        path = labelled_csv(tmp_path / "g.csv", rssi, coords, buildings, floors)
        groups: dict[tuple, list[int]] = {}
        for i, (b, f) in enumerate(zip(buildings, floors)):
            key = {"building": (b,), "floor": (f,), "building_floor": (b, f)}[by]
            groups.setdefault(key, []).append(i)
        prefixes = {"building": ("B",), "floor": ("F",), "building_floor": ("B", "F")}[by]
        expected = [
            ("_".join(f"{prefix}{label}" for prefix, label in zip(prefixes, key)), rows)
            for key, rows in sorted(groups.items())
        ]
        assert by != "building" or [name for name, _ in expected] == ["B-2", "B5", "B12"]
        parts = load_csv(path, UJI_SCHEMA, by)
        assert [name for name, _ in parts] == [name for name, _ in expected]
        for (_, part), (_, rows) in zip(parts, expected):
            assert np.array_equal(part.rssi, rssi[rows]) and np.array_equal(part.coords, coords[rows])


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

    # split_support_query takes the ratio as given: the config is the one
    # place it is checked, for the config's own ratio and for an entry's
    def test_bad_ratio(self, tmp_path):
        envs = [(SyntheticEnvSpec(num_aps=2), TaskOptions("T00"))]
        with pytest.raises(ConfigError, match=re.escape("support_ratio must be < 1, got 1.0")):
            ExperimentConfig("x", tmp_path, synthetic_envs=envs, support_ratio=1.0)

    def test_ratio_of_zero_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("support_ratio must be > 0, got 0.0")):
            TaskOptions("T00", support_ratio=0.0)

    @pytest.mark.parametrize("ratio, n_support", [(0.01, 1), (0.5, 6), (0.9, 11)])
    def test_support_takes_the_ceiling(self, ratio, n_support):
        ds = grouped_dataset([1], rows_per_group=12)
        support, query = split_support_query(ds, ratio, seed=3)
        assert (support.n_samples, query.n_samples) == (n_support, 12 - n_support)

    def test_rows_keep_their_coordinates(self):
        ds = grouped_dataset([2], rows_per_group=5)
        pairs = {tuple(r): tuple(c) for r, c in zip(ds.rssi, ds.coords)}
        for part in split_support_query(ds, 0.6, seed=4):
            assert all(pairs[tuple(r)] == tuple(c) for r, c in zip(part.rssi, part.coords))


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

    def test_ap_jitter_is_reproducible_and_changes_the_fingerprints(self):
        spec = SyntheticEnvSpec(num_aps=5, samples=40, seed=9, ap_seed=4, noise_sigma=0.0, ap_jitter=2.0)
        a, b = synth_environment(spec), synth_environment(spec)
        assert np.array_equal(a.rssi, b.rssi) and np.array_equal(a.coords, b.coords)
        still = synth_environment(SyntheticEnvSpec(num_aps=5, samples=40, seed=9, ap_seed=4, noise_sigma=0.0))
        assert not np.array_equal(a.rssi, still.rssi)

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

    def test_non_finite_spec_rejected(self):
        with pytest.raises(ConfigError, match=r"area must be a finite number, got \[40.0, nan\]"):
            SyntheticEnvSpec(num_aps=2, area=(40.0, math.nan))
        with pytest.raises(ConfigError, match="sensitivity_dbm must be a finite number, got -inf"):
            SyntheticEnvSpec(num_aps=2, sensitivity_dbm=-math.inf)

    @pytest.mark.parametrize("key", ["train_tasks", "test_tasks"])
    def test_experiment_with_a_repeated_task_is_rejected_at_construction(self, tmp_path, key):
        envs = [(SyntheticEnvSpec(num_aps=2), TaskOptions("T00")), (SyntheticEnvSpec(num_aps=2), TaskOptions("T01"))]
        with pytest.raises(ConfigError, match=re.escape(f"{key} lists ['T01'] more than once")):
            ExperimentConfig("x", tmp_path, synthetic_envs=envs, **{key: ["T01", "T00", "T01"]})

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

    @pytest.mark.parametrize("block_elements", [8 * 7 * 5, data.CROSSING_BLOCK_ELEMENTS])
    def test_blocked_crossings_equal_the_one_shot_count(self, monkeypatch, block_elements):
        # a sample count that leaves a partial last block, and a wall through
        # a sample and an AP, whose touching rays count as no crossing
        monkeypatch.setattr(data, "CROSSING_BLOCK_ELEMENTS", block_elements)
        rows = block_elements // (7 * 5)
        rng = np.random.default_rng(12)
        samples = rng.uniform(0.0, 30.0, size=(3 * rows + 5, 2))
        aps = rng.uniform(0.0, 30.0, size=(7, 2))
        walls = rng.uniform(0.0, 30.0, size=(5, 2, 2))
        walls[0] = samples[0], aps[0]
        counts = data._segment_crossings(samples, aps, walls)
        expected = reference_segment_crossings(samples, aps, walls)
        assert counts.dtype == expected.dtype
        assert np.array_equal(counts, expected)
        assert 0 < counts.sum() < counts.size * 5

    @pytest.mark.parametrize("block_elements", [4 * 3, data.CROSSING_BLOCK_ELEMENTS])
    def test_crossings_on_a_degenerate_grid_equal_the_one_shot_count(self, monkeypatch, block_elements):
        # points on a 4 x 4 integer grid make cross products exactly zero:
        # collinear rays and walls, shared endpoints, zero-length walls and a
        # sample on an AP
        monkeypatch.setattr(data, "CROSSING_BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(3)
        total = 0
        for _ in range(30):
            samples = rng.integers(0, 4, size=(rng.integers(1, 40), 2)).astype(float)
            aps = rng.integers(0, 4, size=(rng.integers(1, 9), 2)).astype(float)
            walls = rng.integers(0, 4, size=(rng.integers(1, 7), 2, 2)).astype(float)
            walls[0, 1] = walls[0, 0]
            aps[0] = samples[0]
            counts = data._segment_crossings(samples, aps, walls)
            assert np.array_equal(counts, reference_segment_crossings(samples, aps, walls))
            total += counts.sum()
        assert total > 0

    @pytest.mark.parametrize("num_aps, samples, num_walls", [(1, 1, 1), (5, 60, 8), (37, 413, 23)])
    def test_noise_free_rssi_equals_the_broadcast_oracle_bitwise(self, num_aps, samples, num_walls):
        # with ap_seed set, the AP and wall streams are documented, so the
        # distance and wall terms can be rebuilt as first written: one
        # [S, A, 2] broadcast summed over its last axis, one [S, A, W] broadcast
        spec = SyntheticEnvSpec(
            num_aps=num_aps, samples=samples, seed=6, ap_seed=13, noise_sigma=0.0,
            area=(33.0, 21.0), num_walls=num_walls, wall_loss_db=7.5,
        )
        ds = synth_environment(spec)
        aps = np.random.default_rng(13).uniform((0.0, 0.0), spec.area, size=(num_aps, 2))
        wall_rng = np.random.default_rng(np.random.SeedSequence(13).spawn(1)[0])
        walls = wall_rng.uniform((0.0, 0.0), spec.area, size=(num_walls, 2, 2))
        dist = np.sqrt(((ds.coords[:, None, :] - aps[None, :, :]) ** 2).sum(axis=2))
        expected = path_loss_rssi(dist, spec.tx_power_dbm, spec.path_loss_exponent)
        expected = expected - spec.wall_loss_db * reference_segment_crossings(ds.coords, aps, walls)
        assert np.array_equal(ds.rssi, expected)

    def test_sensitivity_floor_produces_sentinels(self):
        spec = SyntheticEnvSpec(
            num_aps=6, samples=80, seed=2, noise_sigma=0.0,
            area=(80.0, 50.0), sensitivity_dbm=-70.0,
        )
        ds = synth_environment(spec, sentinel=-110.0)
        detected = ds.rssi[ds.rssi != -110.0]
        assert (ds.rssi == -110.0).any()
        assert (detected >= -70.0).all()


class TestTasksAndBundles:
    def test_make_task_scales_labels(self):
        task = synth_task(samples=50, seed=3)
        normalized = task.normalize_coords(task.support.coords)
        round_trip = task.denormalize_coords(normalized)
        assert np.allclose(round_trip, task.support.coords, rtol=1e-12)
        assert np.abs(normalized).max() <= 1.0 + 1e-12

    def test_a_split_that_leaves_no_query_row_is_a_data_error(self):
        # ceil(0.9 * 2) = 2: every row goes to the support set
        with pytest.raises(DataError, match="task T9: split ratio 0.9 left no query samples"):
            make_task("T9", grouped_dataset([1], rows_per_group=2), 0.9, seed=0)

    def test_partition_then_split_never_duplicates(self, tmp_path):
        seen = set()
        path = grouped_csv(tmp_path / "g.csv", [2, 1], rows_per_group=6)
        for name, sub in load_csv(path, UJI_SCHEMA, "building_floor"):
            support, query = split_support_query(sub, 0.5, seed=1)
            for row in np.vstack([support.rssi, query.rssi]):
                key = tuple(row)
                assert key not in seen
                seen.add(key)
        assert len(seen) == 18

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
        for name in ("support.npy", "query.npy", "meta.json"):
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


class TestBundleArrays:
    def test_bytes_equal_the_reference_writer(self, tmp_path):
        task = edge_value_task()
        bundle = save_task_bundle(task, tmp_path)
        for name, split in (("support.npy", task.support), ("query.npy", task.query)):
            values = np.empty((split.n_samples, split.n_aps + 2))
            values[:, : split.n_aps] = split.rssi
            values[:, split.n_aps :] = split.coords
            reference = io.BytesIO()
            np.lib.format.write_array(reference, values, version=(1, 0), allow_pickle=False)
            assert (bundle / name).read_bytes() == reference.getvalue()
        assert (bundle / "support.npy").read_bytes().startswith(
            b"\x93NUMPY\x01\x00v\x00{'descr': '<f8', 'fortran_order': False, 'shape': (6, 6), }"
        )

    def test_read_back_is_bitwise_equal(self, tmp_path):
        task = edge_value_task()
        loaded = load_task_bundle(save_task_bundle(task, tmp_path))
        for ours, theirs in ((loaded.support, task.support), (loaded.query, task.query)):
            assert np.array_equal(ours.rssi.view(np.uint64), theirs.rssi.view(np.uint64))
            assert np.array_equal(ours.coords.view(np.uint64), theirs.coords.view(np.uint64))
            assert ours.ap_names == theirs.ap_names
            # both are column views of one C-ordered [rows, m + p] array
            assert ours.rssi.base is ours.coords.base
            assert ours.rssi.strides == ours.coords.strides == (6 * 8, 8)
