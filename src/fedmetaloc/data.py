"""Dataset ingestion, task construction, and the synthetic environment generator.

A fingerprint dataset is a matrix of RSSI readings (rows are measurement
samples, columns are access points) with per-row location labels and optional
building/floor group labels. Tasks are per-environment support/query splits of
such datasets; the synthetic generator stands in for public datasets in tests
and desk-scale experiments.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .fileio import read_csv, write_csv, write_json


@dataclass
class FingerprintDataset:
    """RSSI matrix [samples x APs] plus coordinates [samples x p]."""

    rssi: np.ndarray
    coords: np.ndarray
    ap_names: list[str]
    coord_names: list[str] = field(default_factory=lambda: ["x", "y"])
    building: np.ndarray | None = None
    floor: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.rssi = np.asarray(self.rssi, dtype=np.float64)
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.rssi.ndim != 2 or self.coords.ndim != 2:
            raise DataError("rssi and coords must both be 2-D arrays")
        if self.rssi.shape[0] != self.coords.shape[0]:
            raise DataError(
                f"{self.rssi.shape[0]} RSSI rows but {self.coords.shape[0]} coordinate rows"
            )
        if len(self.ap_names) != self.rssi.shape[1]:
            raise DataError(f"{len(self.ap_names)} AP names for {self.rssi.shape[1]} columns")
        if len(self.coord_names) != self.coords.shape[1]:
            raise DataError("coordinate names do not match coordinate columns")
        for labels in (self.building, self.floor):
            if labels is not None and len(labels) != self.rssi.shape[0]:
                raise DataError("group label length does not match sample count")

    @property
    def n_samples(self) -> int:
        return self.rssi.shape[0]

    @property
    def n_aps(self) -> int:
        return self.rssi.shape[1]

    def with_rssi(self, rssi: np.ndarray) -> "FingerprintDataset":
        return replace(self, rssi=rssi)

    def select_rows(self, idx: np.ndarray) -> "FingerprintDataset":
        return FingerprintDataset(
            rssi=self.rssi[idx],
            coords=self.coords[idx],
            ap_names=list(self.ap_names),
            coord_names=list(self.coord_names),
            building=None if self.building is None else self.building[idx],
            floor=None if self.floor is None else self.floor[idx],
        )

    def select_aps(self, cols: Sequence[int]) -> "FingerprintDataset":
        cols = list(cols)
        return replace(
            self,
            rssi=self.rssi[:, cols],
            ap_names=[self.ap_names[i] for i in cols],
        )

    def validate_model_ready(self) -> None:
        """Datasets entering training must be finite and nonempty."""
        if self.n_samples == 0:
            raise DataError("dataset has no samples")
        if not np.isfinite(self.rssi).all() or not np.isfinite(self.coords).all():
            raise DataError("dataset contains non-finite values")


@dataclass(frozen=True)
class SchemaConfig:
    """Column conventions of one CSV source (kept in a JSON sidecar, not code)."""

    coord_columns: tuple[str, ...]
    sentinel: float = 100.0
    ap_prefix: str | None = None
    ap_columns: tuple[str, ...] | None = None
    building_col: str | None = None
    floor_col: str | None = None

    def __post_init__(self) -> None:
        if self.ap_prefix is None and not self.ap_columns:
            raise ConfigError("schema needs either an AP column prefix or an explicit column list")
        if len(self.coord_columns) < 1:
            raise ConfigError("schema needs at least one coordinate column")

    @classmethod
    def from_json(cls, path: str | Path) -> "SchemaConfig":
        raw = json.loads(Path(path).read_text())
        try:
            return cls(
                coord_columns=tuple(raw["coord_columns"]),
                sentinel=float(raw.get("sentinel", 100.0)),
                ap_prefix=raw.get("ap_prefix"),
                ap_columns=tuple(raw["ap_columns"]) if raw.get("ap_columns") else None,
                building_col=raw.get("building_col"),
                floor_col=raw.get("floor_col"),
            )
        except KeyError as exc:
            raise ConfigError(f"schema file {path} is missing key {exc}") from exc


def load_csv(path: str | Path, schema: SchemaConfig) -> FingerprintDataset:
    """Parse a fingerprint CSV, preserving the sentinel for later imputation."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        col_index = {name: i for i, name in enumerate(header)}

        if schema.ap_columns:
            ap_names = list(schema.ap_columns)
        else:
            ap_names = [h for h in header if h.startswith(schema.ap_prefix)]
        missing = [c for c in [*ap_names, *schema.coord_columns] if c not in col_index]
        for opt in (schema.building_col, schema.floor_col):
            if opt is not None and opt not in col_index:
                missing.append(opt)
        if missing:
            raise DataError(f"{path}: missing columns {missing[:5]}{'...' if len(missing) > 5 else ''}")
        if not ap_names:
            raise DataError(f"{path}: no AP columns match prefix {schema.ap_prefix!r}")

        ap_idx = [col_index[c] for c in ap_names]
        coord_idx = [col_index[c] for c in schema.coord_columns]
        b_idx = col_index[schema.building_col] if schema.building_col else None
        f_idx = col_index[schema.floor_col] if schema.floor_col else None

        rssi_rows, coord_rows, buildings, floors = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rssi_rows.append([float(row[i]) for i in ap_idx])
                coord_rows.append([float(row[i]) for i in coord_idx])
                if b_idx is not None:
                    buildings.append(int(float(row[b_idx])))
                if f_idx is not None:
                    floors.append(int(float(row[f_idx])))
            except (ValueError, IndexError) as exc:
                raise DataError(f"{path}: unparseable row at line {lineno}: {exc}") from exc

    if not rssi_rows:
        raise DataError(f"{path}: no data rows")
    return FingerprintDataset(
        rssi=np.array(rssi_rows),
        coords=np.array(coord_rows),
        ap_names=ap_names,
        coord_names=list(schema.coord_columns),
        building=np.array(buildings, dtype=np.int64) if buildings else None,
        floor=np.array(floors, dtype=np.int64) if floors else None,
    )


def partition_tasks(
    dataset: FingerprintDataset, by: str = "building_floor"
) -> list[tuple[str, FingerprintDataset]]:
    """Split one dataset into per-group sub-datasets named B{i}_F{j} / B{i} / F{j}."""
    if by not in ("building", "floor", "building_floor"):
        raise ConfigError(f"unknown partition rule {by!r}")
    needs_b = by in ("building", "building_floor")
    needs_f = by in ("floor", "building_floor")
    if needs_b and dataset.building is None:
        raise DataError("partition by building requires building labels")
    if needs_f and dataset.floor is None:
        raise DataError("partition by floor requires floor labels")

    def key_and_name(i: int) -> tuple[tuple, str]:
        if by == "building_floor":
            b, f = int(dataset.building[i]), int(dataset.floor[i])
            return (b, f), f"B{b}_F{f}"
        if by == "building":
            b = int(dataset.building[i])
            return (b,), f"B{b}"
        f = int(dataset.floor[i])
        return (f,), f"F{f}"

    groups: dict[tuple, list[int]] = {}
    names: dict[tuple, str] = {}
    for i in range(dataset.n_samples):
        key, name = key_and_name(i)
        groups.setdefault(key, []).append(i)
        names[key] = name
    return [
        (names[key], dataset.select_rows(np.array(groups[key], dtype=np.int64)))
        for key in sorted(groups)
    ]


def split_support_query(
    dataset: FingerprintDataset, ratio: float, seed: int
) -> tuple[FingerprintDataset, FingerprintDataset]:
    """Seeded uniform shuffle; the first ceil(ratio * S) rows become the support set."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"split ratio must be in (0, 1), got {ratio}")
    if dataset.n_samples < 2:
        raise DataError(f"need at least 2 samples to split, got {dataset.n_samples}")
    perm = np.random.default_rng(seed).permutation(dataset.n_samples)
    n_support = math.ceil(ratio * dataset.n_samples)
    return dataset.select_rows(perm[:n_support]), dataset.select_rows(perm[n_support:])


def split_support_query_by_region(
    dataset: FingerprintDataset,
    region: tuple[float, float, float, float],
    ratio: float,
    seed: int,
) -> tuple[FingerprintDataset, FingerprintDataset]:
    """Coverage-limited split: support only from inside ``region``.

    Models partial calibration of a new environment: fingerprints were only
    collected inside ``region = (x0, y0, x1, y1)``. The support set draws a
    ``ratio`` fraction of the in-region rows (seeded); every other row, in or
    out of the region, forms the query set.
    """
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"split ratio must be in (0, 1], got {ratio}")
    x0, y0, x1, y1 = region
    inside = np.flatnonzero(
        (dataset.coords[:, 0] >= x0)
        & (dataset.coords[:, 0] <= x1)
        & (dataset.coords[:, 1] >= y0)
        & (dataset.coords[:, 1] <= y1)
    )
    if inside.size < 1:
        raise DataError("no samples fall inside the coverage region")
    rng = np.random.default_rng(seed)
    picked = rng.permutation(inside)[: math.ceil(ratio * inside.size)]
    support_mask = np.zeros(dataset.n_samples, dtype=bool)
    support_mask[picked] = True
    if support_mask.all():
        raise DataError("coverage split left no query samples")
    return dataset.select_rows(np.flatnonzero(support_mask)), dataset.select_rows(
        np.flatnonzero(~support_mask)
    )


@dataclass
class LocalizationTask:
    """One client's environment: support/query split plus its label scaling.

    Coordinates are kept in native units; training consumes the normalized
    form (zero mean, unit range per coordinate) via :meth:`normalize_coords`,
    and predictions go back through :meth:`denormalize_coords` before any
    distance metric is computed.
    """

    task_id: str
    support: FingerprintDataset
    query: FingerprintDataset
    label_center: np.ndarray
    label_scale: np.ndarray

    def __post_init__(self) -> None:
        if self.support.n_aps != self.query.n_aps:
            raise DataError("support and query must share the AP columns")
        if self.support.ap_names != self.query.ap_names:
            raise DataError("support and query AP names differ")
        if self.support.n_samples == 0 or self.query.n_samples == 0:
            raise DataError(f"task {self.task_id}: empty support or query set")

    @property
    def m(self) -> int:
        return self.support.n_aps

    @property
    def p(self) -> int:
        return self.support.coords.shape[1]

    def normalize_coords(self, coords: np.ndarray) -> np.ndarray:
        return (coords - self.label_center) / self.label_scale

    def denormalize_coords(self, normalized: np.ndarray) -> np.ndarray:
        return normalized * self.label_scale + self.label_center


def make_task(
    task_id: str,
    dataset: FingerprintDataset,
    ratio: float = 0.7,
    seed: int = 0,
    support_region: tuple[float, float, float, float] | None = None,
) -> LocalizationTask:
    """Split a per-environment dataset and fit its label scaling.

    ``support_region`` switches to the coverage-limited split, simulating a
    client that calibrated only part of its environment.
    """
    dataset.validate_model_ready()
    if support_region is None:
        support, query = split_support_query(dataset, ratio, seed)
    else:
        support, query = split_support_query_by_region(dataset, support_region, ratio, seed)
    if query.n_samples == 0:
        raise DataError(f"task {task_id}: split ratio {ratio} left no query samples")
    center = dataset.coords.mean(axis=0)
    span = dataset.coords.max(axis=0) - dataset.coords.min(axis=0)
    scale = np.where(span > 0, span, 1.0)
    return LocalizationTask(task_id, support, query, center, scale)


@dataclass(frozen=True)
class SyntheticEnvSpec:
    """Log-distance path-loss environment for desk-scale experiments.

    With ``ap_seed`` unset, every environment is fully independent. Setting a
    common ``ap_seed`` (and ``area``) across several specs makes them share two
    streams: the access-point layout, where specs with fewer APs use a prefix
    of the shared grid, optionally perturbed per task by ``ap_jitter`` meters;
    and the wall segments, where specs with fewer walls use a prefix of the
    shared set, whatever their AP counts. This models related environments
    such as floors of one campus or one site drifting over time. Sample
    locations, jitter and noise always come from ``seed``.
    """

    num_aps: int
    area: tuple[float, float] = (40.0, 25.0)
    samples: int = 400
    tx_power_dbm: float = -30.0
    path_loss_exponent: float = 3.0
    noise_sigma: float = 2.0
    seed: int = 0
    ap_seed: int | None = None
    ap_jitter: float = 0.0
    num_walls: int = 0
    wall_loss_db: float = 8.0
    sensitivity_dbm: float | None = None
    sentinel: float = 100.0

    def __post_init__(self) -> None:
        if self.num_aps < 1:
            raise ConfigError("need at least one AP")
        if self.path_loss_exponent <= 0:
            raise ConfigError("path-loss exponent must be > 0")
        if self.noise_sigma < 0 or self.ap_jitter < 0:
            raise ConfigError("noise sigma and AP jitter must be >= 0")
        if self.samples < 1 or self.area[0] <= 0 or self.area[1] <= 0:
            raise ConfigError("invalid sample count or area")
        if self.num_walls < 0 or self.wall_loss_db < 0:
            raise ConfigError("wall count and per-wall loss must be >= 0")


MIN_PATH_DISTANCE_M = 0.1  # clamp so co-located AP/sample never hits log(0)


def path_loss_rssi(distance_m: np.ndarray, tx_power_dbm: float, exponent: float) -> np.ndarray:
    """Log-distance model: ``P0 - 10 * gamma * log10(d / 1 m)`` with distance clamped."""
    d = np.maximum(distance_m, MIN_PATH_DISTANCE_M)
    return tx_power_dbm - 10.0 * exponent * np.log10(d)


def _segment_crossings(starts: np.ndarray, ends: np.ndarray, walls: np.ndarray) -> np.ndarray:
    """Count proper crossings between rays AP->sample and wall segments.

    ``starts`` [S, A, 2], ``ends`` [A, 2], ``walls`` [W, 2, 2]; returns [S, A].
    """

    def cross(o, a, b):
        return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
            a[..., 1] - o[..., 1]
        ) * (b[..., 0] - o[..., 0])

    p = starts[:, :, None, :]  # sample end  [S, A, 1, 2]
    q = ends[None, :, None, :]  # AP end      [1, A, 1, 2]
    c = walls[None, None, :, 0, :]
    d = walls[None, None, :, 1, :]
    d1 = cross(p, q, c) * cross(p, q, d)
    d2 = cross(c, d, p) * cross(c, d, q)
    return ((d1 < 0) & (d2 < 0)).sum(axis=2)


def synth_environment(spec: SyntheticEnvSpec) -> FingerprintDataset:
    """Generate a deterministic environment: APs and samples uniform in the area.

    With ``num_walls > 0`` a multi-wall term subtracts ``wall_loss_db`` per
    wall segment crossed on the AP-to-sample path. Without ``ap_seed``, APs and
    then walls are drawn from the ``seed`` stream. With ``ap_seed``, APs come
    from ``default_rng(ap_seed)`` and walls from that seed's first spawned
    child stream, so the walls depend on ``ap_seed``, ``area`` and
    ``num_walls`` only and environments sharing ``ap_seed`` share their walls.
    """
    rng = np.random.default_rng(spec.seed)
    w, h = spec.area
    if spec.ap_seed is None:
        ap_rng = wall_rng = rng
    else:
        ap_rng = np.random.default_rng(spec.ap_seed)
        wall_rng = np.random.default_rng(np.random.SeedSequence(spec.ap_seed).spawn(1)[0])
    ap_pos = ap_rng.uniform((0.0, 0.0), (w, h), size=(spec.num_aps, 2))
    walls = wall_rng.uniform((0.0, 0.0), (w, h), size=(spec.num_walls, 2, 2))
    if spec.ap_jitter > 0:
        ap_pos = ap_pos + rng.uniform(-spec.ap_jitter, spec.ap_jitter, size=ap_pos.shape)
    locs = rng.uniform((0.0, 0.0), (w, h), size=(spec.samples, 2))
    dist = np.sqrt(((locs[:, None, :] - ap_pos[None, :, :]) ** 2).sum(axis=2))
    rssi = path_loss_rssi(dist, spec.tx_power_dbm, spec.path_loss_exponent)
    if spec.num_walls > 0:
        crossings = _segment_crossings(
            np.broadcast_to(locs[:, None, :], (spec.samples, spec.num_aps, 2)),
            ap_pos,
            walls,
        )
        rssi = rssi - spec.wall_loss_db * crossings
    if spec.noise_sigma > 0:
        rssi = rssi + rng.normal(0.0, spec.noise_sigma, size=rssi.shape)
    if spec.sensitivity_dbm is not None:
        # below the receiver floor an AP is simply not detected
        rssi = np.where(rssi < spec.sensitivity_dbm, spec.sentinel, rssi)
    ap_names = [f"AP{i:03d}" for i in range(spec.num_aps)]
    return FingerprintDataset(rssi=rssi, coords=locs, ap_names=ap_names)


def _write_split_csv(path: Path, split: FingerprintDataset) -> None:
    write_csv(path, [*split.ap_names, *split.coord_names], np.hstack([split.rssi, split.coords]))


def save_task_bundle(task: LocalizationTask, directory: str | Path, extra: dict | None = None) -> Path:
    """Write the canonical bundle: support.csv, query.csv, meta.json."""
    directory = Path(directory) / task.task_id
    _write_split_csv(directory / "support.csv", task.support)
    _write_split_csv(directory / "query.csv", task.query)
    meta = {
        "task_id": task.task_id,
        "m": task.m,
        "p": task.p,
        "ap_names": task.support.ap_names,
        "coord_names": task.support.coord_names,
        "n_support": task.support.n_samples,
        "n_query": task.query.n_samples,
        "label_center": [float(v) for v in task.label_center],
        "label_scale": [float(v) for v in task.label_scale],
    }
    if extra:
        meta["extra"] = extra
    write_json(directory / "meta.json", meta)
    return directory


def _read_split_csv(path: Path, m: int, coord_names: list[str]) -> FingerprintDataset:
    header, values = read_csv(path)
    if len(values) == 0:
        raise DataError(f"{path}: no data rows")
    return FingerprintDataset(
        rssi=values[:, :m],
        coords=values[:, m:],
        ap_names=header[:m],
        coord_names=coord_names,
    )


def load_task_bundle(directory: str | Path) -> LocalizationTask:
    """Read a bundle written by :func:`save_task_bundle`; anything malformed is a :class:`DataError`."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise DataError(f"not a task bundle (no meta.json): {directory}")
    try:
        meta = json.loads(meta_path.read_text())
        task_id = meta["task_id"]
        m = int(meta["m"])
        coord_names = list(meta["coord_names"])
        label_center = np.array(meta["label_center"], dtype=np.float64)
        label_scale = np.array(meta["label_scale"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {meta_path}: {type(exc).__name__}: {exc}") from exc
    return LocalizationTask(
        task_id=task_id,
        support=_read_split_csv(directory / "support.csv", m, coord_names),
        query=_read_split_csv(directory / "query.csv", m, coord_names),
        label_center=label_center,
        label_scale=label_scale,
    )
