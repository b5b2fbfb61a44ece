"""Dataset ingestion, task construction, and the synthetic environment generator.

A fingerprint dataset is a matrix of RSSI readings (rows are measurement
samples, columns are access points) with per-row location labels. A CSV
source's building/floor group labels only decide how :func:`load_csv` splits
it into per-environment datasets. Tasks are per-environment support/query
splits of such datasets; the synthetic generator stands in for public
datasets in tests and desk-scale experiments.

A task bundle stores each split as one float64 ``.npy`` array next to a
``meta.json`` that names its columns and counts its rows. Dataset CSVs are
parsed by :func:`fileio.read_csv`. Every source marks an AP that a sample did
not detect with one value, the preprocessing ``sentinel``
(:data:`DEFAULT_SENTINEL` unless configured), which the caller passes to the
synthetic generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, check_fields, constrained
from .fileio import atomic_write, column_indices, read_csv, write_json

DEFAULT_SENTINEL = 100.0  # RSSI value of an AP a sample did not detect


@dataclass
class FingerprintDataset:
    """RSSI matrix [samples x APs] plus coordinates [samples x p]."""

    rssi: np.ndarray
    coords: np.ndarray
    ap_names: list[str]
    coord_names: list[str] = field(default_factory=lambda: ["x", "y"])

    def __post_init__(self) -> None:
        self.rssi = np.asarray(self.rssi, dtype=np.float64)
        self.coords = np.asarray(self.coords, dtype=np.float64)

    @property
    def n_samples(self) -> int:
        return self.rssi.shape[0]

    @property
    def n_aps(self) -> int:
        return self.rssi.shape[1]

    def select_rows(self, idx: np.ndarray) -> "FingerprintDataset":
        return replace(self, rssi=self.rssi[idx], coords=self.coords[idx])

    def select_aps(self, cols: Sequence[int]) -> "FingerprintDataset":
        cols = list(cols)
        return replace(
            self,
            rssi=self.rssi[:, cols],
            ap_names=[self.ap_names[i] for i in cols],
        )


@dataclass(frozen=True)
class SchemaConfig:
    """Column conventions of one CSV source, kept in a JSON sidecar whose keys
    are these fields; ``experiments`` parses it with the config. The value
    that marks a missing AP is ``PreprocessConfig.sentinel``, not the schema's."""

    coord_columns: tuple[str, ...] = constrained(nonempty=True, unique=True)
    ap_prefix: str | None = constrained(None, nonempty=True)
    ap_columns: tuple[str, ...] | None = constrained(None, unique=True)
    building_col: str | None = None
    floor_col: str | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        if (self.ap_prefix is None) == (not self.ap_columns):
            raise ConfigError("schema needs exactly one of ap_prefix and a non-empty ap_columns")


PARTITIONS = ("none", "building", "floor", "building_floor")


def load_csv(
    path: str | Path, schema: SchemaConfig, partition: str = "none"
) -> list[tuple[str | None, FingerprintDataset]]:
    """The task datasets of a fingerprint CSV, every cell of which must be a
    number: for ``partition`` "none" one unnamed dataset of every row, else
    one per group of the rule's labels, named B{i}_F{j} / B{i} / F{j} in
    ascending label order, each keeping its rows in file order. Missing-AP
    markers are kept for preprocessing to impute; every group label the
    schema names is read, truncated toward zero."""
    rules = [] if partition == "none" else partition.split("_")  # building_floor: building, then floor
    named = (("building", schema.building_col), ("floor", schema.floor_col))
    label_cols = {rule: col for rule, col in named if col is not None}
    for rule in rules:
        if rule not in label_cols:
            raise DataError(f"{path}: partition by {rule} requires {rule} labels; the schema names no {rule}_col")
    header, values = read_csv(path)
    header = [name.strip() for name in header]
    ap_names = list(schema.ap_columns or (name for name in header if name.startswith(schema.ap_prefix)))
    both = sorted(set(ap_names) & {*schema.coord_columns, *label_cols.values()})
    if both:
        raise DataError(f"{path}: column(s) {both} would be read both as APs and as coordinates or labels")
    cols = column_indices(path, header, [*ap_names, *schema.coord_columns, *label_cols.values()])
    if not ap_names:
        raise DataError(f"{path}: no AP columns match prefix {schema.ap_prefix!r}")
    if len(values) == 0:
        raise DataError(f"{path}: no data rows")
    m, p = len(ap_names), len(schema.coord_columns)
    labels = values[:, cols[m + p :]]
    if not (np.abs(labels) < 2.0**63).all():  # NaN fails this too
        raise DataError(f"{path}: a {' or '.join(label_cols.values())} label is NaN or outside int64")
    dataset = FingerprintDataset(
        rssi=values[:, cols[:m]],
        coords=values[:, cols[m : m + p]],
        ap_names=ap_names,
        coord_names=list(schema.coord_columns),
    )
    if not rules:
        return [(None, dataset)]
    by = labels[:, [list(label_cols).index(rule) for rule in rules]].astype(np.int64)
    keys, group = np.unique(by, axis=0, return_inverse=True)
    group = group.ravel()  # numpy 2.0.0 returns it 2-D
    return [
        ("_".join(f"{rule[0].upper()}{label}" for rule, label in zip(rules, key)),
         dataset.select_rows(np.flatnonzero(group == k)))
        for k, key in enumerate(keys.tolist())
    ]


def split_support_query(
    dataset: FingerprintDataset, ratio: float, seed: int
) -> tuple[FingerprintDataset, FingerprintDataset]:
    """Seeded uniform shuffle; the first ceil(ratio * S) rows, 0 < ratio < 1,
    become the support set."""
    if dataset.n_samples < 2:
        raise DataError(f"need at least 2 samples to split, got {dataset.n_samples}")
    perm = np.random.default_rng(seed).permutation(dataset.n_samples)
    n_support = math.ceil(ratio * dataset.n_samples)
    return dataset.select_rows(perm[:n_support]), dataset.select_rows(perm[n_support:])


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
) -> LocalizationTask:
    """Split a per-environment dataset and fit its label scaling; a data error names the task."""
    try:
        support, query = split_support_query(dataset, ratio, seed)
    except DataError as exc:  # fewer than 2 samples
        raise DataError(f"task {task_id}: {exc}") from exc
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

    num_aps: int = constrained(ge=1)
    area: tuple[float, float] = constrained((40.0, 25.0), gt=0)
    samples: int = constrained(400, ge=1)
    tx_power_dbm: float = -30.0
    path_loss_exponent: float = constrained(3.0, gt=0)
    noise_sigma: float = constrained(2.0, ge=0)
    seed: int = constrained(0, ge=0)
    ap_seed: int | None = constrained(None, ge=0)
    ap_jitter: float = constrained(0.0, ge=0)
    num_walls: int = constrained(0, ge=0)
    wall_loss_db: float = constrained(8.0, ge=0)
    sensitivity_dbm: float | None = None

    __post_init__ = check_fields


MIN_PATH_DISTANCE_M = 0.1  # clamp so co-located AP/sample never hits log(0)


def path_loss_rssi(distance_m: np.ndarray, tx_power_dbm: float, exponent: float) -> np.ndarray:
    """Log-distance model: ``P0 - 10 * gamma * log10(d / 1 m)`` with distance clamped."""
    d = np.maximum(distance_m, MIN_PATH_DISTANCE_M)
    return tx_power_dbm - 10.0 * exponent * np.log10(d)


CROSSING_BLOCK_ELEMENTS = 1 << 16  # sample rows per block: each [rows, W, A] float64 temporary near 512 KB


def _segment_crossings(samples: np.ndarray, aps: np.ndarray, walls: np.ndarray) -> np.ndarray:
    """Count proper crossings between rays AP->sample and wall segments.

    ``samples`` [S, 2], ``aps`` [A, 2], ``walls`` [W, 2, 2]; returns [S, A].
    APs are the innermost axis: differences that involve only a sample and a
    wall are taken at [S, W, 1], and the sample rows are processed in blocks
    so that no [rows, W, A] temporary exceeds :data:`CROSSING_BLOCK_ELEMENTS`.
    Every element's arithmetic is that of one broadcast over all rows.
    """

    def cross(o, a, b):
        return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
            a[..., 1] - o[..., 1]
        ) * (b[..., 0] - o[..., 0])

    q = aps[None, None, :, :]  # AP end      [1, 1, A, 2]
    c = walls[None, :, None, 0, :]
    d = walls[None, :, None, 1, :]
    cd_q = cross(c, d, q)
    counts = np.empty((len(samples), len(aps)), dtype=np.intp)
    block = max(1, CROSSING_BLOCK_ELEMENTS // (len(aps) * len(walls)))
    for lo in range(0, len(samples), block):
        p = samples[lo : lo + block, None, None, :]  # sample end  [rows, 1, 1, 2]
        d1 = cross(p, q, c) * cross(p, q, d)
        d2 = cross(c, d, p) * cd_q
        ((d1 < 0) & (d2 < 0)).sum(axis=1, out=counts[lo : lo + block])
    return counts


def synth_environment(spec: SyntheticEnvSpec, sentinel: float = DEFAULT_SENTINEL) -> FingerprintDataset:
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
    dist = np.square(locs[:, None, 0] - ap_pos[None, :, 0])
    dist += np.square(locs[:, None, 1] - ap_pos[None, :, 1])
    np.sqrt(dist, out=dist)
    rssi = path_loss_rssi(dist, spec.tx_power_dbm, spec.path_loss_exponent)
    if spec.num_walls > 0:
        rssi = rssi - spec.wall_loss_db * _segment_crossings(locs, ap_pos, walls)
    if spec.noise_sigma > 0:
        rssi = rssi + rng.normal(0.0, spec.noise_sigma, size=rssi.shape)
    if spec.sensitivity_dbm is not None:
        # below the receiver floor an AP is not detected: it reads the missing-AP marker
        rssi = np.where(rssi < spec.sensitivity_dbm, sentinel, rssi)
    ap_names = [f"AP{i:03d}" for i in range(spec.num_aps)]
    return FingerprintDataset(rssi=rssi, coords=locs, ap_names=ap_names)


def _write_split(path: Path, split: FingerprintDataset) -> None:
    with atomic_write(path, binary=True) as fh:
        np.save(fh, np.hstack([split.rssi, split.coords]))


def save_task_bundle(task: LocalizationTask, directory: str | Path, extra: dict | None = None) -> Path:
    """Write the canonical bundle ``{task_id}/``: support.npy, query.npy, meta.json.

    Each split is one float64 ``[rows, m + p]`` array in ``.npy`` format, the
    RSSI columns first and the coordinates last. ``meta.json`` holds the AP
    and coordinate names, ``m`` and the row count of each split.
    """
    directory = Path(directory) / task.task_id
    _write_split(directory / "support.npy", task.support)
    _write_split(directory / "query.npy", task.query)
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


def _read_split(path: Path, rows: int, ap_names: list[str], coord_names: list[str]) -> FingerprintDataset:
    """One split array, checked against its ``meta.json``: float64, 2-D,
    ``[rows, m + p]``, every value finite."""
    try:
        with path.open("rb") as fh:
            values = np.lib.format.read_array(fh, allow_pickle=False)
    except FileNotFoundError:
        raise DataError(f"missing file: {path}") from None
    except ValueError as exc:  # empty, truncated, pickled, or not .npy at all
        raise DataError(f"{path}: not a .npy array: {exc}") from exc
    m = len(ap_names)
    width = m + len(coord_names)
    if values.dtype != np.float64 or values.ndim != 2:
        raise DataError(f"{path}: expected a 2-D float64 array, found {values.ndim}-D {values.dtype}")
    if values.shape[0] != rows:
        raise DataError(f"{path}: {values.shape[0]} rows, but meta.json gives {rows}")
    if values.shape[1] != width:
        raise DataError(f"{path}: {values.shape[1]} columns, but meta.json gives m + p = {width}")
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataError(f"{path}: non-finite value {values[row, col]} at row {row}, column {col}")
    return FingerprintDataset(
        rssi=values[:, :m],
        coords=values[:, m:],
        ap_names=ap_names,
        coord_names=coord_names,
    )


def read_bundle_meta(directory: str | Path) -> dict:
    """The parsed ``meta.json`` of a bundle written by :func:`save_task_bundle`;
    anything malformed is a :class:`DataError`. Its ``task_id`` must be the
    bundle directory's name, ``m`` >= 1 the number of AP names, ``n_support``
    and ``n_query`` >= 1, and the label scaling ``p`` finite centers and ``p``
    finite scales > 0, ``p`` being the number of coordinate names."""
    directory = Path(directory)
    meta_path = directory / "meta.json"
    if not meta_path.exists():
        raise DataError(f"not a task bundle (no meta.json): {directory}; run preprocess first")
    try:
        raw = json.loads(meta_path.read_text())
        meta = {
            "task_id": raw["task_id"],
            "m": int(raw["m"]),
            "ap_names": list(raw["ap_names"]),
            "coord_names": list(raw["coord_names"]),
            "n_support": int(raw["n_support"]),
            "n_query": int(raw["n_query"]),
            "label_center": np.array(raw["label_center"], dtype=np.float64),
            "label_scale": np.array(raw["label_scale"], dtype=np.float64),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {meta_path}: {type(exc).__name__}: {exc}") from exc
    if meta["task_id"] != directory.name:
        raise DataError(
            f"malformed {meta_path}: task_id {meta['task_id']!r} differs from the bundle directory's {directory.name!r}"
        )
    for key in ("m", "n_support", "n_query"):
        if meta[key] < 1:
            raise DataError(f"malformed {meta_path}: {key} must be >= 1, got {meta[key]}")
    if len(meta["ap_names"]) != meta["m"]:
        raise DataError(f"malformed {meta_path}: {len(meta['ap_names'])} AP names for m = {meta['m']}")
    p = len(meta["coord_names"])
    for key in ("label_center", "label_scale"):
        if meta[key].shape != (p,) or not np.isfinite(meta[key]).all():
            raise DataError(f"malformed {meta_path}: {key} must be {p} finite numbers, got {meta[key].tolist()}")
    if (meta["label_scale"] <= 0).any():
        raise DataError(f"malformed {meta_path}: label_scale must be > 0, got {meta['label_scale'].tolist()}")
    return meta


def load_task_bundle(directory: str | Path) -> LocalizationTask:
    """Read a bundle written by :func:`save_task_bundle`. Its ``meta.json``
    (:func:`read_bundle_meta`) is the one source of the names and shapes: each
    array must be float64 with ``n_support`` or ``n_query`` rows and ``m + p``
    columns, all finite. Anything malformed is a :class:`DataError`."""
    directory = Path(directory)
    meta = read_bundle_meta(directory)
    names = meta["ap_names"], meta["coord_names"]
    return LocalizationTask(
        task_id=meta["task_id"],
        support=_read_split(directory / "support.npy", meta["n_support"], *names),
        query=_read_split(directory / "query.npy", meta["n_query"], *names),
        label_center=meta["label_center"],
        label_scale=meta["label_scale"],
    )
