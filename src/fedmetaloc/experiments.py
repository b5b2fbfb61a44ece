"""Experiment configuration and orchestration behind the command-line interface.

One JSON config file describes an experiment end to end: data sources (CSV
datasets, each with its partition, and/or synthetic environments), the
train/test membership, preprocessing, model and federation hyperparameters,
and the meta-test protocol, each JSON object (and schema sidecar) built at
load by one parser, ``_section``. Preprocess writes one bundle per produced
task under ``tasks/``; every later phase takes its tasks from the config's
``train_tasks`` and ``test_tasks``. Every command is reproducible from
(config, seed) alone; outputs land under ``out/{experiment}/{phase}/...``,
which each phase empties, with every directory that depends on it, before
its first write, and are written atomically (:mod:`fedmetaloc.fileio`).
"""

from __future__ import annotations

import json
import shutil
import types
import typing
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import federation, metrics
from .data import (
    PARTITIONS,
    FingerprintDataset,
    LocalizationTask,
    SchemaConfig,
    SyntheticEnvSpec,
    load_csv,
    load_task_bundle,
    make_task,
    read_bundle_meta,
    save_task_bundle,
    synth_environment,
)
from .errors import ConfigError, DataError, check_fields, constrained, field_types, finite, shown
from .federation import (
    AdaptationTrace, FederationParams, MetaModel, MetaTestParams, load_checkpoint, meta_test, save_checkpoint,
)
from .fileio import column_indices, read_csv, write_csv, write_json
from .metrics import TheoryProbeParams, cdf_curve
from .model import ModelConfig
from .preprocess import PreprocessConfig, meta_signal_dim, preprocess_dataset

MODES = ("MI", "RI")


@dataclass(frozen=True)
class TaskOptions:
    """Keys of any ``datasets`` or ``synthetic_envs`` entry: its task id (unused
    when a partition names the tasks) and its own support ratio over the config's."""

    id: str
    support_ratio: float | None = None

    __post_init__ = check_fields


@dataclass(frozen=True)
class DatasetSource:
    """A ``datasets`` entry's CSV, parsed schema sidecar and partition rule (:func:`data.load_csv`)."""

    csv: Path
    schema: SchemaConfig
    partition: str = constrained("none", one_of=PARTITIONS)

    __post_init__ = check_fields


@dataclass
class ExperimentConfig:
    name: str
    out_dir: Path
    datasets: list[tuple[DatasetSource, TaskOptions]] = field(default_factory=list)
    synthetic_envs: list[tuple[SyntheticEnvSpec, TaskOptions]] = field(default_factory=list)
    # a task listed twice would be trained or tested twice
    train_tasks: list[str] = field(default_factory=list, metadata={"unique": True})
    test_tasks: list[str] = field(default_factory=list, metadata={"unique": True})
    support_ratio: float = 0.7
    split_seed: int = constrained(0, ge=0)
    d_from_median: bool = False
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    federation: FederationParams = field(default_factory=FederationParams)
    meta_test: MetaTestParams = field(default_factory=MetaTestParams)
    theory_probe: TheoryProbeParams = field(default_factory=TheoryProbeParams)
    workers: int = constrained(1, ge=1)

    def __post_init__(self) -> None:
        check_fields(self)
        overlap = set(self.train_tasks) & set(self.test_tasks)
        if overlap:
            raise ConfigError(f"train and test task lists overlap: {sorted(overlap)}")
        if not self.datasets and not self.synthetic_envs:
            raise ConfigError("no data source: set datasets or synthetic_envs")
        for key in ("datasets", "synthetic_envs"):  # the one check of each entry's split ratio
            for i, (_, opts) in enumerate(getattr(self, key)):
                ratio = self.split_ratio(opts)
                if not 0.0 < ratio < 1.0:
                    own = "" if opts.support_ratio is None else f"{key}[{i}] ({opts.id})."
                    raise ConfigError(f"{own}support_ratio must be in (0, 1) for task {opts.id}, got {ratio}")

    def split_ratio(self, opts: TaskOptions) -> float:
        """The support fraction of an entry's tasks: the entry's own, else the config's."""
        return self.support_ratio if opts.support_ratio is None else opts.support_ratio

    # -- path conventions -------------------------------------------------
    @property
    def experiment_dir(self) -> Path:
        return self.out_dir / self.name

    @property
    def tasks_dir(self) -> Path:
        return self.experiment_dir / "tasks"

    @property
    def train_dir(self) -> Path:
        return self.experiment_dir / "train"

    @property
    def test_dir(self) -> Path:
        return self.experiment_dir / "test"

    @property
    def report_dir(self) -> Path:
        return self.experiment_dir / "report"

    @property
    def checkpoint_path(self) -> Path:
        return self.train_dir / "meta_final.npz"


_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,), dict: (dict,)}


def _typed(value, hint, where: str):
    """``value`` checked against the field type ``hint``: a section is built by
    :func:`_section`, a JSON list becomes a tuple (or list), ``X | None`` admits
    null, an integer in a float field becomes a float (one too large for a
    float stays an integer, which the field check rejects), and a bool is no
    number. Paths and entries are the caller's."""
    if is_dataclass(hint):
        return _section(hint, value, where)
    if isinstance(hint, types.UnionType):
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (tuple, list):
        fixed = origin is tuple and Ellipsis not in args
        if not isinstance(value, list) or (fixed and len(value) != len(args)):
            raise ConfigError(f"{where} must be a list{f' of {len(args)}' if fixed else ''}, got {shown(value)}")
        return origin(_typed(item, args[0], f"{where}[{i}]") for i, item in enumerate(value))
    allowed = _SCALARS.get(hint)
    if allowed and (not isinstance(value, allowed) or (isinstance(value, bool) and hint is not bool)):
        raise ConfigError(f"{where} must be {'an object' if hint is dict else hint.__name__}, got {shown(value)}")
    return float(value) if hint is float and finite(value) else value


def _section(cls, raw, where: str, **built):
    """The config dataclass ``cls`` from the JSON object ``raw``: every config
    object is built here. Each key must name a field and hold its JSON type
    (``built``: fields the caller built from their keys); ``__post_init__``
    checks the constraints, and every error names ``where``."""
    hints = field_types(cls)
    unknown = sorted(set(_typed(raw, dict, where)) - set(hints))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}")
    kwargs = {k: _typed(v, hints[k], f"{where}.{k}") for k, v in raw.items() if k not in built}
    try:
        return cls(**kwargs, **built)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _entry(raw: dict, where: str, cls, default_id: str, **built) -> tuple:
    """A ``datasets`` or ``synthetic_envs`` entry: ``cls`` from its own keys,
    and its :class:`TaskOptions`."""
    own = {k: v for k, v in raw.items() if k in TaskOptions.__dataclass_fields__}
    opts = _section(TaskOptions, {"id": default_id, **own}, where)
    rest = {k: v for k, v in raw.items() if k not in own}
    return _section(cls, rest, f"{where} ({opts.id})", **built), opts


def _read_json(path: Path, where: str):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}: cannot read {path} as JSON: {exc}") from exc


def _dataset(raw: dict, where: str, base: Path) -> tuple[DatasetSource, TaskOptions]:
    csv, schema = (base / _typed(raw.get(key), str, f"{where}.{key}") for key in ("csv", "schema"))
    if not csv.exists():
        raise ConfigError(f"{where}.csv: file does not exist: {csv}")
    schema = _section(SchemaConfig, _read_json(schema, f"{where}.schema"), f"{where}.schema")
    return _entry(raw, where, DatasetSource, csv.stem, csv=csv, schema=schema)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse and check one experiment JSON file and the schema sidecars it
    names, through :func:`_section`: an unknown key, a wrong JSON type or an
    out-of-range value is a :class:`ConfigError` here, before any phase runs."""
    path = Path(path)
    raw = _typed(_read_json(path, "config"), dict, "config")
    base = path.parent.resolve()
    entries = {k: _typed(raw.get(k, []), list[dict], f"config.{k}") for k in ("datasets", "synthetic_envs")}
    out_dir = _typed(raw.get("out_dir"), str | None, "config.out_dir") or "out"
    return _section(
        ExperimentConfig, {"name": path.stem, **raw}, "config", out_dir=base / out_dir,
        datasets=[_dataset(e, f"config.datasets[{i}]", base) for i, e in enumerate(entries["datasets"])],
        synthetic_envs=[
            _entry(e, f"config.synthetic_envs[{i}]", SyntheticEnvSpec, f"SYN{i:02d}")
            for i, e in enumerate(entries["synthetic_envs"])
        ],
    )


# Output directories in dependency order: a phase empties its own and every later one. The
# theory probe reads tasks/ and train/, and empties only theory/: no phase reads its one file.
OUTPUT_DIRS = ("tasks", "train", "theory", "test", "report")


def _clear(config: ExperimentConfig, own: str) -> None:
    """Remove the output directory ``own`` and, unless it is ``theory``, every
    directory after it in :data:`OUTPUT_DIRS`, before the phase's first write;
    a failed removal raises."""
    for name in (own,) if own == "theory" else OUTPUT_DIRS[OUTPUT_DIRS.index(own) :]:
        if (config.experiment_dir / name).exists():
            shutil.rmtree(config.experiment_dir / name)


# ---------------------------------------------------------------------------
# preprocess phase
# ---------------------------------------------------------------------------


def _collect_environments(config: ExperimentConfig) -> dict[str, tuple[FingerprintDataset, TaskOptions]]:
    """Every environment of the config's sources by task id, each checked where
    it enters: a new task id, and finite raw RSSI and coordinates (an error
    names the CSV file or synthetic entry, the task and the column)."""
    envs = [(source.csv, name or opts.id, dataset, opts) for source, opts in config.datasets
            for name, dataset in load_csv(source.csv, source.schema, source.partition)]
    envs += [(f"config.synthetic_envs[{i}]", opts.id, synth_environment(spec, config.preprocess.sentinel), opts)
             for i, (spec, opts) in enumerate(config.synthetic_envs)]
    checked: dict[str, tuple[FingerprintDataset, TaskOptions]] = {}
    for where, env_id, dataset, opts in envs:
        if env_id in checked:
            raise ConfigError(f"duplicate task id {env_id!r}")
        for values, names in ((dataset.rssi, dataset.ap_names), (dataset.coords, dataset.coord_names)):
            bad = ~np.isfinite(values).all(axis=0)
            if bad.any():
                raise DataError(f"{where}: task {env_id}: column {names[bad.argmax()]} holds a non-finite value")
        checked[env_id] = dataset, opts
    return checked


def cmd_preprocess(config: ExperimentConfig) -> list[str]:
    """Build per-task bundles: preprocess each environment, split, and save.
    Every task is built, and so every input checked, before ``tasks/`` is emptied."""
    envs = sorted(_collect_environments(config).items())
    task_ids = [env_id for env_id, _ in envs]
    for listed in (*config.train_tasks, *config.test_tasks):
        if listed not in task_ids:
            raise ConfigError(f"task {listed!r} listed in config but not produced; have {task_ids}")
    built = []
    for split_seed in np.random.SeedSequence(config.split_seed).generate_state(len(envs)):
        env_id, (dataset, opts) = envs.pop(0)  # each raw dataset is released once its task is built
        try:
            processed, report = preprocess_dataset(dataset, config.preprocess)
        except DataError as exc:  # AP selection or the powed range
            raise DataError(f"task {env_id}: {exc}") from exc
        built.append((make_task(env_id, processed, config.split_ratio(opts), int(split_seed)), report))
    _clear(config, "tasks")
    for task, report in built:
        save_task_bundle(task, config.tasks_dir, extra={"preprocess": asdict(report)})
    return task_ids


def _load_tasks(config: ExperimentConfig, ids: Sequence[str]) -> list[LocalizationTask]:
    """The bundles of ``ids``, each of which must have ``model.p`` coordinates."""
    tasks = [load_task_bundle(config.tasks_dir / task_id) for task_id in ids]
    for task in tasks:
        if task.p != config.model.p:
            raise ConfigError(f"model.p is {config.model.p}, but task {task.task_id} has {task.p} coordinates")
    return tasks


def resolved_model_config(config: ExperimentConfig) -> ModelConfig:
    """The experiment's model config: ``config.model``, with the latent width
    set under ``d_from_median`` from the median AP count that the
    ``train_tasks`` bundles' ``meta.json`` give. Meta-train, meta-test and the
    theory probe build their models from it; a checkpoint supplies only the
    trained shared part."""
    if not (config.d_from_median and config.train_tasks):
        return config.model
    d = meta_signal_dim([read_bundle_meta(config.tasks_dir / task_id)["m"] for task_id in config.train_tasks])
    return replace(config.model, d=d)


# ---------------------------------------------------------------------------
# meta-train phase
# ---------------------------------------------------------------------------


def write_round_log(path: Path, train_ids: Sequence[str], reports: Sequence[federation.RoundReport]) -> None:
    """One row of losses per round, under a header naming every client (sorted) even when no round ran."""
    client_ids = sorted(train_ids)
    write_csv(
        path,
        ["round", "mean_query_loss", *client_ids],
        [[r.mean_query_loss, *(r.client_losses[c] for c in client_ids)] for r in reports],
        index=[r.round for r in reports],
    )


def cmd_meta_train(config: ExperimentConfig) -> tuple[MetaModel, list[federation.RoundReport]]:
    if not config.train_tasks:
        raise ConfigError("config.train_tasks is empty; meta-train needs at least one training task")
    train_tasks = _load_tasks(config, config.train_tasks)
    model_config = resolved_model_config(config)
    fed = config.federation
    meta, clients = federation.server_init(train_tasks, model_config, fed)
    _clear(config, "train")

    def on_round(report: federation.RoundReport, current: MetaModel) -> None:
        if fed.checkpoint_every and report.round % fed.checkpoint_every == 0:
            save_checkpoint(config.train_dir / "checkpoints" / f"meta_round_{report.round:05d}.npz", current)

    meta, reports = federation.meta_train(meta, clients, fed, on_round=on_round)
    write_round_log(config.train_dir / "round_log.csv", config.train_tasks, reports)
    save_checkpoint(config.checkpoint_path, meta)
    return meta, reports


# ---------------------------------------------------------------------------
# meta-test phase
# ---------------------------------------------------------------------------


def _trained_theta(config: ExperimentConfig, checkpoint: str | Path, model_config: ModelConfig) -> np.ndarray:
    """The trained shared part in ``checkpoint``, whose layer widths must be
    those of ``model_config``; no other setting of the checkpoint is read.
    It must have been meta-trained on ``config.train_tasks``, which the header
    of ``train/round_log.csv`` records, so that no test task was trained on."""
    meta = load_checkpoint(checkpoint)
    trained_on, listed = read_csv(config.train_dir / "round_log.csv")[0][2:], sorted(config.train_tasks)
    if trained_on != listed:
        msg = f"checkpoint {checkpoint} was meta-trained on {trained_on}, config.train_tasks lists {listed}"
        raise DataError(f"{msg}; rerun meta-train")
    trained, expected = meta.widths, model_config.part_sizes("meta")
    if trained != expected:
        raise ConfigError(f"checkpoint {checkpoint}: shared-part widths {trained} differ from the config's {expected}")
    return meta.params


def run_dir(config: ExperimentConfig, task_id: str, mode: str, seed: int) -> Path:
    return config.test_dir / task_id / mode / str(seed)


def write_trace(directory: Path, trace: AdaptationTrace, per_sample: np.ndarray) -> None:
    write_csv(
        directory / "trace.csv",
        ["step", "support_loss", "query_mde"],
        list(zip(trace.support_loss, trace.query_mde)),
        index=range(1, len(trace.query_mde) + 1),
    )
    write_csv(directory / "errors_final.csv", ["error"], np.reshape(per_sample, (-1, 1)))


def _csv_columns(path: Path, names: Sequence[str]) -> list[list[float]]:
    """The named columns of a CSV written by ``write_csv``, as lists of floats."""
    header, values = read_csv(path)
    return [values[:, col].tolist() for col in column_indices(path, header, names)]


def read_trace(directory: Path) -> AdaptationTrace:
    return AdaptationTrace(*_csv_columns(directory / "trace.csv", ["support_loss", "query_mde"]))


def read_final_errors(directory: Path) -> list[float]:
    return _csv_columns(directory / "errors_final.csv", ["error"])[0]


def _run_one_test(args) -> None:
    """One (task, mode, seed) fine-tuning run; module-level so process pools can pickle it."""
    config, model_config, theta, task, mode, seed = args
    _, trace, per_sample = meta_test(task, model_config, theta if mode == "MI" else None, config.meta_test, seed)
    write_trace(run_dir(config, task.task_id, mode, seed), trace, per_sample)


def cmd_meta_test(config: ExperimentConfig, checkpoint: str | Path | None = None) -> dict:
    if not config.test_tasks:
        raise ConfigError("config.test_tasks is empty; meta-test needs at least one test task")
    model_config = resolved_model_config(config)
    theta = _trained_theta(config, checkpoint or config.checkpoint_path, model_config)
    tasks = _load_tasks(config, config.test_tasks)
    mt = config.meta_test
    _clear(config, "test")

    jobs = [(config, model_config, theta, task, mode, seed) for task in tasks for seed in mt.seeds for mode in MODES]
    if config.workers > 1:
        # imported here: a single-process phase does not pay for the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            list(pool.map(_run_one_test, jobs))
    else:
        for job in jobs:
            _run_one_test(job)
    return cmd_report(config)


# ---------------------------------------------------------------------------
# report phase
# ---------------------------------------------------------------------------


def _run_record(seed: int, series: Sequence[float], mt: MetaTestParams) -> dict:
    """What the report keeps of one run's query MDE series."""
    return {
        "seed": seed,
        "mde_final": series[-1] if series else None,
        "steps_to_target": {str(t): metrics.steps_to_accuracy(series, t) for t in mt.targets_m},
        "mde_at_step": {str(n): series[n - 1] if len(series) >= n else None for n in mt.step_checkpoints},
    }


def _mean(values: Sequence[float]) -> float | None:
    return float(np.mean(values)) if values else None


def _mean_steps(steps: Sequence[int | None], budget: int) -> float:
    """Mean steps to a target, counting a run that never reaches it as budget + 1."""
    return float(np.mean([budget + 1 if s is None else s for s in steps]))


def _at_step(records: Sequence[dict], n_star: str) -> list[float]:
    """The records' query MDEs at step ``n_star``, of the runs that got there."""
    return [r["mde_at_step"][n_star] for r in records if r["mde_at_step"][n_star] is not None]


def _aggregate_mode(records: list[dict], mt: MetaTestParams) -> dict:
    """One mode's speeds over its run records. A run that never reaches a
    target has accuracy-based speed 0 and counts in ``not_reached``."""
    agg: dict = {"records": records, "im_accuracy": {}, "im_steps": {}, "not_reached": {}}
    for target in map(str, mt.targets_m):
        steps = [r["steps_to_target"][target] for r in records]
        speeds = [0.0 if n is None else metrics.accuracy_speed_from_steps(n, mt.batch_size) for n in steps]
        agg["im_accuracy"][target] = float(np.mean(speeds))
        agg["not_reached"][target] = steps.count(None)
    for n_star in map(str, mt.step_checkpoints):
        agg["im_steps"][n_star] = _mean(
            [metrics.step_speed_from_mde(v, mt.batch_size) for v in _at_step(records, n_star)]
        )
    agg["mde_final_mean"] = _mean([r["mde_final"] for r in records if r["mde_final"] is not None])
    return agg


def paired_step_summary(report: dict, target_m: float, budget: int) -> dict:
    """Compare MI and RI steps to ``target_m`` seed by seed, from the run
    records of ``report`` (as :func:`cmd_report` returns it, with at least
    one test task). A target the report does not hold is a ConfigError.

    For each meta-test seed, each mode's steps are averaged over the test
    tasks, with a run that never reaches the target counted as ``budget`` + 1.
    Returns the number of seeds where MI needs fewer steps ("wins"), the
    median of the per-seed reductions (RI - MI) / RI, and each mode's mean.
    """
    entries = list(report["tasks"].values())
    target = str(float(target_m))
    configured = list(entries[0]["MI"]["records"][0]["steps_to_target"])
    if target not in configured:
        raise ConfigError(f"target {target} m is not in meta_test.targets_m [{', '.join(configured)}]")
    per_seed = [  # the records of a mode hold one run per seed, in the config's seed order
        {mode: _mean_steps([e[mode]["records"][i]["steps_to_target"][target] for e in entries], budget)
         for mode in MODES}
        for i in range(len(entries[0]["MI"]["records"]))
    ]
    return {
        "seeds": len(per_seed),
        "wins": sum(p["MI"] < p["RI"] for p in per_seed),
        "median_reduction": float(np.median([(p["RI"] - p["MI"]) / p["RI"] for p in per_seed])),
        "mean_steps": {mode: float(np.mean([p[mode] for p in per_seed])) for mode in MODES},
    }


def cmd_report(config: ExperimentConfig) -> dict:
    """Rebuild the metrics report and CDF curves from trace files on disk.

    Each run's record is read off its trace once; every speed, count, mean
    and improvement is computed from the records. Every run's files are read
    before any report file is written, so a missing or malformed one leaves
    the previous report whole.
    """
    if not config.test_tasks:
        raise ConfigError("config.test_tasks is empty; report needs at least one test task")
    mt = config.meta_test
    report: dict = {"batch_size": mt.batch_size, "tasks": {}}
    cdfs: dict[Path, list[tuple[float, float]]] = {}
    for task_id in config.test_tasks:
        task_entry: dict = {}
        for mode in MODES:
            records = []
            errors: list[float] = []
            for seed in mt.seeds:
                directory = run_dir(config, task_id, mode, seed)
                if not (directory / "trace.csv").exists():
                    raise DataError(f"missing trace for {task_id}/{mode}/{seed}; run meta-test first")
                records.append(_run_record(seed, read_trace(directory).query_mde, mt))
                errors.extend(read_final_errors(directory))
            task_entry[mode] = _aggregate_mode(records, mt)
            if errors:
                cdfs[config.report_dir / f"{task_id}_{mode}_cdf.csv"] = cdf_curve(errors)

        by_mode = [task_entry[mode]["records"] for mode in MODES]
        improvement: dict = {"steps": {}, "accuracy": {}}
        for target in map(str, mt.targets_m):
            # each mode holds one record per seed, and a mean of steps is >= 1
            mean_steps = [_mean_steps([r["steps_to_target"][target] for r in records], mt.steps) for records in by_mode]
            improvement["steps"][target] = metrics.improvement_percent(*mean_steps)
        for n_star in map(str, mt.step_checkpoints):
            mi, ri = (_mean(_at_step(records, n_star)) for records in by_mode)
            improvement["accuracy"][n_star] = (
                metrics.improvement_percent(mi, ri) if mi is not None and ri is not None and ri > 0 else None
            )
        task_entry["improvement"] = improvement
        report["tasks"][task_id] = task_entry

    _clear(config, "report")
    for path, curve in cdfs.items():
        write_csv(path, ["error", "cumulative_fraction"], curve)
    write_json(config.report_dir / "metrics.json", report)
    return report


# ---------------------------------------------------------------------------
# theory probe phase
# ---------------------------------------------------------------------------


def cmd_theory_probe(config: ExperimentConfig) -> dict:
    probe_ids = config.test_tasks or config.train_tasks
    if not probe_ids:
        raise ConfigError("config.test_tasks and config.train_tasks are both empty; the theory probe needs a task")
    task = _load_tasks(config, probe_ids[:1])[0]
    model_config = resolved_model_config(config)
    # a train/ without its checkpoint is a meta-train that did not finish, which _trained_theta refuses
    theta = _trained_theta(config, config.checkpoint_path, model_config) if config.train_dir.exists() else None
    _clear(config, "theory")
    payload = {"task": task.task_id, **metrics.run_theory_probe(task, model_config, theta, config.theory_probe)}
    write_json(config.experiment_dir / "theory" / "probe_report.json", payload)
    return payload
