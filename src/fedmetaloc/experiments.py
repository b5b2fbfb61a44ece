"""Experiment configuration and orchestration behind the command-line interface.

One JSON config file describes an experiment end to end: data sources (CSV
datasets and/or synthetic environments), the task partition and train/test
membership, preprocessing, model and federation hyperparameters, and the
meta-test protocol. Every command is reproducible from (config, seed) alone;
outputs land under ``out/{experiment}/{phase}/...`` and files are always
rewritten whole and atomically (:mod:`fedmetaloc.fileio`), never appended.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import federation, metrics, nn
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
    synth_environment,
)
from .errors import ConfigError, DataError
from .federation import AdaptationTrace, MetaModel, TraceStep, meta_test
from .fileio import read_csv, write_csv, write_json
from .metrics import TheoryProbeReport, cdf_curve
from .model import OPTIMIZERS, ModelConfig, load_checkpoint, save_checkpoint
from .preprocess import PreprocessConfig, meta_signal_dim, preprocess_dataset

OUT_ROOT_ENV = "FEDMETALOC_OUT"


@dataclass(frozen=True)
class FederationParams:
    rounds: int = 200
    local_steps: int = 5
    eta: float = 0.001
    batch_size: int = 32
    seed: int = 0
    checkpoint_every: int = 50
    early_stop_tol: float = 1e-5
    early_stop_patience: int = 20
    aggregation: str = "gradient"

    def __post_init__(self) -> None:
        if self.rounds < 0 or self.local_steps < 0:
            raise ConfigError("rounds and local_steps must be >= 0")
        if self.eta <= 0 or self.batch_size < 1:
            raise ConfigError("eta must be > 0 and batch_size >= 1")
        if self.aggregation not in federation.AGGREGATIONS:
            raise ConfigError(f"aggregation must be 'gradient' or 'average', got {self.aggregation!r}")


@dataclass(frozen=True)
class MetaTestParams:
    steps: int = 100
    targets_m: tuple[float, ...] = (5.0,)
    step_checkpoints: tuple[int, ...] = (50, 100)
    seeds: tuple[int, ...] = (0,)
    batch_size: int = 32
    optimizer: str = "adam"

    def __post_init__(self) -> None:
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("meta-test steps must be >= 0 and batch_size >= 1")
        if any(n < 1 for n in self.step_checkpoints):
            raise ConfigError("step checkpoints must be >= 1")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"meta-test optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")


@dataclass(frozen=True)
class TheoryProbeParams:
    epsilon: float = 1e-3
    mu: float = 0.01
    max_steps: int = 200
    linearization_mu_list: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    linearization_steps: int = 5
    seed: int = 0


@dataclass
class ExperimentConfig:
    name: str
    out_dir: Path
    datasets: list[dict] = field(default_factory=list)
    synthetic_envs: list[tuple[str, SyntheticEnvSpec, dict]] = field(default_factory=list)
    partition: str = "none"
    train_tasks: list[str] = field(default_factory=list)
    test_tasks: list[str] = field(default_factory=list)
    support_ratio: float = 0.7
    split_seed: int = 0
    d_from_median: bool = False
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    federation: FederationParams = field(default_factory=FederationParams)
    meta_test: MetaTestParams = field(default_factory=MetaTestParams)
    theory_probe: TheoryProbeParams = field(default_factory=TheoryProbeParams)
    workers: int = 1

    def validate(self) -> None:
        overlap = set(self.train_tasks) & set(self.test_tasks)
        if overlap:
            raise ConfigError(f"train and test task lists overlap: {sorted(overlap)}")
        if not self.datasets and not self.synthetic_envs:
            raise ConfigError("config names no data source (datasets or synthetic_envs)")
        for entry in self.datasets:
            for key in ("csv", "schema"):
                if key not in entry:
                    raise ConfigError(f"dataset entry missing {key!r}: {entry}")
                if not Path(entry[key]).exists():
                    raise ConfigError(f"referenced file does not exist: {entry[key]}")

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


def _split_opts(entry: Mapping) -> dict:
    """An environment entry's own support/query split options, for ``make_task``."""
    opts = {}
    if "support_ratio" in entry:
        opts["ratio"] = float(entry["support_ratio"])
    if "support_region" in entry:
        opts["support_region"] = tuple(entry["support_region"])
    return opts


def _resolve_out_dir(raw: str | None, base: Path) -> Path:
    if raw:
        path = Path(raw)
    else:
        path = Path(os.environ.get(OUT_ROOT_ENV, "out"))
    return path if path.is_absolute() else base / path


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate one experiment JSON file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc

    base = path.parent.resolve()
    synth = []
    for i, entry in enumerate(raw.get("synthetic_envs", [])):
        entry = dict(entry)
        env_id = entry.pop("id", f"SYN{i:02d}")
        opts = _split_opts(entry)
        entry.pop("support_ratio", None)
        entry.pop("support_region", None)
        if "area" in entry:
            entry["area"] = tuple(entry["area"])
        try:
            synth.append((env_id, SyntheticEnvSpec(**entry), opts))
        except TypeError as exc:
            raise ConfigError(f"bad synthetic env entry {env_id!r}: {exc}") from exc
    datasets = []
    for entry in raw.get("datasets", []):
        entry = dict(entry)
        for key in ("csv", "schema"):
            if key in entry and not Path(entry[key]).is_absolute():
                entry[key] = str(base / entry[key])
        datasets.append(entry)

    def sub(cls, key, **extra):
        opts = dict(raw.get(key, {}))
        for tup_key in ("targets_m", "step_checkpoints", "seeds", "linearization_mu_list"):
            if tup_key in opts:
                opts[tup_key] = tuple(opts[tup_key])
        opts.update(extra)
        try:
            return cls(**opts)
        except TypeError as exc:
            raise ConfigError(f"bad {key} section: {exc}") from exc

    config = ExperimentConfig(
        name=raw.get("name", path.stem),
        out_dir=_resolve_out_dir(raw.get("out_dir"), base),
        datasets=datasets,
        synthetic_envs=synth,
        partition=raw.get("partition", "none"),
        train_tasks=list(raw.get("train_tasks", [])),
        test_tasks=list(raw.get("test_tasks", [])),
        support_ratio=float(raw.get("support_ratio", 0.7)),
        split_seed=int(raw.get("split_seed", 0)),
        d_from_median=bool(raw.get("d_from_median", False)),
        preprocess=sub(PreprocessConfig, "preprocess"),
        model=sub(ModelConfig, "model"),
        federation=sub(FederationParams, "federation"),
        meta_test=sub(MetaTestParams, "meta_test"),
        theory_probe=sub(TheoryProbeParams, "theory_probe"),
        workers=int(raw.get("workers", 1)),
    )
    config.validate()
    return config


# ---------------------------------------------------------------------------
# preprocess phase
# ---------------------------------------------------------------------------


def _collect_environments(
    config: ExperimentConfig,
) -> list[tuple[str, FingerprintDataset, dict]]:
    envs: list[tuple[str, FingerprintDataset, dict]] = []
    for entry in config.datasets:
        dataset = load_csv(entry["csv"], SchemaConfig.from_json(entry["schema"]))
        partition = entry.get("partition", config.partition)
        if partition and partition != "none":
            envs.extend((tid, ds, _split_opts(entry)) for tid, ds in partition_tasks(dataset, partition))
        else:
            envs.append((entry.get("id", Path(entry["csv"]).stem), dataset, _split_opts(entry)))
    for env_id, spec, opts in config.synthetic_envs:
        envs.append((env_id, synth_environment(spec), opts))
    seen = set()
    for env_id, _, _ in envs:
        if env_id in seen:
            raise ConfigError(f"duplicate task id {env_id!r}")
        seen.add(env_id)
    return envs


def cmd_preprocess(config: ExperimentConfig) -> list[str]:
    """Build per-task bundles: preprocess each environment, split, and save."""
    envs = _collect_environments(config)
    root = np.random.SeedSequence(config.split_seed)
    split_seeds = root.generate_state(len(envs))
    task_ids = []
    for (env_id, dataset, opts), split_seed in zip(sorted(envs, key=lambda e: e[0]), split_seeds):
        processed, report = preprocess_dataset(dataset, config.preprocess)
        task = make_task(
            env_id,
            processed,
            opts.get("ratio", config.support_ratio),
            int(split_seed),
            support_region=opts.get("support_region"),
        )
        save_task_bundle(task, config.tasks_dir, extra={"preprocess": report.to_dict()})
        task_ids.append(env_id)

    known = set(task_ids)
    for listed in (*config.train_tasks, *config.test_tasks):
        if listed not in known:
            raise ConfigError(f"task {listed!r} listed in config but not produced; have {sorted(known)}")
    index = {
        "all": task_ids,
        "train": config.train_tasks or [t for t in task_ids if t not in set(config.test_tasks)],
        "test": config.test_tasks,
    }
    write_json(config.experiment_dir / "tasks_index.json", index)
    return task_ids


def _load_index(config: ExperimentConfig) -> dict:
    path = config.experiment_dir / "tasks_index.json"
    if not path.exists():
        raise DataError(f"no task bundles found; run preprocess first (missing {path})")
    return json.loads(path.read_text())


def _load_tasks(config: ExperimentConfig, ids: Sequence[str]) -> list[LocalizationTask]:
    return [load_task_bundle(config.tasks_dir / task_id) for task_id in ids]


def resolved_model_config(config: ExperimentConfig, train_tasks: Sequence[LocalizationTask]) -> ModelConfig:
    """Optionally set the latent width from the median AP count of the cohort."""
    if not config.d_from_median:
        return config.model
    d = meta_signal_dim([t.m for t in train_tasks])
    return ModelConfig.from_dict({**config.model.to_dict(), "d": d})


# ---------------------------------------------------------------------------
# meta-train phase
# ---------------------------------------------------------------------------


def write_round_log(path: Path, reports: Sequence[federation.RoundReport]) -> None:
    client_ids = sorted(reports[0].client_losses) if reports else []
    write_csv(
        path,
        ["round", "mean_query_loss", *client_ids],
        [[r.mean_query_loss, *(r.client_losses[c] for c in client_ids)] for r in reports],
        index=[r.round for r in reports],
    )


def save_meta_checkpoint(path: Path, meta: MetaModel) -> None:
    params = nn.unflatten(meta.params, meta.config.part_sizes("meta"))
    save_checkpoint(path, {"meta": params}, meta.config, extra={"round": meta.round, "eta": meta.eta})


def load_meta_checkpoint(path: str | Path) -> MetaModel:
    config, parts, extra = load_checkpoint(path)
    if "meta" not in parts:
        raise DataError(f"checkpoint {path} holds no shared-part parameters")
    params = nn.flatten(parts["meta"], config.part_sizes("meta"))
    return MetaModel(params=params, config=config, eta=float(extra.get("eta", 0.001)),
                     round=int(extra.get("round", 0)))


def cmd_meta_train(config: ExperimentConfig) -> tuple[MetaModel, list[federation.RoundReport]]:
    index = _load_index(config)
    train_tasks = _load_tasks(config, index["train"])
    if not train_tasks:
        raise DataError("no training tasks in the index")
    model_config = resolved_model_config(config, train_tasks)
    fed = config.federation
    meta, clients = federation.server_init(
        train_tasks, model_config, eta=fed.eta, seed=fed.seed,
        local_steps=fed.local_steps, batch_size=fed.batch_size,
    )
    ckpt_dir = config.train_dir / "checkpoints"

    def on_round(report: federation.RoundReport, current: MetaModel) -> None:
        if fed.checkpoint_every and report.round % fed.checkpoint_every == 0:
            save_meta_checkpoint(ckpt_dir / f"meta_round_{report.round:05d}.npz", current)

    meta, reports = federation.meta_train(
        meta, clients, rounds=fed.rounds, on_round=on_round,
        early_stop_tol=fed.early_stop_tol, early_stop_patience=fed.early_stop_patience,
        aggregation=fed.aggregation,
    )
    write_round_log(config.train_dir / "round_log.csv", reports)
    save_meta_checkpoint(config.checkpoint_path, meta)
    return meta, reports


# ---------------------------------------------------------------------------
# meta-test phase
# ---------------------------------------------------------------------------


def _check_checkpoint_compat(meta: MetaModel, model_config: ModelConfig) -> None:
    ck = meta.config
    if (ck.d, ck.n, ck.p) != (model_config.d, model_config.n, model_config.p):
        raise ConfigError(
            f"checkpoint dims d={ck.d}, n={ck.n}, p={ck.p} do not match "
            f"config d={model_config.d}, n={model_config.n}, p={model_config.p}"
        )
    if ck.meta_hidden != model_config.meta_hidden:
        raise ConfigError(
            f"checkpoint shared-part widths {ck.meta_hidden} differ from config {model_config.meta_hidden}"
        )


def run_dir(config: ExperimentConfig, task_id: str, mode: str, seed: int) -> Path:
    return config.test_dir / task_id / mode / str(seed)


def write_trace(directory: Path, trace: AdaptationTrace, per_sample: np.ndarray) -> None:
    write_csv(
        directory / "trace.csv",
        ["step", "support_loss", "query_mde"],
        [[s.support_loss, s.query_mde] for s in trace.steps],
        index=[s.step for s in trace.steps],
    )
    write_csv(directory / "errors_final.csv", ["error"], np.reshape(per_sample, (-1, 1)))


def _csv_columns(path: Path, names: Sequence[str]) -> list[list[float]]:
    """The named columns of a CSV written by ``write_csv``, as lists of floats."""
    header, values = read_csv(path)
    missing = [name for name in names if name not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    return [values[:, header.index(name)].tolist() for name in names]


def read_trace(directory: Path, task_id: str, mode: str, seed: int) -> AdaptationTrace:
    steps, support_loss, query_mde = _csv_columns(
        directory / "trace.csv", ["step", "support_loss", "query_mde"]
    )
    trace = AdaptationTrace(task_id=task_id, init_mode=mode, seed=seed)
    trace.steps = [TraceStep(int(n), s, q) for n, s, q in zip(steps, support_loss, query_mde)]
    return trace


def read_final_errors(directory: Path) -> list[float]:
    return _csv_columns(directory / "errors_final.csv", ["error"])[0]


def _run_one_test(args) -> None:
    """One (task, mode, seed) fine-tuning run; module-level so process pools can pickle it."""
    config, model_config, theta, task, mode, seed = args
    mt = config.meta_test
    _, trace, per_sample = meta_test(
        task,
        model_config,
        theta_init=theta if mode == "MI" else None,
        steps=mt.steps,
        seed=seed,
        batch_size=mt.batch_size,
        optimizer=mt.optimizer,
    )
    write_trace(run_dir(config, task.task_id, mode, seed), trace, per_sample)


def cmd_meta_test(config: ExperimentConfig, checkpoint: str | Path | None = None) -> dict:
    index = _load_index(config)
    test_ids = index["test"]
    if not test_ids:
        raise DataError("no test tasks in the index")
    meta = load_meta_checkpoint(checkpoint or config.checkpoint_path)
    if config.d_from_median and index["train"]:
        expected = resolved_model_config(config, _load_tasks(config, index["train"]))
    else:
        expected = config.model
    _check_checkpoint_compat(meta, expected)
    model_config = meta.config  # dims of the trained parameters are authoritative
    tasks = _load_tasks(config, test_ids)
    mt = config.meta_test

    jobs = [
        (config, model_config, meta.params, task, mode, seed)
        for task in tasks
        for seed in mt.seeds
        for mode in ("MI", "RI")
    ]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            list(pool.map(_run_one_test, jobs))
    else:
        for job in jobs:
            _run_one_test(job)
    return cmd_report(config)


# ---------------------------------------------------------------------------
# report phase
# ---------------------------------------------------------------------------


def _aggregate_mode(
    traces: list[AdaptationTrace], mt: MetaTestParams
) -> dict:
    records = []
    for trace in traces:
        series = trace.query_mdes()
        rec = {
            "seed": trace.seed,
            "mde_final": series[-1] if series else None,
            "steps_to_target": {},
            "mde_at_step": {},
        }
        for target in mt.targets_m:
            rec["steps_to_target"][str(target)] = metrics.steps_to_accuracy(series, target)
        for n_star in mt.step_checkpoints:
            rec["mde_at_step"][str(n_star)] = series[n_star - 1] if len(series) >= n_star else None
        records.append(rec)

    agg: dict = {"records": records, "im_accuracy": {}, "im_steps": {}, "not_reached": {}}
    nonempty = [t for t in traces if t.steps]
    for target in mt.targets_m:
        if nonempty:
            speed, steps = metrics.adaptation_speed_accuracy(
                [t.query_mdes() for t in nonempty], target, mt.batch_size
            )
        else:
            speed, steps = 0.0, []
        agg["im_accuracy"][str(target)] = speed
        agg["not_reached"][str(target)] = sum(1 for s in steps if s is None) + (len(traces) - len(nonempty))
    for n_star in mt.step_checkpoints:
        usable = [t.query_mdes() for t in traces if len(t.steps) >= n_star]
        agg["im_steps"][str(n_star)] = (
            float(np.mean([metrics.adaptation_speed_steps(s, n_star, mt.batch_size) for s in usable]))
            if usable
            else None
        )
    finals = [r["mde_final"] for r in records if r["mde_final"] is not None]
    agg["mde_final_mean"] = float(np.mean(finals)) if finals else None
    return agg


def _mean_steps(steps: Sequence[int | None], budget: int) -> float:
    """Mean steps to a target, counting a run that never reaches it as budget + 1."""
    return float(np.mean([budget + 1 if s is None else s for s in steps]))


def _mode_mean_steps(agg: dict, target: str, budget: int) -> float | None:
    records = agg["records"]
    return _mean_steps([r["steps_to_target"][target] for r in records], budget) if records else None


def paired_step_summary(config: ExperimentConfig, target_m: float) -> dict:
    """Compare MI and RI steps to ``target_m`` seed by seed, from trace files.

    For each meta-test seed, each mode's steps are averaged over the test
    tasks, with a run that never reaches the target counted as budget + 1.
    Returns the number of seeds where MI needs fewer steps ("wins"), the
    median of the per-seed reductions (RI - MI) / RI, and each mode's mean.
    """
    test_ids = _load_index(config)["test"]
    mt = config.meta_test
    per_seed = []
    for seed in mt.seeds:
        per_mode = {}
        for mode in ("MI", "RI"):
            traces = (read_trace(run_dir(config, tid, mode, seed), tid, mode, seed) for tid in test_ids)
            steps = [metrics.steps_to_accuracy(t.query_mdes(), target_m) for t in traces]
            per_mode[mode] = _mean_steps(steps, mt.steps)
        per_seed.append(per_mode)
    return {
        "seeds": len(per_seed),
        "wins": sum(p["MI"] < p["RI"] for p in per_seed),
        "median_reduction": float(np.median([(p["RI"] - p["MI"]) / p["RI"] for p in per_seed])),
        "mean_steps": {mode: float(np.mean([p[mode] for p in per_seed])) for mode in ("MI", "RI")},
    }


def cmd_report(config: ExperimentConfig) -> dict:
    """Rebuild the metrics report and CDF curves from trace files on disk."""
    index = _load_index(config)
    mt = config.meta_test
    report: dict = {"batch_size": mt.batch_size, "tasks": {}}
    for task_id in index["test"]:
        task_entry: dict = {}
        for mode in ("MI", "RI"):
            traces = []
            errors: list[float] = []
            for seed in mt.seeds:
                directory = run_dir(config, task_id, mode, seed)
                if not (directory / "trace.csv").exists():
                    raise DataError(f"missing trace for {task_id}/{mode}/{seed}; run meta-test first")
                traces.append(read_trace(directory, task_id, mode, seed))
                errors.extend(read_final_errors(directory))
            task_entry[mode] = _aggregate_mode(traces, mt)
            if errors:
                write_csv(
                    config.report_dir / f"{task_id}_{mode}_cdf.csv",
                    ["error", "cumulative_fraction"],
                    cdf_curve(errors),
                )

        improvement: dict = {"steps": {}, "accuracy": {}}
        for target in mt.targets_m:
            mi = _mode_mean_steps(task_entry["MI"], str(target), mt.steps)
            ri = _mode_mean_steps(task_entry["RI"], str(target), mt.steps)
            improvement["steps"][str(target)] = (
                metrics.improvement_percent(mi, ri, "steps") if mi is not None and ri and ri > 0 else None
            )
        for n_star in mt.step_checkpoints:
            mi_vals = [
                r["mde_at_step"][str(n_star)]
                for r in task_entry["MI"]["records"]
                if r["mde_at_step"][str(n_star)] is not None
            ]
            ri_vals = [
                r["mde_at_step"][str(n_star)]
                for r in task_entry["RI"]["records"]
                if r["mde_at_step"][str(n_star)] is not None
            ]
            if mi_vals and ri_vals and np.mean(ri_vals) > 0:
                improvement["accuracy"][str(n_star)] = metrics.improvement_percent(
                    float(np.mean(mi_vals)), float(np.mean(ri_vals)), "accuracy"
                )
            else:
                improvement["accuracy"][str(n_star)] = None
        task_entry["improvement"] = improvement
        report["tasks"][task_id] = task_entry

    write_json(config.report_dir / "metrics.json", report)
    return report


# ---------------------------------------------------------------------------
# theory probe phase
# ---------------------------------------------------------------------------


def run_theory_probe(
    task: LocalizationTask,
    model_config: ModelConfig,
    theta_init: np.ndarray | None,
    params: TheoryProbeParams,
) -> TheoryProbeReport:
    """Run the plain-SGD probes on one task: steps-to-epsilon under both
    initializations, linearization residuals, and empirical constants."""
    steps_ri, trace_ri = metrics.epsilon_accuracy_steps(
        task, model_config, None, params.epsilon, params.max_steps, params.mu, seed=params.seed
    )
    if theta_init is not None:
        steps_mi, trace_mi = metrics.epsilon_accuracy_steps(
            task, model_config, theta_init, params.epsilon, params.max_steps, params.mu, seed=params.seed
        )
    else:
        steps_mi, trace_mi = None, []
    residuals = metrics.linearization_probe(
        task, model_config, params.linearization_mu_list, params.linearization_steps, seed=params.seed
    )
    all_sq = [*trace_ri, *trace_mi]
    zeta_hat = math.sqrt(max(all_sq)) if all_sq else 0.0
    delta1_hat = _estimate_delta1(task, model_config, params)
    bound_ri = metrics.evaluate_step_bound(
        params.epsilon, params.mu, delta1_hat,
        math.sqrt(trace_ri[0]) if trace_ri else 0.0,
        math.sqrt(trace_ri[-1]) if trace_ri else 0.0,
    )
    bound_mi = metrics.evaluate_step_bound(
        params.epsilon, params.mu, delta1_hat,
        math.sqrt(trace_mi[0]) if trace_mi else 0.0,
        math.sqrt(trace_mi[-1]) if trace_mi else 0.0,
    )
    return TheoryProbeReport(
        epsilon=params.epsilon,
        mu=params.mu,
        steps_random_init=steps_ri,
        steps_meta_init=steps_mi,
        grad_sq_trace_random_init=trace_ri,
        grad_sq_trace_meta_init=trace_mi,
        linearization_residuals=residuals,
        zeta_hat=zeta_hat,
        delta1_hat=delta1_hat,
        step_bound_sq_random_init=bound_ri,
        step_bound_sq_meta_init=bound_mi,
    )


def _estimate_delta1(
    task: LocalizationTask, model_config: ModelConfig, params: TheoryProbeParams
) -> float:
    from .model import PART_NAMES, ClientModel

    model = ClientModel.build(model_config, m=task.m, seed=params.seed)
    xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
    rates = {part: params.mu for part in PART_NAMES}
    states, grads = [], []
    for _ in range(min(10, params.max_steps)):
        states.append(metrics.flatten_parts(model, PART_NAMES))
        _, g = model.composite_loss(xs, ys)
        grads.append(metrics.flatten_grads(g, PART_NAMES))
        model.apply_gradients(g, rates=rates, optimizer="sgd")
    return metrics.estimate_smoothness(states, grads)


def cmd_theory_probe(config: ExperimentConfig) -> dict:
    index = _load_index(config)
    probe_ids = index["test"] or index["train"]
    if not probe_ids:
        raise DataError("no tasks available for the theory probe")
    task = _load_tasks(config, probe_ids[:1])[0]
    theta = None
    model_config = config.model
    if config.checkpoint_path.exists():
        meta = load_meta_checkpoint(config.checkpoint_path)
        theta = meta.params
        model_config = meta.config
    report = run_theory_probe(task, model_config, theta, config.theory_probe)
    payload = {"task": task.task_id, **report.to_dict()}
    write_json(config.experiment_dir / "theory" / "probe_report.json", payload)
    return payload
