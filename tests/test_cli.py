import dataclasses
import hashlib
import importlib.util
import json
import os
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from fedmetaloc import cli, experiments
from fedmetaloc.data import SchemaConfig
from fedmetaloc.errors import ConfigError, DataError
from fedmetaloc.federation import AdaptationTrace, load_checkpoint, save_checkpoint
from fedmetaloc.fileio import write_json
from fedmetaloc.model import ModelConfig

from helpers import reference_load_csv, small_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def with_dataset(tmp_path: Path, schema_text: str, **entry) -> Path:
    """``small_config`` plus one CSV dataset (two APs, 20 rows) with the given schema file text."""
    rows = [f"{-40 - i},{-70 + i},{i % 5}.0,{i // 5}.0" for i in range(20)]
    (tmp_path / "d0.csv").write_text("\n".join(["A,B,X,Y", *rows]) + "\n")
    (tmp_path / "d0_schema.json").write_text(schema_text)
    return small_config(tmp_path, datasets=[{"csv": "d0.csv", "schema": "d0_schema.json", "id": "D0", **entry}])


SCHEMA = '{"coord_columns": ["X", "Y"], "ap_columns": ["A", "B"]}'


def tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestConfigLoading:
    def test_loads_and_resolves(self, tmp_path):
        config = experiments.load_experiment_config(small_config(tmp_path))
        assert config.name == "smoke"
        assert [opts.id for _, opts in config.synthetic_envs] == ["T00", "T01", "T02"]
        assert config.model.d == 4

    def test_overlapping_task_lists_rejected(self, tmp_path):
        path = small_config(tmp_path, train_tasks=["T00", "T02"], test_tasks=["T02"])
        with pytest.raises(ConfigError, match="overlap"):
            experiments.load_experiment_config(path)

    def test_missing_referenced_files_rejected(self, tmp_path):
        path = small_config(
            tmp_path, datasets=[{"csv": "nope.csv", "schema": "nope.json"}], synthetic_envs=[]
        )
        with pytest.raises(ConfigError, match="does not exist"):
            experiments.load_experiment_config(path)

    def test_unknown_model_key_is_a_config_error(self, tmp_path):
        path = small_config(tmp_path, model={"d": 4, "hidden_layers": [8]})
        with pytest.raises(ConfigError, match="model"):
            experiments.load_experiment_config(path)

    def test_bad_synthetic_env_key_is_a_config_error(self, tmp_path):
        path = small_config(
            tmp_path,
            synthetic_envs=[{"id": "T00", "num_aps": 5, "transmit_power": -20}],
            train_tasks=["T00"],
            test_tasks=[],
        )
        with pytest.raises(ConfigError, match="T00"):
            experiments.load_experiment_config(path)

    @pytest.mark.parametrize(
        "section, values",
        [
            ("theory_probe", {"linearization_steps": 0}),
            ("theory_probe", {"max_steps": -1}),
            ("theory_probe", {"max_steps": 0}),
            ("theory_probe", {"max_steps": 1}),
            ("theory_probe", {"epsilon": 0.0}),
            ("theory_probe", {"mu": -0.01}),
            ("theory_probe", {"linearization_mu_list": [0.01, 0.0]}),
            ("federation", {"checkpoint_every": -1}),
            ("federation", {"early_stop_patience": 0}),
            ("federation", {"early_stop_tol": -1e-5}),
        ],
    )
    def test_out_of_range_value_is_a_config_error(self, tmp_path, section, values):
        with pytest.raises(ConfigError, match=section):
            experiments.load_experiment_config(small_config(tmp_path, **{section: values}))

    def test_dataset_with_schema_loads(self, tmp_path):
        config = experiments.load_experiment_config(with_dataset(tmp_path, SCHEMA, support_ratio=0.5))
        source, opts = config.datasets[0]
        assert source.csv == tmp_path / "d0.csv" and source.partition is None
        assert source.schema == SchemaConfig(coord_columns=("X", "Y"), ap_columns=("A", "B"))
        assert opts == experiments.TaskOptions(id="D0", support_ratio=0.5)

    def test_a_coverage_region_admits_a_support_ratio_of_one(self, tmp_path):
        path = small_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["synthetic_envs"][2].update(support_ratio=1.0, support_region=[0.0, 0.0, 20.0, 25.0])
        path.write_text(json.dumps(raw))
        config = experiments.load_experiment_config(path)
        assert [config.split_ratio(opts) for _, opts in config.synthetic_envs] == [0.7, 0.7, 1.0]

    def test_an_integer_in_a_float_field_is_a_float(self, tmp_path):
        config = experiments.load_experiment_config(
            small_config(tmp_path, federation={"eta": 1}, meta_test={"targets_m": [8, 2.5]})
        )
        assert config.federation.eta == 1.0 and type(config.federation.eta) is float
        assert config.meta_test.targets_m == (8.0, 2.5)
        assert [type(t) for t in config.meta_test.targets_m] == [float, float]

    def test_a_bool_in_a_float_field_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="eta"):
            experiments.load_experiment_config(small_config(tmp_path, federation={"eta": True}))


class TestPreprocessCommand:
    def test_writes_bundles_and_index(self, tmp_path):
        config = experiments.load_experiment_config(small_config(tmp_path))
        ids = experiments.cmd_preprocess(config)
        assert ids == ["T00", "T01", "T02"]
        for task_id in ids:
            bundle = config.tasks_dir / task_id
            assert sorted(path.name for path in bundle.iterdir()) == ["meta.json", "query.npy", "support.npy"]
            meta = json.loads((bundle / "meta.json").read_text())
            assert "preprocess" in meta["extra"]
        index = json.loads((config.experiment_dir / "tasks_index.json").read_text())
        assert index["train"] == ["T00", "T01"]
        assert index["test"] == ["T02"]

    def test_rerun_is_idempotent(self, tmp_path):
        config = experiments.load_experiment_config(small_config(tmp_path))
        experiments.cmd_preprocess(config)
        first = tree_digest(config.tasks_dir)
        experiments.cmd_preprocess(config)
        assert tree_digest(config.tasks_dir) == first

    def test_unknown_listed_task_rejected(self, tmp_path):
        config = experiments.load_experiment_config(
            small_config(tmp_path, test_tasks=["T09"])
        )
        with pytest.raises(ConfigError, match="T09"):
            experiments.cmd_preprocess(config)
        assert not config.experiment_dir.exists()

    def test_per_env_split_overrides(self, tmp_path):
        path = small_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["synthetic_envs"][2]["support_ratio"] = 0.5
        raw["synthetic_envs"][2]["support_region"] = [0.0, 0.0, 20.0, 25.0]
        path.write_text(json.dumps(raw))
        config = experiments.load_experiment_config(path)
        experiments.cmd_preprocess(config)
        from fedmetaloc.data import load_task_bundle

        task = load_task_bundle(config.tasks_dir / "T02")
        # support restricted to the coverage region, at half density
        assert (task.support.coords[:, 0] <= 20.0).all()
        assert task.support.n_samples < 30
        assert task.support.n_samples + task.query.n_samples == 60

    def test_synthetic_envs_write_the_preprocess_marker(self, tmp_path):
        # the 318 cells below the sensitivity floor are imputed whatever the marker
        env = {"id": "T00", "num_aps": 20, "samples": 50, "seed": 0, "sensitivity_dbm": -70.0}
        digests = []
        for sentinel in (100.0, -110.0):
            root = tmp_path / str(sentinel)
            root.mkdir()
            path = small_config(
                root, synthetic_envs=[env], train_tasks=["T00"], test_tasks=[], preprocess={"sentinel": sentinel}
            )
            assert cli.run(["preprocess", "--config", str(path)]) == 0
            tasks_dir = experiments.load_experiment_config(path).tasks_dir
            report = json.loads((tasks_dir / "T00" / "meta.json").read_text())["extra"]["preprocess"]
            assert report["sentinel_count_replaced"] == 318
            assert report["min_rssi"] > -71.0
            digests.append(tree_digest(tasks_dir))
        assert digests[0] == digests[1]


def write_uji_csv(path: Path, rows: int = 160, aps: int = 30) -> Path:
    """A UJIIndoorLoc-shaped CSV: mostly-undetected WAP columns, then
    LONGITUDE, LATITUDE, FLOOR and BUILDINGID over two buildings of two floors."""
    rng = np.random.default_rng(0)
    rssi = np.where(rng.random((rows, aps)) < 0.7, 100, rng.integers(-100, -30, size=(rows, aps)))
    lon = rng.uniform(-7691.3384, -7300.8190, rows)
    lat = rng.uniform(4864745.7450, 4865017.3647, rows)
    header = [*(f"WAP{i:03d}" for i in range(1, aps + 1)), "LONGITUDE", "LATITUDE", "FLOOR", "BUILDINGID"]
    lines = [
        ",".join([*map(str, rssi[i].tolist()), f"{lon[i]:.10f}", f"{lat[i]:.10f}", str(i % 2), str(i // 2 % 2)])
        for i in range(rows)
    ]
    path.write_text("\n".join([",".join(header), *lines]) + "\n")
    return path


class TestDatasetPreprocess:
    def test_uji_shaped_csv_bundles_match_the_reference_reader(self, tmp_path, monkeypatch):
        csv = write_uji_csv(tmp_path / "trainingData.csv")
        entry = {"csv": str(csv), "schema": str(CONFIGS / "uji_schema.json"), "partition": "building_floor"}
        digests = []
        for name in ("load_csv", "reference"):
            root = tmp_path / name
            root.mkdir()
            path = small_config(root, datasets=[entry], synthetic_envs=[], train_tasks=[], test_tasks=[])
            if name == "reference":
                monkeypatch.setattr(experiments, "load_csv", reference_load_csv)
            assert cli.run(["preprocess", "--config", str(path)]) == 0
            digests.append(tree_digest(experiments.load_experiment_config(path).experiment_dir))
        assert sorted({Path(key).parent.name for key in digests[0] if key.startswith("tasks/")}) == [
            "B0_F0", "B0_F1", "B1_F0", "B1_F1"
        ]
        assert digests[0] == digests[1]


class TestModelResolution:
    def test_d_from_median_uses_cohort_ap_counts(self, tmp_path):
        config = experiments.load_experiment_config(
            small_config(tmp_path, d_from_median=True)
        )
        experiments.cmd_preprocess(config)
        index = json.loads((config.experiment_dir / "tasks_index.json").read_text())
        train_tasks = [
            experiments.load_task_bundle(config.tasks_dir / t) for t in index["train"]
        ]
        resolved = experiments.resolved_model_config(config, train_tasks)
        # training envs have 5 and 6 APs: median 5.5 rounds half away from zero
        assert resolved.d == 6
        assert config.model.d == 4  # base config untouched


class TestMetaTrainCommand:
    def test_writes_round_log_and_checkpoint(self, tmp_path):
        config = experiments.load_experiment_config(small_config(tmp_path))
        experiments.cmd_preprocess(config)
        meta, reports = experiments.cmd_meta_train(config)
        assert meta.round == 2
        log = (config.train_dir / "round_log.csv").read_text().splitlines()
        assert log[0].startswith("round,mean_query_loss")
        assert len(log) == 3
        assert config.checkpoint_path.exists()

    def test_checkpoint_layout_is_pinned(self, tmp_path):
        # the benchmark's output checks and existing checkpoints read this layout
        config = experiments.load_experiment_config(small_config(tmp_path, federation={
            "rounds": 4, "local_steps": 2, "eta": 0.01, "batch_size": 16, "seed": 3, "checkpoint_every": 2,
        }))
        experiments.cmd_preprocess(config)
        experiments.cmd_meta_train(config)
        layers = len(config.model.meta_hidden) + 1
        members = [f"meta/layer{i}.{role}.npy" for i in range(layers) for role in ("weights", "biases")]
        paths = [config.checkpoint_path, *sorted((config.train_dir / "checkpoints").iterdir())]
        assert [p.name for p in paths[1:]] == ["meta_round_00002.npz", "meta_round_00004.npz"]
        for path, round_ in zip(paths, (4, 2, 4)):
            with zipfile.ZipFile(path) as archive:
                assert archive.namelist() == [*members, "__config__.npy", "__extra__.npy"]
                with archive.open("__extra__.npy") as fh:
                    extra = str(np.lib.format.read_array(fh))
            assert extra == json.dumps({"eta": 0.01, "round": round_})

    def test_rerun_is_byte_identical(self, tmp_path):
        config = experiments.load_experiment_config(small_config(tmp_path))
        experiments.cmd_preprocess(config)
        experiments.cmd_meta_train(config)
        first = (config.train_dir / "round_log.csv").read_bytes()
        experiments.cmd_meta_train(config)
        assert (config.train_dir / "round_log.csv").read_bytes() == first

    def test_requires_bundles(self, tmp_path):
        config = experiments.load_experiment_config(small_config(tmp_path))
        with pytest.raises(DataError, match="preprocess"):
            experiments.cmd_meta_train(config)


def hit_series(hit: int | None, length: int) -> list[float]:
    """A query MDE series at 9.0 m that drops to 5.0 m from step ``hit`` (never for None)."""
    return [5.0 if hit is not None and s >= hit else 9.0 for s in range(1, length + 1)]


def write_hand_trace(config, mode: str, seed: int, query_mde: list[float]) -> None:
    """A hand-written trace for test task T02, with one final error of 0."""
    trace = AdaptationTrace(support_loss=[1.0] * len(query_mde), query_mde=query_mde)
    experiments.write_trace(experiments.run_dir(config, "T02", mode, seed), trace, [0.0])


class TestReportFromHandWrittenTraces:
    """``cmd_report`` over trace files written here: no preprocess or training runs."""

    def report(self, tmp_path, series: dict, **meta_test) -> dict:
        """The T02 entry of the report over ``series[(mode, seed)]``, a run's query MDE series."""
        seeds = sorted({seed for _, seed in series})
        mt = {"steps": 400, "targets_m": [5.0], "step_checkpoints": [50], "seeds": seeds, "batch_size": 32}
        config = experiments.load_experiment_config(small_config(tmp_path, meta_test={**mt, **meta_test}))
        write_json(config.experiment_dir / "tasks_index.json", {"all": ["T02"], "train": [], "test": ["T02"]})
        for (mode, seed), query_mde in series.items():
            write_hand_trace(config, mode, seed, query_mde)
        return experiments.cmd_report(config)["tasks"]["T02"]

    @staticmethod
    def reaching(step: int, length: int = 400) -> list[float]:
        # strictly decreasing series crossing 5.0 exactly at ``step``
        return [3.0 + (10.0 if s < step else 0.0) + (length - s) * 1e-3 for s in range(1, length + 1)]

    def test_reference_accuracy_speed_values(self, tmp_path):
        entry = self.report(tmp_path, {("MI", 0): self.reaching(100), ("RI", 0): self.reaching(310)})
        assert [r["steps_to_target"]["5.0"] for r in entry["MI"]["records"]] == [100]
        assert entry["MI"]["im_accuracy"]["5.0"] == pytest.approx(0.31e-3, abs=0.005e-3)
        assert entry["RI"]["im_accuracy"]["5.0"] == pytest.approx(0.10e-3, abs=0.005e-3)
        assert entry["improvement"]["steps"]["5.0"] == pytest.approx(67.74, abs=0.005)

    def test_best_case_single_step(self, tmp_path):
        entry = self.report(tmp_path, {("MI", 0): [4.0, 4.0], ("RI", 0): [4.0, 4.0]}, batch_size=1)
        assert entry["MI"]["im_accuracy"]["5.0"] == 1.0

    def test_accuracy_speed_is_the_mean_over_seeds(self, tmp_path):
        series = {("MI", 0): self.reaching(100), ("MI", 1): self.reaching(50)}
        series.update({("RI", seed): self.reaching(200) for seed in (0, 1)})
        entry = self.report(tmp_path, series)
        assert [r["steps_to_target"]["5.0"] for r in entry["MI"]["records"]] == [100, 50]
        assert entry["MI"]["im_accuracy"]["5.0"] == pytest.approx((1 / 3200 + 1 / 1600) / 2)

    def test_never_reached_has_speed_zero_and_counts_as_not_reached(self, tmp_path):
        series = {("MI", 0): [9.0, 8.0], ("MI", 1): self.reaching(100)}
        series.update({("RI", 0): [9.0, 8.0], ("RI", 1): [9.0]})
        entry = self.report(tmp_path, series)
        assert entry["RI"]["im_accuracy"]["5.0"] == 0.0 and entry["RI"]["not_reached"]["5.0"] == 2
        assert entry["MI"]["im_accuracy"]["5.0"] == pytest.approx((0.0 + 1 / 3200) / 2)
        assert entry["MI"]["not_reached"]["5.0"] == 1
        assert [r["steps_to_target"]["5.0"] for r in entry["MI"]["records"]] == [None, 100]

    def test_step_based_speed_is_mde_at_the_checkpoint_over_the_batch_size(self, tmp_path):
        series = [0.0] * 49 + [7.5] + [0.0] * 49 + [17.6]
        entry = self.report(tmp_path, {("MI", 0): series, ("RI", 0): series}, step_checkpoints=[50, 100, 101])
        assert entry["MI"]["im_steps"]["50"] == pytest.approx(0.23, abs=0.005)
        assert entry["MI"]["im_steps"]["100"] == pytest.approx(0.55, abs=0.005)
        assert entry["MI"]["records"][0]["mde_at_step"] == {"50": 7.5, "100": 17.6, "101": None}
        # no run reaches step 101: no speed and no improvement there
        assert entry["MI"]["im_steps"]["101"] is None
        assert entry["improvement"]["accuracy"] == {"50": 0.0, "100": 0.0, "101": None}

    def test_an_integer_target_writes_the_same_report_as_its_float(self, tmp_path):
        series = {("MI", 0): self.reaching(100), ("RI", 0): self.reaching(310)}
        written = []
        for target in (8, 8.0):
            root = tmp_path / str(target)
            root.mkdir()
            self.report(root, series, targets_m=[target])
            written.append((root / "out" / "smoke" / "report" / "metrics.json").read_bytes())
        assert written[0] == written[1]
        assert b'"8.0"' in written[0]


class TestMetaTestCommand:
    def run_pipeline(self, tmp_path, **overrides):
        config = experiments.load_experiment_config(small_config(tmp_path, **overrides))
        experiments.cmd_preprocess(config)
        experiments.cmd_meta_train(config)
        report = experiments.cmd_meta_test(config)
        return config, report

    def test_writes_paired_traces_and_metrics(self, tmp_path):
        config, report = self.run_pipeline(tmp_path)
        for mode in ("MI", "RI"):
            for seed in (0, 1):
                run = experiments.run_dir(config, "T02", mode, seed)
                assert (run / "trace.csv").exists()
                assert (run / "errors_final.csv").exists()
        entry = report["tasks"]["T02"]
        assert set(entry) == {"MI", "RI", "improvement"}
        assert (config.report_dir / "metrics.json").exists()
        assert (config.report_dir / "T02_MI_cdf.csv").exists()

    def test_zero_step_budget_flags_not_reached(self, tmp_path):
        config, report = self.run_pipeline(
            tmp_path,
            meta_test={
                "steps": 0,
                "targets_m": [8.0],
                "step_checkpoints": [1],
                "seeds": [0],
                "batch_size": 16,
            },
        )
        entry = report["tasks"]["T02"]["MI"]
        assert entry["not_reached"]["8.0"] == 1
        assert entry["im_accuracy"]["8.0"] == 0.0
        assert entry["im_steps"]["1"] is None

    def hand_traced(self, tmp_path):
        """The pipeline's config with hand traces on which MI/RI first reach
        8.0 m at: seed 0 -> 2 / 4, seed 1 -> never (7 on a budget of 6) / 1."""
        config, _ = self.run_pipeline(tmp_path)
        first_hit = {(0, "MI"): 2, (0, "RI"): 4, (1, "MI"): None, (1, "RI"): 1}
        for (seed, mode), hit in first_hit.items():
            write_hand_trace(config, mode, seed, hit_series(hit, 6))
        return config

    def test_paired_step_summary_counts_unreached_as_budget_plus_one(self, tmp_path):
        config = self.hand_traced(tmp_path)
        report = experiments.cmd_report(config)
        shutil.rmtree(config.experiment_dir)  # the summary reads the report's records, no file
        summary = experiments.paired_step_summary(report, 8.0, config.meta_test.steps)
        assert summary == {
            "seeds": 2,
            "wins": 1,
            "median_reduction": (0.5 + (1 - 7) / 1) / 2,
            "mean_steps": {"MI": 4.5, "RI": 2.5},
        }
        assert experiments.paired_step_summary(report, 8, config.meta_test.steps) == summary

    def test_paired_step_summary_of_an_unconfigured_target_is_a_config_error(self, tmp_path):
        config = self.hand_traced(tmp_path)
        with pytest.raises(ConfigError, match=r"target 5\.0 m is not in meta_test\.targets_m \[8\.0\]"):
            experiments.paired_step_summary(experiments.cmd_report(config), 5.0, config.meta_test.steps)

    def test_report_without_test_tasks_prints_no_summary(self, tmp_path, capsys):
        path = small_config(tmp_path, test_tasks=[])
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli.run(["report", "--config", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [f"report written under {tmp_path / 'out' / 'smoke' / 'report'}"]

    def test_report_command_prints_the_paired_summary_per_target(self, tmp_path, capsys):
        config = self.hand_traced(tmp_path)
        capsys.readouterr()
        assert cli.run(["report", "--config", str(tmp_path / "exp.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["target 8.0 m: MI faster in 1/2 paired seeds, median step reduction -275%"]

    def test_report_counts_unreached_runs_as_budget_plus_one(self, tmp_path):
        config, _ = self.run_pipeline(tmp_path)
        # budget 6; MI first reaches 8.0 m at step 2 for both seeds, RI at
        # step 4 (seed 0) and never (seed 1), which counts as 7
        first_hit = {(0, "MI"): 2, (1, "MI"): 2, (0, "RI"): 4, (1, "RI"): None}
        for (seed, mode), hit in first_hit.items():
            write_hand_trace(config, mode, seed, hit_series(hit, 6))
        report = experiments.cmd_report(config)
        assert report["tasks"]["T02"]["improvement"]["steps"]["8.0"] == 100.0 * (5.5 - 2.0) / 5.5

    @pytest.mark.parametrize("name", ["trace.csv", "errors_final.csv"])
    def test_report_with_a_missing_run_file_leaves_the_report_untouched(self, tmp_path, capsys, name):
        config, _ = self.run_pipeline(tmp_path, train_tasks=["T00"], test_tasks=["T01", "T02"])
        # the last run cmd_report reads: every other task's and mode's CDF comes before it
        (experiments.run_dir(config, "T02", "RI", 1) / name).unlink()
        files = sorted(config.report_dir.iterdir())
        assert len(files) == 5  # four CDFs and metrics.json
        for path in files:
            os.utime(path, ns=(10**18, 10**18))
        before = {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in files}
        assert cli.run(["report", "--config", str(tmp_path / "exp.json")]) == 3
        assert capsys.readouterr().err.startswith("data error: missing")
        assert sorted(config.report_dir.iterdir()) == files
        assert {path: (path.read_bytes(), path.stat().st_mtime_ns) for path in files} == before

    def test_report_command_rebuilds_identically(self, tmp_path):
        config, report = self.run_pipeline(tmp_path)
        rebuilt = experiments.cmd_report(config)
        assert rebuilt == report

    def test_checkpoint_dim_mismatch_is_diagnosed(self, tmp_path):
        config, _ = self.run_pipeline(tmp_path)
        other = experiments.load_experiment_config(
            small_config(tmp_path, model={"d": 5, "n": 3, "p": 2, "encoder_hidden": [6],
                                          "decoder_hidden": [6], "meta_hidden": [8],
                                          "mapper_hidden": [4]})
        )
        with pytest.raises(ConfigError, match="d=4"):
            experiments.cmd_meta_test(other, checkpoint=config.checkpoint_path)

    def test_worker_pool_matches_sequential(self, tmp_path):
        config, report = self.run_pipeline(tmp_path)
        parallel_cfg = experiments.load_experiment_config(small_config(tmp_path, workers=2))
        report_parallel = experiments.cmd_meta_test(parallel_cfg)
        assert report_parallel == report


class TestTheoryProbeCommand:
    def test_report_fields_and_zeta_bound(self, tmp_path):
        config = experiments.load_experiment_config(small_config(tmp_path))
        experiments.cmd_preprocess(config)
        experiments.cmd_meta_train(config)
        payload = experiments.cmd_theory_probe(config)
        assert payload["task"] == "T02"
        assert payload["steps_random_init"] is None or payload["steps_random_init"] >= 1
        traces = payload["grad_sq_trace_random_init"] + payload["grad_sq_trace_meta_init"]
        assert payload["zeta_hat"] ** 2 >= max(traces) - 1e-12
        assert set(payload["linearization_residuals"]) == {repr(m) for m in (1e-2, 1e-3, 1e-4)}
        assert (config.experiment_dir / "theory" / "probe_report.json").exists()

    def test_checkpoint_that_does_not_fit_the_config_exits_2(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        small_config(tmp_path, model={**json.loads(path.read_text())["model"], "d": 5})
        assert cli.run(["theory-probe", "--config", str(path)]) == 2
        assert "checkpoint dims d=4, n=3, p=2 do not match config d=5" in capsys.readouterr().err
        assert not (experiments.load_experiment_config(path).experiment_dir / "theory").exists()


class TestCliEntryPoint:
    def test_full_pipeline_exit_codes(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli.run(["meta-test", "--config", str(path)]) == 0
        tested = capsys.readouterr().out.splitlines()
        assert cli.run(["report", "--config", str(path)]) == 0
        reported = capsys.readouterr().out.splitlines()
        # both end with the same paired summary, one line for the one target
        assert len(reported) == 2 and reported[1].startswith("target 8.0 m: MI faster in ")
        assert tested[1:] == reported[1:]
        assert cli.run(["theory-probe", "--config", str(path)]) == 0

    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        assert cli.run(["preprocess", "--config", str(tmp_path / "nope.json")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert cli.run(["meta-train", "--config", str(path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_out_flag_replaces_the_configs_output_root(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path), "--out", str(tmp_path / "elsewhere")]) == 0
        assert f"under {tmp_path / 'elsewhere' / 'smoke' / 'tasks'}" in capsys.readouterr().out
        for task_id in ("T00", "T01", "T02"):
            assert (tmp_path / "elsewhere" / "smoke" / "tasks" / task_id / "meta.json").exists()
        assert not (tmp_path / "out").exists()

    def test_overlap_is_a_config_error(self, tmp_path, capsys):
        path = small_config(tmp_path, train_tasks=["T00", "T02"], test_tasks=["T02"])
        assert cli.run(["preprocess", "--config", str(path)]) == 2

    def test_unknown_meta_test_optimizer_is_a_config_error(self, tmp_path, capsys):
        path = small_config(tmp_path, meta_test={"steps": 6, "seeds": [0], "optimizer": "rmsprop"})
        assert cli.run(["meta-test", "--config", str(path)]) == 2
        assert "rmsprop" in capsys.readouterr().err


class TestMalformedConfig:
    """Each config is malformed in one place: ``preprocess`` exits 2 at load,
    writes nothing, and names the key or section."""

    @pytest.mark.parametrize(
        "case, named",
        [
            ("misspelt_top_level_key", "meta-test"),
            ("unknown_dataset_key", "partiton"),
            ("root_is_a_list", "config"),
            ("section_is_a_string", "federation"),
            ("area_is_a_number", "area"),
            ("seeds_is_a_number", "seeds"),
            ("seeds_is_empty", "meta_test.seeds"),
            ("bool_as_string", "d_from_median"),
            ("schema_not_json", "datasets[0].schema"),
            ("unknown_schema_key", "coordinates"),
            ("synthetic_env_sentinel", "sentinel"),
            ("entry_support_ratio_above_one", "synthetic_envs[2] (T02).support_ratio must be in (0, 1)"),
            ("config_support_ratio_of_one", "config: support_ratio must be in (0, 1) for task T00, got 1.0"),
            ("region_support_ratio_of_zero", "synthetic_envs[2] (T02).support_ratio must be in (0, 1]"),
            ("unknown_partition", "config: partition must be 'none' or one of"),
            ("unknown_dataset_partition", "config.datasets[0] (D0): partition must be 'none' or one of"),
            ("zero_workers", "config: workers must be >= 1, got 0"),
            ("negative_workers", "config: workers must be >= 1, got -2"),
        ],
    )
    def test_exits_2_and_names_the_key(self, tmp_path, capsys, case, named):
        if case == "misspelt_top_level_key":
            path = small_config(tmp_path, **{"meta-test": {"steps": 1}})
        elif case == "unknown_dataset_key":
            path = with_dataset(tmp_path, SCHEMA, partiton="building")
        elif case == "root_is_a_list":
            path = small_config(tmp_path)
            path.write_text(json.dumps([json.loads(path.read_text())]))
        elif case == "section_is_a_string":
            path = small_config(tmp_path, federation="fast")
        elif case == "area_is_a_number":
            path = small_config(tmp_path)
            raw = json.loads(path.read_text())
            raw["synthetic_envs"][1]["area"] = 5
            path.write_text(json.dumps(raw))
        elif case == "synthetic_env_sentinel":
            path = small_config(tmp_path)
            raw = json.loads(path.read_text())
            raw["synthetic_envs"][0]["sentinel"] = -110.0
            path.write_text(json.dumps(raw))
        elif case in ("entry_support_ratio_above_one", "region_support_ratio_of_zero"):
            # T00 and T01 are valid: nothing may be written before T02's split fails
            path = small_config(tmp_path)
            raw = json.loads(path.read_text())
            if case == "entry_support_ratio_above_one":
                raw["synthetic_envs"][2]["support_ratio"] = 1.5
            else:
                raw["synthetic_envs"][2].update(support_ratio=0.0, support_region=[0.0, 0.0, 20.0, 25.0])
            path.write_text(json.dumps(raw))
        elif case == "config_support_ratio_of_one":
            path = small_config(tmp_path, support_ratio=1.0)
        elif case == "unknown_partition":
            path = small_config(tmp_path, partition="bogus")
        elif case == "unknown_dataset_partition":
            path = with_dataset(tmp_path, SCHEMA, partition="bogus")
        elif case == "seeds_is_a_number":
            path = small_config(tmp_path, meta_test={"steps": 6, "seeds": 3})
        elif case == "seeds_is_empty":
            path = small_config(tmp_path, meta_test={"steps": 6, "seeds": []})
        elif case in ("zero_workers", "negative_workers"):
            path = small_config(tmp_path, workers=0 if case == "zero_workers" else -2)
        elif case == "bool_as_string":
            path = small_config(tmp_path, d_from_median="false")
        elif case == "schema_not_json":
            path = with_dataset(tmp_path, "coord_columns: X, Y")
        else:
            path = with_dataset(tmp_path, SCHEMA.replace("}", ', "coordinates": 2}'))
        assert cli.run(["preprocess", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and named in err
        assert not (tmp_path / "out").exists()


class TestShippedConfigsLoad:
    """The strict parser accepts every config the repository ships or generates."""

    def test_synthetic_cohort(self):
        config = experiments.load_experiment_config(CONFIGS / "synthetic_cohort.json")
        assert [opts.id for _, opts in config.synthetic_envs] == [f"S{i:02d}" for i in range(10)]

    def test_uji_multi_floor_and_its_schema(self, tmp_path):
        # as scripts/run_uji_experiment.py does, with a one-row stand-in for the CSV
        raw = json.loads((CONFIGS / "uji_multi_floor.json").read_text())
        csv = tmp_path / "trainingData.csv"
        csv.write_text("WAP001,LONGITUDE,LATITUDE,FLOOR,BUILDINGID\n-50,1.0,2.0,0,0\n")
        raw["datasets"][0]["csv"] = str(csv)
        raw["datasets"][0]["schema"] = str(CONFIGS / "uji_schema.json")
        path = tmp_path / "uji.json"
        path.write_text(json.dumps(raw))
        source, _ = experiments.load_experiment_config(path).datasets[0]
        assert source.partition == "building_floor"
        assert source.schema == SchemaConfig(
            coord_columns=("LONGITUDE", "LATITUDE"), ap_prefix="WAP", building_col="BUILDINGID", floor_col="FLOOR"
        )

    @pytest.mark.parametrize("scale", ["full", "tiny"])
    def test_benchmark_config(self, tmp_path, monkeypatch, scale):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import cohort

        config = experiments.load_experiment_config(cohort.write_config(tmp_path, 0, scale))
        assert config.federation.rounds == cohort.SCALES[scale]["rounds"]


class TestRobustnessSweep:
    def test_arm_summarizes_each_seed_set(self, tmp_path):
        spec = importlib.util.spec_from_file_location("robustness_sweep", ROOT / "scripts" / "robustness_sweep.py")
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        mt = {"steps": 6, "targets_m": [3.4], "step_checkpoints": [3, 6], "seeds": [0, 1], "batch_size": 16}
        out = tmp_path / "arm"
        sweep.run_arm(str(small_config(tmp_path, meta_test=mt)), out)
        results = json.loads((out / sweep.SUMMARY_FILE).read_text())
        assert [r["seeds"] for r in results] == [2, 10, 10]
        assert [r["seed_set"] for r in results] == [[0, 1], list(range(10, 20)), list(range(20, 30))]
        assert all(set(r["mean_steps"]) == {"MI", "RI"} for r in results)


class TestMalformedCheckpoint:
    def trained(self, tmp_path) -> tuple[Path, Path]:
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        return path, experiments.load_experiment_config(path).checkpoint_path

    def meta_test_exit(self, path: Path, checkpoint: Path) -> int:
        return cli.run(["meta-test", "--config", str(path), "--checkpoint", str(checkpoint)])

    def rewritten(self, checkpoint: Path, edit) -> Path:
        """A copy of ``checkpoint`` whose members ``edit`` changed in place."""
        with np.load(checkpoint) as archive:
            kept = {k: archive[k] for k in archive.files}
        edit(kept)
        bad = checkpoint.parent / "bad.npz"
        np.savez(bad, **kept)
        return bad

    @pytest.mark.parametrize("missing", ["__config__", "__extra__"])
    def test_missing_header_is_a_data_error(self, tmp_path, capsys, missing):
        path, checkpoint = self.trained(tmp_path)
        bad = self.rewritten(checkpoint, lambda kept: kept.pop(missing))
        assert self.meta_test_exit(path, bad) == 3
        assert missing in capsys.readouterr().err

    def test_extra_header_that_is_not_an_object_is_a_data_error(self, tmp_path, capsys):
        path, checkpoint = self.trained(tmp_path)
        bad = self.rewritten(checkpoint, lambda kept: kept.update(__extra__=np.str_("[]")))
        assert self.meta_test_exit(path, bad) == 3
        assert "__extra__ holds list" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, missing", [({}, "eta"), ({"eta": 0.01}, "round"), ({"round": 2}, "eta")])
    def test_extra_header_lacking_eta_or_round_is_a_data_error(self, tmp_path, capsys, extra, missing):
        path, checkpoint = self.trained(tmp_path)
        bad = self.rewritten(checkpoint, lambda kept: kept.update(__extra__=np.str_(json.dumps(extra))))
        assert self.meta_test_exit(path, bad) == 3
        assert f"KeyError: '{missing}'" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["truncated", "not_a_zip"])
    def test_truncated_or_foreign_file_is_a_data_error(self, tmp_path, capsys, content):
        path, checkpoint = self.trained(tmp_path)
        data = checkpoint.read_bytes()
        bad = tmp_path / "bad.npz"
        bad.write_bytes(data[: len(data) // 2] if content == "truncated" else b"round,loss\n1,0.5\n")
        assert self.meta_test_exit(path, bad) == 3
        assert "malformed checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["shape", "key", "other_part"])
    def test_part_that_does_not_fit_its_config_is_a_data_error(self, tmp_path, capsys, fault):
        path, checkpoint = self.trained(tmp_path)

        def edit(kept: dict) -> None:
            if fault == "shape":
                kept["meta/layer0.weights"] = kept["meta/layer0.weights"][:, :-1]
            elif fault == "key":
                del kept["meta/layer1.biases"]
            else:
                kept["encoder/layer0.weights"] = np.zeros((4, 5))

        bad = self.rewritten(checkpoint, edit)
        assert self.meta_test_exit(path, bad) == 3
        assert "does not match its config" in capsys.readouterr().err


def _rewrite_array(name: str, edit):
    """A fault that replaces the array in ``name`` by ``edit(array)``."""

    def corrupt(bundle: Path) -> None:
        path = bundle / name
        np.save(path, edit(np.load(path)), allow_pickle=True)

    return corrupt


def _truncate_support(bundle: Path) -> None:
    path = bundle / "support.npy"
    path.write_bytes(path.read_bytes()[:-3])


def _edit_meta(edit):
    """A fault that rewrites meta.json as ``edit(meta)`` leaves it."""

    def corrupt(bundle: Path) -> None:
        meta = json.loads((bundle / "meta.json").read_text())
        edit(meta)
        (bundle / "meta.json").write_text(json.dumps(meta))

    return corrupt


BUNDLE_FAULTS = {  # T00 of small_config: m = 5, p = 2, 42 support and 18 query rows
    "truncated_array_data": (_truncate_support, "support.npy: not a .npy array: Failed to read all data"),
    "wrong_column_count": (
        _rewrite_array("support.npy", lambda a: a[:, :-1]),
        "support.npy: 6 columns, but meta.json gives m + p = 7",
    ),
    "short_ap_names": (_edit_meta(lambda meta: meta["ap_names"].pop()), "4 AP names for m = 5"),
    "zero_row_array": (_rewrite_array("support.npy", lambda a: a[:0]), "support.npy: 0 rows, but meta.json gives 42"),
    "rows_differ_from_n_support": (
        _rewrite_array("support.npy", lambda a: a[:-1]),
        "support.npy: 41 rows, but meta.json gives 42",
    ),
    "object_array": (
        _rewrite_array("support.npy", lambda a: a.astype(object)),
        "support.npy: not a .npy array: Object arrays cannot be loaded",
    ),
    "float32_array": (
        _rewrite_array("query.npy", lambda a: a.astype(np.float32)),
        "query.npy: expected a 2-D float64 array, found 2-D float32",
    ),
    "missing_support": (lambda b: (b / "support.npy").unlink(), "support.npy"),
    "missing_query": (lambda b: (b / "query.npy").unlink(), "query.npy"),
    "empty_file": (lambda b: (b / "query.npy").write_bytes(b""), "query.npy: not a .npy array"),
    "meta_not_json": (lambda b: (b / "meta.json").write_text("{not json"), "JSONDecodeError"),
    "meta_without_m": (_edit_meta(lambda meta: meta.pop("m")), "KeyError: 'm'"),
}


@pytest.mark.filterwarnings("error::UserWarning")
class TestMalformedBundle:
    @pytest.mark.parametrize("fault", sorted(BUNDLE_FAULTS))
    def test_meta_train_exits_3(self, tmp_path, capsys, fault):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        corrupt, message = BUNDLE_FAULTS[fault]
        corrupt(experiments.load_experiment_config(path).tasks_dir / "T00")
        assert cli.run(["meta-train", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert message in err


HUGE_RATES = {"mu_encoder": 1e300, "mu_meta": 1e300, "mu_mapper": 1e300}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestDivergence:
    def test_meta_train_overflow_exits_4_and_writes_no_round_log(self, tmp_path, capsys):
        model = {**json.loads(small_config(tmp_path).read_text())["model"], **HUGE_RATES}
        path = small_config(tmp_path, model=model)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert "DivergenceError: round 1, client T00: local step 2 loss is" in err
        assert not (experiments.load_experiment_config(path).train_dir / "round_log.csv").exists()

    def test_meta_test_overflow_exits_4_and_writes_no_trace(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        trained = load_checkpoint(config.checkpoint_path)
        diverging = ModelConfig(**{**trained.config.to_dict(), **HUGE_RATES})
        save_checkpoint(config.checkpoint_path, dataclasses.replace(trained, config=diverging))
        assert cli.run(["meta-test", "--config", str(path)]) == 4
        assert "DivergenceError: task T02, MI seed 0: step 2 loss is" in capsys.readouterr().err
        assert not list(config.test_dir.rglob("trace.csv"))

    def test_theory_probe_overflow_exits_4_and_writes_no_report(self, tmp_path, capsys):
        probe = {"epsilon": 1e-4, "mu": 50, "max_steps": 30, "linearization_steps": 3,
                 "linearization_mu_list": [50, 1e-3]}
        path = small_config(tmp_path, theory_probe=probe)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        assert cli.run(["theory-probe", "--config", str(path)]) == 4
        assert "DivergenceError: theory probe smoothness: step" in capsys.readouterr().err
        assert not (experiments.load_experiment_config(path).experiment_dir / "theory").exists()
