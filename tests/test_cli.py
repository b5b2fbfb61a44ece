import dataclasses
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import types
import typing
import warnings
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from fedmetaloc import cli, experiments, metrics
from fedmetaloc.data import SchemaConfig, SyntheticEnvSpec, load_task_bundle
from fedmetaloc.errors import ConfigError, DataError
from fedmetaloc.federation import AdaptationTrace, FederationParams, MetaTestParams, load_checkpoint, meta_test
from fedmetaloc.metrics import TheoryProbeParams
from fedmetaloc.model import ModelConfig
from fedmetaloc.preprocess import PreprocessConfig

from helpers import reference_load_csv, small_config, tree_digest, write_uji_csv

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def with_dataset(tmp_path: Path, schema_text: str, header: str = "A,B,X,Y", **entry) -> Path:
    """``small_config`` plus one CSV dataset (two APs, then two coordinates, 20 rows)
    with the given schema file text and column names."""
    rows = [f"{-40 - i},{-70 + i},{i % 5}.0,{i // 5}.0" for i in range(20)]
    (tmp_path / "d0.csv").write_text("\n".join([header, *rows]) + "\n")
    (tmp_path / "d0_schema.json").write_text(schema_text)
    return small_config(tmp_path, datasets=[{"csv": "d0.csv", "schema": "d0_schema.json", "id": "D0", **entry}])


SCHEMA = '{"coord_columns": ["X", "Y"], "ap_columns": ["A", "B"]}'


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
        assert source.csv == tmp_path / "d0.csv" and source.partition == "none"
        assert source.schema == SchemaConfig(coord_columns=("X", "Y"), ap_columns=("A", "B"))
        assert opts == experiments.TaskOptions(id="D0", support_ratio=0.5)

    def test_an_entry_support_ratio_overrides_the_configs(self, tmp_path):
        path = small_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["synthetic_envs"][2]["support_ratio"] = 0.5
        path.write_text(json.dumps(raw))
        config = experiments.load_experiment_config(path)
        assert [config.split_ratio(opts) for _, opts in config.synthetic_envs] == [0.7, 0.7, 0.5]

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
    def test_writes_bundles_and_no_index(self, tmp_path):
        # the task lists live in the config alone: preprocess writes tasks/ and nothing else
        config = experiments.load_experiment_config(small_config(tmp_path))
        ids = experiments.cmd_preprocess(config)
        assert ids == ["T00", "T01", "T02"]
        for task_id in ids:
            bundle = config.tasks_dir / task_id
            assert sorted(path.name for path in bundle.iterdir()) == ["meta.json", "query.npy", "support.npy"]
            meta = json.loads((bundle / "meta.json").read_text())
            assert "preprocess" in meta["extra"]
        assert not (config.experiment_dir / "tasks_index.json").exists()
        assert [p.name for p in config.experiment_dir.iterdir()] == ["tasks"]

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
        path.write_text(json.dumps(raw))
        config = experiments.load_experiment_config(path)
        experiments.cmd_preprocess(config)
        # T02 takes ceil(0.5 * 60) support rows, T00 and T01 the config's ceil(0.7 * 60)
        for task_id, n_support in (("T00", 42), ("T01", 42), ("T02", 30)):
            task = load_task_bundle(config.tasks_dir / task_id)
            assert (task.support.n_samples, task.query.n_samples) == (n_support, 60 - n_support)

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


class TestDatasetPreprocess:
    def test_uji_shaped_csv_bundles_match_the_reference_reader(self, tmp_path, monkeypatch):
        csv = write_uji_csv(tmp_path / "trainingData.csv", [(0, 0), (0, 1), (1, 0), (1, 1)], rows=40, aps=30)
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

    def test_partition_by_a_label_the_schema_does_not_name_exits_3(self, tmp_path, capsys):
        path = with_dataset(tmp_path, SCHEMA, partition="floor")
        assert cli.run(["preprocess", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and "partition by floor requires floor labels" in err
        assert not (tmp_path / "out").exists()

    def test_coordinates_that_the_ap_prefix_matches_exit_3(self, tmp_path, capsys):
        schema = '{"coord_columns": ["LAT", "LON"], "ap_prefix": "L"}'
        path = with_dataset(tmp_path, schema, header="L1,L2,LAT,LON")
        assert cli.run(["preprocess", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error") and "['LAT', 'LON'] would be read both as APs and as coordinates" in err
        assert not (tmp_path / "out").exists()

    def test_a_one_coordinate_dataset_takes_the_plain_split(self, tmp_path):
        path = with_dataset(tmp_path, '{"coord_columns": ["X"], "ap_columns": ["A", "B"]}', support_ratio=0.5)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        task = load_task_bundle(experiments.load_experiment_config(path).tasks_dir / "D0")
        assert (task.support.n_samples, task.query.n_samples) == (10, 10)
        assert task.support.coords.shape == (10, 1)


def _set_cells(rows, cols, value):
    """An edit of d0.csv's values that sets the cells at ``rows``, ``cols`` to ``value``."""

    def edit(values: np.ndarray) -> np.ndarray:
        values[rows, cols] = value
        return values

    return edit


PREPROCESS_FAULTS = {  # an edit of d0.csv's (A, B, X, Y) values, and the message; T03 is d0.csv's task
    "nan_rssi": (_set_cells(3, 1, np.nan), "{csv}: task T03: column B holds a non-finite value"),
    "inf_coordinate": (_set_cells(5, 3, np.inf), "{csv}: task T03: column Y holds a non-finite value"),
    "every_ap_missing": (
        _set_cells(slice(None), slice(0, 2), 100.0),
        "task T03: AP selection dropped every column; signal space is empty",
    ),
    "one_sample": (lambda values: values[:1], "task T03: need at least 2 samples to split, got 1"),
}


class TestPreprocessChecksBeforeEmptying:
    """Preprocess loads, checks and builds every task before it empties
    ``tasks/``: an input it refuses leaves every earlier output as it was."""

    def ran(self, path: Path) -> dict[str, str]:
        """The output digest after all five phases ran on ``path``."""
        for phase in ("preprocess", "meta-train", "meta-test", "theory-probe", "report"):
            assert cli.run([phase, "--config", str(path)]) == 0, phase
        return tree_digest(path.parent / "out")

    @pytest.mark.parametrize("fault", sorted(PREPROCESS_FAULTS))
    def test_a_bad_environment_exits_3_naming_its_task_and_keeps_every_output(self, tmp_path, capsys, fault):
        # T03 sorts after the synthetic T00-T02, whose bundles a preprocess that emptied tasks/ first would rewrite
        path = with_dataset(tmp_path, SCHEMA, id="T03")
        before = self.ran(path)
        edit, message = PREPROCESS_FAULTS[fault]
        csv = tmp_path / "d0.csv"
        values = edit(np.loadtxt(csv, delimiter=",", skiprows=1, ndmin=2))
        np.savetxt(csv, values, delimiter=",", header="A,B,X,Y", comments="")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.run(["preprocess", "--config", str(path)]) == 3
        assert capsys.readouterr().err == f"data error: {message.format(csv=csv)}\n"
        assert [str(w.message) for w in caught] == []
        assert tree_digest(tmp_path / "out") == before

    def test_no_ap_column_matching_the_prefix_exits_3(self, tmp_path, capsys):
        path = with_dataset(tmp_path, SCHEMA, id="T03")
        before = self.ran(path)
        (tmp_path / "d0_schema.json").write_text('{"coord_columns": ["X", "Y"], "ap_prefix": "WAP"}')
        capsys.readouterr()
        assert cli.run(["preprocess", "--config", str(path)]) == 3
        assert capsys.readouterr().err == f"data error: {tmp_path / 'd0.csv'}: no AP columns match prefix 'WAP'\n"
        assert tree_digest(tmp_path / "out") == before

    def test_a_config_without_a_data_source_exits_2(self, tmp_path, capsys):
        path = small_config(tmp_path)
        before = self.ran(path)
        small_config(tmp_path, synthetic_envs=[])
        capsys.readouterr()
        assert cli.run(["preprocess", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "configuration error: config: no data source: set datasets or synthetic_envs\n"
        assert tree_digest(tmp_path / "out") == before

    def test_a_duplicate_task_id_exits_2(self, tmp_path, capsys):
        path = with_dataset(tmp_path, SCHEMA, id="T03")
        before = self.ran(path)
        with_dataset(tmp_path, SCHEMA, id="T01")
        capsys.readouterr()
        assert cli.run(["preprocess", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "configuration error: duplicate task id 'T01'\n"
        assert tree_digest(tmp_path / "out") == before


class TestModelResolution:
    def test_d_from_median_uses_cohort_ap_counts(self, tmp_path):
        config = experiments.load_experiment_config(
            small_config(tmp_path, d_from_median=True)
        )
        experiments.cmd_preprocess(config)
        resolved = experiments.resolved_model_config(config)
        # training envs have 5 and 6 APs: median 5.5 rounds half away from zero
        assert resolved.d == 6
        assert config.model.d == 4  # base config untouched


class TestBundleLoadsPerPhase:
    """Under ``d_from_median`` the latent width comes from the training
    bundles' ``meta.json``: each phase loads the arrays of its own tasks only."""

    def test_each_phase_loads_only_the_bundles_it_runs(self, tmp_path, monkeypatch):
        config = experiments.load_experiment_config(small_config(tmp_path, d_from_median=True))
        experiments.cmd_preprocess(config)
        loaded = []

        def counted(directory):
            loaded.append(Path(directory).name)
            return load_task_bundle(directory)

        monkeypatch.setattr(experiments, "load_task_bundle", counted)
        for command, expected in (
            (experiments.cmd_meta_train, ["T00", "T01"]),
            (experiments.cmd_meta_test, ["T02"]),
            (experiments.cmd_theory_probe, ["T02"]),
        ):
            loaded.clear()
            command(config)
            assert loaded == expected, command.__name__


class TestTaskListsFromTheConfig:
    """Every phase reads ``train_tasks`` and ``test_tasks`` from the config, so
    editing them after preprocess needs no preprocess rerun."""

    def test_edited_lists_train_and_test_the_listed_tasks(self, tmp_path):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        small_config(tmp_path, train_tasks=["T00"], test_tasks=["T01", "T02"])
        for phase in ("meta-train", "meta-test"):
            assert cli.run([phase, "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        assert (config.train_dir / "round_log.csv").read_text().splitlines()[0] == "round,mean_query_loss,T00"
        assert sorted(p.name for p in config.test_dir.iterdir()) == ["T01", "T02"]

    @pytest.mark.parametrize(
        "phase, lists, key",
        [
            ("meta-train", {"train_tasks": []}, "config.train_tasks is empty"),
            ("meta-test", {"test_tasks": []}, "config.test_tasks is empty"),
            ("theory-probe", {"train_tasks": [], "test_tasks": []}, "config.test_tasks and config.train_tasks"),
            ("report", {"test_tasks": []}, "config.test_tasks is empty; report"),
        ],
    )
    def test_an_empty_list_exits_2_naming_the_key(self, tmp_path, capsys, phase, lists, key):
        path = small_config(tmp_path)
        for step in ("preprocess", "meta-train", "meta-test", "theory-probe", "report"):
            assert cli.run([step, "--config", str(path)]) == 0
        before = tree_digest(tmp_path / "out")
        small_config(tmp_path, **lists)
        capsys.readouterr()
        assert cli.run([phase, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {key}")
        assert tree_digest(tmp_path / "out") == before

    @pytest.mark.parametrize("phase, task", [("meta-train", "T01"), ("meta-test", "T02"), ("theory-probe", "T02")])
    def test_a_listed_task_with_no_bundle_exits_3_naming_it(self, tmp_path, capsys, phase, task):
        path = small_config(tmp_path)
        for step in ("preprocess", "meta-train"):
            assert cli.run([step, "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        shutil.rmtree(config.tasks_dir / task)
        before = tree_digest(tmp_path / "out")
        capsys.readouterr()
        assert cli.run([phase, "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: not a task bundle (no meta.json): ")
        assert err.endswith(f"{os.sep}tasks{os.sep}{task}; run preprocess first\n")
        assert tree_digest(tmp_path / "out") == before

    @pytest.mark.parametrize("phase", ["meta-test", "theory-probe"])
    def test_lists_edited_after_meta_train_exit_3_until_meta_train_reruns(self, tmp_path, capsys, phase):
        path = small_config(tmp_path)
        for step in ("preprocess", "meta-train", "meta-test", "theory-probe"):
            assert cli.run([step, "--config", str(path)]) == 0
        before = tree_digest(tmp_path / "out")
        small_config(tmp_path, train_tasks=["T00"], test_tasks=["T01", "T02"])
        capsys.readouterr()
        assert cli.run([phase, "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith(
            f"data error: checkpoint {experiments.load_experiment_config(path).checkpoint_path} was meta-trained on "
            "['T00', 'T01'], config.train_tasks lists ['T00']; rerun meta-train"
        )
        assert tree_digest(tmp_path / "out") == before
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        assert cli.run([phase, "--config", str(path)]) == 0

    def test_a_checkpoint_without_its_round_log_exits_3(self, tmp_path, capsys):
        path = small_config(tmp_path)
        for step in ("preprocess", "meta-train"):
            assert cli.run([step, "--config", str(path)]) == 0
        (experiments.load_experiment_config(path).train_dir / "round_log.csv").unlink()
        before = tree_digest(tmp_path / "out")
        capsys.readouterr()
        assert cli.run(["meta-test", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: missing file: ") and err.endswith(f"{os.sep}round_log.csv\n")
        assert tree_digest(tmp_path / "out") == before


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

    def test_a_run_of_no_rounds_logs_its_clients_for_meta_test(self, tmp_path):
        path = small_config(tmp_path, federation={"rounds": 0, "eta": 0.01, "seed": 3})
        for step in ("preprocess", "meta-train", "meta-test"):
            assert cli.run([step, "--config", str(path)]) == 0
        log = experiments.load_experiment_config(path).train_dir / "round_log.csv"
        assert log.read_text() == "round,mean_query_loss,T00,T01\n"

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
                assert archive.namelist() == [*members, "__extra__.npy"]
                with archive.open("__extra__.npy") as fh:
                    extra = str(np.lib.format.read_array(fh))
            assert extra == json.dumps({"round": round_})

    def test_rerun_removes_the_earlier_runs_round_checkpoints(self, tmp_path):
        fed = {"rounds": 4, "local_steps": 2, "eta": 0.01, "batch_size": 16, "seed": 3, "checkpoint_every": 2}
        config = experiments.load_experiment_config(small_config(tmp_path, federation=fed))
        experiments.cmd_preprocess(config)
        experiments.cmd_meta_train(config)
        ckpt_dir = config.train_dir / "checkpoints"
        assert sorted(p.name for p in ckpt_dir.iterdir()) == ["meta_round_00002.npz", "meta_round_00004.npz"]
        first = (ckpt_dir / "meta_round_00002.npz").read_bytes()
        config = experiments.load_experiment_config(small_config(tmp_path, federation={**fed, "rounds": 2}))
        experiments.cmd_meta_train(config)
        assert sorted(p.name for p in ckpt_dir.iterdir()) == ["meta_round_00002.npz"]
        assert (ckpt_dir / "meta_round_00002.npz").read_bytes() == first
        config = experiments.load_experiment_config(small_config(tmp_path, federation={**fed, "checkpoint_every": 0}))
        experiments.cmd_meta_train(config)
        assert not list(config.train_dir.rglob("meta_round_*.npz"))

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

    def test_a_zero_ri_mde_at_a_checkpoint_reports_no_accuracy_improvement(self, tmp_path):
        entry = self.report(tmp_path, {("MI", 0): [1.0] * 50, ("RI", 0): [0.0] * 50})
        assert entry["improvement"]["accuracy"] == {"50": None}

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

    def test_report_without_test_tasks_exits_2_and_prints_nothing(self, tmp_path, capsys):
        path = small_config(tmp_path, test_tasks=[])
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli.run(["report", "--config", str(path)]) == 2
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out" / "smoke" / "report").exists()

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
        with pytest.raises(ConfigError, match=r"shared-part widths \[4, 8, 3\] differ from the config's \[5, 8, 3\]"):
            experiments.cmd_meta_test(other, checkpoint=config.checkpoint_path)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rerun_removes_the_earlier_runs_it_did_not_write(self, tmp_path, workers):
        config, _ = self.run_pipeline(tmp_path, workers=workers)
        assert experiments.run_dir(config, "T02", "RI", 1).is_dir()
        mt = {**json.loads((tmp_path / "exp.json").read_text())["meta_test"], "seeds": [0]}
        path = small_config(tmp_path, workers=workers, meta_test=mt)
        experiments.cmd_meta_test(experiments.load_experiment_config(path))
        runs = sorted(str(p.relative_to(config.test_dir)) for p in config.test_dir.glob("*/*/*"))
        assert runs == ["T02/MI/0", "T02/RI/0"]
        assert sorted(p.name for p in experiments.run_dir(config, "T02", "MI", 0).iterdir()) == [
            "errors_final.csv", "trace.csv"
        ]

    def test_rerun_without_a_test_task_removes_its_runs(self, tmp_path):
        config, _ = self.run_pipeline(tmp_path, train_tasks=["T00"], test_tasks=["T01", "T02"])
        assert sorted(p.name for p in config.test_dir.iterdir()) == ["T01", "T02"]
        self.run_pipeline(tmp_path, train_tasks=["T00", "T01"], test_tasks=["T02"])
        assert sorted(str(p.relative_to(config.test_dir)) for p in config.test_dir.rglob("*") if p.is_dir()) == [
            "T02", "T02/MI", "T02/MI/0", "T02/MI/1", "T02/RI", "T02/RI/0", "T02/RI/1"
        ]

    def test_worker_pool_matches_sequential(self, tmp_path):
        config, report = self.run_pipeline(tmp_path)
        parallel_cfg = experiments.load_experiment_config(small_config(tmp_path, workers=2))
        report_parallel = experiments.cmd_meta_test(parallel_cfg)
        assert report_parallel == report

    def test_one_worker_does_not_import_the_process_pool(self, tmp_path):
        config = experiments.load_experiment_config(small_config(tmp_path))
        experiments.cmd_preprocess(config)
        experiments.cmd_meta_train(config)
        code = (
            "import sys\n"
            "from fedmetaloc import experiments\n"
            "experiments.cmd_meta_test(experiments.load_experiment_config(sys.argv[1]))\n"
            "print(sorted(name for name in ('concurrent.futures.process', 'multiprocessing') if name in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "exp.json")],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


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

    def test_untrained_probe_builds_the_model_meta_train_trains(self, tmp_path):
        # under d_from_median, the random arm and the smoothness estimate run
        # the median-d model meta-train builds, with a checkpoint or without
        config = experiments.load_experiment_config(small_config(tmp_path, d_from_median=True))
        experiments.cmd_preprocess(config)
        before = experiments.cmd_theory_probe(config)
        experiments.cmd_meta_train(config)
        after = experiments.cmd_theory_probe(config)
        assert after["grad_sq_trace_random_init"] == before["grad_sq_trace_random_init"]
        assert after["delta1_hat"] == before["delta1_hat"]

    def test_a_meta_train_that_did_not_finish_exits_3_and_keeps_the_probe_report(self, tmp_path, capsys):
        # train/ without meta_final.npz: a meta-train killed before its last write
        path = small_config(tmp_path)
        for phase in ("preprocess", "meta-train", "theory-probe"):
            assert cli.run([phase, "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        config.checkpoint_path.unlink()
        before = tree_digest(config.experiment_dir / "theory")
        assert before
        capsys.readouterr()
        assert cli.run(["theory-probe", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: checkpoint not found: {config.checkpoint_path}")
        assert tree_digest(config.experiment_dir / "theory") == before

    def test_checkpoint_that_does_not_fit_the_config_exits_2(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        small_config(tmp_path, model={**json.loads(path.read_text())["model"], "d": 5})
        assert cli.run(["theory-probe", "--config", str(path)]) == 2
        assert "shared-part widths [4, 8, 3] differ from the config's [5, 8, 3]" in capsys.readouterr().err
        assert not (experiments.load_experiment_config(path).experiment_dir / "theory").exists()


class TestCheckpointSuppliesOnlyTheSharedPart:
    """After meta-train, every model setting but the shared part's widths may
    change: meta-test and the theory probe build the experiment's model and
    take only the trained shared part from the checkpoint."""

    def trained_then_edited(self, tmp_path, **model_edits):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        small_config(tmp_path, model={**json.loads(path.read_text())["model"], **model_edits})
        config = experiments.load_experiment_config(path)
        theta = load_checkpoint(config.checkpoint_path).params
        return path, config, theta, load_task_bundle(config.tasks_dir / "T02")

    def test_meta_test_fine_tunes_the_edited_model(self, tmp_path):
        edits = {"mu_encoder": 0.02, "mu_meta": 0.003, "mu_mapper": 0.004, "lambda_recon": 0.5, "mapper_hidden": [5, 3]}
        path, config, theta, task = self.trained_then_edited(tmp_path, **edits)
        assert cli.run(["meta-test", "--config", str(path)]) == 0
        for seed in config.meta_test.seeds:
            for mode, init in (("MI", theta), ("RI", None)):
                _, trace, per_sample = meta_test(task, config.model, init, config.meta_test, seed)
                expected = tmp_path / "expected" / mode / str(seed)
                experiments.write_trace(expected, trace, per_sample)
                for name in ("trace.csv", "errors_final.csv"):
                    written = experiments.run_dir(config, "T02", mode, seed) / name
                    assert written.read_bytes() == (expected / name).read_bytes()

    def test_theory_probe_runs_the_edited_model(self, tmp_path):
        edits = {"lambda_recon": 0.5, "mapper_hidden": [5, 3], "encoder_hidden": [7]}
        path, config, theta, task = self.trained_then_edited(tmp_path, **edits)
        assert cli.run(["theory-probe", "--config", str(path)]) == 0
        expected = {"task": "T02", **metrics.run_theory_probe(task, config.model, theta, config.theory_probe)}
        written = json.loads((config.experiment_dir / "theory" / "probe_report.json").read_text())
        assert written == json.loads(json.dumps(expected))

    @pytest.mark.parametrize("command", ["meta-test", "theory-probe"])
    def test_edited_shared_part_widths_exit_2(self, tmp_path, capsys, command):
        path, config, _, _ = self.trained_then_edited(tmp_path, meta_hidden=[9])
        assert cli.run([command, "--config", str(path)]) == 2
        assert "shared-part widths [4, 8, 3] differ from the config's [4, 9, 3]" in capsys.readouterr().err
        assert not config.test_dir.exists() and not (config.experiment_dir / "theory").exists()


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

    def test_bundle_whose_task_id_differs_from_its_directory_exits_3(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        meta_path = config.tasks_dir / "T02" / "meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "task_id": "T09"}))
        capsys.readouterr()
        assert cli.run(["meta-test", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "meta.json" in err and "'T09'" in err and "'T02'" in err
        assert not (config.test_dir / "T09").exists()

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

    @pytest.mark.parametrize("command", ["meta-train", "meta-test", "theory-probe"])
    def test_model_p_that_is_not_the_tasks_coordinate_count_exits_2(self, tmp_path, capsys, command):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        if command != "meta-train":
            assert cli.run(["meta-train", "--config", str(path)]) == 0
        exp_dir = experiments.load_experiment_config(path).experiment_dir
        before = tree_digest(exp_dir)
        small_config(tmp_path, model={**json.loads(path.read_text())["model"], "p": 3})
        capsys.readouterr()
        assert cli.run([command, "--config", str(path)]) == 2
        task = "T00" if command == "meta-train" else "T02"  # the first task the phase loads
        assert f"model.p is 3, but task {task} has 2 coordinates" in capsys.readouterr().err
        assert tree_digest(exp_dir) == before

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
            ("seeds_is_empty", "config.meta_test: seeds must not be empty"),
            ("seeds_repeated", "config.meta_test: seeds lists [0] more than once"),
            ("train_task_repeated", "config: train_tasks lists ['T00'] more than once"),
            ("test_task_repeated", "config: test_tasks lists ['T02'] more than once"),
            ("bool_as_string", "d_from_median"),
            ("schema_not_json", "datasets[0].schema"),
            ("unknown_schema_key", "coordinates"),
            ("synthetic_env_sentinel", "sentinel"),
            ("entry_support_ratio_above_one", "synthetic_envs[2] (T02).support_ratio must be in (0, 1)"),
            ("config_support_ratio_of_one", "config: support_ratio must be in (0, 1) for task T00, got 1.0"),
            ("entry_support_ratio_of_zero", "synthetic_envs[2] (T02).support_ratio must be in (0, 1)"),
            ("entry_support_ratio_of_one", "synthetic_envs[2] (T02).support_ratio must be in (0, 1)"),
            ("synthetic_env_support_region", "config.synthetic_envs[2] (T02): unknown key(s) ['support_region']"),
            ("dataset_support_region", "config.datasets[0] (D0): unknown key(s) ['support_region']"),
            ("unknown_partition", "config: unknown key(s) ['partition']"),
            ("unknown_dataset_partition", "config.datasets[0] (D0): partition must be one of ('none', "),
            ("zero_workers", "config: workers must be >= 1, got 0"),
            ("negative_workers", "config: workers must be >= 1, got -2"),
            ("negative_meta_test_seed", "config.meta_test: seeds must be >= 0, got [0, -1]"),
            ("negative_split_seed", "config: split_seed must be >= 0, got -1"),
            ("negative_synthetic_seed", "config.synthetic_envs[1] (T01): seed must be >= 0, got -1"),
            ("negative_ap_seed", "config.synthetic_envs[1] (T01): ap_seed must be >= 0, got -4"),
            ("negative_federation_seed", "config.federation: seed must be >= 0, got -3"),
            ("negative_theory_probe_seed", "config.theory_probe: seed must be >= 0, got -1"),
            ("targets_repeated", "config.meta_test: targets_m lists [8.0] more than once"),
            ("step_checkpoints_repeated", "config.meta_test: step_checkpoints lists [3] more than once"),
            ("linearization_mu_repeated", "config.theory_probe: linearization_mu_list lists [0.01] more than once"),
            ("schema_prefix_and_columns", "config.datasets[0].schema: schema needs exactly one of ap_prefix and"),
            ("schema_empty_columns", "config.datasets[0].schema: schema needs exactly one of ap_prefix and"),
            ("model_input_width", "config.model: unknown key(s) ['m']"),
            ("nan_eta", "config.federation: eta must be a finite number, got nan"),
            ("nan_epsilon", "config.theory_probe: epsilon must be a finite number, got nan"),
            ("nan_target", "config.meta_test: targets_m must be a finite number, got [nan]"),
            ("overflowing_literal_eta", "config.federation: eta must be a finite number, got inf"),
            ("integer_too_large_for_a_float_eta", "config.federation: eta must be a finite number, got 1000000000"),
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
        elif case in (
            "entry_support_ratio_above_one", "entry_support_ratio_of_zero", "entry_support_ratio_of_one",
            "synthetic_env_support_region",
        ):
            # T00 and T01 are valid: only T02's entry is malformed
            path = small_config(tmp_path)
            raw = json.loads(path.read_text())
            ratios = {"entry_support_ratio_above_one": 1.5, "entry_support_ratio_of_zero": 0.0}
            if case in ratios:
                raw["synthetic_envs"][2]["support_ratio"] = ratios[case]
            elif case == "entry_support_ratio_of_one":
                # the bound holds for every entry: none may take all its rows as support
                raw["synthetic_envs"][2]["support_ratio"] = 1.0
            else:
                raw["synthetic_envs"][2]["support_region"] = [0.0, 0.0, 20.0, 25.0]
            path.write_text(json.dumps(raw))
        elif case == "config_support_ratio_of_one":
            path = small_config(tmp_path, support_ratio=1.0)
        elif case == "dataset_support_region":
            path = with_dataset(tmp_path, SCHEMA, support_region=[0.0, 0.0, 2.0, 2.0])
        elif case == "unknown_partition":
            path = small_config(tmp_path, partition="bogus")
        elif case == "unknown_dataset_partition":
            path = with_dataset(tmp_path, SCHEMA, partition="bogus")
        elif case == "seeds_is_a_number":
            path = small_config(tmp_path, meta_test={"steps": 6, "seeds": 3})
        elif case == "seeds_is_empty":
            path = small_config(tmp_path, meta_test={"steps": 6, "seeds": []})
        elif case == "seeds_repeated":
            path = small_config(tmp_path, meta_test={"steps": 6, "seeds": [0, 0]})
        elif case == "train_task_repeated":
            path = small_config(tmp_path, train_tasks=["T00", "T00", "T01"])
        elif case == "test_task_repeated":
            path = small_config(tmp_path, test_tasks=["T02", "T02"])
        elif case == "negative_meta_test_seed":
            path = small_config(tmp_path, meta_test={"steps": 6, "seeds": [0, -1]})
        elif case == "negative_split_seed":
            path = small_config(tmp_path, split_seed=-1)
        elif case in ("negative_synthetic_seed", "negative_ap_seed"):
            path = small_config(tmp_path)
            raw = json.loads(path.read_text())
            raw["synthetic_envs"][1].update({"seed": -1} if case == "negative_synthetic_seed" else {"ap_seed": -4})
            path.write_text(json.dumps(raw))
        elif case == "negative_federation_seed":
            path = small_config(tmp_path, federation={"rounds": 2, "seed": -3})
        elif case == "negative_theory_probe_seed":
            path = small_config(tmp_path, theory_probe={"seed": -1})
        elif case == "targets_repeated":
            path = small_config(tmp_path, meta_test={"steps": 6, "targets_m": [8.0, 8]})
        elif case == "step_checkpoints_repeated":
            path = small_config(tmp_path, meta_test={"steps": 6, "step_checkpoints": [3, 3, 6]})
        elif case == "linearization_mu_repeated":
            path = small_config(tmp_path, theory_probe={"linearization_mu_list": [0.01, 0.01]})
        elif case == "schema_prefix_and_columns":
            path = with_dataset(tmp_path, SCHEMA.replace("}", ', "ap_prefix": "A"}'))
        elif case == "schema_empty_columns":
            path = with_dataset(tmp_path, '{"coord_columns": ["X", "Y"], "ap_columns": []}')
        elif case in ("zero_workers", "negative_workers"):
            path = small_config(tmp_path, workers=0 if case == "zero_workers" else -2)
        elif case == "model_input_width":  # m is each task's own AP count
            path = small_config(tmp_path)
            raw = json.loads(path.read_text())
            raw["model"]["m"] = 5
            path.write_text(json.dumps(raw))
        elif case == "nan_eta":
            path = small_config(tmp_path, federation={"eta": float("nan")})
        elif case == "nan_epsilon":
            path = small_config(tmp_path, theory_probe={"epsilon": float("nan")})
        elif case == "nan_target":
            path = small_config(tmp_path, meta_test={"steps": 6, "targets_m": [float("nan")]})
        elif case == "overflowing_literal_eta":  # parses to inf
            path = small_config(tmp_path, federation={"eta": 0.01})
            path.write_text(path.read_text().replace('"eta": 0.01', '"eta": 1e400'))
        elif case == "integer_too_large_for_a_float_eta":
            path = small_config(tmp_path, federation={"eta": 10**400})
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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"federation": {"eta": 10**400}},
                "config.federation: eta must be a finite number, got 1" + "0" * 39 + "... (401 characters)",
            ),
            (
                {"meta_test": {"steps": 6, "seeds": [*range(299), -1]}},
                "config.meta_test: seeds must be >= 0, got "
                "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1... (1389 characters)",
            ),
            (
                {"meta_test": {"steps": 6, "seeds": [*range(150)] * 2}},
                "config.meta_test: seeds lists "
                "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1... (640 characters) more than once",
            ),
            (
                {"federation": {"eta": [0.01] * 300}},
                "config.federation.eta must be float, got "
                "[0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.0... (1800 characters)",
            ),
        ],
        ids=["400_digit_eta", "300_seeds_one_negative", "300_seeds_all_repeated", "300_entry_list_as_eta"],
    )
    def test_a_long_rejected_value_is_cut(self, tmp_path, capsys, overrides, message):
        assert cli.run(["preprocess", "--config", str(small_config(tmp_path, **overrides))]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"configuration error: {message}" and len(line) <= 140


# The config sections as (dataclass, the section path that errors name).
# Dataset sections are tested on small_config's one CSV dataset
# (with_dataset), the entry sections on its second synthetic environment.
SECTIONS = [
    (experiments.ExperimentConfig, "config"),
    (PreprocessConfig, "config.preprocess"),
    (ModelConfig, "config.model"),
    (FederationParams, "config.federation"),
    (MetaTestParams, "config.meta_test"),
    (TheoryProbeParams, "config.theory_probe"),
    (SyntheticEnvSpec, "config.synthetic_envs[1] (T01)"),
    (experiments.TaskOptions, "config.synthetic_envs[1]"),
    (experiments.DatasetSource, "config.datasets[0] (D0)"),
    (SchemaConfig, "config.datasets[0].schema"),
]
RULES = {"ge", "gt", "le", "one_of", "nonempty", "unique"}
# a valid value of each list field that has no default to start from
VALID_LISTS = {
    "train_tasks": ["T00", "T01"],
    "test_tasks": ["T02"],
    "coord_columns": ["X", "Y"],
    "ap_columns": ["A", "B"],
}
WRONG_TYPE = {int: "1", float: "1.0", str: 1}


def malformed_elements(kind: type, rules) -> list[tuple[str, object]]:
    """(label, value) pairs that break one value of type ``kind`` under ``rules``."""
    cases = [("wrong_type", WRONG_TYPE[kind])]
    if kind is float:
        cases += [("nan", float("nan")), ("inf", float("inf")), ("-inf", float("-inf")), ("huge_int", 10**400)]
    if "ge" in rules:
        cases.append(("below_min", rules["ge"] - 1))
    if "gt" in rules:
        cases.append(("at_exclusive_min", rules["gt"]))
    if "le" in rules:
        cases.append(("above_max", rules["le"] + 1))
    if "one_of" in rules:
        cases.append(("not_one_of", "bogus"))
    return cases


def declared_cases() -> list:
    """One case per malformed value that a constrained field's metadata (or a
    float in its type) implies, for every field of every section."""
    cases = []
    for cls, where in SECTIONS:
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            hint, rules = hints[f.name], f.metadata
            assert set(rules) <= RULES, f"{cls.__name__}.{f.name}: unknown rule(s) {set(rules) - RULES}"
            if isinstance(hint, types.UnionType):  # X | None
                (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
            listed = typing.get_origin(hint) in (tuple, list)
            kind = typing.get_args(hint)[0] if listed else hint
            if not rules and kind is not float:
                continue
            values = malformed_elements(kind, rules)
            if listed:
                valid = list(VALID_LISTS.get(f.name, f.default))
                values = [("not_a_list", valid[0])] + [(label, [bad, *valid[1:]]) for label, bad in values]
                if rules.get("unique"):
                    values.append(("repeated", [valid[0], *valid]))
            if rules.get("nonempty"):
                values.append(("empty", [] if listed else ""))
            cases += [pytest.param(cls, where, f.name, v, id=f"{where}.{f.name}-{label}") for label, v in values]
    return cases


class TestDeclaredConstraints:
    """Every constrained field of every config section, malformed in each way
    its declaration implies: ``preprocess`` exits 2 at load, names the
    section and the key, and writes nothing."""

    def config_with(self, tmp_path: Path, cls, key: str, value) -> Path:
        if cls in (SchemaConfig, experiments.DatasetSource):
            schema = {**json.loads(SCHEMA), key: value} if cls is SchemaConfig else json.loads(SCHEMA)
            return with_dataset(tmp_path, json.dumps(schema), **({} if cls is SchemaConfig else {key: value}))
        path = small_config(tmp_path)
        raw = json.loads(path.read_text())
        if cls is experiments.ExperimentConfig:
            raw[key] = value
        elif cls in (SyntheticEnvSpec, experiments.TaskOptions):
            raw["synthetic_envs"][1][key] = value
        else:
            raw.setdefault(dict(SECTIONS)[cls].split(".")[1], {})[key] = value
        path.write_text(json.dumps(raw))
        return path

    def test_every_section_declares_constraints(self):
        assert {cls for cls, _, _, _ in (case.values for case in declared_cases())} == {cls for cls, _ in SECTIONS}

    @pytest.mark.parametrize("cls, where, key, value", declared_cases())
    def test_exits_2_and_names_the_section_and_key(self, tmp_path, capsys, cls, where, key, value):
        path = self.config_with(tmp_path, cls, key, value)
        assert cli.run(["preprocess", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert f"{where}.{key}" in err or f"{where}: {key} " in err, err
        assert not (tmp_path / "out").exists()


class TestShippedConfigsLoad:
    """The strict parser accepts every config the repository ships or generates."""

    def test_synthetic_cohort(self):
        config = experiments.load_experiment_config(CONFIGS / "synthetic_cohort.json")
        assert [opts.id for _, opts in config.synthetic_envs] == [f"S{i:02d}" for i in range(10)]

    def test_uji_multi_floor_and_its_schema(self, tmp_path):
        # with absolute csv and schema paths and a one-row stand-in for the CSV
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


class TestPaperConfigOffline:
    """The five commands on ``configs/uji_multi_floor.json``, at the paper's
    model shapes but a few steps, over a generated CSV in the UJIIndoorLoc
    schema with its 13 building/floor tasks. No accuracy is claimed."""

    SUMMARY = r"target (5\.0|10\.0|15\.0) m: MI faster in [01]/1 paired seeds, median step reduction -?\d+%"

    def test_five_commands_write_every_phase_output(self, tmp_path, capsys):
        raw = json.loads((CONFIGS / "uji_multi_floor.json").read_text())
        tasks = raw["train_tasks"] + raw["test_tasks"]
        groups = [(int(t[1]), int(t[4])) for t in tasks]  # B{building}_F{floor}
        csv = write_uji_csv(tmp_path / "trainingData.csv", groups)
        raw["datasets"][0].update(csv=str(csv), schema=str(CONFIGS / "uji_schema.json"))
        raw["federation"].update(rounds=1, local_steps=1, checkpoint_every=1)
        raw["meta_test"].update(steps=2, seeds=[0])
        raw["theory_probe"] = {"max_steps": 2, "linearization_mu_list": [0.01], "linearization_steps": 1}
        path = tmp_path / "uji_multi_floor.json"
        path.write_text(json.dumps({**raw, "out_dir": str(tmp_path / "out")}))
        out = {}
        for command in ("preprocess", "meta-train", "meta-test", "theory-probe", "report"):
            assert cli.run([command, "--config", str(path)]) == 0, command
            out[command] = capsys.readouterr().out.splitlines()

        exp_dir = tmp_path / "out" / "uji_multi_floor"
        expected = {"train/round_log.csv", "train/meta_final.npz",
                    "train/checkpoints/meta_round_00001.npz", "report/metrics.json", "theory/probe_report.json"}
        expected |= {f"tasks/{t}/{name}" for t in tasks for name in ("meta.json", "support.npy", "query.npy")}
        for t in raw["test_tasks"]:
            for mode in ("MI", "RI"):
                expected |= {f"test/{t}/{mode}/0/trace.csv", f"test/{t}/{mode}/0/errors_final.csv"}
                expected.add(f"report/{t}_{mode}_cdf.csv")
        assert set(tree_digest(exp_dir)) == expected
        summaries = out["meta-test"][1:]
        assert [re.fullmatch(self.SUMMARY, line).group(1) for line in summaries] == ["5.0", "10.0", "15.0"]
        assert out["report"][1:] == summaries


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

    @pytest.mark.parametrize("missing", ["__extra__"])
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

    @pytest.mark.parametrize("extra", [{}, {"eta": 0.01}])
    def test_extra_header_lacking_eta_or_round_is_a_data_error(self, tmp_path, capsys, extra):
        path, checkpoint = self.trained(tmp_path)
        bad = self.rewritten(checkpoint, lambda kept: kept.update(__extra__=np.str_(json.dumps(extra))))
        assert self.meta_test_exit(path, bad) == 3
        assert "KeyError: 'round'" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["truncated", "not_a_zip"])
    def test_truncated_or_foreign_file_is_a_data_error(self, tmp_path, capsys, content):
        path, checkpoint = self.trained(tmp_path)
        data = checkpoint.read_bytes()
        bad = tmp_path / "bad.npz"
        bad.write_bytes(data[: len(data) // 2] if content == "truncated" else b"round,loss\n1,0.5\n")
        assert self.meta_test_exit(path, bad) == 3
        assert "malformed checkpoint" in capsys.readouterr().err

    STACK_FAULTS = {  # the shared part's widths are [4, 8, 3]
        "shape": "layer0 biases (8,) do not fit weights (7, 4)",
        "biases": "layer1 biases (2,) do not fit weights (3, 8)",
        "chain": "layer1 takes 7 inputs, but layer0 gives 8",
        "key": "are not meta/layer0..k-1.weights|biases",
        "gap": "are not meta/layer0..k-1.weights|biases",
        "other_part": "are not meta/layer0..k-1.weights|biases",
    }

    @pytest.mark.parametrize("fault", STACK_FAULTS)
    def test_part_that_does_not_fit_its_config_is_a_data_error(self, tmp_path, capsys, fault):
        path, checkpoint = self.trained(tmp_path)

        def edit(kept: dict) -> None:
            if fault == "shape":
                kept["meta/layer0.weights"] = kept["meta/layer0.weights"][:-1]
            elif fault == "biases":
                kept["meta/layer1.biases"] = kept["meta/layer1.biases"][:-1]
            elif fault == "chain":
                kept["meta/layer1.weights"] = kept["meta/layer1.weights"][:, :-1]
            elif fault == "key":
                del kept["meta/layer1.biases"]
            elif fault == "gap":
                for role in ("weights", "biases"):
                    kept[f"meta/layer2.{role}"] = kept.pop(f"meta/layer1.{role}")
            else:
                kept["encoder/layer0.weights"] = np.zeros((4, 5))

        bad = self.rewritten(checkpoint, edit)
        assert self.meta_test_exit(path, bad) == 3
        assert self.STACK_FAULTS[fault] in capsys.readouterr().err
        assert not experiments.load_experiment_config(path).test_dir.exists()

    def test_well_formed_stack_of_other_widths_exits_2(self, tmp_path, capsys):
        path, checkpoint = self.trained(tmp_path)
        # layer0 narrowed to 3 inputs: an archive that chains, for another config
        bad = self.rewritten(checkpoint, lambda kept: kept.update(
            {"meta/layer0.weights": kept["meta/layer0.weights"][:, :-1]}
        ))
        assert self.meta_test_exit(path, bad) == 2
        assert "shared-part widths [3, 8, 3] differ from the config's [4, 8, 3]" in capsys.readouterr().err

    def test_archive_in_the_earlier_format_loads_bit_exactly(self, tmp_path):
        """An archive that also holds the model config as ``__config__`` and
        ``eta`` in ``__extra__``, as meta-train wrote before, gives the same θ,
        round and meta-test outputs."""
        path, checkpoint = self.trained(tmp_path)
        config = experiments.load_experiment_config(path)

        def earlier(kept: dict) -> None:
            extra = json.loads(str(kept.pop("__extra__")))
            kept["__config__"] = np.str_(json.dumps({**asdict(config.model), "m": None}, sort_keys=True))
            kept["__extra__"] = np.str_(json.dumps({**extra, "eta": config.federation.eta}, sort_keys=True))

        old = self.rewritten(checkpoint, earlier)
        with zipfile.ZipFile(old) as archive:
            assert archive.namelist()[-2:] == ["__config__.npy", "__extra__.npy"]
        current, loaded = load_checkpoint(checkpoint), load_checkpoint(old)
        assert (loaded.widths, loaded.round) == (current.widths, current.round) == ([4, 8, 3], 2)
        assert loaded.params.tobytes() == current.params.tobytes()
        outputs = []
        for archive in (checkpoint, old):
            assert self.meta_test_exit(path, archive) == 0
            outputs.append({**tree_digest(config.test_dir), **tree_digest(config.report_dir)})
            shutil.rmtree(config.test_dir)
            shutil.rmtree(config.report_dir)
        assert outputs[0] == outputs[1] and len(outputs[0]) > 1


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


def _no_aps(bundle: Path) -> None:
    """A bundle that is whole but for having no AP column: m = 0, the arrays hold the coordinates alone."""
    _edit_meta(lambda meta: meta.update(m=0, ap_names=[]))(bundle)
    for name in ("support.npy", "query.npy"):
        _rewrite_array(name, lambda a: a[:, -2:])(bundle)


BUNDLE_FAULTS = {  # T00 and T02 of small_config: m = 5, p = 2, 42 support and 18 query rows
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
    "no_aps": (_no_aps, "meta.json: m must be >= 1, got 0"),
    "nan_in_support": (
        _rewrite_array("support.npy", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 8, np.nan, a)),
        "support.npy: non-finite value nan at row 1, column 1",
    ),
    "inf_in_query": (
        _rewrite_array("query.npy", lambda a: np.where(np.arange(a.size).reshape(a.shape) == 6, -np.inf, a)),
        "query.npy: non-finite value -inf at row 0, column 6",
    ),
    "one_label_scale": (
        _edit_meta(lambda meta: meta.update(label_scale=meta["label_scale"][:1])),
        "label_scale must be 2 finite numbers, got [",
    ),
    "three_label_scales": (
        _edit_meta(lambda meta: meta["label_scale"].append(1.0)),
        "label_scale must be 2 finite numbers, got [",
    ),
    "zero_label_scales": (_edit_meta(lambda meta: meta.update(label_scale=[0, 0])), "label_scale must be > 0, got [0.0, 0.0]"),
    "null_label_center": (
        _edit_meta(lambda meta: meta["label_center"].__setitem__(0, None)),
        "label_center must be 2 finite numbers, got [nan, ",
    ),
}


@pytest.mark.filterwarnings("error::UserWarning")
class TestMalformedBundle:
    @pytest.mark.parametrize("split", ["support", "query"])
    def test_an_empty_split_exits_3_naming_the_task(self, tmp_path, capsys, split):
        # the one check that keeps an empty batch or query set from the model and the MDE
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        bundle = experiments.load_experiment_config(path).tasks_dir / "T00"
        _edit_meta(lambda meta: meta.update({f"n_{split}": 0}))(bundle)
        _rewrite_array(f"{split}.npy", lambda a: a[:0])(bundle)
        assert cli.run(["meta-train", "--config", str(path)]) == 3
        assert f"data error: malformed {bundle / 'meta.json'}: n_{split} must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fault, message",
        [
            (_edit_meta(lambda meta: meta.pop("m")), "KeyError: 'm'"),
            (_edit_meta(lambda meta: meta["ap_names"].pop()), "5 AP names for m = 6"),
            (_edit_meta(lambda meta: meta.update(task_id="T09")), "task_id 'T09' differs from the bundle directory's"),
            (_edit_meta(lambda meta: meta.update(label_scale=[1.0, 0.0])), "label_scale must be > 0, got [1.0, 0.0]"),
            (lambda b: (b / "meta.json").unlink(), "not a task bundle (no meta.json)"),
        ],
        ids=["no_m", "short_ap_names", "task_id", "zero_label_scale", "no_meta"],
    )
    def test_malformed_training_meta_makes_meta_test_exit_3(self, tmp_path, capsys, fault, message):
        # under d_from_median meta-test reads each training bundle's meta.json, and only that
        path = small_config(tmp_path, d_from_median=True)
        for phase in ("preprocess", "meta-train"):
            assert cli.run([phase, "--config", str(path)]) == 0
        bundle = experiments.load_experiment_config(path).tasks_dir / "T01"
        fault(bundle)
        capsys.readouterr()
        assert cli.run(["meta-test", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(bundle) in err and message in err

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

    @pytest.mark.parametrize("command", ["meta-test", "theory-probe"])
    @pytest.mark.parametrize("fault", sorted(BUNDLE_FAULTS))
    def test_test_task_phases_exit_3_and_name_the_file(self, tmp_path, capsys, command, fault):
        # both read the test task T02, which has T00's shapes
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        bundle = experiments.load_experiment_config(path).tasks_dir / "T02"
        corrupt, message = BUNDLE_FAULTS[fault]
        corrupt(bundle)
        capsys.readouterr()
        assert cli.run([command, "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert f"{bundle}{os.sep}" in err and message in err


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
        small_config(tmp_path, model={**json.loads(path.read_text())["model"], **HUGE_RATES})
        config = experiments.load_experiment_config(path)
        assert cli.run(["meta-test", "--config", str(path)]) == 4
        # step 1's update overflows, and its support loss is the first value checked after it
        assert "DivergenceError: task T02, MI seed 0: step 1 support loss is" in capsys.readouterr().err
        assert not list(config.test_dir.rglob("trace.csv"))

    def test_meta_test_divergence_at_the_last_step_exits_4_and_writes_no_trace(self, tmp_path, capsys):
        # the only step's pre-update loss is finite; its support loss and query MDE are not
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        raw = json.loads(path.read_text())
        small_config(tmp_path, model={**raw["model"], **HUGE_RATES},
                     meta_test={**raw["meta_test"], "steps": 1, "step_checkpoints": [1]})
        config = experiments.load_experiment_config(path)
        assert cli.run(["meta-test", "--config", str(path)]) == 4
        assert "DivergenceError: task T02, MI seed 0: step 1 " in capsys.readouterr().err
        assert not list(config.test_dir.rglob("trace.csv"))
        assert not config.report_dir.exists()

    def test_theory_probe_overflow_exits_4_and_writes_no_report(self, tmp_path, capsys):
        probe = {"epsilon": 1e-4, "mu": 50, "max_steps": 30, "linearization_steps": 3,
                 "linearization_mu_list": [50, 1e-3]}
        path = small_config(tmp_path, theory_probe=probe)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        assert cli.run(["theory-probe", "--config", str(path)]) == 4
        assert "DivergenceError: theory probe smoothness: step" in capsys.readouterr().err
        assert not (experiments.load_experiment_config(path).experiment_dir / "theory").exists()

    def test_meta_train_query_loss_overflow_exits_4_naming_round_and_client(self, tmp_path, capsys):
        # no local step runs: round 1's server step sends theta past float range,
        # and round 2's first query loss is the first loss that is not finite
        fed = {"rounds": 2, "local_steps": 0, "eta": 1e300, "batch_size": 16, "seed": 3}
        path = small_config(tmp_path, federation=fed)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 4
        assert "DivergenceError: round 2, client T00: query loss is" in capsys.readouterr().err
        assert not (experiments.load_experiment_config(path).train_dir / "round_log.csv").exists()


class TestPrefixProjectionConfig:
    """``encoder_init: "prefix_projection"``, the shipped cohort's encoder start, at the CLI."""

    MODEL = {"d": 4, "n": 3, "p": 2, "encoder_hidden": [], "decoder_hidden": [6], "meta_hidden": [8],
             "mapper_hidden": [4], "encoder_init": "prefix_projection"}

    def test_fewer_aps_than_d_exits_2_naming_both(self, tmp_path, capsys):
        path = small_config(tmp_path, model={**self.MODEL, "d": 7})
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 2
        assert "configuration error: prefix_projection needs m >= d, got m=5, d=7" in capsys.readouterr().err

    def test_a_hidden_encoder_layer_exits_2_at_load(self, tmp_path, capsys):
        path = small_config(tmp_path, model={**self.MODEL, "encoder_hidden": [6]})
        assert cli.run(["preprocess", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: config.model: prefix_projection requires a single-layer")
        assert not (tmp_path / "out").exists()


def bad_csv_dataset(tmp_path: Path) -> dict:
    """A ``datasets`` entry whose CSV holds a cell that is not a number (a data error at load)."""
    (tmp_path / "d0.csv").write_text("A,B,X,Y\n-40,oops,0.0,0.0\n")
    (tmp_path / "d0_schema.json").write_text(SCHEMA)
    return {"csv": "d0.csv", "schema": "d0_schema.json", "id": "D0"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestPhaseOwnsItsDirectory:
    """Each phase removes its output directory once its inputs are loaded and
    checked, then writes: a rerun leaves no file of an earlier run, a failed
    run leaves only its own partial outputs, which the next phase refuses, and
    an error at load leaves every earlier output as it was."""

    def test_preprocess_rerun_without_an_environment_drops_its_bundle(self, tmp_path):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        envs = json.loads(path.read_text())["synthetic_envs"]
        path = small_config(tmp_path, synthetic_envs=envs[:2], test_tasks=[])
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        assert sorted(p.name for p in config.experiment_dir.iterdir()) == ["tasks"]
        assert sorted(p.name for p in config.tasks_dir.iterdir()) == ["T00", "T01"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_meta_train_rerun_removes_every_output_of_the_old_checkpoint(self, tmp_path, capsys, workers):
        path = small_config(tmp_path, workers=workers)
        for phase in ("preprocess", "meta-train", "meta-test", "theory-probe"):
            assert cli.run([phase, "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        tasks, checkpoint = tree_digest(config.tasks_dir), config.checkpoint_path.read_bytes()
        small_config(tmp_path, workers=workers, federation={**json.loads(path.read_text())["federation"], "seed": 4})
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        assert config.checkpoint_path.read_bytes() != checkpoint
        assert tree_digest(config.tasks_dir) == tasks
        assert sorted(p.name for p in config.experiment_dir.iterdir()) == ["tasks", "train"]
        capsys.readouterr()
        assert cli.run(["report", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("data error: missing trace for T02/MI/0")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_preprocess_rerun_removes_every_later_output(self, tmp_path, capsys, workers):
        path = small_config(tmp_path, workers=workers)
        for phase in ("preprocess", "meta-train", "meta-test", "theory-probe"):
            assert cli.run([phase, "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        tasks = tree_digest(config.tasks_dir)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert tree_digest(config.tasks_dir) == tasks
        assert sorted(p.name for p in config.experiment_dir.iterdir()) == ["tasks"]
        capsys.readouterr()
        assert cli.run(["meta-test", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("data error: checkpoint not found")

    def test_meta_test_rerun_keeps_the_checkpoint_and_the_probe_report(self, tmp_path):
        path = small_config(tmp_path)
        for phase in ("preprocess", "meta-train", "theory-probe", "meta-test"):
            assert cli.run([phase, "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        before = tree_digest(config.experiment_dir)
        small_config(tmp_path, meta_test={**json.loads(path.read_text())["meta_test"], "seeds": [0]})
        assert cli.run(["meta-test", "--config", str(path)]) == 0
        after = tree_digest(config.experiment_dir)

        def upstream(digest):
            return {key: value for key, value in digest.items() if not key.startswith(("test/", "report/"))}

        assert "theory/probe_report.json" in upstream(after) and upstream(after) == upstream(before)
        assert not experiments.run_dir(config, "T02", "MI", 1).exists()

    def test_theory_probe_rerun_empties_only_theory(self, tmp_path):
        # a probe killed between writing its temporary file and renaming it leaves that file
        path = small_config(tmp_path)
        for phase in ("preprocess", "meta-train", "meta-test", "report", "theory-probe"):
            assert cli.run([phase, "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        before = tree_digest(config.experiment_dir)
        stray = config.experiment_dir / "theory" / ".probe_report.json.0123456789ab.tmp"
        stray.write_text('{"task": "T02"')
        assert cli.run(["theory-probe", "--config", str(path)]) == 0
        assert sorted(p.name for p in (config.experiment_dir / "theory").iterdir()) == ["probe_report.json"]
        assert tree_digest(config.experiment_dir) == before

    def test_report_holds_only_the_current_test_tasks_cdfs(self, tmp_path):
        path = small_config(tmp_path, train_tasks=["T00"], test_tasks=["T01", "T02"])
        config = experiments.load_experiment_config(path)
        experiments.cmd_preprocess(config)
        for task_id in ("T01", "T02"):
            for mode in experiments.MODES:
                for seed in config.meta_test.seeds:
                    trace = AdaptationTrace(support_loss=[1.0] * 6, query_mde=hit_series(2, 6))
                    experiments.write_trace(experiments.run_dir(config, task_id, mode, seed), trace, [0.0])
        experiments.cmd_report(config)
        assert len(list(config.report_dir.iterdir())) == 5
        # T01 is a training task now
        config = experiments.load_experiment_config(small_config(tmp_path, train_tasks=["T00", "T01"]))
        experiments.cmd_report(config)
        assert sorted(p.name for p in config.report_dir.iterdir()) == [
            "T02_MI_cdf.csv", "T02_RI_cdf.csv", "metrics.json"
        ]

    def test_failed_meta_train_rerun_leaves_only_its_own_round(self, tmp_path, capsys):
        fed = {"rounds": 2, "local_steps": 2, "eta": 0.01, "batch_size": 16, "seed": 3, "checkpoint_every": 1}
        path = small_config(tmp_path, federation=fed)
        for phase in ("preprocess", "meta-train"):
            assert cli.run([phase, "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        earlier = tree_digest(config.train_dir)
        assert sorted(earlier) == [
            "checkpoints/meta_round_00001.npz", "checkpoints/meta_round_00002.npz", "meta_final.npz", "round_log.csv"
        ]
        small_config(tmp_path, federation={**fed, "eta": 1e300})  # round 1's server step overflows theta
        capsys.readouterr()
        assert cli.run(["meta-train", "--config", str(path)]) == 4
        assert "DivergenceError: round 2, client T00: local step 1 loss is" in capsys.readouterr().err
        left = tree_digest(config.train_dir)
        assert list(left) == ["checkpoints/meta_round_00001.npz"]
        assert left["checkpoints/meta_round_00001.npz"] != earlier["checkpoints/meta_round_00001.npz"]
        assert cli.run(["meta-test", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("data error: checkpoint not found")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_meta_test_rerun_leaves_no_earlier_trace(self, tmp_path, capsys, workers):
        path = small_config(tmp_path, workers=workers)
        for phase in ("preprocess", "meta-train", "meta-test"):
            assert cli.run([phase, "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        assert len(list(config.test_dir.rglob("trace.csv"))) == 4
        small_config(tmp_path, workers=workers, model={**json.loads(path.read_text())["model"], **HUGE_RATES})
        capsys.readouterr()
        assert cli.run(["meta-test", "--config", str(path)]) == 4
        assert "DivergenceError: task T02, " in capsys.readouterr().err
        assert not list(config.test_dir.rglob("trace.csv"))
        assert cli.run(["report", "--config", str(path)]) == 3
        assert capsys.readouterr().err.startswith("data error: missing trace for T02/MI/0")

    @pytest.mark.parametrize(
        "phase, workers, change, args, code, message",
        [
            ("preprocess", 1, lambda tmp, raw: {"test_tasks": ["T09"]}, [], 2, "task 'T09' listed in config"),
            ("preprocess", 1, lambda tmp, raw: {"datasets": [bad_csv_dataset(tmp)]}, [], 3, "d0.csv: line 2"),
            ("meta-train", 1, lambda tmp, raw: {"model": {**raw["model"], "p": 3}}, [], 2, "model.p is 3, but task"),
            *(
                ("meta-test", workers, lambda tmp, raw: {"model": {**raw["model"], "d": 5}}, [], 2, "widths [4, 8, 3]")
                for workers in (1, 2)
            ),
            *(
                ("meta-test", workers, lambda tmp, raw: {}, ["--checkpoint", "missing.npz"], 3, "checkpoint not found")
                for workers in (1, 2)
            ),
            ("report", 1, lambda tmp, raw: {"meta_test": {**raw["meta_test"], "seeds": [0, 1, 2]}}, [], 3,
             "missing trace for T02/MI/2"),
        ],
    )
    def test_an_error_at_load_leaves_every_earlier_output(
        self, tmp_path, capsys, phase, workers, change, args, code, message
    ):
        path = small_config(tmp_path, workers=workers)
        for step in ("preprocess", "meta-train", "meta-test", "theory-probe"):
            assert cli.run([step, "--config", str(path)]) == 0
        config = experiments.load_experiment_config(path)
        before = tree_digest(config.experiment_dir)
        assert "theory/probe_report.json" in before
        small_config(tmp_path, workers=workers, **change(tmp_path, json.loads(path.read_text())))
        capsys.readouterr()
        assert cli.run([phase, "--config", str(path), *args]) == code
        assert message in capsys.readouterr().err
        assert tree_digest(config.experiment_dir) == before
