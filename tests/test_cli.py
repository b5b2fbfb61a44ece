import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fedmetaloc import cli, experiments
from fedmetaloc.errors import ConfigError
from fedmetaloc.model import ModelConfig, load_checkpoint, save_checkpoint


def small_config(tmp_path: Path, **overrides) -> Path:
    raw = {
        "name": "smoke",
        "out_dir": str(tmp_path / "out"),
        "synthetic_envs": [
            {"id": "T00", "num_aps": 5, "samples": 60, "seed": 0, "noise_sigma": 1.0},
            {"id": "T01", "num_aps": 6, "samples": 60, "seed": 1, "noise_sigma": 1.0},
            {"id": "T02", "num_aps": 5, "samples": 60, "seed": 2, "noise_sigma": 1.0},
        ],
        "train_tasks": ["T00", "T01"],
        "test_tasks": ["T02"],
        "support_ratio": 0.7,
        "model": {
            "d": 4,
            "n": 3,
            "p": 2,
            "encoder_hidden": [6],
            "decoder_hidden": [6],
            "meta_hidden": [8],
            "mapper_hidden": [4],
            "lambda_recon": 0.1,
        },
        "federation": {"rounds": 2, "local_steps": 2, "eta": 0.01, "batch_size": 16, "seed": 3},
        "meta_test": {
            "steps": 6,
            "targets_m": [8.0],
            "step_checkpoints": [3, 6],
            "seeds": [0, 1],
            "batch_size": 16,
        },
        "theory_probe": {"epsilon": 1e-4, "mu": 0.05, "max_steps": 30, "linearization_steps": 3},
    }
    raw.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw, indent=2))
    return path


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
        assert [e[0] for e in config.synthetic_envs] == ["T00", "T01", "T02"]
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

    def test_out_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(experiments.OUT_ROOT_ENV, str(tmp_path / "from_env"))
        path = small_config(tmp_path)
        raw = json.loads(path.read_text())
        del raw["out_dir"]
        path.write_text(json.dumps(raw))
        config = experiments.load_experiment_config(path)
        assert config.out_dir == tmp_path / "from_env"


class TestPreprocessCommand:
    def test_writes_bundles_and_index(self, tmp_path):
        config = experiments.load_experiment_config(small_config(tmp_path))
        ids = experiments.cmd_preprocess(config)
        assert ids == ["T00", "T01", "T02"]
        for task_id in ids:
            bundle = config.tasks_dir / task_id
            assert (bundle / "support.csv").exists()
            assert (bundle / "query.csv").exists()
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

    def test_rerun_is_byte_identical(self, tmp_path):
        config = experiments.load_experiment_config(small_config(tmp_path))
        experiments.cmd_preprocess(config)
        experiments.cmd_meta_train(config)
        first = (config.train_dir / "round_log.csv").read_bytes()
        experiments.cmd_meta_train(config)
        assert (config.train_dir / "round_log.csv").read_bytes() == first

    def test_requires_bundles(self, tmp_path):
        config = experiments.load_experiment_config(small_config(tmp_path))
        from fedmetaloc.errors import DataError

        with pytest.raises(DataError, match="preprocess"):
            experiments.cmd_meta_train(config)


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

    def test_paired_step_summary_counts_unreached_as_budget_plus_one(self, tmp_path):
        from fedmetaloc.federation import AdaptationTrace, TraceStep

        config, _ = self.run_pipeline(tmp_path)
        # MI/RI first reach 8.0 m at: seed 0 -> 2 / 4, seed 1 -> never (7) / 1
        first_hit = {(0, "MI"): 2, (0, "RI"): 4, (1, "MI"): None, (1, "RI"): 1}
        for (seed, mode), hit in first_hit.items():
            trace = AdaptationTrace(task_id="T02", init_mode=mode, seed=seed)
            trace.steps = [
                TraceStep(s, 1.0, 5.0 if hit is not None and s >= hit else 9.0) for s in range(1, 7)
            ]
            experiments.write_trace(experiments.run_dir(config, "T02", mode, seed), trace, [0.0])
        summary = experiments.paired_step_summary(config, 8.0)
        assert summary == {
            "seeds": 2,
            "wins": 1,
            "median_reduction": (0.5 + (1 - 7) / 1) / 2,
            "mean_steps": {"MI": 4.5, "RI": 2.5},
        }

    def test_report_counts_unreached_runs_as_budget_plus_one(self, tmp_path):
        from fedmetaloc.federation import AdaptationTrace, TraceStep

        config, _ = self.run_pipeline(tmp_path)
        # budget 6; MI first reaches 8.0 m at step 2 for both seeds, RI at
        # step 4 (seed 0) and never (seed 1), which counts as 7
        first_hit = {(0, "MI"): 2, (1, "MI"): 2, (0, "RI"): 4, (1, "RI"): None}
        for (seed, mode), hit in first_hit.items():
            trace = AdaptationTrace(task_id="T02", init_mode=mode, seed=seed)
            trace.steps = [
                TraceStep(s, 1.0, 5.0 if hit is not None and s >= hit else 9.0) for s in range(1, 7)
            ]
            experiments.write_trace(experiments.run_dir(config, "T02", mode, seed), trace, [0.0])
        report = experiments.cmd_report(config)
        assert report["tasks"]["T02"]["improvement"]["steps"]["8.0"] == 100.0 * (5.5 - 2.0) / 5.5

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
        parallel_cfg.validate()
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


class TestCliEntryPoint:
    def test_full_pipeline_exit_codes(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        assert cli.run(["meta-test", "--config", str(path)]) == 0
        assert cli.run(["report", "--config", str(path)]) == 0
        assert cli.run(["theory-probe", "--config", str(path)]) == 0

    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        assert cli.run(["preprocess", "--config", str(tmp_path / "nope.json")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path, capsys):
        path = small_config(tmp_path)
        assert cli.run(["meta-train", "--config", str(path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_overlap_is_a_config_error(self, tmp_path, capsys):
        path = small_config(tmp_path, train_tasks=["T00", "T02"], test_tasks=["T02"])
        assert cli.run(["preprocess", "--config", str(path)]) == 2

    def test_unknown_meta_test_optimizer_is_a_config_error(self, tmp_path, capsys):
        path = small_config(tmp_path, meta_test={"steps": 6, "seeds": [0], "optimizer": "rmsprop"})
        assert cli.run(["meta-test", "--config", str(path)]) == 2
        assert "rmsprop" in capsys.readouterr().err


class TestMalformedCheckpoint:
    def trained(self, tmp_path) -> tuple[Path, Path]:
        path = small_config(tmp_path)
        assert cli.run(["preprocess", "--config", str(path)]) == 0
        assert cli.run(["meta-train", "--config", str(path)]) == 0
        return path, experiments.load_experiment_config(path).checkpoint_path

    def meta_test_exit(self, path: Path, checkpoint: Path) -> int:
        return cli.run(["meta-test", "--config", str(path), "--checkpoint", str(checkpoint)])

    @pytest.mark.parametrize("missing", ["__config__", "__extra__"])
    def test_missing_header_is_a_data_error(self, tmp_path, capsys, missing):
        path, checkpoint = self.trained(tmp_path)
        with np.load(checkpoint) as archive:
            kept = {k: archive[k] for k in archive.files if k != missing}
        bad = tmp_path / "bad.npz"
        np.savez(bad, **kept)
        assert self.meta_test_exit(path, bad) == 3
        assert missing in capsys.readouterr().err

    def test_extra_header_that_is_not_an_object_is_a_data_error(self, tmp_path, capsys):
        path, checkpoint = self.trained(tmp_path)
        with np.load(checkpoint) as archive:
            kept = {k: archive[k] for k in archive.files}
        kept["__extra__"] = np.str_("[]")
        bad = tmp_path / "bad.npz"
        np.savez(bad, **kept)
        assert self.meta_test_exit(path, bad) == 3
        assert "__extra__ holds list" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["truncated", "not_a_zip"])
    def test_truncated_or_foreign_file_is_a_data_error(self, tmp_path, capsys, content):
        path, checkpoint = self.trained(tmp_path)
        data = checkpoint.read_bytes()
        bad = tmp_path / "bad.npz"
        bad.write_bytes(data[: len(data) // 2] if content == "truncated" else b"round,loss\n1,0.5\n")
        assert self.meta_test_exit(path, bad) == 3
        assert "malformed checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["shape", "key"])
    def test_part_that_does_not_fit_its_config_is_a_data_error(self, tmp_path, capsys, fault):
        path, checkpoint = self.trained(tmp_path)
        config, parts, extra = load_checkpoint(checkpoint)
        meta = dict(parts["meta"])
        if fault == "shape":
            meta["layer0.weights"] = meta["layer0.weights"][:, :-1]
        else:
            del meta["layer1.biases"]
        bad = tmp_path / "bad.npz"
        save_checkpoint(bad, {"meta": meta}, config, extra)
        assert self.meta_test_exit(path, bad) == 3
        assert "does not match its config" in capsys.readouterr().err


def _rewrite_support_line(index: int, edit):
    """A fault that replaces line ``index`` of support.csv (0 is the header) by ``edit(line)``."""

    def corrupt(bundle: Path) -> None:
        path = bundle / "support.csv"
        lines = path.read_bytes().decode().split("\r\n")
        lines[index] = edit(lines[index])
        path.write_bytes("\r\n".join(lines).encode())

    return corrupt


def _keep_header_only(bundle: Path) -> None:
    path = bundle / "support.csv"
    path.write_bytes(path.read_bytes().split(b"\n")[0] + b"\n")


def _drop_m(bundle: Path) -> None:
    meta = json.loads((bundle / "meta.json").read_text())
    del meta["m"]
    (bundle / "meta.json").write_text(json.dumps(meta))


BUNDLE_FAULTS = {
    "non_numeric_cell": (_rewrite_support_line(1, lambda line: "n/a" + line[line.index(","):]), "support.csv"),
    "ragged_row": (_rewrite_support_line(1, lambda line: line.rsplit(",", 1)[0]), "support.csv"),
    "short_header": (_rewrite_support_line(0, lambda line: line.rsplit(",", 1)[0]), "header columns but"),
    "missing_support": (lambda b: (b / "support.csv").unlink(), "support.csv"),
    "missing_query": (lambda b: (b / "query.csv").unlink(), "query.csv"),
    "empty_file": (lambda b: (b / "query.csv").write_text(""), "query.csv: empty file"),
    "header_only": (_keep_header_only, "support.csv: no data rows"),
    "meta_not_json": (lambda b: (b / "meta.json").write_text("{not json"), "JSONDecodeError"),
    "meta_without_m": (_drop_m, "KeyError: 'm'"),
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
        trained, parts, extra = load_checkpoint(config.checkpoint_path)
        diverging = ModelConfig.from_dict({**trained.to_dict(), **HUGE_RATES})
        save_checkpoint(config.checkpoint_path, parts, diverging, extra)
        assert cli.run(["meta-test", "--config", str(path)]) == 4
        assert "DivergenceError: task T02, MI seed 0: step 2 loss is" in capsys.readouterr().err
        assert not list(config.test_dir.rglob("trace.csv"))
