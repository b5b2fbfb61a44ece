"""The benchmark (``perfbench/``) traces the program by patching its public
functions by name, and checks its outputs with ``perfbench/checks.py``. Its
own tests sit outside ``testpaths``, so this checks here that every name it
patches still exists and that the small pipeline's outputs pass its checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

from fedmetaloc import experiments

from helpers import small_config

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_layer():
    code = (
        "import run, tracer\n"
        "tracer.install(tracer.Tracer(), set(run.ALL_LAYERS.split(',')), 50, 32, 2)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_pipeline_outputs_pass_the_benchmark_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks

    path = small_config(
        tmp_path,
        theory_probe={"epsilon": 1e-4, "mu": 0.05, "max_steps": 30, "linearization_steps": 3,
                      "linearization_mu_list": [1e-2, 1e-3, 1e-4]},
    )
    raw = json.loads(path.read_text())
    config = experiments.load_experiment_config(path)
    experiments.cmd_preprocess(config)
    experiments.cmd_meta_train(config)
    experiments.cmd_meta_test(config)
    experiments.cmd_theory_probe(config)
    exp_dir = config.experiment_dir
    assert checks.check_train(exp_dir, raw) == []
    assert checks.check_adapt(exp_dir, raw) == []
    assert checks.check_probe(exp_dir, raw) == []
