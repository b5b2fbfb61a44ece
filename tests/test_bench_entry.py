"""The benchmark's entry point, ``perfbench/phase.py``, runs the program's
phases through ``experiments.cmd_*`` in one process. Its own tests sit outside
``testpaths``, so this runs it here on the small pipeline: it must finish,
write its result file, and leave outputs that pass the benchmark's checks."""

import json
import subprocess
import sys
from pathlib import Path

from fedmetaloc import experiments

from helpers import small_config

ROOT = Path(__file__).resolve().parent.parent
PHASES = ["preprocess", "meta-train", "meta-test", "theory-probe"]


def test_phase_entry_runs_every_measured_phase(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks

    path = small_config(
        tmp_path,
        theory_probe={"epsilon": 1e-4, "mu": 0.05, "max_steps": 30, "linearization_steps": 3,
                      "linearization_mu_list": [1e-2, 1e-3, 1e-4]},
    )
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "phase.py"), *PHASES, "--config", str(path), "--result", str(result)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(result.read_text())) == {"wall_s", "cpu_s", "steal_s", "peak_rss_mb"}
    exp_dir = experiments.load_experiment_config(path).experiment_dir
    raw = json.loads(path.read_text())
    assert sorted(checks.CHECKS) == sorted(PHASES[1:])
    for phase, check in checks.CHECKS.items():
        assert check(exp_dir, raw) == [], phase
