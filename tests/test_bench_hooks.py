"""The benchmark (``perfbench/``) traces the program by patching its public
functions by name. Its own tests sit outside ``testpaths``, so this checks
here that every name it patches still exists."""

import os
import subprocess
import sys
from pathlib import Path

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
