"""Run program phases in this process, as the CLI would, and time them.

Usage (run.py starts it once per set-up and once per measured phase):

    python3 perfbench/phase.py --config CFG --result OUT.json PHASE [PHASE ...]
        [--trace LAYER,LAYER,... --spans SPANS.json]

PHASE is one of the CLI's phase names. Each is called through
``fedmetaloc.experiments.cmd_*``. The result file holds the phases' wall
time, CPU time (children included) and this process's peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PHASES = {
    "preprocess": "cmd_preprocess",
    "meta-train": "cmd_meta_train",
    "meta-test": "cmd_meta_test",
    "theory-probe": "cmd_theory_probe",
}


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _steal_s() -> float:
    """CPU time the hypervisor took from this machine's CPUs, all CPUs summed."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("phases", nargs="+", choices=sorted(PHASES))
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default="", help="comma-separated layers to trace")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args()

    from fedmetaloc import experiments

    config = experiments.load_experiment_config(args.config)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        m = config.model
        tracing.install(tracer, set(args.trace.split(",")), m.d, m.n, m.p)

    cpu0, steal0, wall0 = _cpu_s(), _steal_s(), time.perf_counter()
    for phase in args.phases:
        getattr(experiments, PHASES[phase])(config)
    wall = time.perf_counter() - wall0
    cpu = _cpu_s() - cpu0
    steal = _steal_s() - steal0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer is not None:
        tracer.dump(Path(args.spans))
    Path(args.result).write_text(
        json.dumps({"wall_s": wall, "cpu_s": cpu, "steal_s": steal, "peak_rss_mb": peak_rss_mb})
    )


if __name__ == "__main__":
    main()
