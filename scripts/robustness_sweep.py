#!/usr/bin/env python3
"""Robustness sweep for acceptance criterion 5 (meta init beats random init).

Reruns the shipped synthetic cohort under rounding-level perturbations and
prints, for each arm, how many paired seeds meta initialization (MI) reaches
the 3.4 m target in fewer steps than random initialization (RI), and the
median per-seed step reduction. Criterion 5 requires at least 8 of 10 wins
and a median reduction of at least 30 %.

Arms: BLAS threads {1, one per core} x meta-test seed sets {the config's own,
10-19, 20-29}. Each thread setting runs preprocess, meta-train and the three
meta-test seed sets in its own child process. The 1-thread arm leaves
``OPENBLAS_NUM_THREADS`` unset, so the child runs at the program's own
default: importing ``fedmetaloc`` sets OpenBLAS to one thread. The other arm
sets ``OPENBLAS_NUM_THREADS`` to this process's core count in the child's
environment only, which OpenBLAS then keeps; that is OpenBLAS's default, so
the arm exercises the rounding of a multi-threaded BLAS. The extra seed sets
are report-only: they replace the seeds of the in-memory config and are never
written back to the config file.

Usage:
    python scripts/robustness_sweep.py [--config configs/synthetic_cohort.json] [--out out/robustness_sweep]

The two thread settings run one after the other; on a 2-core machine the
whole sweep takes roughly 25 minutes, two thirds of it in the multi-thread
arm, whose meta-test workers share the cores with their BLAS threads. Exits
1 if any arm misses a bound.
"""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from fedmetaloc import experiments

TARGET_M = 3.4  # the criterion-5 target
MIN_WINS_FRACTION = 0.8
MIN_MEDIAN_REDUCTION = 0.30
REPORT_ONLY_SEED_SETS = (tuple(range(10, 20)), tuple(range(20, 30)))
SUMMARY_FILE = "sweep_summary.json"


def run_arm(config_path: str, out: Path) -> None:
    """Child side: one full cohort run at this process's BLAS threads."""
    config = dataclasses.replace(experiments.load_experiment_config(config_path), out_dir=out)
    experiments.cmd_preprocess(config)
    experiments.cmd_meta_train(config)
    results = []
    for seeds in (config.meta_test.seeds, *REPORT_ONLY_SEED_SETS):
        config = dataclasses.replace(config, meta_test=dataclasses.replace(config.meta_test, seeds=tuple(seeds)))
        report = experiments.cmd_meta_test(config)
        summary = experiments.paired_step_summary(report, TARGET_M, config.meta_test.steps)
        results.append({"seed_set": list(seeds), **summary})
    (out / SUMMARY_FILE).write_text(json.dumps(results, indent=2) + "\n")


def thread_settings() -> dict[str, str | None]:
    """Arm label (the BLAS thread count) -> ``OPENBLAS_NUM_THREADS``, None for unset."""
    cores = len(os.sched_getaffinity(0))
    return {"1": None, str(cores): str(cores)} if cores > 1 else {"1": None}


def spawn_arm(config_path: str, out: Path, threads: str | None) -> list[dict]:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    cmd = [sys.executable, __file__, "--config", config_path, "--out", str(out), "--child"]
    subprocess.run(cmd, env=env, check=True)
    return json.loads((out / SUMMARY_FILE).read_text())


def seed_label(seeds: list[int]) -> str:
    if seeds == list(range(seeds[0], seeds[-1] + 1)):
        return f"{seeds[0]}-{seeds[-1]}"
    return ",".join(map(str, seeds))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default=str(REPO / "configs" / "synthetic_cohort.json"))
    parser.add_argument("--out", default=str(REPO / "out" / "robustness_sweep"), help="output root")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        run_arm(args.config, Path(args.out))
        return

    rows = []
    for label, threads in thread_settings().items():
        print(f"== BLAS threads: {label} ==", flush=True)
        for result in spawn_arm(args.config, Path(args.out) / f"threads-{label}", threads):
            rows.append((label, result))

    print(f"\ncriterion 5 at {TARGET_M} m (bounds: wins >= {MIN_WINS_FRACTION:.0%} of seeds, "
          f"median reduction >= {MIN_MEDIAN_REDUCTION:.0%})")
    print(f"{'threads':>8} {'seeds':>6} {'wins':>6} {'median red.':>12} {'mean MI':>8} {'mean RI':>8}")
    failed = 0
    for label, r in rows:
        held = r["wins"] >= MIN_WINS_FRACTION * r["seeds"] and r["median_reduction"] >= MIN_MEDIAN_REDUCTION
        failed += not held
        print(f"{label:>8} {seed_label(r['seed_set']):>6} {r['wins']:>3}/{r['seeds']:<2} "
              f"{r['median_reduction']:>12.0%} {r['mean_steps']['MI']:>8.1f} {r['mean_steps']['RI']:>8.1f}"
              f"  {'ok' if held else 'BELOW BOUND'}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
