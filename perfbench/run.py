#!/usr/bin/env python3
"""Benchmark of the fedmetaloc cohort pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The workload seed generates the experiment
config (``cohort.py``); the program sees only that config and the task
bundles its own preprocess phase writes. Set-up and every measured phase run
in child processes through ``phase.py``, as the CLI would run them.

``--trace 0`` sets up ``setup_repeats`` times, then repeats the measured
phase until ``--seconds`` have passed, and reports the end-to-end metrics as
medians over those repeats. ``--trace 1`` sets up once with the data,
preprocess and io layers traced, then runs the measured phase untraced and
traced by turns until ``--seconds`` have passed, and reports the per-layer
metrics of the last traced repeat and the tracing overhead.
Each repeat's outputs are checked (``checks.py``) and fingerprinted; a
failed check or a crashed phase counts that repeat's operations as failed.

Outputs go to ``.perfbench_out/<workload>-<seed>/``. The last line of
standard output is the result JSON; the line before it, starting with
``perfbench``, records the environment, the per-repeat figures and the
SHA-256 of every output file.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from pathlib import Path

import numpy as np

import checks
import cohort

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
PHASE_TIMEOUT_S = 150

WORKLOADS = {
    "train_cohort": {"setup": ["preprocess"], "phase": "meta-train"},
    "adapt_cohort": {"setup": ["preprocess", "meta-train"], "phase": "meta-test"},
    "probe_fullbatch": {"setup": ["preprocess", "meta-train"], "phase": "theory-probe"},
}
ALL_LAYERS = "nn,model,federation,experiments,data,preprocess,metrics,io"
SETUP_LAYERS = "data,preprocess,io"  # set-up runs no other layer's work that a phase measures
PARTS = ("encoder", "decoder", "meta", "mapper")

END_TO_END = {"steps_per_s": "steps/s", "cpu_ms_per_step": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{f"nn.{op}.{part}.s": "s" for op in ("forward", "backward") for part in PARTS},
    "nn.forward.calls": "count",
    "nn.backward.calls": "count",
    "nn.adam_step.s": "s",
    "nn.adam_step.calls": "count",
    "nn.sgd_step.s": "s",
    "nn.param_copy.s": "s",
    "nn.param_copy.mb": "MB",
    "model.train_step.self_s": "s",
    "model.train_step.calls": "count",
    "model.train_step.ms.p50": "ms",
    "model.train_step.ms.p99": "ms",
    "model.composite_loss.s": "s",
    "model.composite_loss.calls": "count",
    "model.eval.s": "s",
    "model.eval.forwards_per_step": "count",
    "federation.client_local_train.s": "s",
    "federation.server_aggregate.s": "s",
    "federation.broadcast.s": "s",
    "federation.meta_test.run_s.p50": "s",
    "io.write.s": "s",
    "io.write.mb": "MB",
    "io.read.s": "s",
    "io.read.mb": "MB",
    "experiments.cmd_report.s": "s",
    "data.synth_environment.s": "s",
    "preprocess.preprocess_dataset.s": "s",
    "metrics.theta_grad_sq_norm.s": "s",
    "metrics.theta_grad_sq_norm.calls": "count",
    "metrics.flatten.s": "s",
    "metrics.linearization_probe.s": "s",
    "metrics.mde.s": "s",
    "trace.overhead_pct": "%",
    "mi_steps_to_target": "steps",
    "ri_steps_to_target": "steps",
}


def run_phase(phases: list[str], cfg_path: Path, work: Path, trace: str = "") -> dict | None:
    """One child process running ``phases``; its result, or None if it failed."""
    result = work / "phase_result.json"
    result.unlink(missing_ok=True)
    os.sync()  # so the phase does not pay for write-back of files written before it
    cmd = [sys.executable, str(HERE / "phase.py"), *phases, "--config", str(cfg_path), "--result", str(result)]
    if trace:
        cmd += ["--trace", trace, "--spans", str(work / f"spans_{'_'.join(phases)}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=PHASE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        print(f"{' '.join(phases)}: timed out after {PHASE_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{' '.join(phases)}: exit code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def planned_operations(phase: str, cfg: dict) -> int:
    """Client updates (train), fine-tuning runs (adapt) or epsilon probes (probe)."""
    if phase == "meta-train":
        return cfg["federation"]["rounds"] * len(cfg["train_tasks"])
    if phase == "meta-test":
        return len(cfg["test_tasks"]) * len(cfg["meta_test"]["seeds"]) * 2
    return 2  # random-init and meta-init probes


def optimizer_steps(phase: str, cfg: dict, exp_dir: Path) -> int:
    """Optimizer steps the phase took, read from its outputs."""
    if phase == "meta-train":
        rounds = len(checks.read_csv(exp_dir / "train" / "round_log.csv")[1])
        return rounds * len(cfg["train_tasks"]) * cfg["federation"]["local_steps"]
    if phase == "meta-test":
        return planned_operations(phase, cfg) * cfg["meta_test"]["steps"]
    probe = cfg["theory_probe"]
    report = json.loads((exp_dir / "theory" / "probe_report.json").read_text())
    return (
        len(report["grad_sq_trace_random_init"])
        + len(report["grad_sq_trace_meta_init"])
        + len(probe["linearization_mu_list"]) * probe["linearization_steps"]
        + min(10, probe["max_steps"])  # the smoothness estimate's steps
    )


def _openblas_runtime() -> dict:
    """Thread count and build string of the OpenBLAS numpy loaded, if any."""
    info: dict = {"blas_threads": None, "blas_config": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return info
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                return {"blas_threads": threads(), "blas_config": config().decode()}
    return info


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **_openblas_runtime(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


EVAL = ("model.full_forward", "model.loss_value")


def _within(spans: list, names: set[str]) -> list[bool]:
    """For each span: is it, or one of its ancestors, named in ``names``."""
    flags: list[bool] = []
    for name, _, _, parent, _ in spans:
        flags.append(name in names or (parent >= 0 and flags[parent]))
    return flags


def layer_metrics(setup_spans: list, spans: list) -> dict[str, float]:
    """Per-layer figures from the measured phase's spans.

    Set-up spans count for the data, preprocess and io layers only, the
    layers set-up is traced at. A layer's time sums its outermost spans, so
    nested calls of the same layer (``loss_value`` calling ``full_forward``)
    count once.
    """
    def dur(s):
        return s[2] - s[1]

    def total(*names: str) -> float:
        within = _within(spans, set(names))
        return sum(dur(s) for s in spans if s[0] in names and not (s[3] >= 0 and within[s[3]]))

    def count(name: str) -> int:
        return sum(1 for s in spans if s[0] == name)

    def both(name: str, field=dur) -> float:
        return sum(field(s) for s in (*setup_spans, *spans) if s[0] == name)

    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += dur(s)
    steps = [i for i, s in enumerate(spans) if s[0] == "model.train_step"]
    step_ms = [dur(spans[i]) * 1e3 for i in steps]
    runs = [dur(s) for s in spans if s[0] == "federation.meta_test"]

    out = {}
    for op in ("forward", "backward"):
        for part in PARTS:
            out[f"nn.{op}.{part}.s"] = total(f"nn.{op}.{part}")
        out[f"nn.{op}.calls"] = sum(1 for s in spans if s[0].startswith(f"nn.{op}."))
    out.update({
        "nn.adam_step.s": total("nn.adam_step"),
        "nn.adam_step.calls": count("nn.adam_step"),
        "nn.sgd_step.s": total("nn.sgd_step"),
        "nn.param_copy.s": total("nn.param_copy"),
        "nn.param_copy.mb": sum(s[4] for s in spans if s[0] == "nn.param_copy"),
        "model.train_step.self_s": sum(dur(spans[i]) - child_time[i] for i in steps),
        "model.train_step.calls": len(steps),
        "model.train_step.ms.p50": float(np.percentile(step_ms, 50)) if steps else 0.0,
        "model.train_step.ms.p99": float(np.percentile(step_ms, 99)) if steps else 0.0,
        "model.composite_loss.s": total("model.composite_loss"),
        "model.composite_loss.calls": count("model.composite_loss"),
        "model.eval.s": total(*EVAL),
        "model.eval.forwards_per_step": _eval_forwards_per_step(spans, [spans[i][1] for i in steps]),
        "federation.client_local_train.s": total("federation.client_local_train"),
        "federation.server_aggregate.s": total("federation.server_aggregate"),
        "federation.broadcast.s": total("federation.broadcast"),
        "federation.meta_test.run_s.p50": statistics.median(runs) if runs else 0.0,
        "io.write.s": both("io.write"),
        "io.write.mb": both("io.write", field=lambda s: s[4]),
        "io.read.s": both("io.read"),
        "io.read.mb": both("io.read", field=lambda s: s[4]),
        "experiments.cmd_report.s": total("experiments.cmd_report"),
        "data.synth_environment.s": both("data.synth_environment"),
        "preprocess.preprocess_dataset.s": both("preprocess.preprocess_dataset"),
        "metrics.theta_grad_sq_norm.s": total("metrics.theta_grad_sq_norm"),
        "metrics.theta_grad_sq_norm.calls": count("metrics.theta_grad_sq_norm"),
        "metrics.flatten.s": total("metrics.flatten"),
        "metrics.linearization_probe.s": total("metrics.linearization_probe"),
        "metrics.mde.s": total("metrics.mde"),
    })
    return out


def _eval_forwards_per_step(spans: list, step_starts: list[float]) -> float:
    """Median, over training steps, of the stack forwards run inside
    ``full_forward``/``loss_value`` between that step and the next."""
    if not step_starts:
        return 0.0
    per_step = [0] * len(step_starts)
    for s, evaluating in zip(spans, _within(spans, set(EVAL))):
        if evaluating and s[0].startswith("nn.forward.") and s[1] >= step_starts[0]:
            per_step[bisect_right(step_starts, s[1]) - 1] += 1
    return float(statistics.median(per_step))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=15.0, help="how long to repeat the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(cohort.SCALES), default="full",
                        help="run sizes; 'tiny' is for the benchmark's own test")
    args = parser.parse_args()

    if not (ROOT / "src" / "fedmetaloc" / "__init__.py").is_file():
        print(f"no fedmetaloc sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    phase = workload["phase"]
    work = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    cfg = cohort.make_config(args.seed, args.scale)
    cfg_path = cohort.write_config(work, args.seed, args.scale)
    exp_dir = work / cohort.NAME

    setup_walls = []
    for _ in range(1 if args.trace else cohort.SCALES[args.scale]["setup_repeats"]):
        shutil.rmtree(exp_dir, ignore_errors=True)
        res = run_phase(workload["setup"], cfg_path, work, trace=SETUP_LAYERS if args.trace else "")
        if res is None:
            print("set-up failed", file=sys.stderr)
            return 1
        setup_walls.append(res["wall_s"])

    reps, failures, fingerprint = [], [], None
    attempted = failed = repeats = 0
    started = time.perf_counter()
    # a traced run alternates untraced and traced repeats and stops after a pair
    for trace in itertools.cycle(("", ALL_LAYERS)) if args.trace else itertools.repeat(""):
        if repeats % (2 if args.trace else 1) == 0 and repeats and time.perf_counter() - started >= args.seconds:
            break
        repeats += 1
        ops = planned_operations(phase, cfg)
        attempted += ops
        res = run_phase([phase], cfg_path, work, trace=trace)
        rep_failures = ["phase failed"] if res is None else checks.CHECKS[phase](exp_dir, cfg)
        if res is not None and not rep_failures:
            found = checks.digests(exp_dir)
            if fingerprint is None:
                fingerprint = found
            elif found != fingerprint:
                rep_failures.append("outputs differ from the first repeat's")
        if rep_failures:
            failed += ops
            failures += rep_failures
        else:
            reps.append({**res, "steps": optimizer_steps(phase, cfg, exp_dir), "traced": bool(trace)})

    info = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
            "environment": environment(), "setup_s": setup_walls, "repeats": reps, "failures": failures[:20]}
    if fingerprint:
        info["sha256"] = hashlib.sha256(json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()
        info["digests"] = fingerprint

    metrics: dict[str, float] = {}
    if reps and args.trace:
        untraced = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        if untraced and traced:
            setup_spans = json.loads((work / f"spans_{'_'.join(workload['setup'])}.json").read_text())
            spans = json.loads((work / f"spans_{phase}.json").read_text())
            metrics = layer_metrics(setup_spans, spans)
            # fastest against fastest: noise on a shared machine only adds time
            fastest = [min(r["wall_s"] for r in group) for group in (traced, untraced)]
            metrics["trace.overhead_pct"] = 100.0 * (fastest[0] / fastest[1] - 1.0)
            if phase == "meta-train":  # adaptation of the trained model, outside any measurement
                if run_phase(["meta-test"], cfg_path, work) is None:
                    failures.append("meta-test after meta-train failed")
            counts = checks.steps_to_target(exp_dir, cfg, "meta-test" if phase == "meta-train" else phase)
            metrics["mi_steps_to_target"], metrics["ri_steps_to_target"] = counts["MI"], counts["RI"]
    elif reps:
        metrics = {
            "steps_per_s": statistics.median(r["steps"] / r["wall_s"] for r in reps),
            "cpu_ms_per_step": statistics.median(1e3 * r["cpu_s"] / r["steps"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "setup_s": statistics.median(setup_walls),
        }
        if phase != "meta-train":
            info["steps_to_target"] = checks.steps_to_target(exp_dir, cfg, phase)
    units = PER_LAYER if args.trace else END_TO_END
    print("perfbench " + json.dumps(info))
    print(json.dumps({
        "correct": not failures and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
