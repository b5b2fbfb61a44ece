"""Output checks and fingerprints for the benchmark's phases.

Every check tests a property the method must have, or compares an output
with a value recomputed here from other outputs; none compares against
stored output. Each ``check_*`` returns a list of failures, empty when the
outputs pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from cohort import TARGET_M

REL_TOL = 1e-12


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [[float(v) for v in row] for row in reader if row]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_train(exp_dir: Path, cfg: dict) -> list[str]:
    """round_log.csv and meta_final.npz of one meta-train phase."""
    failures = []
    rounds = cfg["federation"]["rounds"]
    header, rows = read_csv(exp_dir / "train" / "round_log.csv")
    if header[:2] != ["round", "mean_query_loss"] or header[2:] != sorted(cfg["train_tasks"]):
        failures.append(f"round_log.csv header {header}")
    if [int(r[0]) for r in rows] != list(range(1, rounds + 1)):
        failures.append(f"round_log.csv has rounds {[r[0] for r in rows]}, expected 1..{rounds}")
    for r in rows:
        if not all(math.isfinite(v) for v in r):
            failures.append(f"round {r[0]:.0f}: non-finite loss")
        elif not _close(r[1], float(np.mean(r[2:]))):
            failures.append(f"round {r[0]:.0f}: mean_query_loss {r[1]!r} != client mean {np.mean(r[2:])!r}")
    if rows and not rows[-1][1] < rows[0][1]:
        failures.append(f"last round's loss {rows[-1][1]!r} is not below the first's {rows[0][1]!r}")

    model = cfg["model"]
    widths = [model["d"], *model["meta_hidden"], model["n"]]
    with np.load(exp_dir / "train" / "meta_final.npz", allow_pickle=False) as archive:
        arrays = {k: archive[k] for k in archive.files if not k.startswith("__")}
        extra = json.loads(str(archive["__extra__"]))
    expected = {}
    for i, (w_in, w_out) in enumerate(zip(widths, widths[1:])):
        expected[f"meta/layer{i}.weights"] = (w_out, w_in)
        expected[f"meta/layer{i}.biases"] = (w_out,)
    shapes = {k: v.shape for k, v in arrays.items()}
    if shapes != expected:
        failures.append(f"meta_final.npz shapes {shapes}, expected {expected}")
    if not all(np.isfinite(v).all() for v in arrays.values()):
        failures.append("meta_final.npz holds non-finite values")
    if extra.get("round") != len(rows):
        failures.append(f"meta_final.npz round {extra.get('round')} != {len(rows)} log rows")
    return failures


def _run_dirs(exp_dir: Path, cfg: dict):
    for task in cfg["test_tasks"]:
        for mode in ("MI", "RI"):
            for seed in cfg["meta_test"]["seeds"]:
                yield task, mode, seed, exp_dir / "test" / task / mode / str(seed)


def first_step_at_or_below(series: list[float], target: float) -> int | None:
    return next((i for i, v in enumerate(series, start=1) if v <= target), None)


def check_adapt(exp_dir: Path, cfg: dict) -> list[str]:
    """Traces, final errors, metrics.json and CDF files of one meta-test phase."""
    failures = []
    mt = cfg["meta_test"]
    report = json.loads((exp_dir / "report" / "metrics.json").read_text())
    errors_by: dict[tuple[str, str], list[float]] = {}
    for task, mode, seed, run in _run_dirs(exp_dir, cfg):
        where = f"{task}/{mode}/{seed}"
        _, rows = read_csv(run / "trace.csv")
        if [int(r[0]) for r in rows] != list(range(1, mt["steps"] + 1)):
            failures.append(f"{where}: trace.csv has {len(rows)} rows, expected one per step ({mt['steps']})")
            continue
        if not all(math.isfinite(v) for r in rows for v in r):
            failures.append(f"{where}: trace.csv holds non-finite values")
            continue
        series = [r[2] for r in rows]
        _, err_rows = read_csv(run / "errors_final.csv")
        errors = [r[0] for r in err_rows]
        errors_by.setdefault((task, mode), []).extend(errors)
        if not _close(float(np.mean(errors)), series[-1]):
            failures.append(f"{where}: mean final error {np.mean(errors)!r} != last query_mde {series[-1]!r}")
        records = [r for r in report["tasks"][task][mode]["records"] if r["seed"] == seed]
        if len(records) != 1:
            failures.append(f"{where}: metrics.json has {len(records)} records")
            continue
        rec = records[0]
        if rec["mde_final"] != series[-1]:
            failures.append(f"{where}: mde_final {rec['mde_final']!r} != last query_mde {series[-1]!r}")
        for target in mt["targets_m"]:
            got = rec["steps_to_target"][str(float(target))]
            if got != first_step_at_or_below(series, target):
                failures.append(f"{where}: steps_to_target[{target}] {got} != {first_step_at_or_below(series, target)}")
        for n_star in mt["step_checkpoints"]:
            got = rec["mde_at_step"][str(n_star)]
            if got != series[n_star - 1]:
                failures.append(f"{where}: mde_at_step[{n_star}] {got!r} != {series[n_star - 1]!r}")
    for (task, mode), errors in errors_by.items():
        _, curve = read_csv(exp_dir / "report" / f"{task}_{mode}_cdf.csv")
        n = len(errors)
        if [c[0] for c in curve] != sorted(errors):
            failures.append(f"{task}_{mode}_cdf.csv errors are not the sorted final errors")
        if [c[1] for c in curve] != [(i + 1) / n for i in range(n)]:
            failures.append(f"{task}_{mode}_cdf.csv fractions are not i/N")
    return failures


def check_probe(exp_dir: Path, cfg: dict) -> list[str]:
    """probe_report.json of one theory-probe phase."""
    failures = []
    probe = cfg["theory_probe"]
    eps = probe["epsilon"]
    report = json.loads((exp_dir / "theory" / "probe_report.json").read_text())
    traces = []
    for mode in ("random_init", "meta_init"):
        trace, steps = report[f"grad_sq_trace_{mode}"], report[f"steps_{mode}"]
        traces += trace
        if not all(math.isfinite(v) for v in trace):
            failures.append(f"{mode}: non-finite squared gradient norm")
        first = next((i for i, v in enumerate(trace, start=1) if v < eps), None)
        if steps != first or len(trace) != (first or probe["max_steps"]):
            failures.append(f"{mode}: stopped after {len(trace)} steps reporting {steps}; first under eps is {first}")
    if not traces or report["zeta_hat"] != math.sqrt(max(traces)):
        failures.append(f"zeta_hat {report['zeta_hat']!r} != sqrt(max(trace))")
    residuals = [report["linearization_residuals"][repr(float(mu))]
                 for mu in sorted(probe["linearization_mu_list"], reverse=True)]
    if not all(r > 0 for r in residuals) or not all(a > b for a, b in zip(residuals, residuals[1:])):
        failures.append(f"linearization residuals {residuals} are not positive and shrinking with mu")
    return failures


CHECKS = {"meta-train": check_train, "meta-test": check_adapt, "theory-probe": check_probe}


def steps_to_target(exp_dir: Path, cfg: dict, phase: str) -> dict[str, float]:
    """MI and RI steps to target, a run that never gets there counting budget + 1.

    After meta-test: mean over test tasks and seeds of the steps until the
    query MDE reaches ``TARGET_M``. After the theory probe: the steps until
    the squared query-gradient norm falls below epsilon.
    """
    if phase == "theory-probe":
        report = json.loads((exp_dir / "theory" / "probe_report.json").read_text())
        budget = cfg["theory_probe"]["max_steps"]
        return {mode: float(report[f"steps_{key}"] or budget + 1)
                for mode, key in (("MI", "meta_init"), ("RI", "random_init"))}
    budget = cfg["meta_test"]["steps"]
    steps: dict[str, list[int]] = {"MI": [], "RI": []}
    for _, mode, _, run in _run_dirs(exp_dir, cfg):
        series = [r[2] for r in read_csv(run / "trace.csv")[1]]
        steps[mode].append(first_step_at_or_below(series, TARGET_M) or budget + 1)
    return {mode: float(np.mean(v)) for mode, v in steps.items()}


def digests(exp_dir: Path) -> dict[str, str]:
    """SHA-256 of every output file under the experiment directory."""
    return {
        path.relative_to(exp_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(exp_dir.rglob("*"))
        if path.is_file()
    }
