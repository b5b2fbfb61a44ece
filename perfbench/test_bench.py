"""Fast test of the benchmark itself: every workload at the tiny scale.

    python3 -m pytest -q perfbench/test_bench.py

Checks the determinism contract (two runs of one seed print the same output
digests), that the output checks catch a corrupted trace.csv and
round_log.csv, and that the metric names match BENCHMARK.json.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import cohort  # noqa: E402
import run  # noqa: E402

SEED = 3


def bench(workload: str, trace: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("perfbench ")
    return json.loads(lines[-2][len("perfbench "):]), json.loads(lines[-1])


def exp_dir(workload: str) -> Path:
    return run.OUT / f"{workload}-{SEED}" / cohort.NAME


def rewrite_cell(path: Path, row: int, col: int, scale: float) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = repr(float(rows[row][col]) * scale)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_reruns_print_the_same_digests_and_pass_their_checks(workload):
    first_info, first = bench(workload)
    second_info, second = bench(workload)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == set(run.END_TO_END)
    assert first_info["sha256"] == second_info["sha256"]
    assert first_info["digests"] == second_info["digests"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    _, result = bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    if workload == "adapt_cohort":
        assert result["metrics"]["model.eval.forwards_per_step"]["value"] == 8
    if workload == "train_cohort":
        assert result["metrics"]["model.eval.s"]["value"] == 0


def test_corrupted_trace_value_fails_the_adapt_check():
    bench("adapt_cohort")
    cfg = cohort.make_config(SEED, "tiny")
    out = exp_dir("adapt_cohort")
    assert checks.check_adapt(out, cfg) == []
    task, seed = cfg["test_tasks"][0], cfg["meta_test"]["seeds"][0]
    rewrite_cell(out / "test" / task / "MI" / str(seed) / "trace.csv", row=-1, col=2, scale=1.0 + 1e-9)
    assert checks.check_adapt(out, cfg) != []


def test_corrupted_round_log_value_fails_the_train_check():
    bench("train_cohort")
    cfg = cohort.make_config(SEED, "tiny")
    out = exp_dir("train_cohort")
    assert checks.check_train(out, cfg) == []
    rewrite_cell(out / "train" / "round_log.csv", row=2, col=3, scale=1.0 + 1e-9)
    assert checks.check_train(out, cfg) != []


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
