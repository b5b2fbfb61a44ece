"""The benchmark's experiment config, generated from one workload seed.

The shapes copy ``configs/synthetic_cohort.json``: ten path-loss
environments with 240-320 APs that share one AP layout and one wall set,
eight training and two held-out tasks, and the shipped model, federation and
theory-probe settings. They are kept here, not read from that file, so an
edit to the shipped config cannot change what the benchmark measures.

Only the seeds and the run sizes (``SCALES``) differ from the shipped config. Every seed
is drawn from ``numpy.random.SeedSequence(workload_seed).generate_state``:

    state[0..9]   environment seeds of S00..S09
    state[10]     the shared ``ap_seed`` (AP layout and walls)
    state[11]     ``split_seed`` (support/query splits)
    state[12]     ``federation.seed`` (shared-part init, client streams)
    state[13]     ``theory_probe.seed``
    state[14..]   ``meta_test.seeds``, one per meta-test seed
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

NAME = "cohort"
TRAIN_TASKS = [f"S{i:02d}" for i in range(8)]
TEST_TASKS = ["S08", "S09"]
NUM_APS = [240, 260, 280, 300, 320, 250, 290, 270, 280, 260]

# Benchmark run sizes. "full" is what the benchmark measures; "tiny" is for
# its own test and keeps every phase under a second.
SCALES = {
    "full": {
        "train_samples": 600,
        "test_samples": 400,
        "rounds": 5,
        "checkpoint_every": 2,
        "meta_test_steps": 50,
        "meta_test_seeds": 2,
        "step_checkpoints": [10, 25, 50],
        # 100, not the shipped 300 steps per initialization: at 300 one probe
        # phase takes about 14 s, too long to repeat within one run
        "probe_max_steps": 100,
        "setup_repeats": 3,
    },
    "tiny": {
        "train_samples": 60,
        "test_samples": 60,
        "rounds": 3,
        "checkpoint_every": 2,
        "meta_test_steps": 6,
        "meta_test_seeds": 2,
        "step_checkpoints": [2, 6],
        "probe_max_steps": 4,
        "setup_repeats": 1,
    },
}

# Query MDE target (meters) of the adaptation steps-to-target counts. It
# lies where the cohort's learning curves are steep within the 50-step
# budget, so the counts separate MI from RI instead of reading budget + 1.
TARGET_M = 8.0


def _env(env_id: str, num_aps: int, seed: int, samples: int, ap_seed: int) -> dict:
    entry = {
        "id": env_id,
        "num_aps": num_aps,
        "seed": seed,
        "samples": samples,
        "area": [100.0, 60.0],
        "noise_sigma": 3.0,
        "ap_seed": ap_seed,
        "ap_jitter": 1.0,
        "num_walls": 14,
        "wall_loss_db": 10.0,
        "sensitivity_dbm": -88.0,
    }
    if env_id in TEST_TASKS:
        entry["support_ratio"] = 0.5
    return entry


def make_config(workload_seed: int, scale: str) -> dict:
    """The experiment config for one workload seed, as the JSON the CLI reads."""
    size = SCALES[scale]
    state = [int(v) for v in np.random.SeedSequence(workload_seed).generate_state(14 + size["meta_test_seeds"])]
    envs = [
        _env(
            f"S{i:02d}",
            num_aps,
            state[i],
            size["test_samples"] if f"S{i:02d}" in TEST_TASKS else size["train_samples"],
            state[10],
        )
        for i, num_aps in enumerate(NUM_APS)
    ]
    return {
        "name": NAME,
        "out_dir": ".",
        "synthetic_envs": envs,
        "train_tasks": TRAIN_TASKS,
        "test_tasks": TEST_TASKS,
        "support_ratio": 0.7,
        "split_seed": state[11],
        "preprocess": {"tau": 0.0, "sentinel": 100.0, "impute_offset": 1.0},
        "model": {
            "d": 50,
            "n": 32,
            "p": 2,
            "encoder_hidden": [],
            "decoder_hidden": [512],
            "meta_hidden": [256, 128, 64],
            "mapper_hidden": [64, 32],
            "mu_encoder": 0.0095,
            "mu_meta": 0.002,
            "mu_mapper": 0.005,
            "lambda_recon": 0.1,
            "optimizer": "adam",
            "encoder_init": "prefix_projection",
        },
        "federation": {
            "rounds": size["rounds"],
            "local_steps": 5,
            "eta": 0.001,
            "batch_size": 32,
            "seed": state[12],
            "checkpoint_every": size["checkpoint_every"],
            "aggregation": "average",
        },
        "meta_test": {
            "steps": size["meta_test_steps"],
            "targets_m": [5.0, TARGET_M],
            "step_checkpoints": size["step_checkpoints"],
            "seeds": state[14:],
            "batch_size": 32,
            "optimizer": "adam",
        },
        "theory_probe": {
            "epsilon": 0.015,
            "mu": 0.01,
            "max_steps": size["probe_max_steps"],
            "linearization_mu_list": [0.01, 0.001, 0.0001],
            "linearization_steps": 5,
            "seed": state[13],
        },
        "workers": 1,
    }


def write_config(directory: Path, workload_seed: int, scale: str) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "config.json"
    path.write_text(json.dumps(make_config(workload_seed, scale), indent=2) + "\n")
    return path
