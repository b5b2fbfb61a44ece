"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. The cohort experiment behind criterion 5 is the heavy part
(a few minutes); everything else completes in seconds.
"""

import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from fedmetaloc import nn
from fedmetaloc.data import load_csv, make_task
from fedmetaloc.federation import (
    FederationParams,
    MetaTestParams,
    meta_test,
    meta_train,
    server_aggregate,
    server_init,
)
from fedmetaloc.metrics import (
    TheoryProbeParams,
    accuracy_speed_from_steps,
    improvement_percent,
    knn_baseline,
    linearization_probe,
    mde,
    step_speed_from_mde,
    steps_to_accuracy,
)
from fedmetaloc.model import PART_NAMES, ClientModel, ModelConfig
from fedmetaloc.preprocess import PreprocessConfig, meta_signal_dim, preprocess_dataset

from helpers import (
    augmented_least_squares,
    augmented_theta,
    central_difference,
    linear_probe_setup,
    linear_sgd_closed_form,
    randomize_biases,
    reference_sgd_step,
    rel_err,
    synth_task,
    tiny_model_config,
)
from test_metrics import knn_oracle


@contextmanager
def criterion(num: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        status = "SKIP" if type(exc).__name__ == "Skipped" else "FAIL"
        print(f"\n[criterion {num}] {status} ({time.perf_counter() - start:.1f}s) — {name}")
        raise
    print(f"\n[criterion {num}] PASS ({time.perf_counter() - start:.1f}s) — {name}")


# ---------------------------------------------------------------------------
# criterion 1: adaptation-speed arithmetic against the published result table
# ---------------------------------------------------------------------------

BATCH = 32

# (environment, target or step budget, MI input, RI input,
#  printed MI speed, printed RI speed, printed improvement-%)
# Inputs are step counts for accuracy-target rows and MDEs for step-budget
# rows. Printed values are kept as strings to preserve their precision.
ACCURACY_ROWS = [
    ("B0_F3 A=5", 100, 310, "0.31", "0.10", "67.74", {}),
    ("B0_F3 A=10", 30, 175, "1.04", "0.18", "82.86", {}),
    # the published RI entries of this row are inconsistent with its own
    # n=175 (they imply n~148); expected values recomputed from n=175
    ("B0_F3 A=15", 25, 175, "1.25", "0.21", "83.11", {"ri": True, "pct": True}),
    ("B1_F3 A=12", 150, 230, "0.21", "0.14", "34.78", {}),
    ("B2_F4 A=10", 175, 354, "0.18", "0.09", "50.56", {}),
    # published %/n pair inconsistent: (380-60)/380 = 84.21, table prints 82.21
    ("DSIDataset A=5", 60, 380, "0.52", "0.08", "82.21", {"pct": True}),
    ("TUT2018 A=12", 200, 385, "0.16", "0.08", "48.05", {}),
    ("MTU_TIE1 A=5", 72, 200, "0.43", "0.16", "64.0", {}),
    ("13th month A=2.5", 100, 300, "0.31", "0.1", "66.67", {}),
    ("14th month A=2.5", 85, 325, "0.37", "0.1", "73.85", {}),
    ("15th month A=2.5", 85, 400, "0.37", "0.08", "78.75", {}),
]

STEP_ROWS = [
    ("B0_F3 n*=50", 7.5, 27.4, "0.23", "0.86", "72.63", {}),
    ("B0_F3 n*=100", 5.1, 17.6, "0.16", "0.55", "71.02", {}),
    ("B0_F3 n*=150", 4.9, 14.8, "0.15", "0.46", "66.89", {}),
    ("B1_F3 n*=100", 13.1, 22.3, "0.41", "0.7", "41.26", {}),
    ("B2_F4 n*=100", 12.2, 19.8, "0.38", "0.62", "38.38", {}),
    ("DSIDataset n*=100", 3.2, 16.8, "0.1", "0.52", "80.95", {}),
    ("TUT2018 n*=100", 15.3, 22.1, "0.48", "0.69", "30.77", {}),
    # every published entry of this row is inconsistent with its own MDEs
    # 4.2/7.9 (they yield 0.13, 0.25, 46.84)
    ("MTU_TIE1 n*=100", 4.2, 7.9, "0.15", "0.28", "39.23", {"mi": True, "ri": True, "pct": True}),
    ("13th month n*=200", 2.24, 3.02, "0.07", "0.09", "25.83", {}),
    ("14th month n*=200", 2.22, 3.35, "0.07", "0.1", "33.73", {}),
    ("15th month n*=200", 2.21, 3.45, "0.07", "0.11", "35.94", {}),
]


def agrees_with_printed(computed: float, printed: str) -> bool:
    """Within half a unit of the printed value's last digit (1% slack)."""
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return abs(computed - float(printed)) <= 0.505 * 10.0 ** (-decimals)


def check_entry(computed: float, printed: str, erratum: bool, label: str) -> None:
    if erratum:
        assert not agrees_with_printed(computed, printed), (
            f"{label}: printed value {printed} unexpectedly consistent; erratum note is stale"
        )
    else:
        assert agrees_with_printed(computed, printed), f"{label}: {computed:.6g} vs printed {printed}"


def test_criterion_1_reference_table_arithmetic():
    with criterion(1, "adaptation-speed metrics reproduce the reference result table"):
        # the worked examples pinned by the criterion
        assert accuracy_speed_from_steps(100, BATCH) == pytest.approx(0.3125e-3)
        assert improvement_percent(100, 310) == pytest.approx(67.74, abs=0.005)
        assert improvement_percent(7.5, 27.4) == pytest.approx(72.63, abs=0.005)

        for label, n_mi, n_ri, mi_str, ri_str, pct_str, errata in ACCURACY_ROWS:
            check_entry(accuracy_speed_from_steps(n_mi, BATCH) * 1e3, mi_str,
                        errata.get("mi", False), f"{label} MI")
            check_entry(accuracy_speed_from_steps(n_ri, BATCH) * 1e3, ri_str,
                        errata.get("ri", False), f"{label} RI")
            check_entry(improvement_percent(n_mi, n_ri), pct_str,
                        errata.get("pct", False), f"{label} %")
        for label, mde_mi, mde_ri, mi_str, ri_str, pct_str, errata in STEP_ROWS:
            check_entry(step_speed_from_mde(mde_mi, BATCH), mi_str,
                        errata.get("mi", False), f"{label} MI")
            check_entry(step_speed_from_mde(mde_ri, BATCH), ri_str,
                        errata.get("ri", False), f"{label} RI")
            check_entry(improvement_percent(mde_mi, mde_ri), pct_str,
                        errata.get("pct", False), f"{label} %")


# ---------------------------------------------------------------------------
# criterion 2: analytic gradients vs central finite differences, 20 seeds
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_correctness():
    with criterion(2, "composite gradients match finite differences on 20 seeds"):
        cfg = tiny_model_config(lambda_recon=0.3)
        for seed in range(20):
            model = ClientModel.build(cfg, m=5, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            randomize_biases(model, rng)
            x = rng.uniform(0, 1, size=(4, 5))
            y = rng.normal(size=(4, 2))
            _, grads = model.composite_loss(x, y)
            for part in PART_NAMES:
                live = {}
                for i, layer in enumerate(model.parts[part]):
                    live[f"layer{i}.weights"] = layer.weights
                    live[f"layer{i}.biases"] = layer.biases
                fd = central_difference(lambda: model.composite_loss(x, y)[0], live, h=1e-5)
                for key in live:
                    err = rel_err(nn.unflatten(grads[part], nn.stack_sizes(model.parts[part]))[key], fd[key])
                    assert err <= 1e-4, (seed, part, key, err)


# ---------------------------------------------------------------------------
# criterion 3: preprocessing properties
# ---------------------------------------------------------------------------


def test_criterion_3_preprocessing_properties():
    with criterion(3, "powed bounds, imputation, and median vs brute force"):
        from fedmetaloc.data import FingerprintDataset

        rng = np.random.default_rng(3)
        for trial in range(50):
            rssi = rng.uniform(-95, -30, size=(20, 6))
            rssi[rng.random(rssi.shape) < 0.3] = 100.0
            rssi[:, 0] = 100.0  # one dead column
            rssi[0, 1] = -30.0
            rssi[1, 1] = -95.0
            ds = FingerprintDataset(rssi, np.zeros((20, 2)), [f"AP{i}" for i in range(6)])
            out, report = preprocess_dataset(ds, PreprocessConfig())
            assert 0 not in report.kept_indices
            assert out.rssi.min() == 0.0 and out.rssi.max() == 1.0
            assert (out.rssi >= 0.0).all() and (out.rssi <= 1.0).all()
            assert not (out.rssi == 100.0).any()

        def median_oracle(counts):
            ordered = sorted(counts)
            k = len(ordered)
            if k % 2 == 1:
                return ordered[k // 2]
            total = ordered[k // 2 - 1] + ordered[k // 2]
            return total // 2 if total % 2 == 0 else (total + 1) // 2

        for trial in range(1000):
            counts = rng.integers(1, 600, size=rng.integers(1, 30)).tolist()
            assert meta_signal_dim(counts) == median_oracle(counts)


# ---------------------------------------------------------------------------
# criterion 4: aggregation equivalences
# ---------------------------------------------------------------------------


def test_criterion_4_aggregation_equivalences():
    with criterion(4, "single-client step, order invariance, weight normalization"):
        from fedmetaloc.federation import client_local_train, contribution_factors

        cfg = tiny_model_config(d=4)

        # (a) one-client round is exactly an eta-scaled gradient step
        task = synth_task(num_aps=5, samples=40, seed=50)
        fed = FederationParams(local_steps=0, eta=0.05, seed=1)
        meta, clients = server_init([task], cfg, fed)
        update = client_local_train(clients[0], meta.broadcast(), fed)
        aggregated = server_aggregate(meta, [update], {clients[0].client_id: 1.0}, fed)
        sizes = cfg.part_sizes("meta")
        plain = reference_sgd_step(nn.unflatten(meta.params, sizes), nn.unflatten(update.vector, sizes), 0.05)
        assert np.array_equal(aggregated.params, nn.flatten(plain, sizes))

        # (b) permuting client execution order leaves theta^R bit-identical
        tasks = [synth_task(num_aps=5, samples=40, seed=60 + i, task_id=f"T{i:02d}") for i in range(3)]
        fed = FederationParams(rounds=3, eta=0.01, seed=2)
        meta_a, clients_a = server_init(tasks, cfg, fed)
        final_a, _ = meta_train(meta_a, clients_a, fed)
        meta_b, clients_b = server_init(tasks, cfg, fed)
        final_b, _ = meta_train(meta_b, [clients_b[i] for i in (2, 0, 1)], fed)
        assert np.array_equal(final_a.params, final_b.params)

        # (c) contribution factors sum to one on random cohorts
        rng = np.random.default_rng(4)
        for trial in range(200):
            sizes = rng.integers(1, 50_000, size=rng.integers(1, 400))
            assert abs(contribution_factors(sizes).sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# criterion 5: meta vs random initialization on the synthetic cohort
# ---------------------------------------------------------------------------

COHORT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "synthetic_cohort.json"
COHORT_TARGET_M = 3.4


@pytest.fixture(scope="module")
def cohort_run(tmp_path_factory):
    """The shipped synthetic-cohort experiment, end to end: 8 training tasks,
    2 held-out tasks, 200 rounds, 5 local steps, batch 32, 10 paired seeds."""
    from fedmetaloc import experiments

    config = experiments.load_experiment_config(COHORT_CONFIG)
    config.out_dir = tmp_path_factory.mktemp("cohort")
    assert config.federation.rounds == 200
    assert config.federation.local_steps == 5
    assert config.federation.batch_size == 32
    assert len(config.train_tasks) == 8 and len(config.test_tasks) == 2
    assert len(config.meta_test.seeds) == 10
    experiments.cmd_preprocess(config)
    experiments.cmd_meta_train(config)
    experiments.cmd_meta_test(config)
    return config


def test_criterion_5_meta_init_beats_random_init(cohort_run):
    with criterion(5, "meta init reaches the target in fewer steps on the cohort"):
        from fedmetaloc import experiments

        config = cohort_run
        budget = config.meta_test.steps
        wins = 0
        reductions = []
        for seed in config.meta_test.seeds:
            per_mode = {}
            for mode in ("MI", "RI"):
                steps = []
                for task_id in config.test_tasks:
                    trace = experiments.read_trace(experiments.run_dir(config, task_id, mode, seed))
                    steps.append(steps_to_accuracy(trace.query_mde, COHORT_TARGET_M) or budget + 1)
                per_mode[mode] = float(np.mean(steps))
            wins += per_mode["MI"] < per_mode["RI"]
            reductions.append((per_mode["RI"] - per_mode["MI"]) / per_mode["RI"])
        median_reduction = float(np.median(reductions))
        # the program's own paired summary, from the report's run records, agrees
        summary = experiments.paired_step_summary(experiments.cmd_report(config), COHORT_TARGET_M, budget)
        assert summary["wins"] == wins
        assert summary["median_reduction"] == median_reduction
        print(f"\n  cohort result: MI faster in {wins}/10 paired seeds, "
              f"median step reduction {median_reduction:.0%}")
        assert wins >= 8, f"MI faster in only {wins}/10 paired seeds"
        assert median_reduction >= 0.30, f"median step reduction {median_reduction:.0%} < 30%"


# ---------------------------------------------------------------------------
# criterion 6: trajectory linearization probe on a least-squares task
# ---------------------------------------------------------------------------


def test_criterion_6_linearization_probe():
    with criterion(6, "linearization residual matches closed form and shrinks with mu"):
        task, cfg, overrides, theta0 = linear_probe_setup(m=3, out=2, n_support=30, seed=5)
        mu_list = [1e-2, 1e-3, 1e-4, 1e-5]
        n_steps = 6
        residuals = linearization_probe(
            task, cfg, TheoryProbeParams(linearization_mu_list=tuple(mu_list), linearization_steps=n_steps),
            parts=("meta",), part_overrides={**overrides, "meta": theta0},
        )
        h_s, c_s = augmented_least_squares(
            task.support.rssi, task.normalize_coords(task.support.coords)
        )
        wt0 = augmented_theta(theta0, cfg.part_sizes("meta"))
        for mu in mu_list:
            wt_n = linear_sgd_closed_form(h_s, c_s, wt0, mu, n_steps)
            linearized = wt0 - mu * n_steps * (h_s @ wt0 - c_s)
            oracle = float(np.linalg.norm(wt_n - linearized) / np.linalg.norm(wt0))
            assert abs(residuals[mu] - oracle) <= 1e-8, (mu, residuals[mu], oracle)
        for mu in (1e-2, 1e-3, 1e-4):
            assert residuals[mu / 10] < residuals[mu], (mu, residuals)


# ---------------------------------------------------------------------------
# criterion 7: KNN baseline equals exhaustive search
# ---------------------------------------------------------------------------


def test_criterion_7_knn_equals_brute_force():
    with criterion(7, "KNN baseline equals exhaustive search on 50 random tasks"):
        rng = np.random.default_rng(7)
        for trial in range(50):
            samples = int(rng.integers(30, 130))
            task = synth_task(
                num_aps=int(rng.integers(3, 11)),
                samples=samples,
                seed=2000 + trial,
                noise_sigma=float(rng.uniform(0.5, 4.0)),
            )
            assert task.support.n_samples <= 200
            k = int(rng.integers(1, min(11, task.support.n_samples) + 1))
            preds, dist = knn_baseline(task, k=k)
            oracle_preds, _ = knn_oracle(
                task.support.rssi, task.support.coords, task.query.rssi, k
            )
            assert np.array_equal(preds, oracle_preds), (trial, k)
            assert dist == pytest.approx(mde(oracle_preds, task.query.coords))


# ---------------------------------------------------------------------------
# criterion 8: dataset-gated directional check on real fingerprints
# ---------------------------------------------------------------------------

UJI_CSV_ENV = "UJIINDOORLOC_CSV"
UJI_DEFAULT = Path(__file__).resolve().parent.parent / "data" / "UJIndoorLoc" / "trainingData.csv"


def uji_csv_path() -> Path | None:
    candidate = os.environ.get(UJI_CSV_ENV)
    if candidate and Path(candidate).exists():
        return Path(candidate)
    if UJI_DEFAULT.exists():
        return UJI_DEFAULT
    return None


@pytest.mark.skipif(uji_csv_path() is None, reason="UJIIndoorLoc CSV not available")
def test_criterion_8_uji_directional_check():
    with criterion(8, "on real data the MI trace beats RI at step 100 by >= 20%"):
        from fedmetaloc.data import SchemaConfig

        schema = SchemaConfig(
            coord_columns=("LONGITUDE", "LATITUDE"),
            ap_prefix="WAP",
            building_col="BUILDINGID",
            floor_col="FLOOR",
        )
        parents = dict(load_csv(uji_csv_path(), schema, "building_floor"))
        test_ids = ["B0_F3", "B1_F3", "B2_F4"]
        pre = PreprocessConfig()
        tasks = {}
        for task_id, parent in parents.items():
            processed, _ = preprocess_dataset(parent, pre)
            tasks[task_id] = make_task(task_id, processed, 0.7, seed=11)
        train = [tasks[t] for t in sorted(tasks) if t not in test_ids]
        assert len(train) == 10

        cfg = ModelConfig()  # reference widths and rates; d=50, n=32
        fed = FederationParams(rounds=100, local_steps=5, eta=0.001, batch_size=32, seed=7)
        meta, clients = server_init(train, cfg, fed)
        meta, _ = meta_train(meta, clients, fed)
        task = tasks["B0_F3"]
        mt = MetaTestParams(steps=100, batch_size=32, optimizer=cfg.optimizer)
        _, trace_mi, _ = meta_test(task, cfg, meta.params, mt, seed=0)
        _, trace_ri, _ = meta_test(task, cfg, None, mt, seed=0)
        mi_at_100 = trace_mi.query_mde[99]
        ri_at_100 = trace_ri.query_mde[99]
        print(f"\n  B0_F3 at step 100: MI {mi_at_100:.2f} m vs RI {ri_at_100:.2f} m")
        assert mi_at_100 <= 0.8 * ri_at_100
