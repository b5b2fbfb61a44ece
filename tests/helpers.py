"""Shared test oracles and fixtures: naive reference implementations kept
deliberately independent of the vectorized code paths they check."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from fedmetaloc import nn
from fedmetaloc.data import (
    FingerprintDataset,
    LocalizationTask,
    SchemaConfig,
    SyntheticEnvSpec,
    make_task,
    synth_environment,
)
from fedmetaloc.model import ModelConfig
from fedmetaloc.preprocess import PreprocessConfig, preprocess_dataset


def naive_stack_forward(layers, x) -> np.ndarray:
    """Plain-Python matrix multiply, one scalar at a time."""
    out = [float(v) for v in x]
    for layer in layers:
        w, b = layer.weights, layer.biases
        nxt = []
        for o in range(w.shape[0]):
            acc = float(b[o])
            for i in range(w.shape[1]):
                acc += float(w[o, i]) * out[i]
            nxt.append(max(acc, 0.0) if layer.activation == "relu" else acc)
        out = nxt
    return np.array(out)


def central_difference(f, arrays: dict[str, np.ndarray], h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central finite differences of the scalar ``f()`` w.r.t. live arrays."""
    grads: dict[str, np.ndarray] = {}
    for key, arr in arrays.items():
        g = np.zeros_like(arr)
        flat, gf = arr.ravel(), g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = f()
            flat[idx] = orig - h
            f_minus = f()
            flat[idx] = orig
            gf[idx] = (f_plus - f_minus) / (2.0 * h)
        grads[key] = g
    return grads


def rel_err(actual: np.ndarray, reference: np.ndarray) -> float:
    diff = np.linalg.norm(np.ravel(actual) - np.ravel(reference))
    return diff / max(np.linalg.norm(np.ravel(reference)), 1e-12)


def randomize_biases(model, rng: np.random.Generator, scale: float = 0.1) -> None:
    """Move biases off their zero init so no ReLU sits exactly on its kink.

    Central differences are ill-defined at a kink; gradient checks must run at
    a generic parameter point.
    """
    for layers in model.parts.values():
        for layer in layers:
            layer.biases += rng.normal(scale=scale, size=layer.biases.shape)


def reference_sgd_step(params: dict, grads: dict, mu: float) -> dict:
    """Plain SGD on parameter dictionaries, one new array per key: ``p - mu * g``."""
    return {k: params[k] - mu * grads[k] for k in params}


def reference_grad_sq_norm(grad: np.ndarray, sizes) -> float:
    """``||grad||^2`` as a per-key sum, in the order the backward pass fills
    the keys (last layer first, weights before biases), taken through
    ``sqrt`` and squared back."""
    params = nn.unflatten(grad, sizes)
    total = 0.0
    for i in reversed(range(len(sizes) - 1)):
        for key in (f"layer{i}.weights", f"layer{i}.biases"):
            total += float(np.sum(params[key] * params[key]))
    return math.sqrt(total) ** 2


def reference_adam_state(params: dict) -> dict:
    zeros = {k: np.zeros_like(v) for k, v in params.items()}
    return {"m": zeros, "v": {k: np.zeros_like(v) for k, v in params.items()}, "t": 0}


def reference_adam_step(params: dict, grads: dict, state: dict, mu: float) -> tuple[dict, dict]:
    """Bias-corrected Adam on parameter dictionaries, written out per key in
    the textbook expression order; returns new parameters and new state."""
    t = state["t"] + 1
    m = {k: 0.9 * state["m"][k] + (1 - 0.9) * grads[k] for k in params}
    v = {k: 0.999 * state["v"][k] + (1 - 0.999) * grads[k] * grads[k] for k in params}
    bc1 = 1 - 0.9**t
    bc2 = 1 - 0.999**t
    new = {k: params[k] - mu * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8) for k in params}
    return new, {"m": m, "v": v, "t": t}


def reference_segment_crossings(samples: np.ndarray, aps: np.ndarray, walls: np.ndarray) -> np.ndarray:
    """The AP-to-sample wall-crossing count as first written: one broadcast of
    every difference over the full ``[S, A, W]`` grid."""

    def cross(o, a, b):
        return (a[..., 0] - o[..., 0]) * (b[..., 1] - o[..., 1]) - (
            a[..., 1] - o[..., 1]
        ) * (b[..., 0] - o[..., 0])

    p = np.broadcast_to(samples[:, None, :], (len(samples), len(aps), 2))[:, :, None, :]
    q = aps[None, :, None, :]
    c = walls[None, None, :, 0, :]
    d = walls[None, None, :, 1, :]
    d1 = cross(p, q, c) * cross(p, q, d)
    d2 = cross(c, d, p) * cross(c, d, q)
    return ((d1 < 0) & (d2 < 0)).sum(axis=2)


def reference_load_csv(
    path: Path, schema: SchemaConfig, partition: str = "none"
) -> list[tuple[str | None, FingerprintDataset]]:
    """The fingerprint CSV reader as first written: ``csv.reader`` rows, one
    ``float()`` per selected cell and ``int(float())`` per group label; then,
    unless ``partition`` is "none", each row appended to the group of its
    labels in a dict, and the groups named and returned in sorted label order."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        col_index = {name: i for i, name in enumerate(header)}
        if schema.ap_columns:
            ap_names = list(schema.ap_columns)
        else:
            ap_names = [h for h in header if h.startswith(schema.ap_prefix)]
        ap_idx = [col_index[c] for c in ap_names]
        coord_idx = [col_index[c] for c in schema.coord_columns]
        label_idx = {
            rule: col_index[col]
            for rule, col in (("building", schema.building_col), ("floor", schema.floor_col))
            if col
        }
        rssi_rows, coord_rows, label_rows = [], [], []
        for row in reader:
            if not row:
                continue
            rssi_rows.append([float(row[i]) for i in ap_idx])
            coord_rows.append([float(row[i]) for i in coord_idx])
            label_rows.append({rule: int(float(row[i])) for rule, i in label_idx.items()})

    def dataset(rows: list[int]) -> FingerprintDataset:
        return FingerprintDataset(
            rssi=np.array([rssi_rows[i] for i in rows]),
            coords=np.array([coord_rows[i] for i in rows]),
            ap_names=ap_names,
            coord_names=list(schema.coord_columns),
        )

    if partition == "none":
        return [(None, dataset(list(range(len(rssi_rows)))))]
    rules = partition.split("_")
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, labels in enumerate(label_rows):
        groups.setdefault(tuple(labels[rule] for rule in rules), []).append(i)
    return [
        ("_".join(f"{rule[0].upper()}{label}" for rule, label in zip(rules, key)), dataset(rows))
        for key, rows in sorted(groups.items())
    ]


def count_passes(monkeypatch) -> dict:
    """Count stack forwards and backwards by patching them where the model
    looks them up; the counted calls run unchanged."""
    counts = {"forward": 0, "backward": 0}
    for name in counts:
        original = getattr(nn, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(nn, name, counted)
    return counts


def reference_batches(n: int, batch_size: int, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """``count`` batches from the shuffled-epoch sampler as first written
    (``ClientState.next_batch``): a new permutation whenever the rest of the
    epoch is shorter than a batch, and every index in order when a batch
    covers the whole set."""
    out, order, cursor = [], None, 0
    for _ in range(count):
        if batch_size >= n:
            out.append(np.arange(n))
            continue
        if order is None or cursor + batch_size > n:
            order = rng.permutation(n)
            cursor = 0
        out.append(order[cursor : cursor + batch_size])
        cursor += batch_size
    return out


def tiny_model_config(**overrides) -> ModelConfig:
    base = dict(
        d=4,
        n=3,
        p=2,
        encoder_hidden=(5,),
        decoder_hidden=(5,),
        meta_hidden=(6,),
        mapper_hidden=(4,),
        lambda_recon=0.1,
    )
    base.update(overrides)
    return ModelConfig(**base)


def synth_task(
    num_aps: int = 6,
    samples: int = 60,
    seed: int = 0,
    noise_sigma: float = 2.0,
    area: tuple[float, float] = (40.0, 25.0),
    ratio: float = 0.7,
    split_seed: int = 1,
    task_id: str | None = None,
):
    spec = SyntheticEnvSpec(
        num_aps=num_aps, samples=samples, seed=seed, noise_sigma=noise_sigma, area=area
    )
    processed, _ = preprocess_dataset(synth_environment(spec), PreprocessConfig())
    return make_task(task_id or f"T{seed}", processed, ratio, split_seed)


def identity_part(size: int) -> np.ndarray:
    """Flat vector of a single-layer ``size -> size`` identity stack."""
    return nn.flatten({"layer0.weights": np.eye(size), "layer0.biases": np.zeros(size)}, [size, size])


def linear_probe_setup(
    m: int = 3,
    out: int = 2,
    n_support: int = 12,
    n_query: int = 8,
    seed: int = 0,
    label_noise: float = 0.0,
):
    """Task + config where the composite model is exactly linear in the shared part.

    Identity encoder/mapper and unit label scaling make the prediction
    ``x @ W.T + b`` over the shared part's single layer, so least-squares
    closed forms apply. Labels follow one shared linear ground truth (plus
    optional noise), so support and query losses share their minimizer.
    The fixed parts (``overrides``) and ``theta0`` are flat part vectors.
    """
    rng = np.random.default_rng(seed)
    truth_w = rng.normal(size=(out, m))
    truth_b = rng.normal(size=out)

    def split(n: int) -> FingerprintDataset:
        x = rng.uniform(0.0, 1.0, size=(n, m))
        y = x @ truth_w.T + truth_b
        if label_noise > 0:
            y = y + rng.normal(scale=label_noise, size=y.shape)
        return FingerprintDataset(rssi=x, coords=y, ap_names=[f"AP{i}" for i in range(m)])

    task = LocalizationTask("LIN", split(n_support), split(n_query), np.zeros(out), np.ones(out))
    cfg = ModelConfig(
        d=m,
        n=out,
        p=out,
        encoder_hidden=(),
        decoder_hidden=(),
        meta_hidden=(),
        mapper_hidden=(),
        lambda_recon=0.0,
        optimizer="sgd",
    )
    overrides = {"encoder": identity_part(m), "mapper": identity_part(out)}
    theta0 = nn.bind(nn.build_stack([m, out], seed=seed + 1))
    return task, cfg, overrides, theta0


def augmented_least_squares(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-form matrices of the mean-MSE objective for ``x @ W.T + b``.

    Returns ``H`` and ``C`` with gradient ``H @ Wt - C`` over augmented
    parameters ``Wt = [[W.T], [b]]`` (columns are outputs).
    """
    n, p = y.shape
    xt = np.hstack([x, np.ones((n, 1))])
    return 2.0 * xt.T @ xt / (n * p), 2.0 * xt.T @ y / (n * p)


def augmented_theta(theta: np.ndarray, sizes) -> np.ndarray:
    """``[[W.T], [b]]`` of a single-layer shared part given as a flat vector."""
    params = nn.unflatten(theta, sizes)
    return np.vstack([params["layer0.weights"].T, params["layer0.biases"][None, :]])


def linear_sgd_closed_form(h_s, c_s, wt0, mu: float, step: int) -> np.ndarray:
    """Parameters after ``step`` full-batch gradient steps, via eigendecomposition."""
    w_star = np.linalg.solve(h_s, c_s)
    evals, q = np.linalg.eigh(h_s)
    d0 = q.T @ (wt0 - w_star)
    return w_star + q @ (((1.0 - mu * evals) ** step)[:, None] * d0)


def write_uji_csv(
    path: Path, groups: list[tuple[int, int]], rows: int = 20, aps: int = 520, seed: int = 0
) -> Path:
    """A CSV in the UJIIndoorLoc schema (``configs/uji_schema.json``), rendered
    from :func:`synth_environment`: ``aps`` WAP columns of whole dBm, a cell
    below the -62 dBm floor reading 100 (not detected), then LONGITUDE,
    LATITUDE, FLOOR and BUILDINGID. Each (building, floor) of ``groups`` is
    one environment of ``rows`` samples over 100 m x 70 m; the floors of a
    building share its AP layout, and the buildings stand side by side.
    Everything follows from ``seed``."""
    sample_seeds, ap_seeds = np.random.SeedSequence(seed).generate_state(2 * len(groups)).reshape(2, -1)
    header = [*(f"WAP{i:03d}" for i in range(1, aps + 1)), "LONGITUDE", "LATITUDE", "FLOOR", "BUILDINGID"]
    lines = [",".join(header)]
    for (building, floor), sample_seed in zip(groups, sample_seeds):
        spec = SyntheticEnvSpec(
            num_aps=aps, samples=rows, area=(100.0, 70.0), seed=int(sample_seed),
            ap_seed=int(ap_seeds[building]), sensitivity_dbm=-62.0,
        )
        env = synth_environment(spec, sentinel=100.0)
        rssi = np.rint(env.rssi).astype(np.int64)
        lon = -7691.3384 + 120.0 * building + env.coords[:, 0]
        lat = 4864745.7450 + env.coords[:, 1]
        lines.extend(
            ",".join([*map(str, rssi[i].tolist()), f"{lon[i]:.10f}", f"{lat[i]:.10f}", str(floor), str(building)])
            for i in range(rows)
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def small_config(tmp_path: Path, **overrides) -> Path:
    """A three-task synthetic experiment (two train tasks, test task T02) with
    the given top-level keys replaced, written to ``tmp_path / "exp.json"``."""
    raw = {
        "name": "smoke",
        "out_dir": str(tmp_path / "out"),
        "synthetic_envs": [
            {"id": "T00", "num_aps": 5, "samples": 60, "seed": 0, "noise_sigma": 1.0},
            {"id": "T01", "num_aps": 6, "samples": 60, "seed": 1, "noise_sigma": 1.0},
            {"id": "T02", "num_aps": 5, "samples": 60, "seed": 2, "noise_sigma": 1.0},
        ],
        "train_tasks": ["T00", "T01"],
        "test_tasks": ["T02"],
        "support_ratio": 0.7,
        "model": {
            "d": 4,
            "n": 3,
            "p": 2,
            "encoder_hidden": [6],
            "decoder_hidden": [6],
            "meta_hidden": [8],
            "mapper_hidden": [4],
            "lambda_recon": 0.1,
        },
        "federation": {"rounds": 2, "local_steps": 2, "eta": 0.01, "batch_size": 16, "seed": 3},
        "meta_test": {
            "steps": 6,
            "targets_m": [8.0],
            "step_checkpoints": [3, 6],
            "seeds": [0, 1],
            "batch_size": 16,
        },
        "theory_probe": {"epsilon": 1e-4, "mu": 0.05, "max_steps": 30, "linearization_steps": 3},
    }
    raw.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(raw, indent=2))
    return path


def tree_digest(root: Path) -> dict[str, str]:
    """The SHA-256 of every file under ``root``, keyed by its relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }
