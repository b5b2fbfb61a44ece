"""Evaluation metrics, the KNN baseline, and empirical convergence probes.

Adaptation speed comes in two flavors:

* accuracy-based: ``1 / (b * n_A)`` where ``n_A`` is the earliest gradient
  step whose query mean distance error reaches the target ``A`` (higher is
  better; 0 when the target is never reached),
* step-based: ``MDE(n*) / b`` at a fixed step budget ``n*`` (lower is better).

The probes near the bottom study plain-SGD fine-tuning trajectories: steps to
reach a squared-gradient-norm threshold, and how far an actual trajectory
drifts from its first-order linearization. A probe step runs the backward
passes of the parts it trains (all four by default), and the threshold's
``||nabla_theta L(query)||^2`` runs the prediction path alone: three forwards
and two backwards, no decoder, whose reconstruction term does not depend on
the shared part theta. Parameters, gradients and the probes' fixed parts
(``theta_init``, ``part_overrides``) are flat part vectors (:mod:`fedmetaloc.nn`).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import nn
from .data import LocalizationTask
from .errors import ConfigError, DataError
from .model import PART_NAMES, ClientModel, ModelConfig


def mde(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean Euclidean distance between predicted and true coordinates."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 2:
        raise ConfigError(f"coordinate arrays must share a 2-D shape, got {pred.shape} vs {truth.shape}")
    if pred.shape[0] == 0:
        raise ConfigError("cannot average over zero points")
    return float(np.mean(np.linalg.norm(pred - truth, axis=1)))


def steps_to_accuracy(series: Sequence[float], target: float) -> int | None:
    """Earliest step of a per-step query MDE series that is <= target, or None
    if never reached."""
    for step, value in enumerate(series, start=1):
        if value <= target:
            return step
    return None


def accuracy_speed_from_steps(n: int, batch_size: int) -> float:
    """Accuracy-based adaptation speed for a known step count: ``1 / (b * n)``."""
    if n < 1 or batch_size < 1:
        raise ConfigError(f"step count and batch size must be >= 1, got n={n}, b={batch_size}")
    return 1.0 / (batch_size * n)


def step_speed_from_mde(mde_value: float, batch_size: int) -> float:
    """Step-based adaptation speed for a known accuracy: ``MDE / b``."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be >= 1, got {batch_size}")
    return mde_value / batch_size


def improvement_percent(mi_value: float, ri_value: float) -> float:
    """Relative improvement of meta init over random init, in percent:
    ``100 * (ri - mi) / ri``, for step counts to a target accuracy and for
    MDEs at a fixed step budget alike."""
    if ri_value <= 0:
        raise ConfigError(f"baseline value must be > 0, got {ri_value}")
    return 100.0 * (ri_value - mi_value) / ri_value


def cdf_curve(errors: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF points: sorted errors with cumulative fraction i/N."""
    if len(errors) == 0:
        raise ConfigError("cannot build a CDF from zero errors")
    ordered = sorted(float(e) for e in errors)
    n = len(ordered)
    return [(e, (i + 1) / n) for i, e in enumerate(ordered)]


def knn_baseline(task: LocalizationTask, k: int) -> tuple[np.ndarray, float]:
    """K-nearest-neighbors regression over preprocessed fingerprints.

    Each query point averages the coordinates of its k nearest support points
    (Euclidean distance in RSSI space); exact distance ties break toward the
    lower support index.
    """
    n_support = task.support.n_samples
    if k < 1 or k > n_support:
        raise DataError(f"k={k} not usable with {n_support} support points")
    sup = task.support.rssi
    sup_coords = task.support.coords
    preds = np.empty_like(task.query.coords)
    for i, q in enumerate(task.query.rssi):
        d2 = np.sum((sup - q) ** 2, axis=1)
        nearest = np.argsort(d2, kind="stable")[:k]
        preds[i] = sup_coords[nearest].mean(axis=0)
    return preds, mde(preds, task.query.coords)


# ---------------------------------------------------------------------------
# convergence probes (plain-SGD mode)
# ---------------------------------------------------------------------------


def flatten_parts(model: ClientModel, parts: Sequence[str]) -> np.ndarray:
    """A new vector holding the parts' parameter vectors one after another."""
    return np.concatenate([model.vectors[part] for part in parts])


def flatten_grads(grads: Mapping[str, np.ndarray], parts: Sequence[str]) -> np.ndarray:
    """A new vector holding the parts' gradient vectors one after another."""
    return np.concatenate([grads[part] for part in parts])


def theta_grad_sq_norm(model: ClientModel, x: np.ndarray, y: np.ndarray) -> float:
    """Squared gradient norm of the query loss with respect to the shared part.

    Runs :meth:`ClientModel.shared_gradient`: the prediction path only (three
    forwards, two backwards), since the reconstruction term does not depend
    on the shared part.
    """
    sizes = nn.stack_sizes(model.parts["meta"])
    blocks = nn.unflatten(model.shared_gradient(x, y), sizes)
    # The sum runs per layer block in the order nn.backward fills them (last
    # layer first, weights before biases), then goes through sqrt and back:
    # the grad_sq traces in probe_report.json depend on this exact order.
    total = 0.0
    for i in range(len(sizes) - 2, -1, -1):
        for block in (blocks[f"layer{i}.weights"], blocks[f"layer{i}.biases"]):
            total += float(np.sum(block * block))
    return math.sqrt(total) ** 2


def epsilon_accuracy_steps(
    task: LocalizationTask,
    config: ModelConfig,
    theta_init: np.ndarray | None,
    epsilon: float,
    max_steps: int,
    mu: float,
    seed: int = 0,
    adapt_parts: Sequence[str] | None = None,
    part_overrides: Mapping[str, np.ndarray] | None = None,
) -> tuple[int | None, list[float]]:
    """Full-batch SGD fine-tuning until the query gradient norm drops below epsilon.

    Tracks ``||nabla_theta L(query)||^2`` after every step and returns the first
    step where it falls below ``epsilon`` (None when ``max_steps`` is exhausted),
    together with the full squared-norm trace. ``part_overrides`` lets callers
    pin specific parts (e.g. an identity encoder for an exactly-linear probe);
    they are flat part vectors, copied in with :meth:`ClientModel.set_part_params`.
    """
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon}")
    model = ClientModel.build_paired(config, task.m, np.random.SeedSequence(seed))
    if theta_init is not None:
        model.set_part_params("meta", theta_init)
    for part, vector in (part_overrides or {}).items():
        model.set_part_params(part, vector)
    xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
    xq, yq = task.query.rssi, task.normalize_coords(task.query.coords)
    rates = {part: mu for part in PART_NAMES}
    trace: list[float] = []
    reached: int | None = None
    for step in range(1, max_steps + 1):
        model.train_step(xs, ys, rates=rates, parts=adapt_parts, optimizer="sgd")
        sq = theta_grad_sq_norm(model, xq, yq)
        trace.append(sq)
        if reached is None and sq < epsilon:
            reached = step
            break
    return reached, trace


def linearization_probe(
    task: LocalizationTask,
    config: ModelConfig,
    mu_list: Sequence[float],
    n_steps: int,
    seed: int = 0,
    parts: Sequence[str] | None = None,
    part_overrides: Mapping[str, np.ndarray] | None = None,
) -> dict[float, float]:
    """Drift of the actual SGD trajectory from its first-order linearization.

    For each learning rate, runs ``n_steps`` full-batch SGD steps from the
    same seeded start and reports

        ``|| Omega_n - (Omega_0 - mu * n * grad L(Omega_0)) || / || Omega_0 ||``

    over the trained parts (all four by default), with ``part_overrides`` as in
    :func:`epsilon_accuracy_steps`. One step is exact by construction, and the
    residual shrinks with mu.
    """
    if n_steps < 1:
        raise ConfigError(f"need at least one step, got {n_steps}")
    parts = tuple(parts) if parts is not None else PART_NAMES
    xs_task = task.support
    xs, ys = xs_task.rssi, task.normalize_coords(xs_task.coords)
    residuals: dict[float, float] = {}
    for mu in mu_list:
        model = ClientModel.build(config, m=task.m, seed=seed)
        for part, vector in (part_overrides or {}).items():
            model.set_part_params(part, vector)
        omega0 = flatten_parts(model, parts)
        _, grads0 = model.composite_loss(xs, ys, parts)
        g0 = flatten_grads(grads0, parts)
        rates = {part: mu for part in PART_NAMES}
        # step 1 applies the gradients g0 was read from: one evaluation per state
        model.apply_gradients(grads0, rates=rates, parts=parts, optimizer="sgd")
        del grads0
        for _ in range(n_steps - 1):
            model.train_step(xs, ys, rates=rates, parts=parts, optimizer="sgd")
        omega_n = flatten_parts(model, parts)
        # omega_n - (omega0 - (mu * n) * g0), each step in g0's or omega_n's own memory
        g0 *= mu * n_steps
        np.subtract(omega0, g0, out=g0)
        np.subtract(omega_n, g0, out=omega_n)
        residuals[mu] = float(np.linalg.norm(omega_n) / np.linalg.norm(omega0))
    return residuals


def estimate_smoothness(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> float:
    """Largest observed ratio ||grad_i - grad_j|| / ||Omega_i - Omega_j|| over
    consecutive ``(state, gradient)`` pairs, each difference taken earlier
    minus later.

    Only the previous pair is kept, so however many pairs a generator yields,
    the comparison holds two pairs and one difference at a time.
    """
    best, previous, seen = 0.0, None, 0
    for state, grad in pairs:
        if previous is not None:
            denom = float(np.linalg.norm(previous[0] - state))
            if denom > 0:
                best = max(best, float(np.linalg.norm(previous[1] - grad)) / denom)
        previous = state, grad
        seen += 1
    if seen < 2:
        raise ConfigError("need at least two states to estimate smoothness")
    return best


def evaluate_step_bound(
    epsilon: float,
    mu: float,
    delta1_hat: float,
    grad_norm_init: float,
    grad_norm_final: float,
) -> float | None:
    """Predicted upper bound on squared steps-to-epsilon, from estimated constants.

    Reported for inspection only; the constants are empirical estimates, so the
    bound is never asserted as a hard test.
    """
    if delta1_hat <= 0 or mu <= 0 or grad_norm_init <= 0:
        return None
    cross = grad_norm_init * grad_norm_final
    return (1.0 / (delta1_hat * mu) ** 2) * ((epsilon - 2.0 * cross) / grad_norm_init**2 + 1.0)
