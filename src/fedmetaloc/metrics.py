"""Evaluation metrics, the KNN baseline, and empirical convergence probes.

Adaptation speed comes in two flavors:

* accuracy-based: ``1 / (b * n_A)`` where ``n_A`` is the earliest gradient
  step whose query mean distance error reaches the target ``A`` (higher is
  better; 0 when the target is never reached),
* step-based: ``MDE(n*) / b`` at a fixed step budget ``n*`` (lower is better).

The probes near the bottom study plain-SGD fine-tuning trajectories, and this
module holds their whole protocol. Each probe takes its hyperparameters whole,
as one :class:`TheoryProbeParams` (the ``theory_probe`` config section),
checked once when built. :func:`run_theory_probe` runs, on one task:

* the smoothness estimate ``delta1_hat`` (:func:`estimate_delta1`), over the
  first ``min(10, max_steps)`` steps from a random start; it compares
  consecutive states, hence ``max_steps >= 2``;
* two arms of steps to reach a squared-query-gradient-norm threshold
  ``epsilon`` (:func:`epsilon_accuracy_steps`): random init, and meta init
  from the trained shared part when there is one; each arm's predicted
  step bound comes from :func:`evaluate_step_bound`;
* how far an actual trajectory drifts from its first-order linearization, at
  each of ``linearization_mu_list`` (:func:`linearization_probe`).

A probe step runs the backward passes of the parts it trains (all four by
default), and the threshold's ``||nabla_theta L(query)||^2`` runs the
prediction path alone: three forwards and two backwards, no decoder, whose
reconstruction term does not depend on the shared part theta. Parameters,
gradients and the probes' fixed parts (``theta_init``, ``part_overrides``)
are flat part vectors (:mod:`fedmetaloc.nn`).

Memory: besides its model, a probe holds at most three parameter vectors.
The smoothness estimate keeps the previous state, the previous gradient and
the current step's gradients, and takes each difference in place into the
previous vector's buffer. The linearization probe keeps one vector over its
parts, which holds Omega_0, then the linearization, then the residual, and
one step's gradients; a steps-to-epsilon arm keeps one step's gradients.

Every probe trains a model built from :func:`probe_config`: plain SGD at one
rate on every part. A probe step whose loss is NaN or infinite stops the
probe with a :class:`DivergenceError` naming the probe and the step
(:func:`errors.checked`); so does a NaN or infinite squared query-gradient
norm in the steps-to-epsilon probe, which no later loss would catch after
its last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import nn
from .data import LocalizationTask
from .errors import ConfigError, DataError, check_fields, checked, constrained
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


@dataclass(frozen=True)
class TheoryProbeParams:
    """The convergence probe: the ``theory_probe`` config section."""

    epsilon: float = constrained(1e-3, gt=0)
    mu: float = constrained(0.01, gt=0)
    # the smoothness estimate compares the states of the first min(10, max_steps) steps
    max_steps: int = constrained(200, ge=2)
    linearization_mu_list: tuple[float, ...] = constrained((1e-2, 1e-3, 1e-4), gt=0, unique=True)
    linearization_steps: int = constrained(5, ge=1)
    seed: int = constrained(0, ge=0)

    __post_init__ = check_fields


def probe_config(config: ModelConfig, mu: float) -> ModelConfig:
    """``config`` as the probes train it: plain SGD at rate ``mu`` on every part."""
    return replace(config, optimizer="sgd", mu_encoder=mu, mu_meta=mu, mu_mapper=mu)


def flatten_parts(model: ClientModel, parts: Sequence[str]) -> np.ndarray:
    """A new vector holding the parts' parameter vectors one after another."""
    return np.concatenate([model.vectors[part] for part in parts])


def flatten_grads(grads: Mapping[str, np.ndarray], parts: Sequence[str]) -> np.ndarray:
    """A new vector holding the parts' gradient vectors one after another."""
    return np.concatenate([grads[part] for part in parts])


def part_spans(model: ClientModel, parts: Sequence[str]) -> list[tuple[str, slice]]:
    """Each part's slice of the vector :func:`flatten_parts` makes of ``parts``."""
    spans, start = [], 0
    for part in parts:
        stop = start + model.vectors[part].size
        spans.append((part, slice(start, stop)))
        start = stop
    return spans


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
    params: TheoryProbeParams,
    adapt_parts: Sequence[str] | None = None,
    part_overrides: Mapping[str, np.ndarray] | None = None,
) -> tuple[int | None, list[float]]:
    """Full-batch SGD fine-tuning at ``params.mu`` until the query gradient
    norm drops below ``params.epsilon``.

    Tracks ``||nabla_theta L(query)||^2`` after every step and returns the first
    step where it falls below ``params.epsilon`` (None when ``params.max_steps``
    are exhausted), together with the full squared-norm trace. ``part_overrides``
    lets callers pin specific parts (e.g. an identity encoder for an
    exactly-linear probe); they are flat part vectors, copied in with
    :meth:`ClientModel.set_part_params`.
    """
    model = ClientModel.build_paired(probe_config(config, params.mu), task.m, np.random.SeedSequence(params.seed))
    if theta_init is not None:
        model.set_part_params("meta", theta_init)
    for part, vector in (part_overrides or {}).items():
        model.set_part_params(part, vector)
    xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
    xq, yq = task.query.rssi, task.normalize_coords(task.query.coords)
    probe = "random_init" if theta_init is None else "meta_init"
    trace: list[float] = []
    for step in range(1, params.max_steps + 1):
        what = f"theory probe {probe}: step {step}"
        checked(model.train_step(xs, ys, parts=adapt_parts), f"{what} loss")
        sq = checked(theta_grad_sq_norm(model, xq, yq), f"{what} squared query gradient norm")
        trace.append(sq)
        if sq < params.epsilon:
            return step, trace
    return None, trace


def linearization_probe(
    task: LocalizationTask,
    config: ModelConfig,
    params: TheoryProbeParams,
    parts: Sequence[str] | None = None,
    part_overrides: Mapping[str, np.ndarray] | None = None,
) -> dict[float, float]:
    """Drift of the actual SGD trajectory from its first-order linearization.

    For each rate mu of ``params.linearization_mu_list``, runs
    ``n = params.linearization_steps`` full-batch SGD steps from the same
    seeded start and reports

        ``|| Omega_n - (Omega_0 - mu * n * grad L(Omega_0)) || / || Omega_0 ||``

    over the trained parts (all four by default), with ``part_overrides`` as in
    :func:`epsilon_accuracy_steps`. One step is exact by construction, and the
    residual shrinks with mu.
    """
    parts = tuple(parts) if parts is not None else PART_NAMES
    n_steps = params.linearization_steps
    xs_task = task.support
    xs, ys = xs_task.rssi, task.normalize_coords(xs_task.coords)
    residuals: dict[float, float] = {}
    for mu in params.linearization_mu_list:
        model = ClientModel.build(probe_config(config, mu), m=task.m, seed=params.seed)
        for part, vector in (part_overrides or {}).items():
            model.set_part_params(part, vector)
        probe = f"linearization mu={mu!r}"
        spans = part_spans(model, parts)
        # one vector over parts, each part in its own slice: Omega_0, then
        # the linearization Omega_0 - (mu * n) * g0, then the residual
        residual = flatten_parts(model, parts)
        norm0 = np.linalg.norm(residual)
        loss, grads0 = model.composite_loss(xs, ys, parts)
        checked(loss, f"theory probe {probe}: step 1 loss")
        # step 1 applies the gradients g0 is read from: one evaluation per state
        model.apply_gradients(grads0, parts)
        for part, span in spans:
            grads0[part] *= mu * n_steps
            np.subtract(residual[span], grads0[part], out=residual[span])
        del grads0
        for step in range(2, n_steps + 1):
            checked(model.train_step(xs, ys, parts), f"theory probe {probe}: step {step} loss")
        for part, span in spans:
            np.subtract(model.vectors[part], residual[span], out=residual[span])
        residuals[mu] = float(np.linalg.norm(residual) / norm0)
        del model, residual  # not alive while the next rate's model is built
    return residuals


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


def estimate_delta1(task: LocalizationTask, config: ModelConfig, params: TheoryProbeParams) -> float:
    """Smoothness estimate: the largest ``||g_{k-1} - g_k|| / ||Omega_{k-1} -
    Omega_k||`` over consecutive states of the first ``min(10,
    params.max_steps)`` full-batch SGD steps from a random start, each
    difference taken earlier minus later; a pair of equal states is skipped.
    Each difference is taken in place, part by part, into the previous
    vector's buffer, which then takes the current step's state or gradient."""
    model = ClientModel.build(probe_config(config, params.mu), m=task.m, seed=params.seed)
    xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
    spans = part_spans(model, PART_NAMES)
    state, grad, best = flatten_parts(model, PART_NAMES), None, 0.0
    for step in range(1, min(10, params.max_steps) + 1):
        loss, grads = model.composite_loss(xs, ys)
        checked(loss, f"theory probe smoothness: step {step} loss")
        if grad is None:
            grad = flatten_grads(grads, PART_NAMES)
        else:
            for part, span in spans:
                np.subtract(state[span], model.vectors[part], out=state[span])
                np.subtract(grad[span], grads[part], out=grad[span])
            denom = float(np.linalg.norm(state))
            if denom > 0:
                best = max(best, float(np.linalg.norm(grad)) / denom)
            for part, span in spans:
                state[span] = model.vectors[part]
                grad[span] = grads[part]
        model.apply_gradients(grads)
        del grads  # not alive while the next step's gradients are made
    return best


def run_theory_probe(
    task: LocalizationTask, config: ModelConfig, theta_init: np.ndarray | None, params: TheoryProbeParams
) -> dict:
    """Run the plain-SGD probes on one task: steps-to-epsilon under random and
    meta initialization (the latter skipped without ``theta_init``),
    linearization residuals, and empirical constants. Returns the
    ``probe_report.json`` payload, less the task id; a diverging probe raises
    :class:`DivergenceError` instead."""
    delta1_hat = estimate_delta1(task, config, params)
    report: dict = {"epsilon": params.epsilon, "mu": params.mu, "delta1_hat": delta1_hat}
    all_sq: list[float] = []
    for arm, theta in (("random_init", None), ("meta_init", theta_init)):
        if arm == "meta_init" and theta is None:
            steps, trace = None, []
        else:
            steps, trace = epsilon_accuracy_steps(task, config, theta, params)
        ends = (math.sqrt(trace[0]), math.sqrt(trace[-1])) if trace else (0.0, 0.0)
        report[f"steps_{arm}"] = steps
        report[f"grad_sq_trace_{arm}"] = trace
        report[f"step_bound_sq_{arm}"] = evaluate_step_bound(params.epsilon, params.mu, delta1_hat, *ends)
        all_sq += trace
    report["zeta_hat"] = math.sqrt(max(all_sq)) if all_sq else 0.0
    residuals = linearization_probe(task, config, params)
    report["linearization_residuals"] = {repr(mu): r for mu, r in residuals.items()}
    return report
