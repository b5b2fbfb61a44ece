"""Round-synchronous federated meta-training and few-shot meta-testing.

Each communication round broadcasts the shared feature parameters, lets every
client take its local optimizer steps on its support set (encoder and mapper
resume from the previous round, the shared part restarts from the broadcast),
then aggregates one vector per client: its query-set gradient of the shared
part (``aggregation="gradient"``), applied as

    theta <- theta - eta * sum_k rho_k * grad_k

or its locally updated shared part (``"average"``, FedAvg), averaged with
the same weights.

Aggregation always sums in ascending client-id order, so client scheduling can
never change the result. Contribution factors rho_k are proportional to query
set sizes; ``meta_train`` computes them once per run.

The shared part travels as one flat vector (the layout of :mod:`fedmetaloc.nn`):
the server's ``theta``, each client's copy of it, the client updates and the
aggregate are all vectors of that one length. A checkpoint holds the
server's state: that vector, its config, ``eta`` and the round
(:func:`save_checkpoint`, :func:`load_checkpoint`).

A loss that turns NaN or infinite stops the run with a :class:`DivergenceError`
naming the round and client (meta-train) or the task, mode and seed
(meta-test), before any trace of the run is written.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import nn
from .data import LocalizationTask
from .errors import ConfigError, DataError, DivergenceError
from .fileio import atomic_write
from .metrics import mde
from .model import ClientModel, ModelConfig


@dataclass
class MetaModel:
    """Server-held shared feature parameters (one flat vector) plus the round counter."""

    params: np.ndarray
    config: ModelConfig
    eta: float
    round: int = 0

    def broadcast(self) -> np.ndarray:
        """Read-only view of the shared vector; each client copies it into its own.

        The server never writes a vector in place (every round makes a new
        one), so the view stays this round's values.
        """
        view = self.params.view()
        view.flags.writeable = False
        return view


def save_checkpoint(path: str | Path, meta: MetaModel) -> None:
    """Write ``meta`` bit-exactly as one ``.npz`` archive, atomically.

    Members, in this order: ``meta/layer{i}.weights`` and
    ``meta/layer{i}.biases`` for each layer of the shared stack, then
    ``__config__`` (the model config) and ``__extra__`` (``{"eta", "round"}``),
    both JSON with sorted keys.
    """
    params = nn.unflatten(meta.params, meta.config.part_sizes("meta"))
    payload = {f"meta/{key}": tensor for key, tensor in params.items()}
    payload["__config__"] = np.str_(json.dumps(meta.config.to_dict(), sort_keys=True))
    payload["__extra__"] = np.str_(json.dumps({"round": meta.round, "eta": meta.eta}, sort_keys=True))
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, **payload)


def load_checkpoint(path: str | Path) -> MetaModel:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Anything malformed is a :class:`DataError`: a file that is not a whole
    archive, a missing ``__config__`` or ``__extra__`` header, an
    ``__extra__`` that is not an object holding ``eta`` and ``round``, or
    members that are not the shared stack its config describes.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            config = ModelConfig(**json.loads(str(archive["__config__"])))
            extra = json.loads(str(archive["__extra__"]))
            if not isinstance(extra, dict):
                raise ValueError(f"__extra__ holds {type(extra).__name__}, not a JSON object")
            eta, round_ = float(extra["eta"]), int(extra["round"])
            tensors = {name: archive[name] for name in archive.files if not name.startswith("__")}
    except (KeyError, ValueError, TypeError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from exc
    sizes = config.part_sizes("meta")
    expected = {f"meta/{key}": shape for key, shape in nn.param_shapes(sizes).items()}
    actual = {name: tensor.shape for name, tensor in tensors.items()}
    if actual != expected:
        raise DataError(
            f"checkpoint {path}: the shared part does not match its config: expected {expected}, got {actual}"
        )
    params = nn.flatten({name.removeprefix("meta/"): tensor for name, tensor in tensors.items()}, sizes)
    return MetaModel(params=params, config=config, eta=eta, round=round_)


@dataclass
class BatchStream:
    """Mini-batch indices into ``n`` samples from a private shuffled-epoch stream.

    Each epoch is one permutation drawn from ``rng``, cut into consecutive
    batches; a remainder too short for a batch is dropped. A batch size of at
    least ``n`` gives every index in order and draws nothing.
    """

    n: int
    batch_size: int
    rng: np.random.Generator
    _order: np.ndarray | None = None
    _cursor: int = 0

    def next(self) -> np.ndarray:
        if self.batch_size >= self.n:
            return np.arange(self.n)
        if self._order is None or self._cursor + self.batch_size > self.n:
            self._order = self.rng.permutation(self.n)
            self._cursor = 0
        batch = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return batch


@dataclass
class ClientState:
    client_id: str
    task: LocalizationTask
    model: ClientModel
    local_steps: int
    batches: BatchStream


AGGREGATIONS = ("gradient", "average")


@dataclass
class ClientUpdate:
    """A client's round result: ``vector`` is its query gradient of the shared
    part (``"gradient"`` aggregation) or its locally updated copy (``"average"``)."""

    client_id: str
    vector: np.ndarray
    query_loss: float


@dataclass
class AdaptationTrace:
    """Per-gradient-step learning curve of one fine-tuning run: after step
    ``i + 1``, the full-support loss and the query MDE (native units)."""

    support_loss: list[float] = field(default_factory=list)
    query_mde: list[float] = field(default_factory=list)


@dataclass
class RoundReport:
    round: int
    mean_query_loss: float
    client_losses: dict[str, float]


def contribution_factors(query_sizes: Sequence[int]) -> np.ndarray:
    """Weights proportional to query sizes, summing to one."""
    sizes = np.asarray(query_sizes, dtype=np.float64)
    if sizes.size == 0:
        raise ConfigError("cannot weight an empty cohort")
    if (sizes <= 0).any():
        raise ConfigError("every client needs a nonempty query set")
    return sizes / sizes.sum()


def server_init(
    tasks: Sequence[LocalizationTask],
    config: ModelConfig,
    eta: float,
    seed: int,
    local_steps: int = 5,
    batch_size: int = 32,
) -> tuple[MetaModel, list[ClientState]]:
    """Seed the shared part, then assemble every client as (alpha_k, theta^0, beta_k)."""
    if not tasks:
        raise ConfigError("need at least one training task")
    if eta <= 0:
        raise ConfigError(f"outer learning rate must be > 0, got {eta}")
    root = np.random.SeedSequence(seed)
    theta_seed, clients_seed = root.spawn(2)
    theta_layers = nn.build_stack(config.part_sizes("meta"), theta_seed)
    meta = MetaModel(params=nn.bind(theta_layers), config=config, eta=eta)

    clients: list[ClientState] = []
    ordered = sorted(tasks, key=lambda t: t.task_id)
    client_seeds = clients_seed.spawn(len(ordered))
    for task, child in zip(ordered, client_seeds):
        model_seed, batch_seed = child.spawn(2)
        model = ClientModel.build(config, m=task.m, seed=model_seed)
        model.set_part_params("meta", meta.broadcast())
        state = ClientState(
            client_id=task.task_id,
            task=task,
            model=model,
            local_steps=local_steps,
            batches=BatchStream(task.support.n_samples, batch_size, np.random.default_rng(batch_seed)),
        )
        clients.append(state)
    return meta, clients


def client_local_train(
    state: ClientState, theta_broadcast: np.ndarray, local_steps: int | None = None, aggregation: str = "gradient"
) -> ClientUpdate:
    """Local phase of one round: adopt the broadcast, train, evaluate on the query set."""
    if aggregation not in AGGREGATIONS:
        raise ConfigError(f"unknown aggregation {aggregation!r}")
    task = state.task
    if task.support.n_samples == 0 or task.query.n_samples == 0:
        raise DataError(f"client {state.client_id}: empty support or query set")
    steps = state.local_steps if local_steps is None else local_steps
    state.model.set_part_params("meta", theta_broadcast)
    # the broadcast invalidates any optimizer moments accumulated for the
    # previous round's shared parameters; encoder/mapper states persist
    meta_state = state.model.opt_states["meta"]
    if meta_state is not None:
        meta_state.reset()
    xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
    for step in range(1, steps + 1):
        batch = state.batches.next()
        loss = state.model.train_step(xs[batch], ys[batch])
        if not math.isfinite(loss):
            raise DivergenceError(f"client {state.client_id}: local step {step} loss is {loss}")
    # the round reads the query loss and the vector it aggregates; averaging
    # needs no backward pass, the gradient mode the shared part's only
    gradient = aggregation == "gradient"
    query_loss, grads = state.model.composite_loss(
        task.query.rssi, task.normalize_coords(task.query.coords), ("meta",) if gradient else ()
    )
    if not math.isfinite(query_loss):
        raise DivergenceError(f"client {state.client_id}: query loss is {query_loss}")
    vector = grads["meta"] if gradient else state.model.vectors["meta"].copy()
    return ClientUpdate(state.client_id, vector, query_loss)


def server_aggregate(
    meta: MetaModel,
    updates: Sequence[ClientUpdate],
    rho: Mapping[str, float],
    aggregation: str = "gradient",
) -> MetaModel:
    """One outer update; summation always runs in ascending client-id order.

    ``aggregation="gradient"`` (default): the update vectors are query
    gradients, and the server steps ``theta - eta * sum_k rho_k v_k``.
    ``aggregation="average"``: they are locally updated shared parts, and the
    server keeps their weighted average, which accumulates the clients' local
    optimizer progress round over round; useful at small round budgets where
    the gradient step alone barely moves the shared part.
    """
    if not updates:
        raise ConfigError("cannot aggregate an empty round")
    if aggregation not in AGGREGATIONS:
        raise ConfigError(f"unknown aggregation {aggregation!r}")
    acc = np.zeros_like(meta.params)
    term = np.empty_like(meta.params)
    for update in sorted(updates, key=lambda u: u.client_id):
        if update.vector.shape != acc.shape:
            raise ConfigError(
                f"client {update.client_id} sent {update.vector.shape} values, server expects {acc.shape}"
            )
        np.multiply(update.vector, rho[update.client_id], out=term)
        acc += term
    if aggregation == "gradient":
        acc *= meta.eta
        np.subtract(meta.params, acc, out=acc)
    return MetaModel(params=acc, config=meta.config, eta=meta.eta, round=meta.round + 1)


def meta_train(
    meta: MetaModel,
    clients: Sequence[ClientState],
    rounds: int,
    execution_order: Sequence[str] | None = None,
    on_round: Callable[[RoundReport, MetaModel], None] | None = None,
    early_stop_tol: float = 1e-5,
    early_stop_patience: int = 20,
    aggregation: str = "gradient",
) -> tuple[MetaModel, list[RoundReport]]:
    """Run up to ``rounds`` communication rounds, stopping early on loss plateau.

    ``execution_order`` only changes the order clients are *run* in; gradients
    are always aggregated in client-id order, so the result is identical for
    any permutation.
    """
    by_id = {c.client_id: c for c in clients}
    if execution_order is None:
        execution_order = sorted(by_id)
    if sorted(execution_order) != sorted(by_id):
        raise ConfigError("execution order must name every client exactly once")
    rho = dict(zip(by_id, contribution_factors([c.task.query.n_samples for c in by_id.values()])))

    reports: list[RoundReport] = []
    flat_rounds = 0
    prev_loss: float | None = None
    for _ in range(rounds):
        broadcast = meta.broadcast()
        try:
            updates = [
                client_local_train(by_id[cid], broadcast, aggregation=aggregation) for cid in execution_order
            ]
        except DivergenceError as exc:
            raise DivergenceError(f"round {meta.round + 1}, {exc}") from exc
        meta = server_aggregate(meta, updates, rho, aggregation=aggregation)
        losses = {u.client_id: u.query_loss for u in updates}
        mean_loss = float(np.mean(list(losses.values())))
        report = RoundReport(round=meta.round, mean_query_loss=mean_loss, client_losses=losses)
        reports.append(report)
        if on_round is not None:
            on_round(report, meta)
        if prev_loss is not None:
            rel_change = abs(mean_loss - prev_loss) / max(abs(prev_loss), 1e-12)
            flat_rounds = flat_rounds + 1 if rel_change < early_stop_tol else 0
            if flat_rounds >= early_stop_patience:
                break
        prev_loss = mean_loss
    return meta, reports


def meta_test(
    task: LocalizationTask,
    config: ModelConfig,
    theta_init: np.ndarray | None,
    steps: int,
    seed: int,
    batch_size: int = 32,
    optimizer: str | None = None,
) -> tuple[ClientModel, AdaptationTrace, np.ndarray]:
    """Few-shot adaptation on a new task, recording the query learning curve.

    ``theta_init=None`` is random initialization (RI); passing the trained
    shared vector is meta initialization (MI). The model is built by
    :meth:`ClientModel.build_paired` and the batches drawn from the seed's
    next child, so RI/MI runs with the same seed are paired. Every part is
    fine-tuned.

    Returns the adapted model, the per-step trace, and the per-sample query
    distance errors (native units) of the last step's prediction, or of the
    initial model's when ``steps`` is 0.
    """
    task.support.validate_model_ready()
    task.query.validate_model_ready()
    root = np.random.SeedSequence(seed)
    model = ClientModel.build_paired(config, task.m, root)
    mode = "RI" if theta_init is None else "MI"
    if theta_init is not None:
        model.set_part_params("meta", theta_init)

    trace = AdaptationTrace()
    xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
    xq = task.query.rssi
    yq_true = task.query.coords
    batches = BatchStream(task.support.n_samples, batch_size, np.random.default_rng(root.spawn(1)[0]))
    pred = None
    for step in range(1, steps + 1):
        batch = batches.next()
        loss = model.train_step(xs[batch], ys[batch], optimizer=optimizer)
        if not math.isfinite(loss):
            raise DivergenceError(f"task {task.task_id}, {mode} seed {seed}: step {step} loss is {loss}")
        pred = task.denormalize_coords(model.full_forward(xq))
        trace.support_loss.append(model.loss_value(xs, ys))
        trace.query_mde.append(mde(pred, yq_true))
    if pred is None:
        pred = task.denormalize_coords(model.full_forward(xq))
    per_sample = np.linalg.norm(pred - yq_true, axis=1)
    return model, trace, per_sample
