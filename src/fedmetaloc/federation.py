"""Round-synchronous federated meta-training and few-shot meta-testing.

Each communication round broadcasts the shared feature parameters, lets every
client take its local optimizer steps on its support set (encoder and mapper
resume from the previous round, the shared part restarts from the broadcast),
then aggregates one vector per client: its query-set gradient of the shared
part (``aggregation="gradient"``), applied as

    theta <- theta - eta * sum_k rho_k * grad_k

or a read-only view of its locally updated shared part, valid until the
client's next local phase (``"average"``, FedAvg), averaged with the same
weights. ``meta_train`` always aggregates a round before the next one starts.
A client keeps no state for the shared part between rounds: its optimizer
moments are dropped when its local steps end.

Each stage takes its hyperparameters whole, as one object checked once when
built: meta-training a :class:`FederationParams` (the ``federation`` config
section), meta-testing a :class:`MetaTestParams` (``meta_test``). Learning
rates and the optimizer are the model config's; meta-test builds its model
with ``mt.optimizer``, and the server steps with ``fed.eta``.

Aggregation and each round's mean query loss always run in ascending
client-id order, so client scheduling can never change the result. Contribution factors rho_k are proportional to query
set sizes; ``meta_train`` computes them once per run.

The shared part travels as one flat vector (the layout of :mod:`fedmetaloc.nn`):
the server's ``theta``, each client's copy of it, the client updates and the
aggregate are all vectors of that one length. A checkpoint holds the
server's state: that vector, one weights and biases tensor per layer, and
the round (:func:`save_checkpoint`, :func:`load_checkpoint`).

A loss that turns NaN or infinite stops the run with a :class:`DivergenceError`
naming the round and client (meta-train) or the task, mode and seed
(meta-test), before any trace of the run is written.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import nn
from .data import LocalizationTask
from .errors import ConfigError, DataError, DivergenceError, check_fields, checked, constrained
from .fileio import atomic_write
from .metrics import mde
from .model import OPTIMIZERS, ClientModel, ModelConfig

AGGREGATIONS = ("gradient", "average")


@dataclass(frozen=True)
class FederationParams:
    """Stage (i), collaborative meta-training: the ``federation`` config section."""

    rounds: int = constrained(200, ge=0)
    local_steps: int = constrained(5, ge=0)
    eta: float = constrained(0.001, gt=0)
    batch_size: int = constrained(32, ge=1)
    seed: int = constrained(0, ge=0)
    checkpoint_every: int = constrained(50, ge=0)
    early_stop_tol: float = constrained(1e-5, ge=0)
    early_stop_patience: int = constrained(20, ge=1)
    aggregation: str = constrained("gradient", one_of=AGGREGATIONS)

    __post_init__ = check_fields


@dataclass(frozen=True)
class MetaTestParams:
    """Stage (ii), rapid adaptation: the ``meta_test`` config section."""

    steps: int = constrained(100, ge=0)
    # a repeated target, checkpoint or seed would report one result under one key twice, or count one run twice
    targets_m: tuple[float, ...] = constrained((5.0,), gt=0, unique=True)
    step_checkpoints: tuple[int, ...] = constrained((50, 100), ge=1, unique=True)
    seeds: tuple[int, ...] = constrained((0,), ge=0, nonempty=True, unique=True)
    batch_size: int = constrained(32, ge=1)
    optimizer: str = constrained("adam", one_of=OPTIMIZERS)

    __post_init__ = check_fields


@dataclass
class MetaModel:
    """Server-held shared feature parameters (one flat vector), the layer
    widths ``[d, *meta_hidden, n]`` that lay it out, and the round counter."""

    params: np.ndarray
    widths: list[int]
    round: int = 0

    def broadcast(self) -> np.ndarray:
        """Read-only view of the shared vector; each client copies it into its own.

        The server never writes a vector in place (every round makes a new
        one), so the view stays this round's values.
        """
        return _read_only(self.params)


def _read_only(vector: np.ndarray) -> np.ndarray:
    view = vector.view()
    view.flags.writeable = False
    return view


def save_checkpoint(path: str | Path, meta: MetaModel) -> None:
    """Write ``meta`` bit-exactly as one ``.npz`` archive, atomically.

    Members, in this order: ``meta/layer{i}.weights`` and
    ``meta/layer{i}.biases`` for each layer of the shared stack, then
    ``__extra__``, the JSON object ``{"round": r}``.
    """
    payload = {f"meta/{key}": tensor for key, tensor in nn.unflatten(meta.params, meta.widths).items()}
    payload["__extra__"] = np.str_(json.dumps({"round": meta.round}))
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, **payload)


def load_checkpoint(path: str | Path) -> MetaModel:
    """Read a checkpoint written by :func:`save_checkpoint`; the widths are the tensors' shapes.

    Anything malformed is a :class:`DataError`: a file that is not a whole
    archive, an ``__extra__`` that is missing or not an object holding
    ``round``, members other than ``meta/layer0..k-1.weights|biases``, biases
    that do not fit their weights, or layers that do not chain. Other
    ``__``-prefixed members and ``__extra__`` keys are ignored, so archives
    that also hold the model config and ``eta`` load as well.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            extra = json.loads(str(archive["__extra__"]))
            if not isinstance(extra, dict):
                raise ValueError(f"__extra__ holds {type(extra).__name__}, not a JSON object")
            round_ = int(extra["round"])
            tensors = {name: archive[name] for name in archive.files if not name.startswith("__")}
    except (KeyError, ValueError, TypeError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from exc
    layers = len(tensors) // 2
    if not layers or set(tensors) != {f"meta/layer{i}.{role}" for i in range(layers) for role in ("weights", "biases")}:
        raise DataError(f"checkpoint {path}: members {sorted(tensors)} are not meta/layer0..k-1.weights|biases")
    widths: list[int] = []
    for i in range(layers):
        weights, biases = tensors[f"meta/layer{i}.weights"], tensors[f"meta/layer{i}.biases"]
        if weights.ndim != 2 or biases.shape != weights.shape[:1]:
            raise DataError(f"checkpoint {path}: layer{i} biases {biases.shape} do not fit weights {weights.shape}")
        n_out, n_in = weights.shape
        if widths and n_in != widths[-1]:
            raise DataError(f"checkpoint {path}: layer{i} takes {n_in} inputs, but layer{i - 1} gives {widths[-1]}")
        widths += [n_out] if widths else [n_in, n_out]
    params = nn.flatten({name.removeprefix("meta/"): tensor for name, tensor in tensors.items()}, widths)
    return MetaModel(params=params, widths=widths, round=round_)


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
    batches: BatchStream


@dataclass
class ClientUpdate:
    """A client's round result: ``vector`` is its query gradient of the shared
    part (``"gradient"`` aggregation) or a read-only view of its locally
    updated shared part (``"average"``), valid until the client's next local
    phase."""

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
    tasks: Sequence[LocalizationTask], config: ModelConfig, fed: FederationParams
) -> tuple[MetaModel, list[ClientState]]:
    """Seed the shared part from ``fed.seed``, then assemble every client as
    (alpha_k, theta^0, beta_k), each drawing batches of ``fed.batch_size``."""
    if not tasks:
        raise ConfigError("need at least one training task")
    root = np.random.SeedSequence(fed.seed)
    theta_seed, clients_seed = root.spawn(2)
    widths = config.part_sizes("meta")
    meta = MetaModel(params=nn.bind(nn.build_stack(widths, theta_seed)), widths=widths)

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
            batches=BatchStream(task.support.n_samples, fed.batch_size, np.random.default_rng(batch_seed)),
        )
        clients.append(state)
    return meta, clients


def client_local_train(state: ClientState, theta_broadcast: np.ndarray, fed: FederationParams) -> ClientUpdate:
    """Local phase of one round: adopt the broadcast, take ``fed.local_steps``
    steps, evaluate on the query set for ``fed.aggregation``."""
    task = state.task
    state.model.set_part_params("meta", theta_broadcast)
    xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
    for step in range(1, fed.local_steps + 1):
        batch = state.batches.next()
        checked(state.model.train_step(xs[batch], ys[batch]), f"client {state.client_id}: local step {step} loss")
    # the shared part's optimizer moments live for this local phase only: the
    # next broadcast restarts them, so the next round's first step makes fresh
    # zero ones; encoder, decoder and mapper states persist
    state.model.opt_states["meta"] = None
    # the round reads the query loss and the vector it aggregates; averaging
    # needs no backward pass, the gradient mode the shared part's only
    gradient = fed.aggregation == "gradient"
    query_loss, grads = state.model.composite_loss(
        task.query.rssi, task.normalize_coords(task.query.coords), ("meta",) if gradient else ()
    )
    checked(query_loss, f"client {state.client_id}: query loss")
    vector = grads["meta"] if gradient else _read_only(state.model.vectors["meta"])
    return ClientUpdate(state.client_id, vector, query_loss)


def server_aggregate(
    meta: MetaModel, updates: Sequence[ClientUpdate], rho: Mapping[str, float], fed: FederationParams
) -> MetaModel:
    """One outer update; summation always runs in ascending client-id order.

    ``fed.aggregation == "gradient"``: the update vectors are query
    gradients, and the server steps ``theta - fed.eta * sum_k rho_k v_k``.
    ``"average"``: they are locally updated shared parts, and the server
    keeps their weighted average, which accumulates the clients' local
    optimizer progress round over round; useful at small round budgets where
    the gradient step alone barely moves the shared part.
    """
    if not updates:
        raise ConfigError("cannot aggregate an empty round")
    acc = np.zeros_like(meta.params)
    term = np.empty_like(meta.params)
    for update in sorted(updates, key=lambda u: u.client_id):
        if update.vector.shape != acc.shape:
            raise ConfigError(
                f"client {update.client_id} sent {update.vector.shape} values, server expects {acc.shape}"
            )
        np.multiply(update.vector, rho[update.client_id], out=term)
        acc += term
    if fed.aggregation == "gradient":
        acc *= fed.eta
        np.subtract(meta.params, acc, out=acc)
    return MetaModel(params=acc, widths=meta.widths, round=meta.round + 1)


def meta_train(
    meta: MetaModel,
    clients: Sequence[ClientState],
    fed: FederationParams,
    on_round: Callable[[RoundReport, MetaModel], None] | None = None,
) -> tuple[MetaModel, list[RoundReport]]:
    """Run up to ``fed.rounds`` communication rounds, stopping early once the
    mean query loss stays within ``fed.early_stop_tol`` (relative) for
    ``fed.early_stop_patience`` rounds.

    Clients run in the order given, but the contribution factors, the
    aggregate and the mean query loss are all taken in client-id order, so
    the result is identical for any permutation of ``clients``.
    """
    ordered = sorted(clients, key=lambda c: c.client_id)
    rho = {c.client_id: r for c, r in zip(ordered, contribution_factors([c.task.query.n_samples for c in ordered]))}

    reports: list[RoundReport] = []
    flat_rounds = 0
    prev_loss: float | None = None
    for _ in range(fed.rounds):
        broadcast = meta.broadcast()
        try:
            updates = [client_local_train(client, broadcast, fed) for client in clients]
        except DivergenceError as exc:
            raise DivergenceError(f"round {meta.round + 1}, {exc}") from exc
        meta = server_aggregate(meta, updates, rho, fed)
        losses = dict(sorted((u.client_id, u.query_loss) for u in updates))
        mean_loss = float(np.mean(list(losses.values())))
        report = RoundReport(round=meta.round, mean_query_loss=mean_loss, client_losses=losses)
        reports.append(report)
        if on_round is not None:
            on_round(report, meta)
        if prev_loss is not None:
            rel_change = abs(mean_loss - prev_loss) / max(abs(prev_loss), 1e-12)
            flat_rounds = flat_rounds + 1 if rel_change < fed.early_stop_tol else 0
            if flat_rounds >= fed.early_stop_patience:
                break
        prev_loss = mean_loss
    return meta, reports


def meta_test(
    task: LocalizationTask,
    config: ModelConfig,
    theta_init: np.ndarray | None,
    mt: MetaTestParams,
    seed: int,
) -> tuple[ClientModel, AdaptationTrace, np.ndarray]:
    """Few-shot adaptation on a new task, recording the query learning curve.

    ``theta_init=None`` is random initialization (RI); passing the trained
    shared vector is meta initialization (MI). The model is built from
    ``config`` with ``mt.optimizer`` by :meth:`ClientModel.build_paired`, and
    batches of ``mt.batch_size`` are drawn from the seed's next child, so
    RI/MI runs with the same seed are paired. Every part is fine-tuned for
    ``mt.steps`` steps.

    Returns the adapted model, the per-step trace, and the per-sample query
    distance errors (native units) of the last step's prediction, or of the
    initial model's when ``mt.steps`` is 0.
    """
    root = np.random.SeedSequence(seed)
    model = ClientModel.build_paired(replace(config, optimizer=mt.optimizer), task.m, root)
    mode = "RI" if theta_init is None else "MI"
    if theta_init is not None:
        model.set_part_params("meta", theta_init)

    trace = AdaptationTrace()
    xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
    xq = task.query.rssi
    yq_true = task.query.coords
    batches = BatchStream(task.support.n_samples, mt.batch_size, np.random.default_rng(root.spawn(1)[0]))
    pred = None
    for step in range(1, mt.steps + 1):
        batch = batches.next()
        where = f"task {task.task_id}, {mode} seed {seed}: step {step}"
        checked(model.train_step(xs[batch], ys[batch]), f"{where} loss")
        pred = task.denormalize_coords(model.full_forward(xq))
        trace.support_loss.append(checked(model.loss_value(xs, ys), f"{where} support loss"))
        trace.query_mde.append(checked(mde(pred, yq_true), f"{where} query MDE"))
    if pred is None:
        pred = task.denormalize_coords(model.full_forward(xq))
    per_sample = np.linalg.norm(pred - yq_true, axis=1)
    return model, trace, per_sample
