"""Dense-network substrate: layers, forward/backward passes, MSE loss, SGD and Adam.

Flat layout. A stack of layers (one model part) keeps all its parameters in
one contiguous float64 vector, made by :func:`bind`. Each layer's ``weights``
[out, in] and ``biases`` are reshaped views into that vector, which holds them
in sorted-key order: ``layer0.biases``, ``layer0.weights``, ``layer1.biases``,
... . The gradient :func:`backward` returns and Adam's two moments are flat
vectors in the same layout, and so is everything the model, federation and
metrics layers pass between them: gradients, client updates, probe overrides.

Passes take 2-D batches, one sample per row.

In-place contract. :func:`sgd_step` and :func:`adam_step` overwrite the
parameter vector (and the moments) in place, so every layer view sees the new
values without a copy. Write into a layer's arrays (``layer.biases[...] = b``);
rebinding them to new arrays detaches the layer from its vector.

Workspace contract. :func:`forward` writes every layer's output into a
:class:`Workspace`, and :func:`backward` keeps its per-layer gradients and
ReLU mask there, so repeated passes reuse the same memory instead of
allocating (and page-faulting) it afresh. A workspace belongs to one stack
position, one per model part in a process; its buffers are keyed by layer
slot, grow to the largest batch seen and are never freed. The output
:func:`forward` returns and its :class:`ForwardCache` are views into it,
valid until the next forward through the same workspace; :func:`backward`
refuses a cache that such a forward has overwritten. What :func:`backward`
returns, the gradient vector and the input gradient, is freshly allocated
and owned by the caller. :func:`forward` without a workspace uses a private
one, so its results are the caller's too.

Parameter dictionaries map ``"layer{i}.weights"`` / ``"layer{i}.biases"`` to
arrays, listed layer by layer with the weights first. They are the exchange
format of checkpoints and of per-key test oracles: :func:`export_params` and
:func:`unflatten` produce them, :func:`assign_params` and :func:`flatten`
consume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError

RELU = "relu"
IDENTITY = "identity"

ParamDict = dict[str, np.ndarray]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class DenseLayer:
    """One fully connected layer ``y = act(W x + b)`` with weights stored [out, in]."""

    weights: np.ndarray
    biases: np.ndarray
    activation: str = IDENTITY

    @property
    def in_size(self) -> int:
        return self.weights.shape[1]

    @property
    def out_size(self) -> int:
        return self.weights.shape[0]


def he_uniform_layer(
    in_size: int,
    out_size: int,
    rng: np.random.Generator,
    activation: str = IDENTITY,
) -> DenseLayer:
    """He-style fan-in uniform initialization; biases start at zero."""
    limit = math.sqrt(6.0 / in_size)
    weights = rng.uniform(-limit, limit, size=(out_size, in_size))
    return DenseLayer(weights=weights, biases=np.zeros(out_size), activation=activation)


def build_stack(sizes: Sequence[int], seed: int | np.random.SeedSequence) -> list[DenseLayer]:
    """Build a feed-forward stack ``sizes[0] -> ... -> sizes[-1]``: ReLU on every
    hidden layer, a linear output layer.

    Each layer draws from its own child of the seed sequence, so adding or
    removing layers never perturbs the others' initial weights.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = ss.spawn(len(sizes) - 1)
    layers = []
    for i, child in enumerate(children):
        act = IDENTITY if i == len(sizes) - 2 else RELU
        layers.append(he_uniform_layer(sizes[i], sizes[i + 1], np.random.default_rng(child), act))
    return layers


def stack_sizes(layers: Sequence[DenseLayer]) -> tuple[int, ...]:
    """Widths ``(in, hidden..., out)`` of a stack, as :func:`build_stack` takes them."""
    return (layers[0].in_size, *(layer.out_size for layer in layers))


@lru_cache(maxsize=None)
def _layout(sizes: tuple[int, ...]) -> tuple[tuple[str, int, int, tuple[int, ...]], ...]:
    """``(key, start, stop, shape)`` of every parameter, in flat (sorted-key) order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        shapes[f"layer{i}.weights"] = (n_out, n_in)
        shapes[f"layer{i}.biases"] = (n_out,)
    layout = []
    start = 0
    for key in sorted(shapes):
        stop = start + math.prod(shapes[key])
        layout.append((key, start, stop, shapes[key]))
        start = stop
    return tuple(layout)


def unflatten(vector: np.ndarray, sizes: Sequence[int]) -> ParamDict:
    """Keyed views into a stack's flat vector, listed like :func:`export_params`."""
    views = {key: vector[start:stop].reshape(shape) for key, start, stop, shape in _layout(tuple(sizes))}
    return {
        f"layer{i}.{role}": views[f"layer{i}.{role}"]
        for i in range(len(sizes) - 1)
        for role in ("weights", "biases")
    }


def flatten(params: ParamDict, sizes: Sequence[int]) -> np.ndarray:
    """Copy a parameter dictionary whose keys and shapes are those of the
    stack ``sizes`` into a new flat vector."""
    layout = _layout(tuple(sizes))
    vector = np.empty(layout[-1][2])
    for key, start, stop, _ in layout:
        vector[start:stop] = np.ravel(params[key])
    return vector


def bind(layers: Sequence[DenseLayer]) -> np.ndarray:
    """Move a stack's parameters into one new flat vector; the layers become views into it."""
    sizes = stack_sizes(layers)
    current = {}
    for i, layer in enumerate(layers):
        current[f"layer{i}.weights"] = layer.weights
        current[f"layer{i}.biases"] = layer.biases
    vector = flatten(current, sizes)
    views = unflatten(vector, sizes)
    for i, layer in enumerate(layers):
        layer.weights = views[f"layer{i}.weights"]
        layer.biases = views[f"layer{i}.biases"]
    return vector


def export_params(layers: Sequence[DenseLayer]) -> ParamDict:
    """Copy the stack's parameters into a fresh dictionary."""
    out: ParamDict = {}
    for i, layer in enumerate(layers):
        out[f"layer{i}.weights"] = layer.weights.copy()
        out[f"layer{i}.biases"] = layer.biases.copy()
    return out


def assign_params(layers: Sequence[DenseLayer], params: ParamDict) -> None:
    """Copy ``params`` into the stack's own arrays, validating every shape."""
    expected = {f"layer{i}.{role}" for i in range(len(layers)) for role in ("weights", "biases")}
    if set(params) != expected:
        raise ConfigError(f"parameter keys {sorted(params)} do not match stack of {len(layers)} layers")
    for i, layer in enumerate(layers):
        w = np.asarray(params[f"layer{i}.weights"], dtype=np.float64)
        b = np.asarray(params[f"layer{i}.biases"], dtype=np.float64)
        if w.shape != layer.weights.shape or b.shape != layer.biases.shape:
            raise ConfigError(
                f"layer {i} expects weights {layer.weights.shape} and biases {layer.biases.shape}, "
                f"got {w.shape} and {b.shape}"
            )
        layer.weights[...] = w
        layer.biases[...] = b


class Workspace:
    """Grow-only buffers for the passes of one stack position (a model part).

    Each buffer is keyed by its role and layer slot, never by shape, and
    grows to the largest size asked of it, so clients of different AP
    counts and batch sizes share one set. ``generation`` counts the forwards
    run through the workspace; a cache from an earlier one is stale.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, int], np.ndarray] = {}
        self.generation = 0

    def take(self, role: str, slot: int, shape: tuple[int, int], dtype: type = np.float64) -> np.ndarray:
        """A C-contiguous ``shape`` view of the buffer at ``(role, slot)``."""
        size = shape[0] * shape[1]
        buf = self._buffers.get((role, slot))
        if buf is None or buf.size < size:
            buf = self._buffers[role, slot] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


@dataclass
class ForwardCache:
    """Activation trace from one forward pass, consumed by :func:`backward`.

    ``activations`` holds the stack input, then each layer's output after its
    activation, so layer i reads ``activations[i]`` and writes
    ``activations[i + 1]``; all but the input are views into ``workspace``,
    valid while its generation is ``generation``.
    """

    layers: Sequence[DenseLayer]
    workspace: Workspace
    generation: int
    activations: list[np.ndarray]


def forward(
    layers: Sequence[DenseLayer], x: np.ndarray, workspace: Workspace | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the stack on a 2-D batch whose rows are samples.

    Layer outputs go into ``workspace`` (a private one when None): the
    returned output is a view into it, overwritten by its next forward.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != layers[0].in_size:
        raise ConfigError(f"input must be a 2-D batch of width {layers[0].in_size}, got shape {a.shape}")
    workspace = workspace if workspace is not None else Workspace()
    workspace.generation += 1
    cache = ForwardCache(layers=layers, workspace=workspace, generation=workspace.generation, activations=[a])
    for i, layer in enumerate(layers):
        a = np.matmul(a, layer.weights.T, out=workspace.take("output", i, (a.shape[0], layer.out_size)))
        a += layer.biases
        if layer.activation == RELU:
            np.maximum(a, 0.0, out=a)
        cache.activations.append(a)
    return a, cache


def backward(
    cache: ForwardCache, upstream_grad: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Backpropagate ``dL/dy`` through the cached pass.

    Returns the gradient of every weight and bias as one flat vector in the
    parameter layout, filled last layer first, weights before biases, plus the
    gradient with respect to the stack input, which lets callers chain several
    stacks together; with ``input_grad=False`` that product is skipped and
    None takes its place. Both are new arrays. The per-layer gradients in
    between alternate between two workspace slots.
    """
    da = np.asarray(upstream_grad, dtype=np.float64)
    workspace = cache.workspace
    if workspace.generation != cache.generation:
        raise RuntimeError(
            f"stale cache: its workspace has run {workspace.generation - cache.generation} forward(s) since"
        )
    batch = cache.activations[0].shape[0]
    layout = _layout(stack_sizes(cache.layers))
    vector = np.empty(layout[-1][2])
    views = {key: vector[start:stop].reshape(shape) for key, start, stop, shape in layout}
    slot = 0
    dx = None
    for i in range(len(cache.layers) - 1, -1, -1):
        layer = cache.layers[i]
        if layer.activation == RELU:
            # a ReLU output is positive exactly where its pre-activation is
            mask = np.greater(cache.activations[i + 1], 0.0, out=workspace.take("mask", 0, da.shape, np.bool_))
            dz = np.multiply(da, mask, out=workspace.take("grad", slot, da.shape))
        else:
            dz = da
        np.matmul(dz.T, cache.activations[i], out=views[f"layer{i}.weights"])
        dz.sum(axis=0, out=views[f"layer{i}.biases"])
        if i:
            slot = 1 - slot
            da = np.matmul(dz, layer.weights, out=workspace.take("grad", slot, (batch, layer.in_size)))
        elif input_grad:
            dx = dz @ layer.weights
    return vector, dx


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all components of two same-shape arrays;
    gradient is ``2 (pred - target) / size``."""
    diff = pred - target
    loss = float(np.mean(diff * diff))
    diff *= 2.0
    diff /= diff.size
    return loss, diff


@dataclass
class AdamState:
    """First/second moment estimates (flat, like the parameters) plus the
    bias-correction step counter."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


def init_adam_state(size: int) -> AdamState:
    return AdamState(first_moment=np.zeros(size), second_moment=np.zeros(size))


# The fused Adam update runs block by block, so that a block's parameters,
# gradient, moments and the two work vectors (6 x 256 KB) stay in a core's L2
# cache through all 14 passes, and no step allocates a temporary; the SGD step
# runs the same way. The work vectors are shared by every model in the
# process; no model keeps scratch.
_ADAM_BLOCK = 32768
_work = np.empty((2, _ADAM_BLOCK))


def sgd_step(params: np.ndarray, grads: np.ndarray, mu: float) -> None:
    """Plain gradient step ``p <- p - mu * g``, in place on the flat vector,
    block by block through the shared work vector like :func:`adam_step`."""
    for start in range(0, params.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        g = grads[block]
        step = _work[0, : g.size]
        np.multiply(g, mu, out=step)
        params[block] -= step


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, mu: float) -> None:
    """Bias-corrected Adam update, in place on the flat parameters and moments.

    Each ufunc repeats one operation of ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + ((1 - b2) g) g`` and ``p = p - mu (m / bc1) / (sqrt(v / bc2) + eps)``
    in that order, so the result is bitwise that of the textbook expressions.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1, bc2 = 1 - b1**t, 1 - b2**t
    for start in range(0, params.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        g, m, v = grads[block], state.first_moment[block], state.second_moment[block]
        a, b = _work[0, : g.size], _work[1, : g.size]
        np.multiply(g, 1 - b1, out=a)
        m *= b1
        m += a
        np.multiply(g, 1 - b2, out=a)
        a *= g
        v *= b2
        v += a
        np.divide(m, bc1, out=a)
        a *= mu
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        params[block] -= a
