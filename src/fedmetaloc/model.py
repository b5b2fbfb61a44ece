"""The three-part client network and its composite training loss.

A client model is the parameter partition ``[encoder | shared-feature part |
mapper]`` plus an optional decoder head:

* encoder: task-specific, maps the task's AP space (m) into the shared latent
  space (d),
* decoder: reconstructs the input from the latent space (auxiliary objective),
* feature part ("meta"): shared across clients, maps d -> n,
* mapper: task-specific, maps features to coordinates (n -> p).

The composite loss is prediction MSE plus ``lambda_recon`` times the
reconstruction MSE; with ``lambda_recon = 0`` the decoder receives exactly
zero gradient.

Each entry point runs only the stack passes its result needs (a forward or
backward pass per part):

* ``composite_loss(x, y, parts)``: all four forwards, for the full loss, and
  only the backward passes the gradients of ``parts`` depend on (two,
  mapper and meta, for the shared part alone),
* ``shared_gradient(x, y)``: three forwards (encoder, meta, mapper) and two
  backwards (mapper, meta). The reconstruction term does not depend on the
  shared part, so the gradient of the composite loss with respect to it is
  that of the prediction loss, and the decoder, the largest stack, never runs,
* ``loss_value(x, y)``: ``full_forward`` and a second encoder forward for
  the reconstruction term, then the decoder forward: five forwards,
* ``full_forward(x)``: three forwards.

A backward pass computes the gradient with respect to its stack's input only
when the next backward consumes it: never for the encoder, and for the
mapper, meta and decoder only when a gradient further down the chain is
requested. Skipping a pass changes no bit of what is returned: every
gradient and loss is computed by the same operations, in the same order, as
when all four gradients are requested.

Every pass runs through its part's process-wide workspace (``_WORKSPACES``,
see the workspace contract in :mod:`fedmetaloc.nn`), shared by all client
models of the process, so activations are overwritten by the next model's
pass. Whatever a method returns is the caller's own array: gradient vectors
are freshly allocated, and ``full_forward`` copies its result out of the
workspace.

A model trains by its own config: ``train_step`` and ``apply_gradients``
read the optimizer and the per-part rates from ``self.config`` only, so a
caller that trains otherwise (meta-test's optimizer, the probes' plain SGD)
builds the model from a ``dataclasses.replace`` of its config.

Each part's parameters live in one flat vector (``ClientModel.vectors``, see
:mod:`fedmetaloc.nn`), which the optimizers update in place, and each
gradient is a flat vector in the same layout: ``composite_loss`` returns
``{part: vector}``. Parameter dictionaries appear only in the server's
checkpoints (:mod:`fedmetaloc.federation`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import nn
from .errors import ConfigError, check_fields, constrained

PART_NAMES = ("encoder", "decoder", "meta", "mapper")
OPTIMIZERS = ("adam", "sgd")

# One workspace per part, shared by every model: a step's passes reuse the
# same memory instead of allocating it afresh, and clients of different AP
# counts share each buffer at its largest size.
_WORKSPACES = {part: nn.Workspace() for part in PART_NAMES}


@dataclass(frozen=True)
class ModelConfig:
    """Widths, learning rates, and loss weighting for one experiment; the input width m is each task's."""

    d: int = constrained(50, ge=1)
    n: int = constrained(32, ge=1)
    p: int = constrained(2, ge=1)
    encoder_hidden: tuple[int, ...] = constrained((1024,), ge=1)
    decoder_hidden: tuple[int, ...] = constrained((1024,), ge=1)
    meta_hidden: tuple[int, ...] = constrained((256, 128, 64), ge=1)
    mapper_hidden: tuple[int, ...] = constrained((64, 32), ge=1)
    mu_encoder: float = constrained(0.0095, gt=0)
    mu_meta: float = constrained(0.0005, gt=0)
    mu_mapper: float = constrained(0.0005, gt=0)
    lambda_recon: float = constrained(0.1, ge=0)
    optimizer: str = constrained("adam", one_of=OPTIMIZERS)
    encoder_init: str = constrained("he", one_of=("he", "prefix_projection"))

    def __post_init__(self) -> None:
        check_fields(self)
        if self.encoder_init == "prefix_projection" and self.encoder_hidden:
            raise ConfigError("prefix_projection requires a single-layer (linear) encoder")

    def part_sizes(self, part: str, m: int | None = None) -> list[int]:
        """The widths of ``part``; the encoder and decoder take the task's input width ``m``."""
        return {
            "encoder": [m, *self.encoder_hidden, self.d],
            "decoder": [self.d, *self.decoder_hidden, m],
            "meta": [self.d, *self.meta_hidden, self.n],
            "mapper": [self.n, *self.mapper_hidden, self.p],
        }[part]

    def rates(self) -> dict[str, float]:
        return {
            "encoder": self.mu_encoder,
            "decoder": self.mu_encoder,
            "meta": self.mu_meta,
            "mapper": self.mu_mapper,
        }


class ClientModel:
    """One client's four layer stacks, their flat parameter vectors, and
    per-part optimizer state."""

    def __init__(self, config: ModelConfig, parts: dict[str, list[nn.DenseLayer]]):
        self.config = config
        self.parts = parts
        self.vectors = {part: nn.bind(layers) for part, layers in parts.items()}
        self.opt_states: dict[str, nn.AdamState | None] = {p: None for p in PART_NAMES}

    @classmethod
    def build(cls, config: ModelConfig, m: int, seed: int | np.random.SeedSequence = 0) -> "ClientModel":
        """Seeded construction; each part draws from its own child of ``seed``,
        spawned in ``PART_NAMES`` order."""
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        return cls._from_seeds(config, m, dict(zip(PART_NAMES, ss.spawn(len(PART_NAMES)))))

    @classmethod
    def build_paired(cls, config: ModelConfig, m: int, root: np.random.SeedSequence) -> "ClientModel":
        """Construction for paired runs: ``root``'s next four children seed the
        encoder, mapper, shared part and decoder, in that order. Meta-test and
        the convergence probe build this way, so a random-init and a meta-init
        run of one seed start from the same encoder, mapper and decoder."""
        return cls._from_seeds(config, m, dict(zip(("encoder", "mapper", "meta", "decoder"), root.spawn(4))))

    @classmethod
    def _from_seeds(cls, config: ModelConfig, m: int, seeds: Mapping[str, np.random.SeedSequence]) -> "ClientModel":
        parts = {part: nn.build_stack(config.part_sizes(part, m), seeds[part]) for part in PART_NAMES}
        if config.encoder_init == "prefix_projection":
            # deterministic adapter start: the latent is the fingerprint of the
            # first d AP columns, identical for every client of a cohort that
            # shares its AP indexing
            enc = parts["encoder"][0]
            if enc.in_size < enc.out_size:
                raise ConfigError(
                    f"prefix_projection needs m >= d, got m={enc.in_size}, d={enc.out_size}"
                )
            enc.weights = np.eye(enc.out_size, enc.in_size)
            enc.biases = np.zeros(enc.out_size)
        return cls(config, parts)

    def set_part_params(self, part: str, vector: np.ndarray) -> None:
        """Copy a flat parameter vector of the part's size into the part."""
        np.copyto(self.vectors[part], vector)

    def _forward(self, part: str, x: np.ndarray) -> tuple[np.ndarray, nn.ForwardCache]:
        """One stack forward through the part's shared workspace; the output is a view into it."""
        return nn.forward(self.parts[part], x, _WORKSPACES[part])

    def full_forward(self, x: np.ndarray) -> np.ndarray:
        """Composite prediction: mapper(meta(encoder(x)))."""
        return self._forward("mapper", self._forward("meta", self._forward("encoder", x)[0])[0])[0].copy()

    def composite_loss(
        self, x: np.ndarray, y: np.ndarray, parts: Sequence[str] = PART_NAMES
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Loss over one batch and the gradients of exactly ``parts``.

        ``loss = MSE(prediction, y) + lambda_recon * MSE(reconstruction, x)``,
        always in full. Passes: the four stack forwards, then only the
        backward passes a requested gradient depends on: mapper for
        ``mapper``, ``meta`` or ``encoder``; meta for ``meta`` or
        ``encoder``; decoder for ``decoder`` or ``encoder``; encoder for
        ``encoder`` alone.
        """
        lam = self.config.lambda_recon
        latent, enc_cache, pred_loss, grads, dlatent_pred = self._prediction_path(x, y, parts)
        recon, dec_cache = self._forward("decoder", latent)
        recon_loss, drecon = nn.mse_loss(recon, x)
        loss = pred_loss + lam * recon_loss
        if "decoder" in parts or "encoder" in parts:
            drecon *= lam
            grads["decoder"], dlatent_recon = nn.backward(dec_cache, drecon, input_grad="encoder" in parts)
        if "encoder" in parts:
            dlatent_pred += dlatent_recon
            grads["encoder"], _ = nn.backward(enc_cache, dlatent_pred, input_grad=False)
        return loss, {part: grads[part] for part in parts}

    def shared_gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of the composite loss with respect to the shared part.

        The reconstruction term does not depend on the shared part, so this
        is the prediction loss's gradient: three forwards (encoder, meta,
        mapper) and two backwards (mapper, meta), no decoder pass. Bitwise
        equal to ``composite_loss(x, y)[1]["meta"]``.
        """
        return self._prediction_path(x, y, ("meta",))[3]["meta"]

    def _prediction_path(self, x: np.ndarray, y: np.ndarray, parts: Sequence[str]) -> tuple:
        """Encoder, meta and mapper forwards and the prediction MSE, then the
        mapper and meta backwards when a gradient in ``parts`` needs them.

        Returns ``(latent, encoder cache, prediction loss, {part: gradient},
        d prediction loss / d latent or None)``.
        """
        latent, enc_cache = self._forward("encoder", x)
        feats, meta_cache = self._forward("meta", latent)
        pred, map_cache = self._forward("mapper", feats)
        pred_loss, dpred = nn.mse_loss(pred, y)
        grads: dict[str, np.ndarray] = {}
        dlatent = None
        needs_meta = bool({"meta", "encoder"} & set(parts))
        if needs_meta or "mapper" in parts:
            grads["mapper"], dfeats = nn.backward(map_cache, dpred, input_grad=needs_meta)
            if needs_meta:
                grads["meta"], dlatent = nn.backward(meta_cache, dfeats, input_grad="encoder" in parts)
        return latent, enc_cache, pred_loss, grads, dlatent

    def loss_value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Composite loss without gradients (evaluation only)."""
        pred = self.full_forward(x)
        latent = self._forward("encoder", x)[0]
        pred_loss, _ = nn.mse_loss(pred, np.asarray(y, dtype=np.float64))
        recon_loss, _ = nn.mse_loss(self._forward("decoder", latent)[0], np.asarray(x, dtype=np.float64))
        return pred_loss + self.config.lambda_recon * recon_loss

    def train_step(self, x: np.ndarray, y: np.ndarray, parts: Sequence[str] | None = None) -> float:
        """One optimizer step on ``parts`` (all by default); returns the
        pre-step loss. Only the gradients of ``parts`` are computed."""
        parts = parts if parts is not None else PART_NAMES
        loss, grads = self.composite_loss(x, y, parts)
        self.apply_gradients(grads, parts)
        return loss

    def apply_gradients(self, grads: Mapping[str, np.ndarray], parts: Sequence[str] | None = None) -> None:
        """Update ``parts`` (all by default) in place from ``composite_loss``
        gradients, with the config's optimizer and rates."""
        rates = self.config.rates()
        parts = parts if parts is not None else PART_NAMES
        for part in parts:
            vector, grad = self.vectors[part], grads[part]
            if self.config.optimizer == "adam":
                state = self.opt_states[part]
                if state is None:
                    state = self.opt_states[part] = nn.init_adam_state(vector.size)
                nn.adam_step(vector, grad, state, rates[part])
            else:
                nn.sgd_step(vector, grad, rates[part])
