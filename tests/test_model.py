import json
import re
from dataclasses import asdict
from itertools import combinations

import numpy as np
import pytest

from fedmetaloc import metrics, model as model_module, nn
from fedmetaloc.data import SyntheticEnvSpec, read_bundle_meta, save_task_bundle
from fedmetaloc.errors import ConfigError, DataError
from fedmetaloc.experiments import ExperimentConfig, TaskOptions, _trained_theta, write_round_log
from fedmetaloc.federation import FederationParams, MetaModel, MetaTestParams, load_checkpoint, save_checkpoint
from fedmetaloc.metrics import TheoryProbeParams
from fedmetaloc.model import PART_NAMES, ClientModel, ModelConfig

from helpers import (
    central_difference,
    count_passes,
    naive_stack_forward,
    randomize_biases,
    reference_adam_state,
    reference_adam_step,
    reference_grad_sq_norm,
    reference_sgd_step,
    rel_err,
    synth_task,
    tiny_model_config,
)


def identity_params(size: int) -> dict:
    return {"layer0.weights": np.eye(size), "layer0.biases": np.zeros(size)}


class TestConfig:
    def test_default_widths_match_reference_setup(self):
        cfg = ModelConfig()
        assert cfg.part_sizes("encoder", 200) == [200, 1024, 50]
        assert cfg.part_sizes("decoder", 200) == [50, 1024, 200]
        assert cfg.part_sizes("meta") == [50, 256, 128, 64, 32]
        assert cfg.part_sizes("mapper") == [32, 64, 32, 2]
        assert cfg.rates() == {
            "encoder": 0.0095,
            "decoder": 0.0095,
            "meta": 0.0005,
            "mapper": 0.0005,
        }

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ModelConfig(d=0)
        with pytest.raises(ConfigError):
            ModelConfig(mu_meta=0.0)
        with pytest.raises(ConfigError):
            ModelConfig(lambda_recon=-0.1)
        with pytest.raises(ConfigError):
            ModelConfig(optimizer="rmsprop")

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: MetaTestParams(seeds=(0, 0)), "seeds lists [0] more than once"),
            (lambda: MetaTestParams(targets_m=(8.0, 2.5, 8.0)), "targets_m lists [8.0] more than once"),
            (lambda: MetaTestParams(step_checkpoints=(3, 3)), "step_checkpoints lists [3] more than once"),
            (
                lambda: TheoryProbeParams(linearization_mu_list=(0.01, 0.01)),
                "linearization_mu_list lists [0.01] more than once",
            ),
        ],
    )
    def test_repeated_entry_is_rejected_at_construction(self, build, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            build()

    def test_non_finite_rate_is_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="mu_meta must be a finite number, got nan"):
            ModelConfig(mu_meta=float("nan"))
        with pytest.raises(ConfigError, match="eta must be a finite number, got inf"):
            FederationParams(eta=float("inf"))

    def test_round_trips_through_dict(self):
        cfg = tiny_model_config()
        assert ModelConfig(**asdict(cfg)) == cfg


class TestShapes:
    def test_shape_chain_holds(self):
        cfg = tiny_model_config()
        model = ClientModel.build(cfg, m=7, seed=0)
        x = np.random.default_rng(0).uniform(size=(3, 7))
        latent, _ = nn.forward(model.parts["encoder"], x)
        feats, _ = nn.forward(model.parts["meta"], latent)
        out = model.full_forward(x)
        assert latent.shape == (3, cfg.d)
        assert feats.shape == (3, cfg.n)
        assert out.shape == (3, cfg.p)
        assert nn.forward(model.parts["decoder"], latent)[0].shape == (3, 7)

    def test_encoder_input_must_match_task_width(self):
        model = ClientModel.build(tiny_model_config(), m=7, seed=0)
        with pytest.raises(ConfigError):
            model.full_forward(np.zeros((3, 9)))
        with pytest.raises(ConfigError):
            model.composite_loss(np.zeros((3, 9)), np.zeros((3, 2)))

    def test_paired_build_seeds_encoder_mapper_meta_decoder_in_that_order(self):
        cfg = tiny_model_config()
        root = np.random.SeedSequence(11)
        model = ClientModel.build_paired(cfg, 7, root)
        children = np.random.SeedSequence(11).spawn(4)
        for part, child in zip(("encoder", "mapper", "meta", "decoder"), children):
            expected = nn.bind(nn.build_stack(cfg.part_sizes(part, 7), child))
            assert np.array_equal(model.vectors[part], expected)
        # the root's next child, the one meta-test draws its batches from, is its fifth
        assert root.spawn(1)[0].spawn_key == (4,)


class TestPrefixProjection:
    """``encoder_init: "prefix_projection"``: a linear encoder that starts as
    the projection onto the first d AP columns."""

    def build(self):
        return ClientModel.build(tiny_model_config(encoder_init="prefix_projection", encoder_hidden=()), m=7, seed=3)

    def test_the_latent_is_the_first_d_columns(self):
        model = self.build()
        (enc,) = model.parts["encoder"]
        assert np.array_equal(enc.weights, np.eye(4, 7)) and np.array_equal(enc.biases, np.zeros(4))
        x = np.random.default_rng(3).normal(size=(6, 7))
        assert np.array_equal(nn.forward(model.parts["encoder"], x)[0], x[:, :4])

    def test_a_train_step_moves_the_encoder_through_its_bound_vector(self):
        model = self.build()
        (enc,) = model.parts["encoder"]
        start = model.vectors["encoder"].copy()
        assert np.array_equal(start, nn.flatten({"layer0.weights": np.eye(4, 7), "layer0.biases": np.zeros(4)}, (7, 4)))
        rng = np.random.default_rng(4)
        model.train_step(rng.uniform(size=(8, 7)), rng.normal(size=(8, 2)))
        assert not np.array_equal(model.vectors["encoder"], start)
        assert_layers_view_vectors(model)
        assert np.array_equal(nn.flatten(nn.export_params([enc]), nn.stack_sizes([enc])), model.vectors["encoder"])


class TestEncodeDecode:
    def test_zero_encoder_maps_everything_to_zero(self):
        model = ClientModel.build(tiny_model_config(), m=5, seed=0)
        model.set_part_params("encoder", np.zeros_like(model.vectors["encoder"]))
        assert np.all(nn.forward(model.parts["encoder"], np.random.default_rng(1).uniform(size=(3, 5)))[0] == 0)

    def test_identity_single_layer_encoder_is_identity(self):
        cfg = tiny_model_config(d=4, encoder_hidden=(), decoder_hidden=())
        model = ClientModel.build(cfg, m=4, seed=0)
        nn.assign_params(model.parts["encoder"], identity_params(4))
        x = np.random.default_rng(2).uniform(size=(3, 4))
        assert np.array_equal(nn.forward(model.parts["encoder"], x)[0], x)

    def test_seeded_encoder_matches_naive_matmul(self):
        model = ClientModel.build(tiny_model_config(), m=6, seed=3)
        x = np.random.default_rng(3).uniform(size=(1, 6))
        encoder = model.parts["encoder"]
        assert rel_err(nn.forward(encoder, x)[0][0], naive_stack_forward(encoder, x[0])) < 1e-12

    def test_zero_latent_zero_bias_decoder_reconstructs_zero(self):
        model = ClientModel.build(tiny_model_config(), m=5, seed=1)
        zero_bias = nn.export_params(model.parts["decoder"])
        for key in zero_bias:
            if key.endswith("biases"):
                zero_bias[key] = np.zeros_like(zero_bias[key])
        nn.assign_params(model.parts["decoder"], zero_bias)
        out, _ = nn.forward(model.parts["decoder"], np.zeros((3, 4)))
        # relu(0)=0 through the hidden layer, then a zero-bias linear output
        assert np.all(out == 0)

    def test_autoencoder_training_reduces_reconstruction_error(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, size=(16, 5))
        cfg = tiny_model_config()
        model = ClientModel.build(cfg, m=5, seed=5)
        stack = [*model.parts["encoder"], *model.parts["decoder"]]
        vector = nn.bind(stack)
        state = nn.init_adam_state(vector.size)
        losses = []
        for _ in range(200):
            recon, cache = nn.forward(stack, x)
            loss, grad = nn.mse_loss(recon, x)
            losses.append(loss)
            g, _ = nn.backward(cache, grad)
            nn.adam_step(vector, g, state, 0.005)
        blocks = np.array(losses).reshape(4, 50).mean(axis=1)
        assert (np.diff(blocks) < 0).all()
        assert losses[-1] < 0.5 * losses[0]


class TestFullForward:
    def test_all_zero_parameters_give_zero_output(self):
        model = ClientModel.build(tiny_model_config(), m=5, seed=0)
        for part in PART_NAMES:
            model.set_part_params(part, np.zeros_like(model.vectors[part]))
        assert np.all(model.full_forward(np.random.default_rng(0).uniform(size=(3, 5))) == 0)

    def test_composition_equals_staged_calls_bitwise(self):
        model = ClientModel.build(tiny_model_config(), m=6, seed=7)
        xs = np.random.default_rng(7).uniform(size=(100, 6))
        staged = nn.forward(
            model.parts["mapper"],
            nn.forward(model.parts["meta"], nn.forward(model.parts["encoder"], xs)[0])[0],
        )[0]
        assert np.array_equal(model.full_forward(xs), staged)

    def test_matches_composed_naive_matmul_oracle(self):
        model = ClientModel.build(tiny_model_config(), m=6, seed=11)
        x = np.random.default_rng(11).uniform(size=(1, 6))
        oracle = naive_stack_forward(
            [*model.parts["encoder"], *model.parts["meta"], *model.parts["mapper"]], x[0]
        )
        assert rel_err(model.full_forward(x)[0], oracle) < 1e-12


class TestCompositeLoss:
    def test_perfect_prediction_and_reconstruction_give_zero(self):
        cfg = tiny_model_config(d=4, encoder_hidden=(), decoder_hidden=(), lambda_recon=0.5)
        model = ClientModel.build(cfg, m=4, seed=0)
        nn.assign_params(model.parts["encoder"], identity_params(4))
        nn.assign_params(model.parts["decoder"], identity_params(4))
        x = np.random.default_rng(1).uniform(size=(6, 4))
        y = model.full_forward(x)
        loss, _ = model.composite_loss(x, y)
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_lambda_zero_reduces_to_prediction_mse(self):
        cfg = tiny_model_config(lambda_recon=0.0)
        model = ClientModel.build(cfg, m=5, seed=2)
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(8, 5))
        y = rng.normal(size=(8, 2))
        loss, _ = model.composite_loss(x, y)
        preds = model.full_forward(x)
        assert loss == pytest.approx(nn.mse_loss(preds, y)[0], rel=1e-12)

    def test_lambda_zero_gives_decoder_exactly_zero_gradient(self):
        model = ClientModel.build(tiny_model_config(lambda_recon=0.0), m=5, seed=3)
        rng = np.random.default_rng(3)
        _, grads = model.composite_loss(rng.uniform(size=(4, 5)), rng.normal(size=(4, 2)))
        assert np.all(grads["decoder"] == 0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradients_match_finite_differences_for_every_part(self, seed):
        cfg = tiny_model_config(lambda_recon=0.3)
        model = ClientModel.build(cfg, m=5, seed=seed)
        rng = np.random.default_rng(seed + 50)
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
            keyed = nn.unflatten(grads[part], nn.stack_sizes(model.parts[part]))
            for key in live:
                assert rel_err(keyed[key], fd[key]) <= 1e-4, (part, key)

    def test_empty_batch_rejected(self, tmp_path):
        # a batch is batch_size >= 1 rows of a nonempty support or query set,
        # each checked where it enters: the config, and a bundle's meta.json
        for params in (FederationParams, MetaTestParams):
            with pytest.raises(ConfigError, match="batch_size must be >= 1"):
                params(batch_size=0)
        bundle = save_task_bundle(synth_task(num_aps=5, samples=20, task_id="T00"), tmp_path)
        meta = json.loads((bundle / "meta.json").read_text())
        for split in ("support", "query"):
            (bundle / "meta.json").write_text(json.dumps({**meta, f"n_{split}": 0}))
            with pytest.raises(DataError, match=re.escape(f"{bundle / 'meta.json'}: n_{split} must be >= 1, got 0")):
                read_bundle_meta(bundle)


def bits(vector: np.ndarray) -> bytes:
    return np.ascontiguousarray(vector, dtype=np.float64).tobytes()


ALL_SUBSETS = [parts for k in range(1, 5) for parts in combinations(PART_NAMES, k)]


class TestPartSelectiveGradients:
    def batch(self, lam: float, seed: int = 12):
        model = ClientModel.build(tiny_model_config(lambda_recon=lam), m=5, seed=seed)
        rng = np.random.default_rng(seed)
        randomize_biases(model, rng)
        return model, rng.uniform(size=(9, 5)), rng.normal(size=(9, 2))

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_every_subset_returns_the_full_loss_and_bitwise_gradients(self, lam):
        assert len(ALL_SUBSETS) == 15
        model, x, y = self.batch(lam)
        full_loss, full = model.composite_loss(x, y)
        for parts in ALL_SUBSETS:
            loss, grads = model.composite_loss(x, y, parts)
            assert loss == full_loss, parts
            assert list(grads) == list(parts)
            for part in parts:
                assert bits(grads[part]) == bits(full[part]), (parts, part)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_shared_gradient_is_the_full_calls_meta_gradient_bitwise(self, lam):
        model, x, y = self.batch(lam)
        full = model.composite_loss(x, y)[1]["meta"]
        assert bits(model.shared_gradient(x, y)) == bits(full)
        sizes = nn.stack_sizes(model.parts["meta"])
        assert metrics.theta_grad_sq_norm(model, x, y) == reference_grad_sq_norm(full, sizes)

    @pytest.mark.parametrize("seed", range(4))
    def test_theta_grad_sq_norm_equals_the_per_key_oracle_at_cohort_widths(self, seed):
        cfg = ModelConfig(encoder_hidden=(64,), decoder_hidden=(64,))  # meta part 50 -> 256 -> 128 -> 64 -> 32
        model = ClientModel.build(cfg, m=20, seed=seed)
        rng = np.random.default_rng(seed)
        randomize_biases(model, rng)
        x, y = rng.uniform(size=(45, 20)), rng.normal(size=(45, 2))
        oracle = reference_grad_sq_norm(model.shared_gradient(x, y), cfg.part_sizes("meta"))
        assert metrics.theta_grad_sq_norm(model, x, y) == oracle

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_loss_value_equals_the_gradient_free_composite_loss_bitwise(self, lam):
        model, x, y = self.batch(lam)
        assert model.loss_value(x, y) == model.composite_loss(x, y, ())[0]

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_loss_value_runs_five_forwards_and_no_backward(self, monkeypatch, lam):
        # full_forward's three, a second encoder forward and the decoder's
        model, x, y = self.batch(lam)
        counts = count_passes(monkeypatch)
        model.loss_value(x, y)
        assert counts == {"forward": 5, "backward": 0}

    def test_shared_gradient_skips_the_decoder(self, monkeypatch):
        model, x, y = self.batch(0.3)
        counts = count_passes(monkeypatch)
        metrics.theta_grad_sq_norm(model, x, y)
        assert counts == {"forward": 3, "backward": 2}

    @pytest.mark.parametrize(
        "parts, forwards, backwards",
        [(PART_NAMES, 4, 4), (("meta",), 4, 2), (("mapper",), 4, 1), (("decoder",), 4, 1), ((), 4, 0)],
    )
    def test_composite_loss_runs_only_the_needed_backwards(self, monkeypatch, parts, forwards, backwards):
        model, x, y = self.batch(0.3)
        counts = count_passes(monkeypatch)
        model.composite_loss(x, y, parts)
        assert counts == {"forward": forwards, "backward": backwards}

    def test_unknown_optimizer_rejected_before_any_update(self):
        # a model steps with its config's optimizer, and a config naming an
        # unknown one is refused when it is built, before any model exists
        with pytest.raises(ConfigError, match="rmsprop"):
            tiny_model_config(optimizer="rmsprop")

    def test_train_step_on_the_decoder_runs_one_backward(self, monkeypatch):
        model, x, y = self.batch(0.3)
        counts = count_passes(monkeypatch)
        model.train_step(x, y, parts=("decoder",))
        assert counts == {"forward": 4, "backward": 1}


class TestWorkspaces:
    """Every model of a process runs its passes through one workspace per
    part; what a method returns must not alias it."""

    def test_a_held_full_forward_result_survives_another_models_call(self):
        cfg = tiny_model_config()
        x = np.random.default_rng(8).uniform(size=(6, 5))
        first = ClientModel.build(cfg, m=5, seed=8)
        held = first.full_forward(x)
        expected = held.copy()
        ClientModel.build(cfg, m=5, seed=9).full_forward(x)
        assert held.tobytes() == expected.tobytes()

    def test_held_gradients_survive_the_next_call(self):
        model = ClientModel.build(tiny_model_config(), m=5, seed=8)
        rng = np.random.default_rng(8)
        x, y = rng.uniform(size=(6, 5)), rng.normal(size=(6, 2))
        _, grads = model.composite_loss(x, y)
        held = [*grads.values(), model.shared_gradient(x, y)]
        expected = [g.tobytes() for g in held]
        model.composite_loss(rng.uniform(size=(6, 5)), rng.normal(size=(6, 2)))
        model.shared_gradient(rng.uniform(size=(6, 5)), rng.normal(size=(6, 2)))
        assert [g.tobytes() for g in held] == expected

    def test_steady_full_batch_steps_allocate_no_workspace_buffer(self):
        cfg = metrics.probe_config(tiny_model_config(), 0.01)
        model = ClientModel.build(cfg, m=5, seed=10)
        rng = np.random.default_rng(10)
        # support and query batches differ in size, as in the convergence probe
        xs, ys = rng.uniform(size=(40, 5)), rng.normal(size=(40, 2))
        xq, yq = rng.uniform(size=(30, 5)), rng.normal(size=(30, 2))

        def step():
            model.train_step(xs, ys)
            metrics.theta_grad_sq_norm(model, xq, yq)

        step()
        before = {part: dict(ws._buffers) for part, ws in model_module._WORKSPACES.items()}
        for _ in range(5):
            step()
        for part, ws in model_module._WORKSPACES.items():
            assert ws._buffers.keys() == before[part].keys(), part
            assert all(ws._buffers[key] is buf for key, buf in before[part].items()), part


class TestThetaSwap:
    def test_replace_and_restore_is_bit_identical(self):
        model = ClientModel.build(tiny_model_config(), m=5, seed=4)
        original = model.vectors["meta"].copy()
        other = nn.bind(nn.build_stack([4, 6, 3], seed=99))
        model.set_part_params("meta", other)
        assert not np.array_equal(model.vectors["meta"], original)
        model.set_part_params("meta", original)
        assert np.array_equal(model.vectors["meta"], original)

    def test_wrong_length_rejected(self, tmp_path):
        # theta reaches set_part_params from a checkpoint only through
        # _trained_theta, which compares its widths with part_sizes("meta")
        cfg = tiny_model_config()
        config = ExperimentConfig(
            "x", tmp_path, synthetic_envs=[(SyntheticEnvSpec(num_aps=5), TaskOptions("T00"))], train_tasks=["T00"]
        )
        write_round_log(config.train_dir / "round_log.csv", ["T00"], [])
        widths = cfg.part_sizes("meta")
        wider = [widths[0], widths[1] + 1, *widths[2:]]
        save_checkpoint(config.checkpoint_path, MetaModel(params=nn.bind(nn.build_stack(wider, seed=4)), widths=wider))
        with pytest.raises(ConfigError, match="shared-part widths"):
            _trained_theta(config, cfg)

    def test_broadcast_copy_semantics(self):
        model = ClientModel.build(tiny_model_config(), m=5, seed=4)
        shared = nn.export_params(model.parts["meta"])
        shared["layer0.weights"][:] = 123.0
        assert not np.any(model.parts["meta"][0].weights == 123.0)
        incoming = np.full_like(model.vectors["meta"], 5.0)
        model.set_part_params("meta", incoming)
        incoming[:] = 123.0
        assert not np.any(model.vectors["meta"] == 123.0)


def assert_layers_view_vectors(model: ClientModel) -> None:
    for part, layers in model.parts.items():
        for layer in layers:
            assert np.shares_memory(layer.weights, model.vectors[part]), part
            assert np.shares_memory(layer.biases, model.vectors[part]), part


class TestFlatParameters:
    def test_layers_are_views_after_build_step_set_and_load(self, tmp_path):
        cfg = tiny_model_config()
        model = ClientModel.build(cfg, m=5, seed=6)
        assert_layers_view_vectors(model)
        rng = np.random.default_rng(6)
        x, y = rng.uniform(size=(8, 5)), rng.normal(size=(8, 2))
        model.train_step(x, y)
        assert_layers_view_vectors(model)
        model.set_part_params("meta", np.ones_like(model.vectors["meta"]))
        assert_layers_view_vectors(model)
        assert all((layer.weights == 1.0).all() for layer in model.parts["meta"])
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, MetaModel(params=model.vectors["meta"], widths=cfg.part_sizes("meta")))
        model.set_part_params("meta", load_checkpoint(path).params)
        assert_layers_view_vectors(model)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("parts", [PART_NAMES, ("encoder", "mapper")])
    def test_train_step_matches_reference_dict_optimizer_bitwise(self, optimizer, parts):
        cfg = tiny_model_config(optimizer=optimizer)
        model = ClientModel.build(cfg, m=5, seed=8)
        reference = ClientModel.build(cfg, m=5, seed=8)
        ref_params = {part: nn.export_params(reference.parts[part]) for part in PART_NAMES}
        ref_states = {part: reference_adam_state(ref_params[part]) for part in PART_NAMES}
        rates = cfg.rates()
        rng = np.random.default_rng(8)
        for _ in range(24):
            x, y = rng.uniform(size=(6, 5)), rng.normal(size=(6, 2))
            loss = model.train_step(x, y, parts=parts)
            ref_loss, grads = reference.composite_loss(x, y)
            assert loss == ref_loss
            for part in parts:
                keyed = nn.unflatten(grads[part], nn.stack_sizes(reference.parts[part]))
                if optimizer == "adam":
                    ref_params[part], ref_states[part] = reference_adam_step(
                        ref_params[part], keyed, ref_states[part], rates[part]
                    )
                else:
                    ref_params[part] = reference_sgd_step(ref_params[part], keyed, rates[part])
                nn.assign_params(reference.parts[part], ref_params[part])
        for part in PART_NAMES:
            sizes = nn.stack_sizes(model.parts[part])
            assert np.array_equal(model.vectors[part], nn.flatten(ref_params[part], sizes)), part

