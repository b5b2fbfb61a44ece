import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmetaloc import nn
from fedmetaloc.errors import ConfigError, DataError
from fedmetaloc.federation import load_checkpoint

from helpers import (
    central_difference,
    naive_stack_forward,
    reference_adam_state,
    reference_adam_step,
    rel_err,
)


def identity_layer(size: int) -> nn.DenseLayer:
    return nn.DenseLayer(np.eye(size), np.zeros(size), nn.IDENTITY)


class TestForward:
    def test_identity_layer_passes_input_through(self):
        y, _ = nn.forward([identity_layer(2)], np.array([[1.0, 2.0]]))
        assert np.array_equal(y, [[1.0, 2.0]])

    def test_relu_splits_sign(self):
        layer = nn.DenseLayer(np.array([[1.0], [-1.0]]), np.zeros(2), nn.RELU)
        y, _ = nn.forward([layer], np.array([[3.0]]))
        assert np.array_equal(y, [[3.0, 0.0]])

    def test_two_layer_net_matches_naive_matmul_oracle(self):
        layers = nn.build_stack([4, 5, 3], seed=7)
        x = np.random.default_rng(7).uniform(-1, 1, (1, 4))
        y, _ = nn.forward(layers, x)
        assert rel_err(y[0], naive_stack_forward(layers, x[0])) < 1e-12

    def test_deterministic_given_seed_and_input(self):
        x = np.random.default_rng(0).normal(size=(1, 6))
        y1, _ = nn.forward(nn.build_stack([6, 8, 2], seed=11), x)
        y2, _ = nn.forward(nn.build_stack([6, 8, 2], seed=11), x)
        assert np.array_equal(y1, y2)

    def test_batch_rows_equal_per_sample_calls(self):
        # a batched matmul and a one-row one may differ in the last ulp
        layers = nn.build_stack([3, 4, 2], seed=5)
        xb = np.random.default_rng(2).normal(size=(6, 3))
        yb, _ = nn.forward(layers, xb)
        for i in range(6):
            yi, _ = nn.forward(layers, xb[i : i + 1])
            assert np.allclose(yb[i : i + 1], yi, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("shape", [(2, 4), (3,), (2, 1, 3)], ids=["width", "1-D", "3-D"])
    def test_dimension_mismatch_raises(self, shape):
        with pytest.raises(ConfigError, match=re.escape(f"width 3, got shape {shape}")):
            nn.forward([identity_layer(3)], np.zeros(shape))


class TestBackward:
    def test_scalar_chain_hand_differentiated(self):
        # y = w*x + b with w=2, b=0, x=1; loss = y^2/2 so dL/dy = y = 2
        layer = nn.DenseLayer(np.array([[2.0]]), np.zeros(1), nn.IDENTITY)
        y, cache = nn.forward([layer], np.array([[1.0]]))
        grad, dx = nn.backward(cache, y.copy())
        grads = nn.unflatten(grad, [1, 1])
        assert grads["layer0.weights"][0, 0] == pytest.approx(2.0)
        assert grads["layer0.biases"][0] == pytest.approx(2.0)
        assert dx[0, 0] == pytest.approx(4.0)

    def test_zero_upstream_gives_zero_gradients(self):
        layers = nn.build_stack([3, 5, 2], seed=0)
        _, cache = nn.forward(layers, np.random.default_rng(1).normal(size=(1, 3)))
        grad, dx = nn.backward(cache, np.zeros((1, 2)))
        assert np.all(grad == 0)
        assert np.all(dx == 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_layer_net_matches_finite_differences(self, seed):
        layers = nn.build_stack([4, 6, 5, 3], seed=seed)
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))

        def loss_value() -> float:
            y, _ = nn.forward(layers, x)
            return nn.mse_loss(y, target)[0]

        y, cache = nn.forward(layers, x)
        _, grad_out = nn.mse_loss(y, target)
        grad, _ = nn.backward(cache, grad_out)
        grads = nn.unflatten(grad, [4, 6, 5, 3])

        live = {}
        for i, layer in enumerate(layers):
            live[f"layer{i}.weights"] = layer.weights
            live[f"layer{i}.biases"] = layer.biases
        fd = central_difference(loss_value, live, h=1e-5)
        for key in live:
            assert rel_err(grads[key], fd[key]) <= 1e-4

    def test_stale_cache_rejected(self):
        # a later forward of another batch size regrows the workspace buffers
        layers = nn.build_stack([3, 2], seed=0)
        workspace = nn.Workspace()
        _, cache = nn.forward(layers, np.zeros((1, 3)), workspace)
        nn.forward(layers, np.zeros((4, 3)), workspace)
        with pytest.raises(RuntimeError, match=re.escape("stale cache: its workspace has run 1 forward(s)")):
            nn.backward(cache, np.zeros((1, 2)))

    def test_a_later_forward_through_the_workspace_makes_the_cache_stale(self):
        # same shape: only the workspace generation tells the two passes apart
        layers = nn.build_stack([3, 4, 2], seed=0)
        rng = np.random.default_rng(0)
        workspace = nn.Workspace()
        _, first = nn.forward(layers, rng.normal(size=(5, 3)), workspace)
        _, second = nn.forward(layers, rng.normal(size=(5, 3)), workspace)
        with pytest.raises(RuntimeError, match="stale"):
            nn.backward(first, np.ones((5, 2)))
        nn.backward(second, np.ones((5, 2)))

    def test_skipping_the_input_gradient_keeps_the_parameter_gradient_bitwise(self):
        layers = nn.build_stack([4, 6, 5, 3], seed=3)
        rng = np.random.default_rng(3)
        y, cache = nn.forward(layers, rng.normal(size=(7, 4)))
        upstream = rng.normal(size=y.shape)
        full, dx = nn.backward(cache, upstream)
        skipped, none = nn.backward(cache, upstream, input_grad=False)
        assert dx.shape == (7, 4) and none is None
        assert full.tobytes() == skipped.tobytes()

    def test_shared_workspace_gives_the_private_results_bitwise(self):
        # a smaller batch after a larger one reads views into grown buffers
        layers = nn.build_stack([4, 6, 5, 3], seed=4)
        rng = np.random.default_rng(4)
        workspace = nn.Workspace()
        for rows in (9, 4, 9):
            x, upstream = rng.normal(size=(rows, 4)), rng.normal(size=(rows, 3))
            y, cache = nn.forward(layers, x, workspace)
            y_private, cache_private = nn.forward(layers, x)
            assert y.tobytes() == y_private.tobytes()
            grad, dx = nn.backward(cache, upstream)
            grad_private, dx_private = nn.backward(cache_private, upstream)
            assert grad.tobytes() == grad_private.tobytes() and dx.tobytes() == dx_private.tobytes()


class TestMseLoss:
    def test_perfect_prediction(self):
        loss, grad = nn.mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_direct_arithmetic(self):
        loss, grad = nn.mse_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(0.5)
        assert np.allclose(grad, [1.0, 0.0])

    def test_batch_mean_equals_mean_of_per_sample_losses(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=(8, 3))
        target = rng.normal(size=(8, 3))
        batch_loss, _ = nn.mse_loss(pred, target)
        per_sample = [nn.mse_loss(pred[i], target[i])[0] for i in range(8)]
        assert batch_loss == pytest.approx(np.mean(per_sample), rel=1e-12)

    @given(st.permutations(list(range(8))))
    @settings(max_examples=30, deadline=None)
    def test_batch_loss_invariant_to_sample_order(self, perm):
        rng = np.random.default_rng(9)
        pred = rng.normal(size=(8, 2))
        target = rng.normal(size=(8, 2))
        base, _ = nn.mse_loss(pred, target)
        permuted, _ = nn.mse_loss(pred[perm], target[perm])
        assert permuted == pytest.approx(base, rel=1e-12)

    def test_gradient_is_bitwise_the_textbook_expression(self):
        rng = np.random.default_rng(5)
        pred, target = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        _, grad = nn.mse_loss(pred, target)
        assert grad.tobytes() == (2.0 * (pred - target) / pred.size).tobytes()


class TestSgd:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        before = params.copy()
        nn.sgd_step(params, np.zeros_like(params), 0.1)
        assert np.array_equal(params, before)

    def test_single_scalar_step(self):
        params = np.array([1.0])
        nn.sgd_step(params, np.array([0.5]), 0.1)
        assert params[0] == pytest.approx(0.95)

    def test_two_steps_equal_one_double_step(self):
        twice = np.array([1.0, -2.0])
        once = twice.copy()
        g = np.array([0.3, 0.7])
        nn.sgd_step(twice, g, 0.05)
        nn.sgd_step(twice, g, 0.05)
        nn.sgd_step(once, 2 * g, 0.05)
        assert np.allclose(twice, once, rtol=1e-12)

    @given(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_linear_in_gradient_scale(self, a):
        left = np.array([0.5, 1.5, -0.3])
        right = left.copy()
        g = np.array([0.2, -0.4, 0.9])
        nn.sgd_step(left, a * g, 0.01)
        nn.sgd_step(right, g, a * 0.01)
        assert np.allclose(left, right, rtol=1e-12)

    def test_blocked_step_is_bitwise_p_minus_mu_g(self):
        rng = np.random.default_rng(6)
        params, grads = rng.normal(size=(2, 3 * nn._ADAM_BLOCK + 17))
        expected = params - 0.013 * grads
        nn.sgd_step(params, grads, 0.013)
        assert params.tobytes() == expected.tobytes()


def scalar_adam_reference(w0: float, grad_fn, mu: float, steps: int) -> float:
    """Standalone scalar Adam loop, written independently of the module."""
    m = v = 0.0
    w = w0
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        w -= mu * m_hat / (np.sqrt(v_hat) + 1e-8)
    return w


class TestAdam:
    def test_first_step_magnitude(self):
        params = np.array([0.0])
        state = nn.init_adam_state(1)
        nn.adam_step(params, np.array([1.0]), state, 0.001)
        assert params[0] == pytest.approx(-0.001 / (1 + 1e-8), rel=1e-12)
        assert state.step_count == 1

    def test_zero_gradient_with_zero_moments_is_identity(self):
        params = np.array([3.0, -1.0])
        state = nn.init_adam_state(2)
        nn.adam_step(params, np.zeros(2), state, 0.01)
        assert np.array_equal(params, [3.0, -1.0])

    def test_ten_steps_on_quadratic_decrease_objective(self):
        params = np.array([1.0])
        state = nn.init_adam_state(1)
        values = [params[0] ** 2]
        for _ in range(10):
            nn.adam_step(params, 2 * params, state, 0.05)
            values.append(params[0] ** 2)
        assert all(b < a for a, b in zip(values, values[1:]))
        reference = scalar_adam_reference(1.0, lambda w: 2 * w, 0.05, 10)
        assert params[0] == pytest.approx(reference, rel=1e-12)

    def test_moments_start_at_zero_and_step_count_increments(self):
        params = np.array([1.0])
        state = nn.init_adam_state(1)
        assert state.step_count == 0
        assert np.all(state.first_moment == 0)
        assert np.all(state.second_moment == 0)
        for expected in (1, 2, 3):
            nn.adam_step(params, np.array([0.1]), state, 0.01)
            assert state.step_count == expected

    @pytest.mark.parametrize("sizes", [[4, 7, 3], [3, 5, 4, 2], [6, 2]])
    def test_matches_reference_dict_adam_bitwise_for_25_steps(self, sizes):
        layers = nn.build_stack(sizes, seed=3)
        reference = nn.export_params(layers)
        ref_state = reference_adam_state(reference)
        vector = nn.bind(layers)
        state = nn.init_adam_state(vector.size)
        rng = np.random.default_rng(4)
        for _ in range(25):
            grads = {k: rng.normal(size=v.shape) for k, v in reference.items()}
            nn.adam_step(vector, nn.flatten(grads, sizes), state, 0.01)
            reference, ref_state = reference_adam_step(reference, grads, ref_state, 0.01)
        assert np.array_equal(vector, nn.flatten(reference, sizes))
        assert np.array_equal(state.first_moment, nn.flatten(ref_state["m"], sizes))
        assert np.array_equal(state.second_moment, nn.flatten(ref_state["v"], sizes))


class TestStackBuilding:
    def test_same_seed_bit_identical(self):
        a = nn.build_stack([4, 7, 2], seed=42)
        b = nn.build_stack([4, 7, 2], seed=42)
        for la, lb in zip(a, b):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.biases, lb.biases)

    def test_params_round_trip(self):
        layers = nn.build_stack([3, 4, 2], seed=1)
        exported = nn.export_params(layers)
        other = nn.build_stack([3, 4, 2], seed=99)
        nn.assign_params(other, exported)
        for la, lb in zip(layers, other):
            assert np.array_equal(la.weights, lb.weights)

    def test_assign_rejects_wrong_shapes(self):
        layers = nn.build_stack([3, 4, 2], seed=1)
        bad = nn.export_params(nn.build_stack([3, 5, 2], seed=1))
        with pytest.raises(ConfigError):
            nn.assign_params(layers, bad)


class TestFlatLayout:
    def test_bind_makes_every_layer_a_view_in_sorted_key_order(self):
        layers = nn.build_stack([3, 4, 2], seed=1)
        exported = nn.export_params(layers)
        vector = nn.bind(layers)
        for layer in layers:
            assert np.shares_memory(layer.weights, vector)
            assert np.shares_memory(layer.biases, vector)
        expected = np.concatenate([exported[k].ravel() for k in sorted(exported)])
        assert np.array_equal(vector, expected)
        vector[:] = 0.0
        assert all(not layer.weights.any() and not layer.biases.any() for layer in layers)

    def test_unflatten_lists_keys_like_export_params(self):
        layers = nn.build_stack([3, 4, 2], seed=1)
        vector = nn.bind(layers)
        views = nn.unflatten(vector, [3, 4, 2])
        exported = nn.export_params(layers)
        assert list(views) == list(exported)
        assert all(np.array_equal(views[k], exported[k]) for k in exported)
        assert vector.size == 3 * 4 + 4 + 4 * 2 + 2

    def test_flatten_rejects_wrong_keys_and_shapes(self, tmp_path):
        # flatten reads outside data only through load_checkpoint, which
        # checks the members and shapes first
        params = nn.export_params(nn.build_stack([3, 4, 2], seed=1))
        missing = {k: v for k, v in params.items() if k != "layer1.biases"}
        unchained = {**params, "layer0.weights": np.zeros((5, 3)), "layer0.biases": np.zeros(5)}
        for tensors, message in ((missing, "are not meta/layer0..k-1"), (unchained, "takes 4 inputs")):
            path = tmp_path / "ckpt.npz"
            np.savez(path, __extra__=np.str_('{"round": 0}'), **{f"meta/{k}": v for k, v in tensors.items()})
            with pytest.raises(DataError, match=re.escape(message)):
                load_checkpoint(path)

    def test_backward_writes_one_flat_gradient_vector(self):
        layers = nn.build_stack([4, 6, 3], seed=2)
        vector = nn.bind(layers)
        x = np.random.default_rng(2).normal(size=(5, 4))
        y, cache = nn.forward(layers, x)
        grad, _ = nn.backward(cache, y)
        assert grad.shape == vector.shape
        # the identity output layer's gradient sits at its keys in the parameter layout
        grads = nn.unflatten(grad, [4, 6, 3])
        assert np.array_equal(grads["layer1.weights"], y.T @ cache.activations[1])
        assert np.array_equal(grads["layer1.biases"], y.sum(axis=0))
