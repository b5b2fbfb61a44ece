import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmetaloc import experiments, nn
from fedmetaloc.errors import ConfigError, DataError, DivergenceError
from fedmetaloc.experiments import TheoryProbeParams
from fedmetaloc.model import PART_NAMES, ClientModel
from fedmetaloc.metrics import (
    accuracy_speed_from_steps,
    cdf_curve,
    epsilon_accuracy_steps,
    estimate_smoothness,
    improvement_percent,
    flatten_grads,
    flatten_parts,
    knn_baseline,
    linearization_probe,
    mde,
    probe_config,
    step_speed_from_mde,
    steps_to_accuracy,
)

from helpers import (
    augmented_least_squares,
    augmented_theta,
    count_passes,
    linear_probe_setup,
    linear_sgd_closed_form,
    synth_task,
    tiny_model_config,
)

coords_strategy = st.lists(
    st.tuples(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    ),
    min_size=1,
    max_size=20,
)


class TestMde:
    def test_identical_points_give_zero(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert mde(pts, pts) == 0.0

    def test_three_four_five_triangle(self):
        assert mde(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]])) == pytest.approx(5.0)

    def test_mean_of_per_point_distances(self):
        pred = np.array([[3.0, 4.0], [0.0, 0.0]])
        truth = np.zeros((2, 2))
        assert mde(pred, truth) == pytest.approx(2.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            mde(np.zeros((2, 2)), np.zeros((3, 2)))

    @given(coords_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant(self, points, rnd):
        pred = np.array(points)
        truth = pred + 1.0
        order = list(range(len(points)))
        rnd.shuffle(order)
        assert mde(pred[order], truth[order]) == pytest.approx(mde(pred, truth), rel=1e-12)

    @given(coords_strategy)
    @settings(max_examples=50, deadline=None)
    def test_triangle_style_bound(self, points):
        a = np.array(points)
        rng = np.random.default_rng(len(points))
        b = a + rng.normal(size=a.shape)
        c = b + rng.normal(size=a.shape)
        assert mde(a, c) <= mde(a, b) + mde(b, c) + 1e-9


class TestImprovementPercent:
    def test_step_kind_reference_value(self):
        assert improvement_percent(100, 310) == pytest.approx(67.74, abs=0.005)

    def test_accuracy_kind_reference_value(self):
        assert improvement_percent(7.5, 27.4) == pytest.approx(72.63, abs=0.005)

    def test_equal_values_give_zero(self):
        assert improvement_percent(4.2, 4.2) == 0.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ConfigError):
            improvement_percent(1.0, 0.0)


class TestCdf:
    def test_three_point_curve(self):
        assert cdf_curve([3.0, 1.0, 2.0]) == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]

    def test_constant_errors_single_vertical_step(self):
        curve = cdf_curve([2.0, 2.0, 2.0])
        assert [e for e, _ in curve] == [2.0, 2.0, 2.0]
        assert curve[-1] == (2.0, 1.0)

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=41))
    @settings(max_examples=50, deadline=None)
    def test_median_matches_inverted_cdf_quantile(self, errors):
        curve = cdf_curve(errors)
        at_half = min(e for e, frac in curve if frac >= 0.5)
        assert at_half == np.quantile(np.array(errors), 0.5, method="inverted_cdf")


def knn_oracle(support_rssi, support_coords, query_rssi, k):
    """Exhaustive search with per-scalar arithmetic; ties break to lower index."""
    preds = []
    chosen_all = []
    for q in query_rssi:
        scored = []
        for idx, row in enumerate(support_rssi):
            dist = 0.0
            for a, b in zip(row, q):
                dist += (float(a) - float(b)) ** 2
            scored.append((dist, idx))
        scored.sort()
        chosen = [idx for _, idx in scored[:k]]
        chosen_all.append(chosen)
        preds.append(
            [
                sum(float(support_coords[i, dim]) for i in chosen) / k
                for dim in range(support_coords.shape[1])
            ]
        )
    return np.array(preds), chosen_all


class TestKnnBaseline:
    def test_query_equal_to_support_point_with_k1(self):
        task = synth_task(num_aps=4, samples=30, seed=1)
        task.query.rssi[0] = task.support.rssi[5]
        preds, _ = knn_baseline(task, k=1)
        assert np.array_equal(preds[0], task.support.coords[5])

    def test_k_equal_support_size_predicts_centroid(self):
        task = synth_task(num_aps=4, samples=20, seed=2)
        preds, _ = knn_baseline(task, k=task.support.n_samples)
        centroid = task.support.coords.mean(axis=0)
        for row in preds:
            # averaging runs in neighbor order, so match to rounding only
            assert np.allclose(row, centroid, rtol=1e-12)

    def test_five_point_hand_built_task(self):
        from fedmetaloc.data import FingerprintDataset, LocalizationTask

        support = FingerprintDataset(
            rssi=np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]),
            coords=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]),
            ap_names=["AP0"],
        )
        query = FingerprintDataset(
            rssi=np.array([[1.9]]), coords=np.array([[0.0, 0.0]]), ap_names=["AP0"]
        )
        task = LocalizationTask("HAND", support, query, np.zeros(2), np.ones(2))
        preds, _ = knn_baseline(task, k=2)
        # nearest two fingerprints are 2.0 and 1.0
        assert np.array_equal(preds[0], [1.5, 0.0])

    def test_duplicate_support_points_break_ties_by_index(self):
        from fedmetaloc.data import FingerprintDataset, LocalizationTask

        support = FingerprintDataset(
            rssi=np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]),
            coords=np.array([[10.0, 0.0], [20.0, 0.0], [30.0, 0.0]]),
            ap_names=["A", "B"],
        )
        query = FingerprintDataset(
            rssi=np.array([[1.0, 1.0]]), coords=np.zeros((1, 2)), ap_names=["A", "B"]
        )
        task = LocalizationTask("TIE", support, query, np.zeros(2), np.ones(2))
        preds, _ = knn_baseline(task, k=1)
        assert np.array_equal(preds[0], [10.0, 0.0])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        task = synth_task(
            num_aps=int(rng.integers(3, 20)),
            samples=int(rng.integers(30, 120)),
            seed=seed + 100,
        )
        k = int(rng.integers(1, 12))
        preds, dist = knn_baseline(task, k=k)
        oracle_preds, _ = knn_oracle(task.support.rssi, task.support.coords, task.query.rssi, k)
        assert np.array_equal(preds, oracle_preds)
        assert dist == pytest.approx(mde(oracle_preds, task.query.coords))

    def test_k_larger_than_support_rejected(self):
        task = synth_task(num_aps=4, samples=20, seed=3)
        with pytest.raises(DataError):
            knn_baseline(task, k=task.support.n_samples + 1)


class TestEpsilonAccuracySteps:
    def test_huge_epsilon_reaches_in_one_step(self):
        task, cfg, overrides, theta0 = linear_probe_setup(seed=0)
        steps, trace = epsilon_accuracy_steps(
            task, cfg, theta0, epsilon=1e12, max_steps=10, mu=0.1,
            adapt_parts=("meta",), part_overrides=overrides,
        )
        assert steps == 1 and len(trace) == 1

    def test_unreachable_epsilon_returns_none(self):
        task, cfg, overrides, theta0 = linear_probe_setup(seed=1)
        steps, trace = epsilon_accuracy_steps(
            task, cfg, theta0, epsilon=1e-300, max_steps=15, mu=0.1,
            adapt_parts=("meta",), part_overrides=overrides,
        )
        assert steps is None and len(trace) == 15

    def test_wrong_size_override_rejected(self):
        task, cfg, overrides, theta0 = linear_probe_setup(seed=1)
        with pytest.raises(ConfigError):
            epsilon_accuracy_steps(
                task, cfg, theta0, epsilon=1.0, max_steps=1, mu=0.1,
                part_overrides={**overrides, "mapper": np.zeros(overrides["mapper"].size + 1)},
            )
        with pytest.raises(ConfigError):
            linearization_probe(task, cfg, [0.1], n_steps=1, part_overrides={"meta": theta0[:-1]})

    def test_matches_closed_form_gradient_decay_oracle(self):
        task, cfg, overrides, theta0 = linear_probe_setup(m=3, out=2, n_support=24, n_query=16, seed=2)
        mu = 0.2
        h_s, c_s = augmented_least_squares(
            task.support.rssi, task.normalize_coords(task.support.coords)
        )
        h_q, c_q = augmented_least_squares(
            task.query.rssi, task.normalize_coords(task.query.coords)
        )
        wt0 = augmented_theta(theta0, cfg.part_sizes("meta"))
        oracle_sq = []
        for step in range(1, 61):
            wt = linear_sgd_closed_form(h_s, c_s, wt0, mu, step)
            gq = h_q @ wt - c_q
            oracle_sq.append(float(np.sum(gq * gq)))
        assert all(b < a for a, b in zip(oracle_sq[3:], oracle_sq[4:]))

        for k in (5, 20, 40):
            eps = float(np.sqrt(oracle_sq[k - 1] * oracle_sq[k]))
            oracle_steps = next(t + 1 for t, sq in enumerate(oracle_sq) if sq < eps)
            steps, _ = epsilon_accuracy_steps(
                task, cfg, theta0, epsilon=eps, max_steps=80, mu=mu,
                adapt_parts=("meta",), part_overrides=overrides,
            )
            assert steps is not None and abs(steps - oracle_steps) <= 1

    def test_trace_values_match_oracle(self):
        task, cfg, overrides, theta0 = linear_probe_setup(m=4, out=2, seed=3)
        mu = 0.15
        _, trace = epsilon_accuracy_steps(
            task, cfg, theta0, epsilon=1e-300, max_steps=12, mu=mu,
            adapt_parts=("meta",), part_overrides=overrides,
        )
        h_s, c_s = augmented_least_squares(
            task.support.rssi, task.normalize_coords(task.support.coords)
        )
        h_q, c_q = augmented_least_squares(
            task.query.rssi, task.normalize_coords(task.query.coords)
        )
        wt0 = augmented_theta(theta0, cfg.part_sizes("meta"))
        for step, actual in enumerate(trace, start=1):
            wt = linear_sgd_closed_form(h_s, c_s, wt0, mu, step)
            gq = h_q @ wt - c_q
            assert actual == pytest.approx(float(np.sum(gq * gq)), rel=1e-9)


class TestProbeDivergence:
    """A probe step whose loss is NaN or infinite stops the probe, naming it
    and the step. At a rate of 1e300 step 1 is finite and overflows the
    parameters, so step 2's loss is the first that is not."""

    def test_probe_config_is_plain_sgd_at_one_rate(self):
        base = tiny_model_config()
        cfg = probe_config(base, 0.25)
        assert cfg.optimizer == "sgd"
        assert cfg.rates() == {part: 0.25 for part in PART_NAMES}
        changed = {key for key, value in cfg.to_dict().items() if base.to_dict()[key] != value}
        assert changed == {"optimizer", "mu_encoder", "mu_meta", "mu_mapper"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("arm", ["random_init", "meta_init"])
    @pytest.mark.parametrize(
        "parts, what", [(None, "step 1 squared query gradient norm"), (("decoder",), "step 2 loss")]
    )
    def test_epsilon_probe_names_its_arm(self, arm, parts, what):
        # the query gradient norm reads the prediction path only, so an
        # overflowing decoder shows first in the next step's loss
        task = synth_task(num_aps=5, samples=40, seed=1)
        cfg = tiny_model_config(d=4)
        theta = nn.bind(nn.build_stack(cfg.part_sizes("meta"), seed=3)) if arm == "meta_init" else None
        with pytest.raises(DivergenceError, match=f"^theory probe {arm}: {what} is"):
            epsilon_accuracy_steps(task, cfg, theta, epsilon=1e-300, max_steps=20, mu=1e300, adapt_parts=parts)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_linearization_probe_names_its_rate(self):
        task = synth_task(num_aps=5, samples=40, seed=1)
        with pytest.raises(DivergenceError, match=r"^theory probe linearization mu=1e\+300: step 2 loss is"):
            linearization_probe(task, tiny_model_config(d=4), [1e-3, 1e300], n_steps=3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_smoothness_probe_names_itself(self):
        task = synth_task(num_aps=5, samples=40, seed=1)
        with pytest.raises(DivergenceError, match="^theory probe smoothness: step 2 loss is"):
            experiments._estimate_delta1(task, tiny_model_config(d=4), TheoryProbeParams(mu=1e300))


class TestLemma1Probe:
    def test_single_step_residual_is_exactly_zero(self):
        task, cfg, overrides, theta0 = linear_probe_setup(seed=4)
        residuals = linearization_probe(
            task, cfg, [0.05], n_steps=1, parts=("meta",),
            part_overrides={**overrides, "meta": theta0},
        )
        assert residuals[0.05] == 0.0

    def test_matches_closed_form_oracle(self):
        task, cfg, overrides, theta0 = linear_probe_setup(m=3, out=2, n_support=30, seed=5)
        n_steps = 6
        mu_list = [1e-1, 1e-2, 1e-3]
        residuals = linearization_probe(
            task, cfg, mu_list, n_steps=n_steps, parts=("meta",),
            part_overrides={**overrides, "meta": theta0},
        )
        h_s, c_s = augmented_least_squares(
            task.support.rssi, task.normalize_coords(task.support.coords)
        )
        wt0 = augmented_theta(theta0, cfg.part_sizes("meta"))
        for mu in mu_list:
            wt_n = linear_sgd_closed_form(h_s, c_s, wt0, mu, n_steps)
            linearized = wt0 - mu * n_steps * (h_s @ wt0 - c_s)
            oracle = float(np.linalg.norm(wt_n - linearized) / np.linalg.norm(wt0))
            assert residuals[mu] == pytest.approx(oracle, abs=1e-8)

    def test_one_composite_evaluation_per_state(self, monkeypatch):
        # step 1 applies the gradients the linearization reads at Omega_0, so
        # n steps evaluate the composite loss n times per mu, not n + 1
        task = synth_task(num_aps=5, samples=40, seed=1)
        cfg = tiny_model_config(d=4, optimizer="sgd")
        mu_list, n_steps = [1e-2, 1e-3], 4
        xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
        expected = {}
        for mu in mu_list:  # the probe as first written: g0, then n train steps
            model = ClientModel.build(replace(cfg, mu_encoder=mu, mu_meta=mu, mu_mapper=mu), m=task.m, seed=0)
            omega0 = flatten_parts(model, PART_NAMES)
            g0 = flatten_grads(model.composite_loss(xs, ys)[1], PART_NAMES)
            for _ in range(n_steps):
                model.train_step(xs, ys)
            linearized = omega0 - (mu * n_steps) * g0
            expected[mu] = float(np.linalg.norm(flatten_parts(model, PART_NAMES) - linearized) / np.linalg.norm(omega0))
        counts = count_passes(monkeypatch)
        ClientModel.build(cfg, m=task.m, seed=0).composite_loss(xs, ys)
        per_evaluation = dict(counts)
        counts.update(forward=0, backward=0)
        assert linearization_probe(task, cfg, mu_list, n_steps) == expected
        assert counts == {k: v * n_steps * len(mu_list) for k, v in per_evaluation.items()}

    def test_residual_shrinks_with_learning_rate(self):
        for seed in range(3):
            task = synth_task(num_aps=5, samples=40, seed=seed)
            from helpers import tiny_model_config

            cfg = tiny_model_config(d=4, optimizer="sgd")
            residuals = linearization_probe(task, cfg, [1e-2, 1e-3, 1e-4], n_steps=5, seed=seed)
            assert residuals[1e-3] < residuals[1e-2]
            assert residuals[1e-4] < residuals[1e-3]


class TestEstimators:
    def test_smoothness_on_known_quadratic(self):
        # gradient of 0.5 * a * w^2 has difference ratio exactly a
        states = [np.array([w]) for w in (0.0, 1.0, 3.0)]
        grads = [2.5 * s for s in states]
        assert estimate_smoothness(zip(states, grads)) == pytest.approx(2.5)

    @pytest.mark.parametrize("count", [0, 1])
    def test_smoothness_needs_two_pairs(self, count):
        with pytest.raises(ConfigError, match="at least two states"):
            estimate_smoothness((np.zeros(3), np.zeros(3)) for _ in range(count))

    def test_smoothness_of_a_generator_holds_two_pairs_at_a_time(self):
        # twenty pairs of 1 MB vectors: a comparison that kept them all would
        # peak near 40 vectors; the previous pair, the current one and one
        # difference are 5
        size = 1 << 17
        vector_bytes = size * 8

        def pairs():
            for i in range(20):
                state = np.full(size, float(i * i))
                yield state, 2.5 * state

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            estimate = estimate_smoothness(pairs())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert estimate == pytest.approx(2.5)
        assert peak < 6 * vector_bytes

    @pytest.mark.parametrize("max_steps", [2, 3, 30])
    def test_streamed_delta1_equals_the_list_formula_bitwise(self, max_steps):
        # the estimate as first written: every state and gradient in two
        # lists, then the consecutive differences, earlier minus later
        task = synth_task(num_aps=5, samples=40, seed=2)
        cfg = tiny_model_config(d=4, optimizer="sgd")
        params = TheoryProbeParams(mu=0.05, max_steps=max_steps, seed=1)
        model = ClientModel.build(replace(cfg, mu_encoder=0.05, mu_meta=0.05, mu_mapper=0.05), m=task.m, seed=1)
        xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
        states, grads = [], []
        for _ in range(min(10, max_steps)):
            states.append(flatten_parts(model, PART_NAMES))
            _, g = model.composite_loss(xs, ys)
            grads.append(flatten_grads(g, PART_NAMES))
            model.apply_gradients(g)
        expected = 0.0
        for a, b, ga, gb in zip(states, states[1:], grads, grads[1:]):
            denom = float(np.linalg.norm(a - b))
            if denom > 0:
                expected = max(expected, float(np.linalg.norm(ga - gb)) / denom)
        assert expected > 0
        assert experiments._estimate_delta1(task, cfg, params) == expected

    def test_speed_helpers_validate_inputs(self):
        with pytest.raises(ConfigError):
            accuracy_speed_from_steps(0, 32)
        assert steps_to_accuracy([7.0, 4.0], 5.0) == 2
        assert step_speed_from_mde(0.0, 32) == 0.0
