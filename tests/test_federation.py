from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmetaloc import nn
from fedmetaloc.errors import ConfigError, DataError
from fedmetaloc.federation import (
    AdaptationTrace,
    BatchStream,
    FederationParams,
    MetaTestParams,
    client_local_train,
    contribution_factors,
    load_checkpoint,
    meta_test,
    meta_train,
    server_aggregate,
    save_checkpoint,
    server_init,
)
from fedmetaloc.metrics import mde
from fedmetaloc.model import PART_NAMES, ClientModel

from helpers import (
    count_passes,
    reference_adam_state,
    reference_adam_step,
    reference_batches,
    reference_sgd_step,
    synth_task,
    tiny_model_config,
)


def small_cohort(n_tasks: int, samples: int = 50, **cfg_overrides):
    tasks = [synth_task(num_aps=5, samples=samples, seed=i, task_id=f"T{i:02d}") for i in range(n_tasks)]
    cfg = tiny_model_config(d=4, **cfg_overrides)
    return tasks, cfg


def snapshot(model: ClientModel) -> dict:
    return {part: model.vectors[part].copy() for part in PART_NAMES}


def params_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b)


def bits(vector: np.ndarray) -> bytes:
    return np.ascontiguousarray(vector, dtype=np.float64).tobytes()


def query_weights(clients) -> dict[str, float]:
    weights = contribution_factors([c.task.query.n_samples for c in clients])
    return dict(zip((c.client_id for c in clients), weights))


class TestServerInit:
    def test_thirteen_floor_cohort(self):
        tasks = [
            synth_task(num_aps=5, samples=30, seed=10 * b + f, task_id=f"B{b}_F{f}")
            for b, n in enumerate((4, 4, 5))
            for f in range(n)
        ]
        meta, clients = server_init(tasks, tiny_model_config(d=4), FederationParams(eta=0.001, seed=0))
        assert len(clients) == 13
        assert abs(sum(query_weights(clients).values()) - 1.0) <= 1e-12
        assert meta.round == 0

    def test_single_client_has_unit_weight(self):
        tasks, cfg = small_cohort(1)
        _, clients = server_init(tasks, cfg, FederationParams(eta=0.01, seed=3))
        assert query_weights(clients) == {clients[0].client_id: 1.0}

    def test_same_seed_gives_identical_theta(self):
        tasks, cfg = small_cohort(2)
        meta_a, _ = server_init(tasks, cfg, FederationParams(eta=0.01, seed=7))
        meta_b, _ = server_init(tasks, cfg, FederationParams(eta=0.01, seed=7))
        assert params_equal(meta_a.params, meta_b.params)

    def test_clients_start_from_broadcast_theta(self):
        tasks, cfg = small_cohort(3)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.01, seed=1))
        for client in clients:
            assert params_equal(client.model.vectors["meta"], meta.params)

    def test_empty_cohort_rejected(self):
        with pytest.raises(ConfigError):
            server_init([], tiny_model_config(), FederationParams(eta=0.01, seed=0))

    @given(st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_contribution_factors_sum_to_one(self, sizes):
        weights = contribution_factors(sizes)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert (weights > 0).all()


class TestClientLocalTrain:
    def test_zero_steps_keeps_weights_and_reports_broadcast_gradient(self):
        tasks, cfg = small_cohort(1)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.01, seed=2))
        client = clients[0]
        before = snapshot(client.model)
        update = client_local_train(client, meta.broadcast(), FederationParams(local_steps=0))
        after = snapshot(client.model)
        for part in PART_NAMES:
            assert params_equal(before[part], after[part])
        # oracle: the query gradient evaluated directly at the broadcast theta
        task = client.task
        _, grads = client.model.composite_loss(
            task.query.rssi, task.normalize_coords(task.query.coords)
        )
        assert params_equal(update.vector, grads["meta"])

    def test_query_evaluation_backpropagates_into_the_shared_part_only(self, monkeypatch):
        tasks, cfg = small_cohort(1)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.01, seed=2))
        client, task = clients[0], tasks[0]
        full_loss, _ = client.model.composite_loss(task.query.rssi, task.normalize_coords(task.query.coords))
        counts = count_passes(monkeypatch)
        update = client_local_train(client, meta.broadcast(), FederationParams(local_steps=0))
        assert counts == {"forward": 4, "backward": 2}
        assert update.query_loss == full_loss

    @pytest.mark.parametrize("aggregation, backwards", [("average", 20), ("gradient", 22)])
    def test_five_steps_run_the_query_backward_only_for_gradient_aggregation(
        self, monkeypatch, aggregation, backwards
    ):
        tasks, cfg = small_cohort(1)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.01, seed=2))
        counts = count_passes(monkeypatch)
        client_local_train(clients[0], meta.broadcast(), FederationParams(local_steps=5, aggregation=aggregation))
        assert counts["backward"] == backwards

    @pytest.mark.parametrize("aggregation", ["gradient", "average"])
    def test_update_vector_is_the_query_gradient_or_the_local_theta(self, aggregation):
        tasks, cfg = small_cohort(1)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.01, seed=3))
        client, task = clients[0], tasks[0]
        fed = FederationParams(local_steps=3, aggregation=aggregation)
        update = client_local_train(client, meta.broadcast(), fed)
        loss, grads = client.model.composite_loss(task.query.rssi, task.normalize_coords(task.query.coords))
        assert update.query_loss == loss
        if aggregation == "gradient":
            assert bits(update.vector) == bits(grads["meta"])
        else:
            assert bits(update.vector) == bits(client.model.vectors["meta"])
            assert not np.shares_memory(update.vector, client.model.vectors["meta"])

    def test_gradient_updates_of_two_clients_are_their_one_at_a_time_values(self):
        # every client model shares the per-part workspaces; an update held
        # until aggregation must not be overwritten by the next client's passes
        def cohort():
            tasks, cfg = small_cohort(2)
            return server_init(tasks, cfg, FederationParams(eta=0.01, seed=4))

        fed = FederationParams(local_steps=3, aggregation="gradient")
        meta, clients = cohort()
        held = [client_local_train(c, meta.broadcast(), fed) for c in clients]
        meta, clients = cohort()
        one_at_a_time = [bits(client_local_train(c, meta.broadcast(), fed).vector) for c in clients]
        assert clients[0].task.m == clients[1].task.m
        assert one_at_a_time[0] != one_at_a_time[1]
        assert [bits(update.vector) for update in held] == one_at_a_time

    def test_unknown_aggregation_rejected(self):
        # the parameters are checked once, when they are built: no client or
        # server step can be given an aggregation outside AGGREGATIONS
        with pytest.raises(ConfigError, match="median"):
            FederationParams(local_steps=0, aggregation="median")

    def test_single_sgd_step_matches_hand_computed_update(self):
        tasks, cfg = small_cohort(1, samples=20, optimizer="sgd")
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.01, seed=4, batch_size=64))
        client = clients[0]
        start = snapshot(client.model)
        task = client.task

        # oracle via a second model: one full-batch gradient step per part
        oracle = ClientModel.build(cfg, m=task.m, seed=123)
        for part in PART_NAMES:
            oracle.set_part_params(part, start[part])
        oracle.set_part_params("meta", meta.broadcast())
        xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
        _, grads = oracle.composite_loss(xs, ys)
        expected = {
            part: reference_sgd_step(
                nn.export_params(oracle.parts[part]),
                nn.unflatten(grads[part], nn.stack_sizes(oracle.parts[part])),
                cfg.rates()[part],
            )
            for part in PART_NAMES
        }

        client_local_train(client, meta.broadcast(), FederationParams(local_steps=1))
        for part in PART_NAMES:
            sizes = nn.stack_sizes(client.model.parts[part])
            assert params_equal(client.model.vectors[part], nn.flatten(expected[part], sizes)), part

    def test_five_steps_nonincreasing_support_loss_on_easy_tasks(self):
        cfg = tiny_model_config(d=4, lambda_recon=0.0)
        initial, final = [], []
        for seed in range(10):
            task = synth_task(num_aps=5, samples=40, seed=seed, noise_sigma=0.5)
            meta, clients = server_init([task], cfg, FederationParams(eta=0.01, seed=seed, batch_size=64))
            client = clients[0]
            xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
            initial.append(client.model.loss_value(xs, ys))
            client_local_train(client, meta.broadcast(), FederationParams(local_steps=5))
            final.append(client.model.loss_value(xs, ys))
        assert np.mean(final) <= np.mean(initial)


class TestBatchStream:
    @pytest.mark.parametrize("batch_size", [32, 100, 150])
    def test_three_epochs_match_the_reference_sampler(self, batch_size):
        n = 100
        epochs = 3
        count = epochs * (n // batch_size) if batch_size < n else epochs
        stream = BatchStream(n, batch_size, np.random.default_rng(21))
        drawn = [stream.next() for _ in range(count)]
        expected = reference_batches(n, batch_size, np.random.default_rng(21), count)
        assert len(drawn) == len(expected) == count
        for got, want in zip(drawn, expected):
            assert np.array_equal(got, want)
        # the generator ends where the reference leaves it, so later epochs match too
        after_stream = stream.rng.bit_generator.state
        rng = np.random.default_rng(21)
        reference_batches(n, batch_size, rng, count)
        assert after_stream == rng.bit_generator.state


class TestServerAggregate:
    def test_zero_gradients_keep_theta_and_advance_round(self):
        tasks, cfg = small_cohort(2)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.01, seed=5))
        updates = [
            client_local_train(c, meta.broadcast(), FederationParams(local_steps=0)) for c in clients
        ]
        for u in updates:
            u.vector[:] = 0.0
        new = server_aggregate(meta, updates, query_weights(clients), FederationParams())
        assert params_equal(new.params, meta.params)
        assert new.round == meta.round + 1

    def test_equal_query_sizes_average_gradients(self):
        tasks, cfg = small_cohort(2, samples=40)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.5, seed=6))
        assert clients[0].task.query.n_samples == clients[1].task.query.n_samples
        updates = [client_local_train(c, meta.broadcast(), FederationParams(local_steps=0)) for c in clients]
        new = server_aggregate(meta, updates, {c.client_id: 0.5 for c in clients}, FederationParams())
        g1, g2 = (u.vector for u in updates)
        expected = meta.params - 0.5 * (0.5 * g1 + 0.5 * g2) * 1.0
        np.testing.assert_allclose(new.params, expected, rtol=1e-12)

    def test_single_client_round_is_a_plain_gradient_step(self):
        tasks, cfg = small_cohort(1)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.05, seed=7))
        update = client_local_train(clients[0], meta.broadcast(), FederationParams(local_steps=0))
        new = server_aggregate(meta, [update], {clients[0].client_id: 1.0}, FederationParams())
        sizes = cfg.part_sizes("meta")
        plain = reference_sgd_step(nn.unflatten(meta.params, sizes), nn.unflatten(update.vector, sizes), 0.05)
        assert params_equal(new.params, nn.flatten(plain, sizes))

    def test_shape_mismatch_rejected(self):
        tasks, cfg = small_cohort(1)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.05, seed=8))
        update = client_local_train(clients[0], meta.broadcast(), FederationParams(local_steps=0))
        update.vector = np.zeros(1)
        with pytest.raises(ConfigError):
            server_aggregate(meta, [update], {clients[0].client_id: 1.0}, FederationParams())

    def test_average_aggregation_keeps_weighted_local_parameters(self):
        tasks, cfg = small_cohort(2, samples=40)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.05, seed=9))
        fed = FederationParams(local_steps=2, aggregation="average")
        updates = [client_local_train(c, meta.broadcast(), fed) for c in clients]
        new = server_aggregate(meta, updates, {c.client_id: 0.5 for c in clients}, fed)
        expected = 0.5 * updates[0].vector + 0.5 * updates[1].vector
        np.testing.assert_allclose(new.params, expected, rtol=0, atol=0)
        assert new.round == meta.round + 1

    def test_single_client_average_is_its_local_theta(self):
        tasks, cfg = small_cohort(1)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.05, seed=10))
        fed = FederationParams(local_steps=3, aggregation="average")
        update = client_local_train(clients[0], meta.broadcast(), fed)
        new = server_aggregate(meta, [update], {clients[0].client_id: 1.0}, fed)
        assert np.array_equal(new.params, update.vector)


class TestMetaTrain:
    def test_zero_rounds_returns_initial_theta(self):
        tasks, cfg = small_cohort(2)
        fed = FederationParams(rounds=0, eta=0.01, seed=9)
        meta, clients = server_init(tasks, cfg, fed)
        final, reports = meta_train(meta, clients, fed)
        assert params_equal(final.params, meta.params)
        assert reports == []

    def test_execution_order_does_not_change_theta(self):
        tasks, cfg = small_cohort(3, samples=40)
        fed = FederationParams(rounds=3, eta=0.01, seed=10)
        meta_a, clients_a = server_init(tasks, cfg, fed)
        final_a, _ = meta_train(meta_a, clients_a, fed)
        meta_b, clients_b = server_init(tasks, cfg, fed)
        order = ["T01", "T02", "T00"]
        final_b, _ = meta_train(meta_b, clients_b, fed, execution_order=order)
        assert params_equal(final_a.params, final_b.params)

    def test_query_loss_decreases_on_small_cohort(self):
        tasks = [synth_task(num_aps=6, samples=80, seed=s, task_id=f"T{s:02d}") for s in range(4)]
        cfg = tiny_model_config(d=5, lambda_recon=0.1)
        fed = FederationParams(rounds=200, local_steps=5, eta=0.05, batch_size=32, seed=11)
        meta, clients = server_init(tasks, cfg, fed)
        _, reports = meta_train(meta, clients, fed)
        losses = [r.mean_query_loss for r in reports]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

    def test_early_stop_on_loss_plateau(self):
        tasks, cfg = small_cohort(2, samples=40)
        fed = FederationParams(rounds=50, eta=0.01, seed=14, early_stop_tol=1.0, early_stop_patience=3)
        meta, clients = server_init(tasks, cfg, fed)
        # any relative change below 1.0 counts as flat, so the patience
        # window is exhausted as soon as enough rounds have run
        final, reports = meta_train(meta, clients, fed)
        assert len(reports) == 4
        assert final.round == 4

    def test_no_early_stop_with_tight_tolerance(self):
        tasks, cfg = small_cohort(2, samples=40)
        fed = FederationParams(rounds=6, eta=0.01, seed=14, early_stop_tol=1e-15, early_stop_patience=3)
        meta, clients = server_init(tasks, cfg, fed)
        _, reports = meta_train(meta, clients, fed)
        assert len(reports) == 6

    def test_broadcast_cannot_mutate_server_state(self):
        tasks, cfg = small_cohort(1)
        meta, clients = server_init(tasks, cfg, FederationParams(eta=0.01, seed=12))
        stolen = meta.broadcast()
        with pytest.raises(ValueError):
            stolen[:] = 1e9
        assert not np.any(meta.params == 1e9)
        client_local_train(clients[0], meta.broadcast(), FederationParams(local_steps=1))
        # local training must never write through to the server's parameters
        assert not np.shares_memory(clients[0].model.vectors["meta"], meta.params)
        assert not params_equal(clients[0].model.vectors["meta"], meta.params)
        assert np.isfinite(meta.params).all()

    def test_reduces_to_centralized_training_for_single_client(self):
        # one client, one local SGD step, no reconstruction: the protocol is a
        # plain alternating loop that a direct implementation must reproduce
        eta = 0.01
        task = synth_task(num_aps=5, samples=30, seed=21)
        cfg = tiny_model_config(
            d=4,
            lambda_recon=0.0,
            optimizer="sgd",
            mu_encoder=eta,
            mu_meta=eta,
            mu_mapper=eta,
        )
        fed = FederationParams(rounds=10, local_steps=1, eta=eta, batch_size=64, seed=13)
        meta, clients = server_init([task], cfg, fed)
        final, reports = meta_train(meta, clients, fed)

        meta_ref, clients_ref = server_init([task], cfg, fed)
        model = clients_ref[0].model
        theta = meta_ref.broadcast()
        sizes = cfg.part_sizes("meta")
        xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
        xq, yq = task.query.rssi, task.normalize_coords(task.query.coords)
        ref_losses = []
        for _ in range(10):
            model.set_part_params("meta", theta)
            model.train_step(xs, ys)
            loss, grads = model.composite_loss(xq, yq)
            ref_losses.append(loss)
            stepped = reference_sgd_step(nn.unflatten(theta, sizes), nn.unflatten(grads["meta"], sizes), eta)
            theta = nn.flatten(stepped, sizes)

        fed_losses = [r.mean_query_loss for r in reports]
        np.testing.assert_allclose(fed_losses, ref_losses, rtol=0, atol=1e-10)
        np.testing.assert_allclose(final.params, theta, rtol=0, atol=1e-10)


class TestMetaTrainReferenceLoop:
    @pytest.mark.parametrize("aggregation", ["gradient", "average"])
    def test_bitwise_equal_to_dict_reference_loop(self, aggregation):
        # the protocol written out with parameter dictionaries and the
        # reference Adam: adopt theta, restart its moments, local steps,
        # query gradient, then a weighted sum in client-id order, each client
        # weighted by its share of the query samples (sizes differ here)
        tasks = [
            synth_task(num_aps=5, samples=n, seed=i, task_id=f"T{i:02d}") for i, n in enumerate((40, 50, 70))
        ]
        cfg = tiny_model_config(d=4)
        eta, rounds, local_steps = 0.05, 3, 2
        fed = FederationParams(
            rounds=rounds, local_steps=local_steps, eta=eta, batch_size=16, seed=15, aggregation=aggregation
        )
        meta, clients = server_init(tasks, cfg, fed)
        final, reports = meta_train(meta, clients, fed)

        meta_ref, clients_ref = server_init(tasks, cfg, fed)
        sizes = cfg.part_sizes("meta")
        rates = cfg.rates()
        theta = nn.unflatten(meta_ref.params.copy(), sizes)
        total_query = sum(c.task.query.n_samples for c in clients_ref)
        params = {c.client_id: {p: nn.export_params(c.model.parts[p]) for p in PART_NAMES} for c in clients_ref}
        states = {cid: {p: reference_adam_state(v) for p, v in ps.items()} for cid, ps in params.items()}
        for r in range(rounds):
            acc = {k: np.zeros_like(v) for k, v in theta.items()}
            losses = {}
            for client in clients_ref:
                cid, task, model = client.client_id, client.task, client.model
                params[cid]["meta"] = {k: v.copy() for k, v in theta.items()}
                states[cid]["meta"] = reference_adam_state(theta)
                xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
                for _ in range(local_steps):
                    batch = client.batches.next()
                    for part in PART_NAMES:
                        nn.assign_params(model.parts[part], params[cid][part])
                    _, grads = model.composite_loss(xs[batch], ys[batch])
                    for part in PART_NAMES:
                        keyed = nn.unflatten(grads[part], nn.stack_sizes(model.parts[part]))
                        params[cid][part], states[cid][part] = reference_adam_step(
                            params[cid][part], keyed, states[cid][part], rates[part]
                        )
                for part in PART_NAMES:
                    nn.assign_params(model.parts[part], params[cid][part])
                losses[cid], grads = model.composite_loss(
                    task.query.rssi, task.normalize_coords(task.query.coords)
                )
                sent = params[cid]["meta"] if aggregation == "average" else nn.unflatten(grads["meta"], sizes)
                for k in acc:
                    acc[k] += task.query.n_samples / total_query * sent[k]
            theta = {k: theta[k] - eta * acc[k] for k in theta} if aggregation == "gradient" else acc
            assert reports[r].client_losses == losses
        assert np.array_equal(final.params, nn.flatten(theta, sizes))


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        tasks, cfg = small_cohort(2)
        meta, _ = server_init(tasks, cfg, FederationParams(eta=0.001, seed=6))
        meta.round = 12
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, meta)
        loaded = load_checkpoint(path)
        assert (loaded.config, loaded.eta, loaded.round) == (cfg, 0.001, 12)
        assert bits(loaded.params) == bits(meta.params)

    def test_missing_checkpoint_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "none.npz")


class TestMetaTest:
    def test_zero_steps_returns_initial_composition(self):
        task = synth_task(num_aps=5, samples=30, seed=30)
        cfg = tiny_model_config(d=4)
        theta = nn.bind(nn.build_stack(cfg.part_sizes("meta"), seed=55))
        model, trace, errors = meta_test(task, cfg, theta, MetaTestParams(steps=0, optimizer="adam"), seed=3)
        assert trace.support_loss == [] and trace.query_mde == []
        assert params_equal(model.vectors["meta"], theta)
        assert errors.shape == (task.query.n_samples,)
        pred = task.denormalize_coords(model.full_forward(task.query.rssi))
        assert np.array_equal(errors, np.linalg.norm(pred - task.query.coords, axis=1))

    def test_ri_and_mi_share_alpha_beta_init_for_the_same_seed(self):
        task = synth_task(num_aps=5, samples=30, seed=31)
        cfg = tiny_model_config(d=4)
        theta = nn.bind(nn.build_stack(cfg.part_sizes("meta"), seed=56))
        model_ri, _, _ = meta_test(task, cfg, None, MetaTestParams(steps=0, optimizer="adam"), seed=9)
        model_mi, _, _ = meta_test(task, cfg, theta, MetaTestParams(steps=0, optimizer="adam"), seed=9)
        assert params_equal(model_ri.vectors["encoder"], model_mi.vectors["encoder"])
        assert params_equal(model_ri.vectors["mapper"], model_mi.vectors["mapper"])
        assert not params_equal(model_ri.vectors["meta"], model_mi.vectors["meta"])

    def test_trace_is_contiguous_and_deterministic(self):
        task = synth_task(num_aps=5, samples=40, seed=32)
        cfg = tiny_model_config(d=4)
        _, trace_a, err_a = meta_test(task, cfg, None, MetaTestParams(steps=6, optimizer="adam"), seed=1)
        _, trace_b, err_b = meta_test(task, cfg, None, MetaTestParams(steps=6, optimizer="adam"), seed=1)
        assert len(trace_a.support_loss) == len(trace_a.query_mde) == 6
        assert trace_a == trace_b
        assert np.array_equal(err_a, err_b)

    def test_final_errors_are_those_of_the_adapted_model(self):
        task = synth_task(num_aps=5, samples=40, seed=33)
        mt = MetaTestParams(steps=3, optimizer="adam")
        model, trace, errors = meta_test(task, tiny_model_config(d=4), None, mt, seed=1)
        pred = task.denormalize_coords(model.full_forward(task.query.rssi))
        assert np.array_equal(errors, np.linalg.norm(pred - task.query.coords, axis=1))
        assert float(np.mean(errors)) == trace.query_mde[-1]

    def test_meta_test_optimizer_overrides_the_model_optimizer(self):
        # an adam model config fine-tuned with meta_test.optimizer "sgd" takes
        # plain SGD steps at the config's rates on the paired seed's model and
        # batch stream, and so does not retrace its adam run
        task = synth_task(num_aps=5, samples=40, seed=34)
        cfg = tiny_model_config(d=4)
        assert cfg.optimizer == "adam"
        mt = MetaTestParams(steps=5, batch_size=16, optimizer="sgd")
        _, trace, _ = meta_test(task, cfg, None, mt, seed=2)

        root = np.random.SeedSequence(2)
        model = ClientModel.build_paired(cfg, task.m, root)
        batches = BatchStream(task.support.n_samples, 16, np.random.default_rng(root.spawn(1)[0]))
        xs, ys = task.support.rssi, task.normalize_coords(task.support.coords)
        rates = cfg.rates()
        expected = AdaptationTrace()
        for _ in range(mt.steps):
            batch = batches.next()
            _, grads = model.composite_loss(xs[batch], ys[batch])
            for part in PART_NAMES:
                layers = model.parts[part]
                keyed = nn.unflatten(grads[part], nn.stack_sizes(layers))
                nn.assign_params(layers, reference_sgd_step(nn.export_params(layers), keyed, rates[part]))
            expected.support_loss.append(model.loss_value(xs, ys))
            pred = task.denormalize_coords(model.full_forward(task.query.rssi))
            expected.query_mde.append(mde(pred, task.query.coords))
        assert trace == expected

        _, adam_trace, _ = meta_test(task, cfg, None, replace(mt, optimizer="adam"), seed=2)
        assert adam_trace.query_mde != trace.query_mde
