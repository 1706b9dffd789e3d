import json
import math

import numpy as np
import pytest

from conftest import wrap_difference
from qadc.analysis import bit_chain_probabilities
from qadc.ml import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ESTIMATOR_PHASE_SHIFT,
    Network,
    NetworkSpec,
    TrainConfig,
    TrainingDivergence,
    TrainingSet,
    build_dae,
    build_estimator,
    circular_errors,
    circular_rmse,
    corrupt_rows,
    dae_denoise,
    dae_training_set,
    estimator_inputs_from_rows,
    estimator_training_set,
    evaluate_estimator,
    forward,
    gradients,
    ideal_full_rows,
    renormalize_rows,
    shifted_rows,
    train,
    train_and_eval_estimator,
    _Adam,
    _FLUSH_EVERY,
    _layer_views,
)
from qadc.protocol import derive_rng

TWO_PI = 2 * math.pi

#: The DAE's layers on 8-outcome rows: a small net for quick tests.
SMALL_DAE = NetworkSpec((8, 64, 32, 16, 32, 64, 8), ("relu",) * 5 + ("linear",))


class TestSpecs:
    def test_dae_shape(self):
        spec = build_dae()
        assert spec.widths == (128, 64, 32, 16, 32, 64, 128)
        assert spec.activations == ("relu",) * 5 + ("linear",)

    def test_estimator_shape_and_parameter_count(self):
        spec = build_estimator()
        assert spec.widths == (16, 52, 52, 52, 1)
        assert spec.activations == ("sigmoid", "tanh", "tanh", "linear")
        net = Network.initialize(spec, np.random.default_rng(0))
        assert net.n_parameters == 6449

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NetworkSpec((4,), ())
        with pytest.raises(ValueError):
            NetworkSpec((4, 2), ("softmax",))
        with pytest.raises(ValueError):
            NetworkSpec((4, 2), ("relu", "relu"))


class TestFlatParameters:
    def test_layers_are_views_of_one_vector(self, rng):
        net = Network.initialize(NetworkSpec((3, 4, 2), ("tanh", "linear")), rng)
        layout = [net.weights[0].ravel(), net.biases[0], net.weights[1].ravel(), net.biases[1]]
        assert np.array_equal(net.params, np.concatenate(layout))
        assert net.params.flags.c_contiguous and net.n_parameters == net.params.size == 26
        net.weights[1][1, 2] = 7.0
        net.biases[0][:] = -1.0
        assert net.params[12 + 4 + 1 * 4 + 2] == 7.0
        assert np.all(net.params[12:16] == -1.0)

    def test_constructor_copies_and_checks_before_copying(self):
        spec = NetworkSpec((2, 1), ("linear",))
        w, b = np.ones((1, 2)), np.zeros(1)
        net = Network(spec, [w], [b])
        w[0, 0] = 5.0
        assert net.weights[0][0, 0] == 1.0
        for weights, biases in (([np.ones((2, 1))], [b]), ([w], [np.zeros(2)]),
                                ([w, w], [b, b]), ([], [])):
            with pytest.raises(ValueError):
                Network(spec, weights, biases)

    def test_from_json_dict_rejects_malformed_documents(self, rng):
        doc = Network.initialize(SMALL_DAE, rng).to_json_dict()
        for bad in ({}, [], dict(doc, weights=doc["weights"][:-1]),
                    dict(doc, weights=doc["weights"] + [[0.0]]),
                    dict(doc, biases=doc["biases"][1:] + [[0.0]])):
            with pytest.raises(ValueError):
                Network.from_json_dict(bad)


class TestForward:
    def test_zero_weight_network_outputs_biases(self):
        spec = NetworkSpec((3, 2), ("linear",))
        net = Network(spec, [np.zeros((2, 3))], [np.array([0.5, -1.0])])
        assert np.allclose(forward(net, np.ones(3)), [0.5, -1.0])

    def test_identity_layer_passthrough(self):
        spec = NetworkSpec((3, 3), ("linear",))
        net = Network(spec, [np.eye(3)], [np.zeros(3)])
        x = np.array([0.3, -0.7, 2.0])
        assert np.allclose(forward(net, x), x)

    def test_forward_deterministic(self, rng):
        net = Network.initialize(NetworkSpec((4, 8, 2), ("tanh", "linear")), rng)
        x = rng.normal(size=(5, 4))
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_width_mismatch(self, rng):
        net = Network.initialize(NetworkSpec((4, 2), ("linear",)), rng)
        with pytest.raises(ValueError):
            forward(net, np.ones(3))


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        spec = NetworkSpec((4, 6, 5, 2), ("sigmoid", "tanh", "linear"))
        net = Network.initialize(spec, rng)
        x = rng.normal(size=(6, 4))
        y = rng.normal(size=(6, 2))
        dw, db, _ = gradients(net, x, y)
        h = 1e-5
        worst = 0.0
        for li in range(3):
            for arr, grad in ((net.weights[li], dw[li]), (net.biases[li], db[li])):
                flat = arr.ravel()
                for idx in range(0, flat.size, max(1, flat.size // 10)):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    _, _, lp = gradients(net, x, y)
                    flat[idx] = orig - h
                    _, _, lm = gradients(net, x, y)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    g = grad.ravel()[idx]
                    worst = max(worst, abs(fd - g) / max(1e-8, abs(fd)))
        assert worst <= 1e-4

    def test_relu_gradient_away_from_kink(self):
        rng = np.random.default_rng(5)
        spec = NetworkSpec((3, 6, 1), ("relu", "linear"))
        net = Network.initialize(spec, rng)
        net.biases[0][:] = 0.5  # keep pre-activations away from zero
        x = rng.uniform(0.5, 1.5, size=(4, 3))
        y = rng.normal(size=(4, 1))
        dw, _, _ = gradients(net, x, y)
        h = 1e-5
        w = net.weights[0]
        for i in range(2):
            orig = w[i, 0]
            w[i, 0] = orig + h
            _, _, lp = gradients(net, x, y)
            w[i, 0] = orig - h
            _, _, lm = gradients(net, x, y)
            w[i, 0] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - dw[0][i, 0]) <= 1e-4 * max(1e-8, abs(fd))

    def test_target_shape_must_match_outputs(self, rng):
        net = Network.initialize(NetworkSpec((1, 1), ("linear",)), rng)
        x = rng.normal(size=(4, 1))
        with pytest.raises(ValueError, match="target shape"):
            gradients(net, x, x.ravel())  # would broadcast to [4, 4]


def reference_activation(name, pre):
    if name == "relu":
        return np.maximum(pre, 0.0)
    if name == "tanh":
        return np.tanh(pre)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-pre))
    return pre


def reference_gradients(net, x, y):
    """Per-tensor backprop as first written: the bitwise reference."""
    pres, posts = [], [x]
    h = x
    for w, b, act in zip(net.weights, net.biases, net.spec.activations):
        pre = h @ w.T + b
        h = reference_activation(act, pre)
        pres.append(pre)
        posts.append(h)
    loss = float(np.mean((h - y) ** 2))
    delta = 2.0 * (h - y) / h.size
    d_weights, d_biases = [], []
    for i in reversed(range(len(net.weights))):
        act, pre, post = net.spec.activations[i], pres[i], posts[i + 1]
        if act == "relu":
            grad = (pre > 0).astype(pre.dtype)
        elif act == "tanh":
            grad = 1.0 - post**2
        elif act == "sigmoid":
            grad = post * (1.0 - post)
        else:
            grad = np.ones_like(pre)
        delta = delta * grad
        d_weights.append(delta.T @ posts[i])
        d_biases.append(delta.sum(axis=0))
        if i:
            delta = delta @ net.weights[i]
    return d_weights[::-1], d_biases[::-1], loss


def reference_adam_step(params, grads, m, v, t, c):
    """Per-tensor Adam step as first written: the bitwise reference."""
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * g
        v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * g**2
        m_hat = m[i] / (1 - ADAM_BETA1**t)
        v_hat = v[i] / (1 - ADAM_BETA2**t)
        p -= c.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class TestFlatTrainingMatchesReference:
    SPEC = NetworkSpec((5, 7, 6, 4, 3), ("relu", "sigmoid", "tanh", "linear"))

    def test_gradients_equal_per_tensor_backprop(self, rng):
        net = Network.initialize(self.SPEC, rng)
        net.biases[0][:3] = -5.0  # dead ReLU units give exact zeros
        x, y = rng.normal(size=(10, 5)), rng.normal(size=(10, 3))
        dw, db, loss = gradients(net, x, y)
        ref_dw, ref_db, ref_loss = reference_gradients(net, x, y)
        assert loss == ref_loss
        for got, ref in zip(dw + db, ref_dw + ref_db):
            assert got.tobytes() == ref.tobytes()
        # a caller's buffers are filled with the same values and returned
        buffers = ([np.empty_like(w) for w in dw], [np.empty_like(b) for b in db])
        again = gradients(net, x, y, buffers)
        assert again[0] is buffers[0] and again[1] is buffers[1]
        for got, ref in zip(buffers[0] + buffers[1], dw + db):
            assert got.tobytes() == ref.tobytes()
        # without buffers every call returns new arrays
        assert not np.shares_memory(gradients(net, x, y)[0][0], dw[0])

    def test_adam_equals_per_tensor_steps(self, rng):
        net = Network.initialize(self.SPEC, rng)
        ref_flat = net.params.copy()
        ref_params = sum(_layer_views(self.SPEC, ref_flat), [])
        m = [np.zeros_like(p) for p in ref_params]
        v = [np.zeros_like(p) for p in ref_params]
        cfg = TrainConfig(learning_rate=3e-3)
        opt = _Adam(net.params, cfg)
        # Past several subnormal flushes and past t = 356, where 1 - beta1**t
        # rounds to 1.0; then across t = 37,412, where 1 - beta2**t does.
        steps = [*range(1, 401), *range(37_400, 37_431)]
        for t in steps:
            opt.t = t - 1
            grad = rng.normal(scale=10.0 ** rng.uniform(-6, 1), size=net.n_parameters)
            grad[rng.random(grad.size) < 0.2] = 0.0
            grad[:3] = (-0.0, 5e-324, -1e-310)  # signed zero and subnormals
            opt.step(net.params, grad)
            grads = sum(_layer_views(self.SPEC, grad), [])
            reference_adam_step(ref_params, grads, m, v, t, cfg)
        assert 1 - ADAM_BETA1 ** 356 == 1 - ADAM_BETA2 ** 37_412 == 1.0
        assert 1 - ADAM_BETA1 ** 355 < 1.0 and 1 - ADAM_BETA2 ** 37_411 < 1.0
        assert net.params.tobytes() == ref_flat.tobytes()

    def test_train_equals_reference_loop(self, rng):
        # 45 samples in batches of 10, the last one short, for 90 epochs:
        # 450 steps, past t = 356 where 1 - beta1**t rounds to 1.0
        net = Network.initialize(self.SPEC, rng)
        net.biases[0][:3] = -5.0  # dead ReLU units give exact zeros
        ref = Network(net.spec, net.weights, net.biases)
        x, y = rng.normal(size=(45, 5)), rng.normal(size=(45, 3))
        cfg = TrainConfig(epochs=90, batch_size=10, learning_rate=3e-3, seed=4)
        trace = train(net, TrainingSet(x, y), cfg)
        params = ref.weights + ref.biases
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        order_rng = np.random.default_rng(cfg.seed)
        ref_trace, t = [], 0
        for _ in range(cfg.epochs):
            order = order_rng.permutation(len(x))
            epoch_loss = 0.0
            for n_batches, start in enumerate(range(0, len(x), cfg.batch_size), 1):
                idx = order[start : start + cfg.batch_size]
                d_weights, d_biases, loss = reference_gradients(ref, x[idx], y[idx])
                t += 1
                reference_adam_step(params, d_weights + d_biases, m, v, t, cfg)
                epoch_loss += loss
            ref_trace.append(epoch_loss / n_batches)
        assert t == 450
        assert trace == ref_trace
        assert net.params.tobytes() == ref.params.tobytes()


def n_subnormal(a):
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(float).tiny)))


class TestSubnormalFlush:
    def test_flush_keeps_parameters_and_losses_bit_identical(self):
        # The default DAE trained from the streams of `train dae --seed 1`:
        # dead ReLU units leave subnormal first moments from about step
        # 6,500 on.  Both runs take the same batches, one with the shipped
        # step and one with the flush patched out.
        rng = derive_rng(1, 201)
        dataset = dae_training_set(1024, 0.01, rng)
        net = Network.initialize(build_dae(), rng)
        ref = Network(net.spec, net.weights, net.biases)
        cfg = TrainConfig(seed=1)
        opt, ref_opt = _Adam(net.params, cfg), _Adam(ref.params, cfg)
        ref_opt._flush_subnormals = lambda: None
        grad, ref_grad = np.empty_like(net.params), np.empty_like(ref.params)
        views, ref_views = _layer_views(net.spec, grad), _layer_views(ref.spec, ref_grad)
        order_rng = np.random.default_rng(cfg.seed)
        flushed = 0
        for _ in range(70):  # 7,210 steps
            order = order_rng.permutation(1024)
            for start in range(0, 1024, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                x, y = dataset.inputs[idx], dataset.targets[idx]
                loss = gradients(net, x, y, views)[2]
                ref_loss = gradients(ref, x, y, ref_views)[2]
                assert loss == ref_loss
                opt.step(net.params, grad)
                ref_opt.step(ref.params, ref_grad)
                assert net.params.tobytes() == ref.params.tobytes()
                if opt.t % _FLUSH_EVERY == 0:
                    assert n_subnormal(opt.m) == n_subnormal(opt.v) == 0
                    flushed += n_subnormal(ref_opt.m)
        # the reference really ran on subnormals, and the flush removed them
        assert n_subnormal(ref_opt.m) > 0
        assert flushed > 0


class TestTraining:
    def test_linear_regression_recovers_slope(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1, 1, size=(64, 1))
        net = Network.initialize(NetworkSpec((1, 1), ("linear",)), rng)
        cfg = TrainConfig(epochs=1500, batch_size=8, learning_rate=1e-2, seed=1)
        trace = train(net, TrainingSet(xs, 2.0 * xs), cfg)
        assert net.weights[0][0, 0] == pytest.approx(2.0, abs=1e-3)
        assert trace[-1] <= trace[0]

    def test_training_deterministic(self):
        def run():
            rng = np.random.default_rng(11)
            xs = rng.uniform(-1, 1, size=(32, 2))
            ys = xs @ np.array([[1.0], [-2.0]])
            net = Network.initialize(NetworkSpec((2, 6, 1), ("tanh", "linear")), rng)
            trace = train(
                net, TrainingSet(xs, ys), TrainConfig(epochs=40, batch_size=4, seed=7)
            )
            return trace, net.weights[0].copy()

        (t1, w1), (t2, w2) = run(), run()
        assert t1 == t2
        assert np.array_equal(w1, w2)

    def test_monotone_loss_on_convex_problem_small_lr(self):
        rng = np.random.default_rng(13)
        xs = rng.uniform(-1, 1, size=(40, 1))
        ys = 0.7 * xs
        net = Network.initialize(NetworkSpec((1, 1), ("linear",)), rng)
        cfg = TrainConfig(epochs=60, batch_size=40, learning_rate=1e-4, seed=2)
        trace = train(net, TrainingSet(xs, ys), cfg)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_divergence_detection(self):
        spec = NetworkSpec((1, 1), ("linear",))
        net = Network(spec, [np.array([[1e300]])], [np.zeros(1)])
        xs = np.full((4, 1), 1e10)
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergence):
            train(net, TrainingSet(xs, xs), TrainConfig(epochs=3, batch_size=2))

    def test_shape_mismatch(self, rng):
        net = Network.initialize(NetworkSpec((2, 1), ("linear",)), rng)
        with pytest.raises(ValueError):
            train(net, TrainingSet(np.ones((4, 3)), np.ones((4, 1))), TrainConfig(epochs=1))


class TestRows:
    def test_renormalize_clips_and_scales(self):
        rows = renormalize_rows(np.array([[0.5, -0.1, 0.5], [0.2, 0.2, 0.2]]))
        assert np.allclose(rows.sum(axis=1), 1.0)
        assert np.all(rows >= 0)

    def test_all_zero_row_falls_back_to_uniform(self):
        with pytest.warns(UserWarning, match="uniform"):
            rows = renormalize_rows(np.array([[-0.2, -0.1, -0.5]]))
        assert np.allclose(rows, 1 / 3)

    def test_corrupt_rows_stay_distributions(self, rng):
        clean = bit_chain_probabilities(np.linspace(0, 6, 20))
        noisy = corrupt_rows(clean, 0.05, rng)
        assert np.allclose(noisy.sum(axis=1), 1.0)
        assert np.all(noisy >= 0)
        assert not np.allclose(noisy, clean)

    def test_ideal_full_rows_structure(self):
        rows = ideal_full_rows(np.array([0.9]))
        assert rows.shape == (1, 128)
        assert rows.sum() == pytest.approx(1.0)
        # junk bits are uniform: each b cell spreads over 16 equal entries
        b_rows = bit_chain_probabilities(np.array([0.9]))
        assert rows.max() == pytest.approx(b_rows.max() / 16)


class TestDae:
    def test_denoise_outputs_distributions(self, rng):
        net = Network.initialize(SMALL_DAE, rng)
        rows = rng.uniform(0, 1, size=(5, 8))
        out = dae_denoise(net, rows)
        assert out.shape == (5, 8)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0)

    def test_width_mismatch(self, rng):
        net = Network.initialize(SMALL_DAE, rng)
        with pytest.raises(ValueError):
            dae_denoise(net, np.ones((2, 128)))

    def test_trained_dae_denoises_to_within_training_sigma(self):
        # held-out evaluation: corrupted rows come back within the training
        # noise scale; clean rows are nearly fixed points (the architecture
        # floors slightly above sigma on clean inputs even at full training)
        rng = np.random.default_rng(21)
        sigma = 0.01
        dataset = dae_training_set(1024, sigma, rng)
        net = Network.initialize(build_dae(), rng)
        cfg = TrainConfig(epochs=400, batch_size=10, seed=21)
        train(net, dataset, cfg)
        phases = TWO_PI * np.arange(37) / 37
        clean = ideal_full_rows(phases)
        noisy = corrupt_rows(clean, sigma, np.random.default_rng(5))
        out = dae_denoise(net, noisy)
        assert np.max(np.abs(out - clean)) <= sigma
        assert np.max(np.abs(dae_denoise(net, clean) - clean)) <= 2 * sigma


class TestDenoisingImprovesMi:
    def test_denoised_mi_closer_to_asymptote_on_most_seeds(self):
        # Gaussian-corrupted noiseless tables: the denoised marginal MI lands
        # nearer the quadrature asymptote than the corrupted one, seed by seed
        from qadc.analysis import (
            CondProbTable,
            marginalize_to_bits,
            mutual_information,
            quadrature_mi_quantum,
        )

        rng = np.random.default_rng(31)
        dataset = dae_training_set(1024, 0.01, rng)
        net = Network.initialize(build_dae(), rng)
        train(net, dataset, TrainConfig(epochs=300, batch_size=10, seed=31))
        istar = quadrature_mi_quantum()
        phases = TWO_PI * np.arange(99) / 99
        clean = ideal_full_rows(phases)
        wins = 0
        for seed in range(10):
            corrupted = corrupt_rows(clean, 0.01, np.random.default_rng(300 + seed))
            t_corr = CondProbTable(phases, corrupted, kind="m7")
            t_den = CondProbTable(phases, dae_denoise(net, corrupted), kind="m7")
            err_corr = abs(
                mutual_information(marginalize_to_bits(t_corr)).value - istar
            )
            err_den = abs(
                mutual_information(marginalize_to_bits(t_den)).value - istar
            )
            wins += err_den < err_corr
        assert wins >= 9


class TestEstimatorData:
    def test_make_estimator_input_concatenates(self):
        phases = TWO_PI * np.arange(12) / 12
        rows = bit_chain_probabilities(phases)
        inputs = estimator_inputs_from_rows(phases, rows)
        assert inputs.shape == (12, 16)
        assert np.array_equal(inputs[:, :8], rows)
        assert np.array_equal(inputs[:, 8:], shifted_rows(phases, rows))

    def test_uniform_rows_input(self):
        inputs = estimator_inputs_from_rows(TWO_PI * np.arange(5) / 5, np.full((5, 8), 0.125))
        assert np.allclose(inputs, 0.125)

    def test_shifted_rows_interpolation_accuracy(self):
        phases = TWO_PI * np.arange(99) / 99
        rows = bit_chain_probabilities(phases)
        shifted = shifted_rows(phases, rows)
        exact = bit_chain_probabilities((phases + ESTIMATOR_PHASE_SHIFT) % TWO_PI)
        assert np.max(np.abs(shifted - exact)) < 0.01

    def test_estimator_inputs_shape(self):
        phases = TWO_PI * np.arange(33) / 33
        rows = bit_chain_probabilities(phases)
        inputs = estimator_inputs_from_rows(phases, rows)
        assert inputs.shape == (33, 16)
        clean_first = bit_chain_probabilities(np.array([0.0]))[0]
        assert np.allclose(inputs[0, :8], clean_first, atol=1e-12)

    def test_training_set_targets_in_range(self, rng):
        ts = estimator_training_set(64, 0.01, rng, replicas=2)
        assert ts.inputs.shape == (128, 16)
        assert np.all(ts.targets >= 0) and np.all(ts.targets < TWO_PI)


class TestEstimatorTraining:
    def test_reduced_training_reaches_coarse_accuracy(self):
        cfg = TrainConfig(epochs=400, batch_size=10, seed=5)
        net, trace, metrics = train_and_eval_estimator(cfg, n_train_phases=120, replicas=3)
        assert trace[-1] < trace[0]
        assert metrics["rmse"] < 0.25
        assert metrics["branch_accuracy"] > 0.9

    def test_circular_errors_equal_scalar_wrap(self, rng):
        predicted = np.concatenate([rng.uniform(-10, 10, 500), [0.0, 1.0, math.pi, 0.0, 4.0,
                                                                TWO_PI, -math.pi]])
        truth = np.concatenate([rng.uniform(-10, 10, 500), [0.0, 1.0, 0.0, math.pi, 4.0 - TWO_PI,
                                                            0.0, 0.0]])
        loop = [wrap_difference(float(p), float(t)) for p, t in zip(predicted, truth)]
        assert circular_errors(predicted, truth).tolist() == loop
        assert circular_rmse(predicted, truth) == float(np.sqrt(np.mean(np.square(loop))))

    def test_circular_rmse_wraps(self):
        pred = np.array([TWO_PI - 0.01])
        truth = np.array([0.01])
        assert circular_rmse(pred, truth) == pytest.approx(0.02, abs=1e-9)

    def test_evaluate_reports_branch_accuracy(self, rng):
        net = Network.initialize(build_estimator(), rng)
        phases = np.linspace(0.1, TWO_PI - 0.1, 20)
        rows = bit_chain_probabilities(phases)
        inputs = np.concatenate(
            [rows, bit_chain_probabilities((phases + ESTIMATOR_PHASE_SHIFT) % TWO_PI)],
            axis=1,
        )
        metrics = evaluate_estimator(net, phases, inputs)
        assert 0.0 <= metrics["branch_accuracy"] <= 1.0


class TestModelSerialization:
    def test_round_trip(self, rng):
        net = Network.initialize(build_estimator(), rng)
        doc = net.to_json_dict(TrainConfig(), seed=3)
        clone = Network.from_json_dict(json.loads(json.dumps(doc)))
        x = rng.normal(size=(3, 16))
        assert np.allclose(forward(net, x), forward(clone, x))

    def test_json_fields(self, rng):
        net = Network.initialize(SMALL_DAE, rng)
        doc = net.to_json_dict(TrainConfig(epochs=10), seed=4)
        assert set(doc) == {"spec", "weights", "biases", "train_config", "seed"}
        assert doc["train_config"]["epochs"] == 10
