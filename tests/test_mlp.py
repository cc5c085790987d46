"""MLP internals against hand computations, finite differences, and closed forms."""

import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chanpred import (
    AdamState,
    ConfigError,
    ContractError,
    MlpModel,
    TrainConfig,
    TraceFormatError,
    TrainingDivergedError,
    adam_step,
    backward,
    init_mlp,
    load_model,
    loss_mse,
    predict,
    save_model,
    train,
)
from chanpred import mlp
from chanpred.mlp import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, _ADAM_BLOCK, shuffle_order
from chanpred.rng import stream
from conftest import FINITE_DOUBLES, LINE_CORRUPTIONS, corrupt_line


def _flat_params(model):
    return np.concatenate([w.reshape(-1) for w in model.weights]
                          + [b.reshape(-1) for b in model.biases])


class TestInit:
    def test_parameter_count_paper_dims(self):
        # 384*512+512 + 512*512+512 + 512*128+128 = 525,440
        model = init_mlp((384, 512, 512, 128), 0)
        assert model.n_parameters() == 525_440

    def test_same_seed_identical(self):
        a, b = init_mlp((5, 7, 3), 42), init_mlp((5, 7, 3), 42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_biases_zero(self):
        model = init_mlp((4, 6, 2), 1)
        for b in model.biases:
            assert np.all(b == 0.0)

    def test_init_ranges(self):
        model = init_mlp((100, 200, 50), 2)
        hidden_lim = np.sqrt(6.0 / 100)
        out_lim = np.sqrt(6.0 / (200 + 50))
        assert np.max(np.abs(model.weights[0])) <= hidden_lim
        assert np.max(np.abs(model.weights[1])) <= out_lim

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            init_mlp((4,), 0)
        with pytest.raises(ConfigError):
            init_mlp((4, 0, 2), 0)


class TestForward:
    def test_zero_parameters_give_zero(self):
        model = init_mlp((3, 4, 2), 0)
        for w in model.weights:
            w[:] = 0.0
        assert np.array_equal(predict(model, np.ones(3)[None])[0], np.zeros(2))

    def test_single_layer_identity(self):
        model = MlpModel([np.eye(3)], [np.zeros(3)])
        x = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(predict(model, x[None])[0], x)

    def test_hand_built_2_2_1(self):
        # by hand: z1 = (-0.25, 1.05) -> relu (0, 1.05)
        #          out = 0.5*0 - 0.6*1.05 + 0.2 = -0.43
        model = MlpModel(
            [np.array([[0.1, -0.2], [0.3, 0.4]]), np.array([[0.5, -0.6]])],
            [np.array([0.05, -0.05]), np.array([0.2])])
        out = predict(model, np.array([1.0, 2.0])[None])[0]
        assert abs(out[0] - (-0.43)) < 1e-12

    def test_dimension_mismatch(self):
        model = init_mlp((3, 2), 0)
        with pytest.raises(ContractError):
            predict(model, np.ones(4)[None])[0]


class TestLoss:
    def test_zero_at_match(self):
        x = stream(0, "x").standard_normal((4, 6))
        assert loss_mse(x, x) == 0.0

    def test_all_ones_difference(self):
        d = 8
        pred = np.ones((3, d))
        assert loss_mse(pred, np.zeros((3, d))) == pytest.approx(d)

    def test_mean_over_batch(self):
        pred = np.array([[1.0], [np.sqrt(3.0)]])
        label = np.zeros((2, 1))
        assert loss_mse(pred, label) == pytest.approx(2.0)

    def test_mismatch(self):
        with pytest.raises(ContractError):
            loss_mse(np.zeros((2, 3)), np.zeros((2, 4)))


class TestBackward:
    def test_zero_error_gives_zero_gradients(self):
        model = init_mlp((3, 4, 2), 7)
        x = stream(1, "x").standard_normal((5, 3))
        y = predict(model, x)
        gw, gb, loss = backward(model, (x, y))
        assert loss == 0.0
        for g in gw + gb:
            assert np.allclose(g, 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = stream(seed, "gradcheck")
        dims = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(2, 5)))]
        model = init_mlp(dims, seed)
        x = rng.standard_normal((4, dims[0]))
        y = rng.standard_normal((4, dims[-1]))
        gw, gb, _ = backward(model, (x, y))
        step = 1e-6
        for li in range(model.n_layers):
            for arr, grad in ((model.weights[li], gw[li]), (model.biases[li], gb[li])):
                flat = arr.reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + step
                    up = loss_mse(predict(model, x), y)
                    flat[idx] = orig - step
                    down = loss_mse(predict(model, x), y)
                    flat[idx] = orig
                    fd = (up - down) / (2 * step)
                    g = grad.reshape(-1)[idx]
                    assert abs(g - fd) <= 1e-4 * max(abs(g), abs(fd), 1e-6)

    def test_linear_network_closed_form(self):
        # no hidden layer: gradient of mean ||Wx+b-y||^2 is 2 E^T X / B
        rng = stream(3, "lin")
        x = rng.standard_normal((12, 5))
        y = rng.standard_normal((12, 2))
        model = init_mlp((5, 2), 3)
        gw, gb, _ = backward(model, (x, y))
        err = predict(model, x) - y
        assert np.allclose(gw[0], 2.0 * err.T @ x / 12, atol=1e-12)
        assert np.allclose(gb[0], 2.0 * err.sum(axis=0) / 12, atol=1e-12)

    @pytest.mark.parametrize("seed, dims", [
        (0, (5, 2)),            # single layer
        (1, (3, 1, 2)),         # width-1 hidden layer
        (2, (4, 1, 1, 3)),      # two width-1 hidden layers
        (3, (6, 8, 5, 4)),
        (4, (10, 16, 16, 10)),
    ])
    def test_loss_is_loss_mse_of_predict(self, seed, dims):
        # the loss backward trains on is the one loss_mse reports, bit for bit
        rng = stream(seed, "loss-agree")
        model = init_mlp(dims, seed)
        x = rng.standard_normal((7, dims[0]))
        y = rng.standard_normal((7, dims[-1]))
        assert backward(model, (x, y))[2] == loss_mse(predict(model, x), y)

    def test_labels_of_wrong_width_rejected(self):
        # (5, 1) labels would broadcast against a 2-output model's (5, 2) output
        model = init_mlp((3, 4, 2), 0)
        x = stream(0, "x").standard_normal((5, 3))
        with pytest.raises(ContractError, match=r"labels must be \(5, 2\).*\(5, 1\)"):
            backward(model, (x, np.zeros((5, 1))))

    def test_features_of_wrong_width_rejected(self):
        model = init_mlp((3, 4, 2), 0)
        with pytest.raises(ContractError, match=r"features must be \(rows, 3\).*\(5, 4\)"):
            backward(model, (np.zeros((5, 4)), np.zeros((5, 2))))

    @pytest.mark.parametrize("dims, rows", [((3, 5, 2), 5), ((3, 4, 2), 4)],
                             ids=["other-dims", "fewer-rows"])
    def test_mismatched_workspace_rejected(self, dims, rows):
        model = init_mlp((3, 4, 2), 0)
        batch = (np.zeros((5, 3)), np.zeros((5, 2)))
        with pytest.raises(ContractError, match=r"cannot hold a batch of 5 rows"):
            backward(model, batch, mlp._Workspace(dims, rows))

    def test_gradients_live_in_the_workspace(self):
        # the next call with the same workspace overwrites the returned gradients
        model = init_mlp((3, 4, 2), 0)
        rng = stream(2, "work")
        first, second = [(rng.standard_normal((5, 3)), rng.standard_normal((5, 2))) for _ in "ab"]
        work = mlp._Workspace(model.dims, 8)
        gw, gb, _ = backward(model, first, work)
        kept = [g.copy() for g in gw + gb]
        backward(model, second, work)
        ref_w, ref_b, _ = _reference_backward(model, *second)
        assert all(np.array_equal(g, r) for g, r in zip(gw + gb, ref_w + ref_b))
        assert not all(np.array_equal(g, k) for g, k in zip(gw + gb, kept))


def _scalar_reference_adam(theta, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    # independent transcription of the update equations, scalar case
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(theta)
    return out


class TestAdam:
    def _scalar_model(self, theta0=0.3):
        return MlpModel([np.array([[theta0]])], [np.zeros(1)])

    @pytest.mark.parametrize("layer, name, shape, message", [
        (0, "w", (3,), r"layer 0 w: gradient shape \(3,\) does not match parameter shape \(4, 3\)"),
        (0, "b", (1,), r"layer 0 b: gradient shape \(1,\) does not match parameter shape \(4,\)"),
        (1, "w", (4, 2), r"layer 1 w: gradient shape \(4, 2\) does not match parameter shape \(2, 4\)"),
    ], ids=["w0-flat", "b0-one-entry", "w1-transposed"])
    def test_gradient_of_wrong_shape_rejected(self, layer, name, shape, message):
        # the first two would broadcast into every entry of their parameter
        model = init_mlp((3, 4, 2), 0)
        before = _flat_params(model)
        state = AdamState.for_model(model)
        gw = [np.ones_like(w) for w in model.weights]
        gb = [np.ones_like(b) for b in model.biases]
        (gw if name == "w" else gb)[layer] = np.ones(shape)
        with pytest.raises(ContractError, match=message):
            adam_step(model, (gw, gb), state)
        assert np.array_equal(_flat_params(model), before)
        assert state.t == 0

    def test_parameters_that_do_not_flatten_to_a_view_rejected(self):
        # an update written to a flattened copy would be lost
        model = init_mlp((3, 4, 2), 0)
        model.weights[1] = np.asfortranarray(model.weights[1])
        before = _flat_params(model)
        state = AdamState.for_model(model)
        grads = ([np.ones_like(w) for w in model.weights], [np.ones_like(b) for b in model.biases])
        with pytest.raises(ContractError, match="layer 1 w: .*C-contiguous"):
            adam_step(model, grads, state)
        assert np.array_equal(_flat_params(model), before)
        assert state.t == 0

    def test_first_step_magnitude(self):
        # t=1 bias correction makes the update lr*g/(|g|+eps) ~ lr*(1-2e-8)
        model = self._scalar_model(0.0)
        state = AdamState.for_model(model, learning_rate=1e-3)
        adam_step(model, ([np.array([[0.5]])], [np.zeros(1)]), state)
        update = -model.weights[0][0, 0]
        expected = 1e-3 * 0.5 / (0.5 + 1e-8)
        assert abs(update - expected) < 1e-15
        assert update == pytest.approx(1e-3, rel=1e-7)

    def test_zero_gradient_leaves_parameters(self):
        model = init_mlp((3, 4, 2), 0)
        before = _flat_params(model)
        state = AdamState.for_model(model)
        gw = [np.zeros_like(w) for w in model.weights]
        gb = [np.zeros_like(b) for b in model.biases]
        adam_step(model, (gw, gb), state)
        assert np.array_equal(_flat_params(model), before)

    def test_three_step_trace_vs_reference(self):
        theta0, g = 0.3, 0.5
        model = self._scalar_model(theta0)
        state = AdamState.for_model(model, learning_rate=1e-3)
        observed = []
        for _ in range(3):
            adam_step(model, ([np.array([[g]])], [np.zeros(1)]), state)
            observed.append(model.weights[0][0, 0])
        expected = _scalar_reference_adam(theta0, [g, g, g])
        for o, e in zip(observed, expected):
            assert abs(o - e) < 1e-12


_DIMS = st.lists(st.integers(1, 6), min_size=2, max_size=4)


def _reference_layers(model, x):
    # the forward pass written as one expression per layer, allocating each result
    layers = [x]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = layers[-1] @ w.T + b
        layers.append(np.maximum(z, 0.0) if i < model.n_layers - 1 else z)
    return layers


def _reference_backward(model, x, y):
    layers = _reference_layers(model, x)
    err = layers[-1] - y
    loss = float(np.mean(np.sum(err ** 2, axis=1)))
    grad_w, grad_b = [None] * model.n_layers, [None] * model.n_layers
    delta = 2.0 * err / x.shape[0]
    for i in range(model.n_layers - 1, -1, -1):
        grad_w[i] = delta.T @ layers[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i]) * (layers[i] > 0)
    return grad_w, grad_b, loss


def _reference_adam_step(params, grads, moments, lr, t):
    # the update written as one expression per parameter, allocating its temporaries
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for p, g, (m, v) in zip(params, grads, moments):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g ** 2
        p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)


def _random_grads(model, rng, step):
    # magnitudes over seven decades; odd steps pass column-major weight gradients
    def draw(shape):
        return rng.standard_normal(shape) * 10.0 ** int(rng.integers(-4, 3))
    gw = [draw(w.shape[::-1]).T if step % 2 else draw(w.shape) for w in model.weights]
    return gw, [draw(b.shape) for b in model.biases]


class TestBitIdentity:
    """The buffered update and the in-place forward equal their plain expressions bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(dims=_DIMS, seed=st.integers(0, 2 ** 16))
    @example(dims=[5, 2], seed=0)
    @example(dims=[3, 1, 1, 2], seed=1)
    def test_adam_matches_plain_expression(self, dims, seed):
        model = init_mlp(dims, seed)
        ref = [p.copy() for p in model.weights + model.biases]
        ref_moments = [(np.zeros_like(p), np.zeros_like(p)) for p in ref]
        state = AdamState.for_model(model, learning_rate=1e-2)
        rng = stream(seed, "adam-bits")
        for t in range(1, 26):
            gw, gb = _random_grads(model, rng, t)
            kept = [g.copy() for g in gw + gb]
            adam_step(model, (gw, gb), state)
            assert all(np.array_equal(g, k) for g, k in zip(gw + gb, kept))
            _reference_adam_step(ref, gw + gb, ref_moments, 1e-2, t)
        for got, want in zip(model.weights + model.biases, ref):
            assert np.array_equal(got, want)
        for m, v, (ref_m, ref_v) in zip(state.m_w + state.m_b, state.v_w + state.v_b,
                                        ref_moments):
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)

    @settings(max_examples=40, deadline=None)
    @given(dims=_DIMS, seed=st.integers(0, 2 ** 16), rows=st.integers(1, 9))
    @example(dims=[5, 2], seed=0, rows=3)
    @example(dims=[3, 1, 1, 2], seed=1, rows=4)
    def test_forward_and_backward_match_plain_expression(self, dims, seed, rows):
        model = init_mlp(dims, seed)
        rng = stream(seed, "forward-bits")
        for b in model.biases:
            b[:] = rng.standard_normal(b.shape)
        x = rng.standard_normal((rows, dims[0]))
        y = rng.standard_normal((rows, dims[-1]))
        x_kept = x.copy()
        assert np.array_equal(predict(model, x), _reference_layers(model, x)[-1])
        assert np.array_equal(x, x_kept)
        gw, gb, loss = backward(model, (x, y))
        ref_w, ref_b, ref_loss = _reference_backward(model, x, y)
        assert loss == ref_loss
        assert all(np.array_equal(g, r) for g, r in zip(gw + gb, ref_w + ref_b))
        assert np.array_equal(x, x_kept)

    def test_adam_across_block_boundary(self):
        # a weight of 2.3 (or 4.7) blocks: full blocks and a short last one
        model = init_mlp([300, 512], 4)
        assert model.weights[0].size > _ADAM_BLOCK and model.weights[0].size % _ADAM_BLOCK
        ref = [p.copy() for p in model.weights + model.biases]
        ref_moments = [(np.zeros_like(p), np.zeros_like(p)) for p in ref]
        state = AdamState.for_model(model, learning_rate=1e-2)
        rng = stream(4, "adam-blocks")
        for t in range(1, 6):
            gw, gb = _random_grads(model, rng, t)
            adam_step(model, (gw, gb), state)
            _reference_adam_step(ref, gw + gb, ref_moments, 1e-2, t)
        for got, want in zip(model.weights + model.biases, ref):
            assert np.array_equal(got, want)

    def test_adam_past_unit_bias_correction(self):
        # 1 - b1^t rounds to 1.0 from step 356 on, where adam_step skips the division
        assert 1.0 - ADAM_BETA1 ** 355 < 1.0 == 1.0 - ADAM_BETA1 ** 356
        model = init_mlp([3, 4, 2], 6)
        ref = [p.copy() for p in model.weights + model.biases]
        ref_moments = [(np.zeros_like(p), np.zeros_like(p)) for p in ref]
        state = AdamState.for_model(model, learning_rate=1e-2)
        rng = stream(6, "adam-late")
        for t in range(1, 401):
            gw, gb = _random_grads(model, rng, t)
            adam_step(model, (gw, gb), state)
            _reference_adam_step(ref, gw + gb, ref_moments, 1e-2, t)
        for got, want in zip(model.weights + model.biases, ref):
            assert np.array_equal(got, want)
        for m, v, (ref_m, ref_v) in zip(state.m_w + state.m_b, state.v_w + state.v_b,
                                        ref_moments):
            assert np.array_equal(m, ref_m) and np.array_equal(v, ref_v)

    @pytest.mark.parametrize("rows, batch_size", [(20, 8), (5, 64)],
                             ids=["short-last-batch", "rows-below-batch"])
    def test_train_matches_reference_loop(self, rows, batch_size):
        dims, cfg = (4, 8, 6, 3), TrainConfig(batch_size, 6, 1e-2, 9)
        rng = stream(rows, "train-bits")
        x = rng.standard_normal((rows, dims[0]))
        y = rng.standard_normal((rows, dims[-1]))
        model, history = train(init_mlp(dims, 1), (x, y), cfg)

        ref = init_mlp(dims, 1)
        params = ref.weights + ref.biases
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
        ref_history, t = [], 0
        for epoch in range(cfg.epochs):
            order = shuffle_order(cfg.shuffle_seed, epoch, rows)
            losses = []
            for start in range(0, rows, batch_size):
                idx = order[start:start + batch_size]
                gw, gb, loss = _reference_backward(ref, x[idx], y[idx])
                losses.append(loss)
                t += 1
                _reference_adam_step(params, gw + gb, moments, cfg.learning_rate, t)
            ref_history.append(float(np.mean(losses)))
        assert np.array_equal(history, ref_history)
        for got, want in zip(model.weights + model.biases, params):
            assert np.array_equal(got, want)

    def test_two_states_do_not_share_scratch(self):
        # stepping two models of different shapes alternately changes neither
        dims = ((4, 6, 3), (7, 2, 5, 1))
        grads = {}
        for d in dims:
            rng = stream(len(d), "scratch")
            grads[d] = [_random_grads(init_mlp(d, 0), rng, t) for t in range(10)]
        alone = {}
        for d in dims:
            model = init_mlp(d, 0)
            state = AdamState.for_model(model)
            for g in grads[d]:
                adam_step(model, g, state)
            alone[d] = _flat_params(model)
        models = {d: init_mlp(d, 0) for d in dims}
        states = {d: AdamState.for_model(models[d]) for d in dims}
        for step in range(10):
            for d in dims:
                adam_step(models[d], grads[d][step], states[d])
        for d in dims:
            assert np.array_equal(_flat_params(models[d]), alone[d])


class TestTrain:
    def _toy(self, rows=20, din=4, dout=2, seed=0):
        rng = stream(seed, "toy")
        x = rng.standard_normal((rows, din))
        a = rng.standard_normal((dout, din))
        return x, x @ a.T

    def test_zero_learning_rate_is_identity(self):
        x, y = self._toy()
        model = init_mlp((4, 8, 2), 1)
        before = _flat_params(model)
        model, _ = train(model, (x, y), TrainConfig(8, 5, 0.0, 3))
        assert np.array_equal(_flat_params(model), before)

    def test_deterministic(self):
        x, y = self._toy()
        runs = []
        for _ in range(2):
            model = init_mlp((4, 8, 2), 1)
            model, hist = train(model, (x, y), TrainConfig(8, 10, 1e-3, 3))
            runs.append((hist, _flat_params(model)))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_realizable_linear_regression_converges(self):
        # oracle: the closed-form least-squares solution fits exactly
        x, y = self._toy(rows=50, seed=2)
        w, res, *_ = np.linalg.lstsq(x, y, rcond=None)
        assert np.allclose(x @ w, y, atol=1e-10)
        model = init_mlp((4, 2), 2)
        model, hist = train(model, (x, y), TrainConfig(50, 500, 0.05, 1))
        assert hist[-1] < 1e-6

    def test_history_length_and_finite(self):
        x, y = self._toy()
        model, hist = train(init_mlp((4, 4, 2), 3), (x, y), TrainConfig(8, 12, 1e-3, 5))
        assert len(hist) == 12
        assert np.all(np.isfinite(hist))

    def test_batch_larger_than_dataset_allowed(self):
        x, y = self._toy(rows=5)
        model, hist = train(init_mlp((4, 2), 4), (x, y), TrainConfig(64, 3, 1e-3, 1))
        assert len(hist) == 3

    def test_labels_of_wrong_width_rejected_before_training(self):
        x, _ = self._toy(rows=5)
        model = init_mlp((4, 8, 2), 1)
        before = _flat_params(model)
        with pytest.raises(ContractError, match=r"labels must be \(5, 2\)"):
            train(model, (x, np.zeros((5, 1))), TrainConfig(2, 3, 1e-3, 0))
        assert np.array_equal(_flat_params(model), before)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError):
            train(init_mlp((4, 2), 0), (np.zeros((0, 4)), np.zeros((0, 2))),
                  TrainConfig(4, 2, 1e-3, 0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        x, y = self._toy()
        with pytest.raises(TrainingDivergedError):
            train(init_mlp((4, 8, 2), 5), (1e150 * x, 1e150 * y),
                  TrainConfig(8, 10, 1e300, 0))

    def test_steady_state_step_allocates_less_than_one_activation(self, monkeypatch):
        # read like perfbench's tracing: a wrapper around mlp.adam_step reads
        # the transient peak of each step (gather, backward, update) and resets it
        dims, batch_size = (16, 512, 512, 8), 64
        activation = batch_size * dims[1] * 8
        assert activation >= 256 * 1024
        rng = stream(0, "alloc")
        x = rng.standard_normal((200, dims[0]))
        y = rng.standard_normal((200, dims[-1]))
        transients = []
        inner = mlp.adam_step

        def traced(*args, **kwargs):
            result = inner(*args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            transients.append(peak - current)
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(mlp, "adam_step", traced)
        tracemalloc.start()
        try:
            train(init_mlp(dims, 0), (x, y), TrainConfig(batch_size, 3, 1e-3, 0))
        finally:
            tracemalloc.stop()
        assert len(transients) == 3 * 4
        assert max(transients[1:]) < activation

    def test_shuffle_is_function_of_seed_and_count_only(self):
        a = shuffle_order(7, 3, 50)
        b = shuffle_order(7, 3, 50)
        assert np.array_equal(a, b)
        assert not np.array_equal(shuffle_order(7, 4, 50), a)
        assert not np.array_equal(shuffle_order(8, 3, 50), a)
        assert sorted(a.tolist()) == list(range(50))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = init_mlp((6, 9, 4), 11)
        model.weights[0][0, 0] = np.pi
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dims == model.dims
        for a, b in zip(model.weights + model.biases,
                        loaded.weights + loaded.biases):
            assert np.array_equal(a, b)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(Exception):
            load_model(path)

    def test_activation_other_than_relu_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(init_mlp((2, 3, 1), 1), path)
        lines = path.read_text().splitlines()
        assert lines[2] == "activation relu"
        lines[2] = "activation tanh"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            load_model(path)

    _VALID = ["chanpred-mlp v1", "dims 2 1", "activation relu", "layer 0", "0.5 -0.5", "0.25"]

    @pytest.mark.parametrize("index, text, bad_line", [
        (4, "0.5 0.5 junk", 5),       # trailing junk on a parameter line
        (4, "0.5", 5),                # too few weights
        (5, "nan", 6),                # non-finite bias
        (1, "dims 2", 2),             # fewer than two dims
        (1, "dims 0 1", 2),           # zero-width layer
        (1, "dims 2 x", 2),
        (5, None, 6),                 # checkpoint ends before the biases
        (6, "layer 1", 7),            # content after the last layer
    ])
    def test_malformed_lines_name_the_line(self, tmp_path, index, text, bad_line):
        path = tmp_path / "model.txt"
        path.write_text("\n".join(self._VALID) + "\n")
        assert load_model(path).dims == (2, 1)
        lines = list(self._VALID)
        if text is None:
            del lines[index]
        elif index == len(lines):
            lines.append(text)
        else:
            lines[index] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match=rf"^line {bad_line}:"):
            load_model(path)


@st.composite
def _models(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        w = draw(st.lists(FINITE_DOUBLES, min_size=fan_in * fan_out, max_size=fan_in * fan_out))
        weights.append(np.array(w, dtype=np.float64).reshape(fan_out, fan_in))
        biases.append(np.array(draw(st.lists(FINITE_DOUBLES, min_size=fan_out, max_size=fan_out)),
                               dtype=np.float64))
    return MlpModel(weights, biases)


class TestCheckpointProperty:
    @settings(max_examples=100, deadline=None)
    @given(_models())
    def test_save_load_is_bit_exact(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "model.txt")
            save_model(model, path)
            loaded = load_model(path)
        assert loaded.dims == model.dims
        for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
            assert a.shape == b.shape
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=4),
           st.sampled_from(LINE_CORRUPTIONS), st.integers(0, 10 ** 6))
    def test_corrupted_line_is_named(self, dims, corruption, index):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "model.txt")
            save_model(init_mlp(dims, index), path)
            path.write_bytes(corrupt_line(path.read_bytes(), corruption, index))
            with pytest.raises(TraceFormatError, match=r"line \d+"):
                load_model(path)
