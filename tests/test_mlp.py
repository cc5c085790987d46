"""MLP internals against hand computations, finite differences, and closed forms."""

import re
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


def _parameters(weights, biases):
    """[w0, b0, w1, b1, ...]: one array per parameter, in the order of MlpModel.params."""
    return [a for pair in zip(weights, biases) for a in pair]


def _flat(arrays):
    return np.concatenate([a.reshape(-1) for a in arrays])


def _model(weights, biases):
    dims = (weights[0].shape[1],) + tuple(w.shape[0] for w in weights)
    return MlpModel(dims, _flat(_parameters(weights, biases)))


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


class TestLayout:
    """MlpModel.params is the only storage; weights and biases are views of it."""

    # dims (3, 4, 2): w0 (4 x 3), b0 (4), w1 (2 x 4), b1 (2) = 26 parameters
    @pytest.mark.parametrize("params", [
        np.zeros(25), np.zeros(27), np.zeros((1, 26)), np.zeros(26, dtype=np.float32),
        np.zeros(2 * 26)[::2], list(np.zeros(26)),
    ], ids=["short", "long", "2-d", "float32", "strided", "list"])
    def test_params_must_be_a_contiguous_float64_vector(self, params):
        with pytest.raises(ContractError, match=r"float64 vector of the 26 parameters"):
            MlpModel((3, 4, 2), params)

    def test_views_follow_the_checkpoint_order(self):
        model = MlpModel((3, 4, 2), np.arange(26.0))
        assert np.array_equal(model.weights[0], np.arange(12.0).reshape(4, 3))
        assert np.array_equal(model.biases[0], np.arange(12.0, 16.0))
        assert np.array_equal(model.weights[1], np.arange(16.0, 24.0).reshape(2, 4))
        assert np.array_equal(model.biases[1], np.arange(24.0, 26.0))
        model.weights[1][1, 3] = -1.0
        assert model.params[23] == -1.0

    def test_layers_cannot_be_rebound(self):
        # rebinding a layer would detach it from params
        model = init_mlp((3, 4, 2), 0)
        with pytest.raises(TypeError):
            model.weights[0] = np.zeros((4, 3))

    def test_workspace_gradients_are_views_of_one_vector(self):
        work = mlp._Workspace((3, 4, 2), 5)
        work.grad[:] = np.arange(26.0)
        assert np.array_equal(_flat(_parameters(work.grad_w, work.grad_b)), work.grad)
        assert all(np.shares_memory(g, work.grad) for g in work.grad_w + work.grad_b)


class TestForward:
    def test_zero_parameters_give_zero(self):
        model = init_mlp((3, 4, 2), 0)
        model.biases[1][:] = 1.0
        model.params[:] = 0.0
        assert all(not p.any() for p in model.weights + model.biases)
        assert np.array_equal(predict(model, np.ones(3)[None])[0], np.zeros(2))

    def test_single_layer_identity(self):
        model = _model([np.eye(3)], [np.zeros(3)])
        x = np.array([0.5, -1.0, 2.0])
        assert np.array_equal(predict(model, x[None])[0], x)

    def test_hand_built_2_2_1(self):
        # by hand: z1 = (-0.25, 1.05) -> relu (0, 1.05)
        #          out = 0.5*0 - 0.6*1.05 + 0.2 = -0.43
        model = _model(
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
        grad, loss = backward(model, (x, y))
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = stream(seed, "gradcheck")
        dims = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(2, 5)))]
        model = init_mlp(dims, seed)
        x = rng.standard_normal((4, dims[0]))
        y = rng.standard_normal((4, dims[-1]))
        grad, _ = backward(model, (x, y))
        step = 1e-6
        params = model.params
        for idx, g in enumerate(grad.tolist()):
            orig = params[idx]
            params[idx] = orig + step
            up = loss_mse(predict(model, x), y)
            params[idx] = orig - step
            down = loss_mse(predict(model, x), y)
            params[idx] = orig
            fd = (up - down) / (2 * step)
            assert abs(g - fd) <= 1e-4 * max(abs(g), abs(fd), 1e-6)

    def test_linear_network_closed_form(self):
        # no hidden layer: gradient of mean ||Wx+b-y||^2 is 2 E^T X / B
        rng = stream(3, "lin")
        x = rng.standard_normal((12, 5))
        y = rng.standard_normal((12, 2))
        model = init_mlp((5, 2), 3)
        grad, _ = backward(model, (x, y))
        err = predict(model, x) - y
        assert np.allclose(grad[:10].reshape(2, 5), 2.0 * err.T @ x / 12, atol=1e-12)
        assert np.allclose(grad[10:], 2.0 * err.sum(axis=0) / 12, atol=1e-12)

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
        assert backward(model, (x, y))[1] == loss_mse(predict(model, x), y)

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
        # the next call with the same workspace overwrites the returned gradient
        model = init_mlp((3, 4, 2), 0)
        rng = stream(2, "work")
        first, second = [(rng.standard_normal((5, 3)), rng.standard_normal((5, 2))) for _ in "ab"]
        work = mlp._Workspace(model.dims, 8)
        grad, _ = backward(model, first, work)
        assert grad is work.grad
        kept = grad.copy()
        backward(model, second, work)
        ref_w, ref_b, _ = _reference_backward(model, *second)
        assert np.array_equal(grad, _flat(_parameters(ref_w, ref_b)))
        assert not np.array_equal(grad, kept)


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
        return MlpModel((1, 1), np.array([theta0, 0.0]))

    @pytest.mark.parametrize("shape", [(25,), (27,), (1,), (2, 13), (26, 1)],
                             ids=["short", "long", "one-entry", "2-d", "column"])
    def test_gradient_of_wrong_shape_rejected(self, shape):
        # one entry would broadcast into every parameter
        model = init_mlp((3, 4, 2), 0)
        before = model.params.copy()
        state = AdamState.for_model(model)
        with pytest.raises(ContractError, match=rf"gradient shape {re.escape(str(shape))} "
                                                r"is not the params' \(26,\)"):
            adam_step(model, np.ones(shape), state)
        assert np.array_equal(model.params, before)
        assert state.t == 0

    def test_first_step_magnitude(self):
        # t=1 bias correction makes the update lr*g/(|g|+eps) ~ lr*(1-2e-8)
        model = self._scalar_model(0.0)
        state = AdamState.for_model(model, learning_rate=1e-3)
        adam_step(model, np.array([0.5, 0.0]), state)
        update = -model.weights[0][0, 0]
        expected = 1e-3 * 0.5 / (0.5 + 1e-8)
        assert abs(update - expected) < 1e-15
        assert update == pytest.approx(1e-3, rel=1e-7)

    def test_zero_gradient_leaves_parameters(self):
        model = init_mlp((3, 4, 2), 0)
        before = model.params.copy()
        state = AdamState.for_model(model)
        adam_step(model, np.zeros_like(model.params), state)
        assert np.array_equal(model.params, before)

    def test_three_step_trace_vs_reference(self):
        theta0, g = 0.3, 0.5
        model = self._scalar_model(theta0)
        state = AdamState.for_model(model, learning_rate=1e-3)
        observed = []
        for _ in range(3):
            adam_step(model, np.array([g, 0.0]), state)
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
    """(flat gradient, its per-parameter pieces); odd steps pass the flat one strided."""
    def draw(shape):
        # magnitudes over seven decades
        return rng.standard_normal(shape) * 10.0 ** int(rng.integers(-4, 3))
    pieces = [draw(p.shape) for p in _parameters(model.weights, model.biases)]
    flat = _flat(pieces)
    if step % 2:
        flat = np.repeat(flat, 2)[::2]
    return flat, pieces


def _reference_state(model):
    """Per-parameter copies of the model and per-parameter zero moments."""
    ref = [p.copy() for p in _parameters(model.weights, model.biases)]
    return ref, [(np.zeros_like(p), np.zeros_like(p)) for p in ref]


def _assert_matches_reference(model, state, ref, ref_moments):
    assert np.array_equal(model.params, _flat(ref))
    assert np.array_equal(state.m, _flat([m for m, _ in ref_moments]))
    assert np.array_equal(state.v, _flat([v for _, v in ref_moments]))


class TestBitIdentity:
    """The buffered update and the in-place forward equal their plain expressions bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(dims=_DIMS, seed=st.integers(0, 2 ** 16))
    @example(dims=[5, 2], seed=0)
    @example(dims=[3, 1, 1, 2], seed=1)
    def test_adam_matches_plain_expression(self, dims, seed):
        model = init_mlp(dims, seed)
        ref, ref_moments = _reference_state(model)
        state = AdamState.for_model(model, learning_rate=1e-2)
        rng = stream(seed, "adam-bits")
        for t in range(1, 26):
            grad, pieces = _random_grads(model, rng, t)
            kept = grad.copy()
            adam_step(model, grad, state)
            assert np.array_equal(grad, kept)
            _reference_adam_step(ref, pieces, ref_moments, 1e-2, t)
        _assert_matches_reference(model, state, ref, ref_moments)

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
        grad, loss = backward(model, (x, y))
        ref_w, ref_b, ref_loss = _reference_backward(model, x, y)
        assert loss == ref_loss
        assert np.array_equal(grad, _flat(_parameters(ref_w, ref_b)))
        assert np.array_equal(x, x_kept)

    def test_adam_across_block_boundary(self):
        # 4.7 blocks: full blocks, then a short last one that holds the end of
        # the weight and the whole bias
        model = init_mlp([300, 512], 4)
        boundary = model.weights[0].size
        assert boundary // _ADAM_BLOCK == model.params.size // _ADAM_BLOCK
        assert boundary % _ADAM_BLOCK and model.params.size % _ADAM_BLOCK
        ref, ref_moments = _reference_state(model)
        state = AdamState.for_model(model, learning_rate=1e-2)
        rng = stream(4, "adam-blocks")
        for t in range(1, 6):
            grad, pieces = _random_grads(model, rng, t)
            adam_step(model, grad, state)
            _reference_adam_step(ref, pieces, ref_moments, 1e-2, t)
        _assert_matches_reference(model, state, ref, ref_moments)

    def test_adam_past_unit_bias_correction(self):
        # 1 - b1^t rounds to 1.0 from step 356 on, where adam_step skips the division
        assert 1.0 - ADAM_BETA1 ** 355 < 1.0 == 1.0 - ADAM_BETA1 ** 356
        model = init_mlp([3, 4, 2], 6)
        ref, ref_moments = _reference_state(model)
        state = AdamState.for_model(model, learning_rate=1e-2)
        rng = stream(6, "adam-late")
        for t in range(1, 401):
            grad, pieces = _random_grads(model, rng, t)
            adam_step(model, grad, state)
            _reference_adam_step(ref, pieces, ref_moments, 1e-2, t)
        _assert_matches_reference(model, state, ref, ref_moments)

    @pytest.mark.parametrize("rows, batch_size", [(20, 8), (5, 64)],
                             ids=["short-last-batch", "rows-below-batch"])
    def test_train_matches_reference_loop(self, rows, batch_size):
        dims, cfg = (4, 8, 6, 3), TrainConfig(batch_size, 6, 1e-2, 9)
        rng = stream(rows, "train-bits")
        x = rng.standard_normal((rows, dims[0]))
        y = rng.standard_normal((rows, dims[-1]))
        model, history = train(init_mlp(dims, 1), (x, y), cfg)

        ref = init_mlp(dims, 1)
        params = _parameters(ref.weights, ref.biases)
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
                _reference_adam_step(params, _parameters(gw, gb), moments, cfg.learning_rate, t)
            ref_history.append(float(np.mean(losses)))
        assert np.array_equal(history, ref_history)
        assert np.array_equal(model.params, ref.params)

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
            for grad, _ in grads[d]:
                adam_step(model, grad, state)
            alone[d] = model.params.copy()
        models = {d: init_mlp(d, 0) for d in dims}
        states = {d: AdamState.for_model(models[d]) for d in dims}
        for step in range(10):
            for d in dims:
                adam_step(models[d], grads[d][step][0], states[d])
        for d in dims:
            assert np.array_equal(models[d].params, alone[d])


_B = mlp._PREDICT_ROWS
_DESK_DIMS = (96, 512, 512, 32)


class TestPredictBlocks:
    """predict walks row blocks and still equals one unblocked forward pass."""

    @pytest.mark.parametrize("rows", [2 * _B - 1, 2 * _B, 2 * _B + 1, 3 * _B + 1, 5 * _B + 3])
    def test_blocks_match_one_forward_pass(self, rows):
        # a short tail block (2B + 1 split as B, B, 1) would take OpenBLAS's
        # small-matrix path and change bits; the last block takes the remainder
        model = init_mlp(_DESK_DIMS, 4)
        rng = stream(rows, "predict-blocks")
        for b in model.biases:
            b[:] = rng.standard_normal(b.shape)
        x = rng.standard_normal((rows, _DESK_DIMS[0]))
        x_kept = x.copy()
        assert np.array_equal(predict(model, x), mlp._forward(model, x))
        assert np.array_equal(x, x_kept)

    def test_peak_memory_is_the_result_and_one_block(self):
        # beyond the result, each hidden layer holds one activation of the
        # largest block: 5B + 3 rows go as four blocks of B and one of B + 3
        rows = 5 * _B + 3
        model = init_mlp(_DESK_DIMS, 0)
        x = stream(0, "predict-memory").standard_normal((rows, _DESK_DIMS[0]))
        tracemalloc.start()
        try:
            result = predict(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        activations = 2 * (_B + 3) * _DESK_DIMS[1] * 8
        # numpy's broadcast bias add takes a 64 kB ufunc buffer
        assert peak < result.nbytes + activations + 128 * 1024


class TestTrain:
    def _toy(self, rows=20, din=4, dout=2, seed=0):
        rng = stream(seed, "toy")
        x = rng.standard_normal((rows, din))
        a = rng.standard_normal((dout, din))
        return x, x @ a.T

    def test_zero_learning_rate_is_identity(self):
        x, y = self._toy()
        model = init_mlp((4, 8, 2), 1)
        before = model.params.copy()
        model, _ = train(model, (x, y), TrainConfig(8, 5, 0.0, 3))
        assert np.array_equal(model.params, before)

    @pytest.mark.parametrize("learning_rate", [float("nan"), float("inf"), -1e-3])
    def test_learning_rate_must_be_finite_and_non_negative(self, learning_rate):
        # a NaN or infinite rate would train every parameter to NaN
        x, y = self._toy(rows=8)
        model = init_mlp((4, 8, 2), 1)
        before = model.params.copy()
        with pytest.raises(ConfigError, match="invalid training config"):
            train(model, (x, y), TrainConfig(8, 1, learning_rate, 0))
        assert np.array_equal(model.params, before)

    def test_deterministic(self):
        x, y = self._toy()
        runs = []
        for _ in range(2):
            model = init_mlp((4, 8, 2), 1)
            model, hist = train(model, (x, y), TrainConfig(8, 10, 1e-3, 3))
            runs.append((hist, model.params.copy()))
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
        before = model.params.copy()
        with pytest.raises(ContractError, match=r"labels must be \(5, 2\)"):
            train(model, (x, np.zeros((5, 1))), TrainConfig(2, 3, 1e-3, 0))
        assert np.array_equal(model.params, before)

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
        assert np.array_equal(loaded.params, model.params)

    def test_non_finite_model_not_saved(self, tmp_path):
        model = init_mlp((2, 3, 1), 1)
        model.params[4] = np.inf
        with pytest.raises(ContractError, match="non-finite"):
            save_model(model, tmp_path / "model.txt")
        assert not (tmp_path / "model.txt").exists()

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
        (1, "dims 2 100000000000", 5),  # a count no vector is allocated for
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
    count = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))
    params = draw(st.lists(FINITE_DOUBLES, min_size=count, max_size=count))
    return MlpModel(dims, np.array(params, dtype=np.float64))


class TestCheckpointProperty:
    @settings(max_examples=100, deadline=None)
    @given(_models())
    def test_save_load_is_bit_exact(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "model.txt")
            save_model(model, path)
            loaded = load_model(path)
        assert loaded.dims == model.dims
        assert np.array_equal(loaded.params.view(np.uint64), model.params.view(np.uint64))

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
