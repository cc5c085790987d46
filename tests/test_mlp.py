"""MLP internals against hand computations, finite differences, and closed forms."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from chanpred.mlp import shuffle_order
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
