"""From-scratch fully connected MLP: forward, backprop, ADAM, training loop.

ReLU hidden layers, linear output, MSE cost (sum over output coordinates,
mean over the batch). Everything is float64 so gradients can be checked
against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, TraceFormatError, TrainingDivergedError
from .rng import stream

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class MlpModel:
    """Layer weights (out x in) and biases."""

    weights: list
    biases: list

    @property
    def dims(self) -> tuple:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def n_parameters(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def validate(self) -> "MlpModel":
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ContractError("model needs matching, non-empty weight/bias lists")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ContractError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ContractError(f"layer {i}: input dim {w.shape[1]} does not match "
                                    f"previous output {self.weights[i - 1].shape[0]}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ContractError(f"layer {i}: non-finite parameters")
        return self


def init_mlp(dims, rng: np.random.Generator | int) -> MlpModel:
    """Initialize an MLP with the given layer dims.

    Hidden weights are uniform(+-sqrt(6/fan_in)) (ReLU-appropriate), the output
    layer uniform(+-sqrt(6/(fan_in+fan_out))), biases zero. An int `rng` is
    the seed of the "mlp-init" stream.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ConfigError(f"need at least input and output dims, got {dims}")
    if any(d < 1 for d in dims):
        raise ConfigError(f"all layer dims must be >= 1, got {dims}")
    if isinstance(rng, (int, np.integer)):
        rng = stream(int(rng), "mlp-init")

    weights, biases = [], []
    last = len(dims) - 2
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        limit = np.sqrt(6.0 / fan_in) if i < last else np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases).validate()


def _layer_outputs(model: MlpModel, x: np.ndarray):
    """Yield each layer's output in turn: ReLU on hidden layers, linear on the last.

    A generator, so a caller that wants only the prediction holds one layer's
    arrays at a time and backward can keep them all. Each layer adds its bias
    and applies ReLU in place on the fresh array its matmul returns, so the
    caller's features and earlier yielded outputs are never written.
    """
    a = x
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w.T
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
        yield a


def _check_batch(model: MlpModel, x: np.ndarray, y: np.ndarray | None = None) -> None:
    """Raise unless features are (rows, dims[0]) and labels, if given, (rows, dims[-1])."""
    dims = model.dims
    if x.ndim != 2 or x.shape[1] != dims[0]:
        raise ContractError(f"features must be (rows, {dims[0]}), got {x.shape}")
    if y is not None and y.shape != (x.shape[0], dims[-1]):
        raise ContractError(f"labels must be ({x.shape[0]}, {dims[-1]}) to match "
                            f"{x.shape[0]} feature rows, got {y.shape}")


def predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Batched forward pass; rows are samples."""
    features = np.asarray(features, dtype=np.float64)
    _check_batch(model, features)
    for out in _layer_outputs(model, features):
        pass
    return out


def _mean_squared_norm(err: np.ndarray) -> float:
    return float(np.mean(np.sum(err ** 2, axis=1)))


def loss_mse(pred: np.ndarray, label: np.ndarray) -> float:
    """Mean over samples of the squared Euclidean distance per sample."""
    pred = np.atleast_2d(np.asarray(pred))
    label = np.atleast_2d(np.asarray(label))
    if pred.shape != label.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {label.shape}")
    return _mean_squared_norm(pred - label)


def backward(model: MlpModel, batch):
    """Exact gradients of loss_mse on `batch` = (features, labels).

    Returns (grad_weights, grad_biases, loss). ReLU subgradient at 0 is 0.
    """
    x, y = batch
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    _check_batch(model, x, y)
    n = x.shape[0]
    activations = [x, *_layer_outputs(model, x)]
    err = activations[-1] - y
    loss = _mean_squared_norm(err)

    grad_w = [None] * model.n_layers
    grad_b = [None] * model.n_layers
    delta = 2.0 * err / n
    for i in range(model.n_layers - 1, -1, -1):
        grad_w[i] = delta.T @ activations[i]
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            # a hidden output max(z, 0) is positive exactly where z is
            delta = (delta @ model.weights[i]) * (activations[i] > 0)
    return grad_w, grad_b, loss


@dataclass
class AdamState:
    """First/second moments per parameter, the step counter, and two flat
    scratch arrays of the largest parameter's size that adam_step reuses."""

    m_w: list
    v_w: list
    m_b: list
    v_b: list
    t: int = 0
    learning_rate: float = 1e-3
    _scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size = max((m.size for m in self.m_w + self.m_b), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    @classmethod
    def for_model(cls, model: MlpModel, learning_rate: float = 1e-3) -> "AdamState":
        return cls(
            m_w=[np.zeros_like(w) for w in model.weights],
            v_w=[np.zeros_like(w) for w in model.weights],
            m_b=[np.zeros_like(b) for b in model.biases],
            v_b=[np.zeros_like(b) for b in model.biases],
            learning_rate=learning_rate)


def adam_step(model: MlpModel, grads, state: AdamState):
    """One ADAM update with bias correction; mutates model and state in place.

    With b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON:
    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).

    Every product, quotient and root is written into the state's scratch
    arrays, in the order the formula above evaluates them, so the result is
    bit for bit that of the plain expression. `grads` is only read.
    """
    grad_w, grad_b = grads
    if len(grad_w) != model.n_layers or len(grad_b) != model.n_layers:
        raise ContractError("gradient list lengths do not match the model")
    for i in range(model.n_layers):
        for name, params, grad in (("w", model.weights[i], grad_w[i]),
                                   ("b", model.biases[i], grad_b[i])):
            if np.shape(grad) != params.shape:
                raise ContractError(f"layer {i} {name}: gradient shape {np.shape(grad)} "
                                    f"does not match parameter shape {params.shape}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    flat1, flat2 = state._scratch
    for i in range(model.n_layers):
        for params, grad, m, v in (
            (model.weights[i], grad_w[i], state.m_w[i], state.v_w[i]),
            (model.biases[i], grad_b[i], state.m_b[i], state.v_b[i]),
        ):
            s1 = flat1[:params.size].reshape(params.shape)
            s2 = flat2[:params.size].reshape(params.shape)
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, grad, out=s1)
            v *= ADAM_BETA2
            v += np.multiply(1.0 - ADAM_BETA2, np.square(grad, out=s1), out=s1)
            np.multiply(state.learning_rate, np.divide(m, c1, out=s1), out=s1)
            np.add(np.sqrt(np.divide(v, c2, out=s2), out=s2), ADAM_EPSILON, out=s2)
            params -= np.divide(s1, s2, out=s1)
    return model, state


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    epochs: int = 1000
    learning_rate: float = 1e-3
    shuffle_seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.batch_size < 1 or self.epochs < 1 or self.learning_rate < 0:
            raise ConfigError(f"invalid training config {self}")
        return self


def shuffle_order(shuffle_seed: int, epoch: int, n_rows: int) -> np.ndarray:
    """Row permutation for one epoch; a pure function of (seed, epoch, count)."""
    return stream(shuffle_seed, "shuffle", epoch).permutation(n_rows)


def train(model: MlpModel, dataset, cfg: TrainConfig):
    """Mini-batch ADAM training on a (features, labels) pair.

    Each epoch reshuffles rows with shuffle_order and walks them in sequential
    mini-batches (the last batch may be short). The returned history holds one
    mean mini-batch loss per epoch; a non-finite loss raises immediately.
    """
    cfg.validate()
    x, y = dataset
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] == 0:
        raise ContractError("cannot train on an empty dataset")
    _check_batch(model, x, y)

    state = AdamState.for_model(model, learning_rate=cfg.learning_rate)
    n = x.shape[0]
    history = []
    for epoch in range(cfg.epochs):
        order = shuffle_order(cfg.shuffle_seed, epoch, n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grad_w, grad_b, loss = backward(model, (x[idx], y[idx]))
            batch_losses.append(loss)
            adam_step(model, (grad_w, grad_b), state)
        epoch_loss = float(np.mean(batch_losses))
        if not np.isfinite(epoch_loss):
            raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
        history.append(epoch_loss)
    return model, history


# ---------------------------------------------------------------------------
# Checkpoints (plain text; format documented in docs/checkpoint_format.md)
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "chanpred-mlp v1"
_CKPT_ACTIVATION = "activation relu"   # hidden layers are always ReLU


def save_model(model: MlpModel, path) -> None:
    """Write dims and parameters to a plain-text checkpoint (lossless)."""
    model.validate()
    with open(path, "w") as f:
        f.write(_CKPT_MAGIC + "\n")
        f.write("dims " + " ".join(str(d) for d in model.dims) + "\n")
        f.write(_CKPT_ACTIVATION + "\n")
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            f.write(f"layer {i}\n")
            np.savetxt(f, w.reshape(1, -1), fmt="%.17g")
            np.savetxt(f, b.reshape(1, -1), fmt="%.17g")


def _parse_values(lines: list, index: int, count: int, what: str) -> np.ndarray:
    """`count` finite floats from line `index` (0-based); errors name the line."""
    if index >= len(lines):
        raise TraceFormatError(f"line {index + 1}: checkpoint ends before the {what}")
    try:
        values = np.array([float(t) for t in lines[index].split()])
    except ValueError as exc:
        raise TraceFormatError(f"line {index + 1}: bad {what}: {exc}") from exc
    if values.size != count:
        raise TraceFormatError(f"line {index + 1}: expected {count} {what}, got {values.size}")
    if not np.all(np.isfinite(values)):
        raise TraceFormatError(f"line {index + 1}: non-finite {what}")
    return values


def load_model(path) -> MlpModel:
    """Read a checkpoint written by save_model; errors name the offending line."""
    with open(path, errors="replace") as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != _CKPT_MAGIC:
        raise TraceFormatError(f"line 1: expected {_CKPT_MAGIC!r}")
    tokens = lines[1].split() if len(lines) > 1 else []
    if tokens[:1] != ["dims"]:
        raise TraceFormatError("line 2: expected 'dims <d0> <d1> ...'")
    try:
        dims = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise TraceFormatError(f"line 2: bad dims: {exc}") from exc
    if len(dims) < 2 or min(dims) < 1:
        raise TraceFormatError(f"line 2: need at least two dims, each >= 1, got {dims}")
    activation = lines[2] if len(lines) > 2 else None
    if activation != _CKPT_ACTIVATION:
        raise TraceFormatError(f"line 3: expected {_CKPT_ACTIVATION!r}, got {activation!r}")

    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        cursor = 3 + 3 * i
        if cursor >= len(lines) or lines[cursor] != f"layer {i}":
            raise TraceFormatError(f"line {cursor + 1}: expected 'layer {i}'")
        w = _parse_values(lines, cursor + 1, fan_out * fan_in, f"layer {i} weights")
        weights.append(w.reshape(fan_out, fan_in))
        biases.append(_parse_values(lines, cursor + 2, fan_out, f"layer {i} biases"))
    end = 3 + 3 * len(weights)
    if len(lines) > end:
        raise TraceFormatError(f"line {end + 1}: unexpected content after the last layer")
    return MlpModel(weights, biases).validate()
