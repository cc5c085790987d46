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


def _n_parameters(dims: tuple) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))


def _layer_views(vec: np.ndarray, dims: tuple) -> tuple:
    """Tuples of per-layer (weights, biases) views of a vector laid out as MlpModel.params."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(dims, dims[1:]):
        stop = start + fan_out * fan_in
        weights.append(vec[start:stop].reshape(fan_out, fan_in))
        biases.append(vec[stop:stop + fan_out])
        start = stop + fan_out
    return tuple(weights), tuple(biases)


class MlpModel:
    """Layer dims and every parameter in one flat float64 vector `params`.

    `params` is laid out as a checkpoint lists it: w0, b0, w1, b1, ..., each
    weight (out x in) row-major. `weights` and `biases` are tuples of views
    into it, so a write to either is a write to `params`.
    """

    def __init__(self, dims, params: np.ndarray):
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) < 2 or min(self.dims) < 1:
            raise ContractError(f"need at least two dims, each >= 1, got {self.dims}")
        count = _n_parameters(self.dims)
        # one unit-stride block: the views, ADAM's slices and BLAS all read it as is
        if not (isinstance(params, np.ndarray) and params.dtype == np.float64
                and params.shape == (count,) and params.flags.c_contiguous):
            raise ContractError(f"params must be a C-contiguous float64 vector of the {count} "
                                f"parameters of dims {self.dims}")
        self.params = params
        self.weights, self.biases = _layer_views(params, self.dims)

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    def n_parameters(self) -> int:
        return self.params.size


def init_mlp(dims, rng: np.random.Generator | int) -> MlpModel:
    """Initialize an MLP with the given layer dims.

    Hidden weights are uniform(+-sqrt(6/fan_in)) (ReLU-appropriate), the output
    layer uniform(+-sqrt(6/(fan_in+fan_out))), biases zero. An int `rng` is
    the seed of the "mlp-init" stream.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or min(dims) < 1:
        raise ConfigError(f"need at least two dims, each >= 1, got {dims}")
    if isinstance(rng, (int, np.integer)):
        rng = stream(int(rng), "mlp-init")

    model = MlpModel(dims, np.zeros(_n_parameters(dims)))
    last = len(dims) - 2
    for i, w in enumerate(model.weights):
        fan_out, fan_in = w.shape
        limit = np.sqrt(6.0 / fan_in) if i < last else np.sqrt(6.0 / (fan_in + fan_out))
        # uniform(-limit, limit) computed in place as -limit + 2 limit u: the same bits
        rng.random(out=w)
        w *= 2.0 * limit
        w -= limit
    return model


def _forward(model: MlpModel, x: np.ndarray, outs=None) -> np.ndarray:
    """The last layer's output; hidden layers apply ReLU, the last is linear.

    Layer i writes into outs[i] (a fresh array when `outs` is None) and adds
    its bias and applies ReLU there in place, so `x` is never written.
    """
    a = x
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = np.matmul(a, w.T, out=None if outs is None else outs[i])
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
    return a


def _check_batch(model: MlpModel, x: np.ndarray, y: np.ndarray | None = None) -> None:
    """Raise unless features are (rows, dims[0]) and labels, if given, (rows, dims[-1])."""
    dims = model.dims
    if x.ndim != 2 or x.shape[1] != dims[0]:
        raise ContractError(f"features must be (rows, {dims[0]}), got {x.shape}")
    if y is not None and y.shape != (x.shape[0], dims[-1]):
        raise ContractError(f"labels must be ({x.shape[0]}, {dims[-1]}) to match "
                            f"{x.shape[0]} feature rows, got {y.shape}")


# Rows per predict block. OpenBLAS 0.3.31 computes a GEMM call of few rows on
# a small-matrix path that rounds differently: rows of a call of up to 12
# rows (paper jldt widths) or 37 rows (desk widths) differ by up to 7e-15 from
# the same rows in a large call. Blocks of 512-2048 rows match one call.
_PREDICT_ROWS = 1024


def predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Batched forward pass; rows are samples.

    Rows go through in blocks of _PREDICT_ROWS. Each hidden layer writes
    into one buffer that every block reuses, and the output layer into the
    block's rows of the result, so beyond the result only one block's
    activations are held. The last block takes the remainder: no GEMM sees
    fewer than _PREDICT_ROWS rows, and fewer than 2 * _PREDICT_ROWS rows
    are one call. A short tail block would take OpenBLAS's small-matrix
    path and change bits; this way the result equals one forward pass over
    all rows bit for bit.
    """
    features = np.asarray(features, dtype=np.float64)
    _check_batch(model, features)
    n = features.shape[0]
    n_blocks = max(n // _PREDICT_ROWS, 1)
    bounds = [*range(0, n_blocks * _PREDICT_ROWS, _PREDICT_ROWS), n]
    largest = n - bounds[-2]
    hidden = [np.empty((largest, d)) for d in model.dims[1:-1]]
    result = np.empty((n, model.dims[-1]))
    for start, stop in zip(bounds, bounds[1:]):
        outs = [h[:stop - start] for h in hidden] + [result[start:stop]]
        _forward(model, features[start:stop], outs)
    return result


def _mean_squared_norm(err: np.ndarray, squares: np.ndarray | None = None) -> float:
    """Mean over rows of each row's squared norm; `squares`, if given, takes err**2."""
    return float(np.mean(np.sum(np.square(err, out=squares), axis=1)))


def loss_mse(pred: np.ndarray, label: np.ndarray) -> float:
    """Mean over samples of the squared Euclidean distance per sample."""
    pred = np.atleast_2d(np.asarray(pred))
    label = np.atleast_2d(np.asarray(label))
    if pred.shape != label.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {label.shape}")
    return _mean_squared_norm(pred - label)


class _Workspace:
    """Every array one training step writes, for batches of up to `rows` rows.

    Holds the gathered batch, each layer's output, each layer's delta (the
    last one starts as the output error), the hidden layers' ReLU masks and
    `grad`, laid out as the model's params, with per-layer views `grad_w` and
    `grad_b`. A batch of r rows uses the C-contiguous prefixes [:r].
    """

    def __init__(self, dims, rows: int):
        self.dims, self.rows = tuple(dims), rows
        widths = self.dims[1:]
        self.x = np.empty((rows, self.dims[0]))
        self.y = np.empty((rows, self.dims[-1]))
        self.outputs = [np.empty((rows, d)) for d in widths]
        self.deltas = [np.empty((rows, d)) for d in widths]
        self.masks = [np.empty((rows, d), dtype=bool) for d in widths[:-1]]
        self.grad = np.empty(_n_parameters(self.dims))
        self.grad_w, self.grad_b = _layer_views(self.grad, self.dims)


def backward(model: MlpModel, batch, work: _Workspace | None = None):
    """Exact gradients of loss_mse on `batch` = (features, labels).

    Returns (grad, loss), `grad` laid out as the model's params. ReLU
    subgradient at 0 is 0. Every intermediate and the gradient live in
    `work` (a fresh one when None), so the returned `grad` is `work.grad`:
    the next call with the same `work` overwrites it.
    """
    x, y = batch
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    _check_batch(model, x, y)
    n = x.shape[0]
    if work is None:
        work = _Workspace(model.dims, n)
    elif work.dims != model.dims or work.rows < n:
        raise ContractError(f"workspace for dims {work.dims} and {work.rows} rows cannot "
                            f"hold a batch of {n} rows for dims {model.dims}")
    outputs = [o[:n] for o in work.outputs]
    _forward(model, x, outputs)
    err = np.subtract(outputs[-1], y, out=work.deltas[-1][:n])
    # the prediction is not read again, so its array takes the squares
    loss = _mean_squared_norm(err, squares=outputs[-1])

    delta = np.divide(np.multiply(2.0, err, out=err), n, out=err)
    activations = [x, *outputs]
    for i in range(model.n_layers - 1, -1, -1):
        np.matmul(delta.T, activations[i], out=work.grad_w[i])
        np.sum(delta, axis=0, out=work.grad_b[i])
        if i > 0:
            # a hidden output max(z, 0) is positive exactly where z is; the
            # float x bool product keeps the sign of a zeroed delta
            hidden = np.matmul(delta, model.weights[i], out=work.deltas[i - 1][:n])
            mask = np.greater(activations[i], 0.0, out=work.masks[i - 1][:n])
            delta = np.multiply(hidden, mask, out=hidden)
    return work.grad, loss


# Elements per ADAM block: the block's params, grad, m, v and two scratch
# slices (6 x 256 KB) stay in a 2 MB L2 through the update's passes.
_ADAM_BLOCK = 2 ** 15


@dataclass
class AdamState:
    """First and second moments laid out as the model's params, the step
    counter, and two scratch arrays of one ADAM block that adam_step reuses."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    learning_rate: float = 1e-3
    _scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size = min(self.m.size, _ADAM_BLOCK)
        self._scratch = (np.empty(size), np.empty(size))

    @classmethod
    def for_model(cls, model: MlpModel, learning_rate: float = 1e-3) -> "AdamState":
        return cls(np.zeros_like(model.params), np.zeros_like(model.params),
                   learning_rate=learning_rate)


def adam_step(model: MlpModel, grad, state: AdamState):
    """One ADAM update with bias correction; mutates model and state in place.

    With b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON:
    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;
    theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps).

    model.params is updated _ADAM_BLOCK elements at a time from `grad`, which
    is laid out like it and only read. Every product, quotient and root is
    written into the state's scratch arrays, in the order the formula above
    evaluates them, so the result is bit for bit that of the plain expression.
    From step 356 on, 1-b1^t rounds to 1.0 and the division by it, which
    changes no bit, is skipped.
    """
    params = model.params
    if np.shape(grad) != params.shape:
        raise ContractError(f"gradient shape {np.shape(grad)} is not the params' ({params.size},)")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    flat1, flat2 = state._scratch
    for start in range(0, params.size, _ADAM_BLOCK):
        block = slice(start, start + _ADAM_BLOCK)
        p, g, mb, vb = params[block], grad[block], state.m[block], state.v[block]
        s1, s2 = flat1[:p.size], flat2[:p.size]
        mb *= ADAM_BETA1
        mb += np.multiply(1.0 - ADAM_BETA1, g, out=s1)
        vb *= ADAM_BETA2
        vb += np.multiply(1.0 - ADAM_BETA2, np.square(g, out=s1), out=s1)
        m_hat = mb if c1 == 1.0 else np.divide(mb, c1, out=s1)
        np.multiply(state.learning_rate, m_hat, out=s1)
        np.add(np.sqrt(np.divide(vb, c2, out=s2), out=s2), ADAM_EPSILON, out=s2)
        p -= np.divide(s1, s2, out=s1)
    return model, state


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    epochs: int = 1000
    learning_rate: float = 1e-3
    shuffle_seed: int = 0

    def validate(self) -> "TrainConfig":
        if self.batch_size < 1 or self.epochs < 1 or not 0 <= self.learning_rate < np.inf:
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
    work = _Workspace(model.dims, min(cfg.batch_size, n))
    history = []
    for epoch in range(cfg.epochs):
        order = shuffle_order(cfg.shuffle_seed, epoch, n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            # mode="raise" would gather into a temporary; order holds only valid rows
            batch = (np.take(x, idx, axis=0, out=work.x[:idx.size], mode="clip"),
                     np.take(y, idx, axis=0, out=work.y[:idx.size], mode="clip"))
            grad, loss = backward(model, batch, work)
            batch_losses.append(loss)
            adam_step(model, grad, state)
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
    if not np.all(np.isfinite(model.params)):
        raise ContractError("cannot save a model with non-finite parameters")
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

    parts = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        cursor = 3 + 3 * i
        if cursor >= len(lines) or lines[cursor] != f"layer {i}":
            raise TraceFormatError(f"line {cursor + 1}: expected 'layer {i}'")
        parts.append(_parse_values(lines, cursor + 1, fan_out * fan_in, f"layer {i} weights"))
        parts.append(_parse_values(lines, cursor + 2, fan_out, f"layer {i} biases"))
    end = 3 + 3 * (len(dims) - 1)
    if len(lines) > end:
        raise TraceFormatError(f"line {end + 1}: unexpected content after the last layer")
    # every line is parsed before the vector is made, so a huge dims count fails on its line
    return MlpModel(dims, np.concatenate(parts))
