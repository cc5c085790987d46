"""End-to-end experiments: per-subcarrier, pooled, and antenna-domain training.

At a fixed (SNR, seed) every approach consumes the identical estimated tensor;
NMSE is always scored in the subcarrier domain against the true channel at the
predicted block, averaged over subcarriers and test blocks. Those label
blocks are the only true channels a cell reads, a chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    ChannelConfig,
    ChannelTensor,
    DOMAIN_ANTENNA,
    DOMAIN_SUBCARRIER,
    PROVENANCE_ESTIMATED,
    PROVENANCE_TRUE,
    SynthesizedLink,
    draw_paths,
    series_view,
)
from .datasets import (DatasetSpec, LazyWindows, assemble_predictions, build_series_dataset,
                       fit_scale)
from .errors import ConfigError, ContractError
from .estimation import PilotScheme, estimate_trace
from .mlp import TrainConfig, init_mlp, predict, train
from .rng import derive_seed, stream

# CSV label -> (series domain, every series pooled in one job, ExperimentConfig field
# of the training blocks each series spends): the time overhead of collecting them
APPROACHES = {
    "sl": (DOMAIN_SUBCARRIER, False, "n_tr"),
    "sl_small": (DOMAIN_SUBCARRIER, False, "n_tr_prime"),
    "jl": (DOMAIN_SUBCARRIER, True, "n_tr_prime"),
    "jldt": (DOMAIN_ANTENNA, True, "n_tr_prime"),
}
PERSISTENCE = "persistence"   # the label of snr_sweep's baseline cells, in no APPROACHES row


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: link, pilots, dataset split, training, seeds."""

    channel: ChannelConfig = ChannelConfig()
    tau: int = 4
    pilot_column: int = 1
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0)
    n0: int = 3
    n_tr_prime: int = 20
    n_gap: int = 1500
    n_te: int = 200
    hidden: tuple = (512, 512)
    batch_size: int = 128
    learning_rate: float = 1e-3
    epochs: int = 1000
    seeds: tuple = (1, 2, 3)
    approaches: tuple = tuple(APPROACHES)

    @property
    def n_tr(self) -> int:
        """The sl training budget per subcarrier, n_tr_prime * L (N_tr = L * N'_tr)."""
        return self.n_tr_prime * self.channel.n_subcarriers

    def validate(self) -> "ExperimentConfig":
        self.channel.validate()
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if not 0 <= self.pilot_column < self.tau:
            raise ConfigError(f"pilot_column must be in [0, tau), got {self.pilot_column}")
        if not self.snr_db:
            raise ConfigError("snr_db list must be non-empty")
        if self.n_tr_prime < 1:   # before the spec, which would name the derived n_tr
            raise ConfigError(f"n_tr_prime must be >= 1, got {self.n_tr_prime}")
        self.dataset_spec().validate()   # n_tr >= n_tr_prime, so the jl spec holds too
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden layer sizes must be >= 1, got {self.hidden}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not self.seeds:
            raise ConfigError("seeds list must be non-empty")
        unknown = set(self.approaches) - set(APPROACHES)
        if unknown or not self.approaches:
            raise ConfigError(f"approaches must be a non-empty subset of {tuple(APPROACHES)}, "
                              f"got {self.approaches}")
        for key in ("snr_db", "seeds", "approaches"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ConfigError(f"{key} has duplicate entries: {list(values)}")
        return self

    def dataset_spec(self) -> DatasetSpec:
        return DatasetSpec(self.n0, self.n_tr, self.n_te, self.n_gap)

    @property
    def required_blocks(self) -> int:
        return self.dataset_spec().min_blocks

    @property
    def head_blocks(self) -> int:
        """h: the training head a cell keeps, blocks 1 .. h, which every approach's rows fit."""
        return max(self.overhead_blocks(a) for a in self.approaches) + self.n0

    def kept_spec(self, n_tr: int | None = None) -> DatasetSpec:
        """The windows of n_tr training rows per series in prepare_link's estimate.

        The estimate keeps the head of h blocks and then the test tail, so
        its test windows start at a gap of h. n_tr defaults to the longest
        overhead of the configured approaches, the one the head is cut for.
        """
        return DatasetSpec(self.n0, self.head_blocks - self.n0 if n_tr is None else n_tr,
                           self.n_te, self.head_blocks)

    def overhead_blocks(self, approach: str) -> int:
        if approach not in APPROACHES:
            raise ConfigError(f"unknown approach {approach!r}; "
                              f"expected one of {tuple(APPROACHES)}")
        return getattr(self, APPROACHES[approach][2])

    def scheme(self, snr_db: float) -> PilotScheme:
        return PilotScheme.dft(self.tau, self.pilot_column, snr_db)


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """||v||^2 of each vector along the last axis."""
    return np.sum(np.abs(v) ** 2, axis=-1)


def _mean_ratio(err: np.ndarray, power: np.ndarray) -> float:
    """Mean of err / power over all entries, in C order."""
    if np.any(power == 0):
        raise ContractError("zero-norm truth sample in NMSE")
    return float(np.mean(err / power))


def nmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean over samples of ||h - h_hat||^2 / ||h||^2 (rows are samples)."""
    pred = np.atleast_2d(np.asarray(pred))
    truth = np.atleast_2d(np.asarray(truth))
    if pred.shape != truth.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    return _mean_ratio(_squared_norms(pred - truth), _squared_norms(truth))


def prepare_link(cfg: ExperimentConfig, snr_db: float, seed: int):
    """Deterministic (labels, estimated) pair for one (SNR, seed) cell.

    `est` holds the LS estimates of the blocks a cell's windows read: the
    training head, blocks 1 .. h (cfg.head_blocks), then the test tail,
    blocks n_gap+1 .. required_blocks; cfg.kept_spec windows it. `labels`
    is the synthesized link of the n_te test label blocks, n_gap + n0
    onwards, the only true blocks `score` reads; it makes them as they are
    read, so no true tensor is held. Every block's pilot noise is still
    drawn from the cell's one stream, so every kept block has the bits of
    estimating the whole link.
    """
    paths = draw_paths(cfg.channel, seed)
    link = SynthesizedLink(cfg.channel, paths, cfg.required_blocks)
    est = estimate_trace(link, cfg.scheme(snr_db), stream(seed, "pilot-noise"),
                         keep=((0, cfg.head_blocks), (cfg.n_gap, link.n_blocks)))
    return SynthesizedLink(cfg.channel, paths, cfg.n_te, cfg.n_gap + cfg.n0), est


_SCORE_BLOCKS = 64   # test blocks scored at a time


def score(parts, labels: ChannelTensor | SynthesizedLink) -> float:
    """NMSE of evaluate_cell's parts, (domain, series, rows) per job, against the truth.

    The only reader of the true channels, the (n_te, L, M) label blocks of a
    ChannelTensor or SynthesizedLink, which must hold every block the first
    part predicts. Rows are the length-M subcarrier vectors in (subcarrier,
    block) order: nmse of the (L * n_te, M) rows, bit for bit. Each
    _SCORE_BLOCKS test blocks read the truth and put the parts back for
    those blocks alone, and the squared norms go into (L, n_te) arrays one
    subcarrier at a time, so no tensor-sized copy is made.
    """
    labels.require(PROVENANCE_TRUE, 1)   # a valid (N, L, M) before its shape is read
    shape = (labels.n_blocks, labels.n_subcarriers, labels.n_antennas)
    domain, series, rows = parts[0]   # one row per series it holds and block it predicts
    n_series = 1 if series is not None else len(series_view(np.empty(shape[1:]), domain))
    labels.require(PROVENANCE_TRUE, len(rows) // n_series)
    n_te = shape[0]
    err = np.empty((shape[1], n_te))
    power = np.empty_like(err)
    for lo in range(0, n_te, _SCORE_BLOCKS):
        hi = min(lo + _SCORE_BLOCKS, n_te)
        p, t = assemble_predictions(parts, shape, lo, hi).values, labels.read(lo, hi)
        for l in range(shape[1]):
            err[l, lo:hi] = _squared_norms(p[:, l] - t[:, l])
            power[l, lo:hi] = _squared_norms(t[:, l])
        del p, t   # before the next chunk is made
    return _mean_ratio(err, power)


def _require_kept(est: ChannelTensor, spec: DatasetSpec) -> None:
    """Refuse an estimate that is not laid out as prepare_link keeps it."""
    est.require(PROVENANCE_ESTIMATED, spec.min_blocks)
    if est.n_blocks != spec.min_blocks:
        raise ContractError(f"estimate of {est.n_blocks} blocks is not the kept layout of "
                            f"{spec.min_blocks} blocks: a head of {spec.n_gap} and a tail "
                            f"of {spec.n_te + spec.n0 + 1}")


def persistence_nmse(labels: ChannelTensor | SynthesizedLink, est: ChannelTensor,
                     cfg: ExperimentConfig) -> float:
    """Sanity floor: predict h_(n+1) by the newest estimate g_n.

    One pooled subcarrier part: the one-block windows before the test labels.
    """
    spec = cfg.kept_spec()
    _require_kept(est, spec)
    newest = LazyWindows(series_view(est.values, DOMAIN_SUBCARRIER),
                         spec.n_gap + spec.n0 - 1, spec.n_te, 1)[:]
    return score([(DOMAIN_SUBCARRIER, None, newest)], labels)


@dataclass
class CellResult:
    """One (approach, SNR, seed) evaluation."""

    approach: str
    snr_db: float
    seed: int
    nmse: float
    histories: dict = field(default_factory=dict)   # job index -> per-epoch loss
    models: dict = field(default_factory=dict)      # job index -> MlpModel (opt-in)


def evaluate_cell(labels: ChannelTensor | SynthesizedLink, est: ChannelTensor,
                  cfg: ExperimentConfig, approach: str, seed: int,
                  collect_models: bool = False) -> CellResult:
    """Train and score one approach on a link from prepare_link.

    The approach's APPROACHES row gives the domain its windows are cut from
    and whether every series of that domain is pooled into one model, job 0,
    or series l trains job l alone. Job k's tag k names its init stream, its
    shuffle seed and its entry in the histories and models. A job scales its
    training windows and predictions in place, and its test rows as predict
    cuts them. The jobs' predicted rows are scored as they are, never put
    back whole.
    """
    if approach not in cfg.approaches:   # the kept head may be too short for another
        raise ConfigError(f"approach {approach!r} is not one of the configured "
                          f"{cfg.approaches}")
    spec = cfg.kept_spec(cfg.overhead_blocks(approach))   # refuses an unknown label
    domain, pooled, _ = APPROACHES[approach]
    _require_kept(est, spec)
    result = CellResult(approach, float("nan"), seed, float("nan"))
    parts = []
    jobs = [None] if pooled else range(series_view(est.values, domain).shape[1])
    for k, series in enumerate(jobs):
        train_ds, test_ds = build_series_dataset(est, (domain, series), spec)
        scale = fit_scale(train_ds)
        for a in (train_ds.features, train_ds.labels):
            a /= scale
        dims = (train_ds.features.shape[1], *cfg.hidden, train_ds.labels.shape[1])
        model, history = train(init_mlp(dims, stream(seed, "mlp-init", k)),
                               (train_ds.features, train_ds.labels),
                               TrainConfig(cfg.batch_size, cfg.epochs, cfg.learning_rate,
                                           derive_seed(seed, "shuffle", k)))
        del train_ds, a   # no training window (a: the labels) is held while predict runs
        rows = predict(model, replace(test_ds, scale=scale))
        rows *= scale
        parts.append((domain, series, rows))
        result.histories[k] = history
        if collect_models:
            result.models[k] = model
        del model   # so the last job's model is not held while scoring
    result.nmse = score(parts, labels)
    return result


def snr_sweep(cfg: ExperimentConfig, collect_models: bool = False) -> list:
    """Run the configured approaches over the SNR grid with shared links.

    Channel traces and pilot noise are regenerated deterministically per seed,
    so every approach sees byte-identical estimated tensors at each
    (SNR, seed). Returns every CellResult in run order: per (SNR, seed), the
    PERSISTENCE cell, then one cell per approach; mean_nmse averages them.
    """
    cfg.validate()
    cells = []
    for snr in cfg.snr_db:
        for seed in cfg.seeds:
            labels, est = prepare_link(cfg, snr, seed)
            cells.append(CellResult(PERSISTENCE, float(snr), seed,
                                    persistence_nmse(labels, est, cfg)))
            for approach in cfg.approaches:
                cell = evaluate_cell(labels, est, cfg, approach, seed, collect_models)
                cell.snr_db = float(snr)
                cells.append(cell)
            del labels, est   # so the next link is never made beside this one
    return cells


def mean_nmse(cells, label: str, snr_db: float) -> float:
    """Mean NMSE over seeds of the cells of one label (an approach or PERSISTENCE) at one SNR."""
    vals = [c.nmse for c in cells if c.approach == label and c.snr_db == float(snr_db)]
    if not vals:
        raise KeyError((label, snr_db))
    return float(np.mean(vals))
