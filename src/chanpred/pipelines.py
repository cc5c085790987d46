"""End-to-end experiments: per-subcarrier, pooled, and antenna-domain training.

Four approach labels are understood throughout:

* ``sl``       one predictor per subcarrier, n_tr training rows each
* ``sl_small`` same, but only n_tr_prime rows (matches the pooled overhead)
* ``jl``       one predictor trained on all subcarriers pooled (n_tr_prime each)
* ``jldt``     one predictor trained on all antenna-domain series pooled,
               predictions mapped back to the subcarrier domain

At a fixed (SNR, seed) every approach consumes the identical estimated tensor;
NMSE is always scored in the subcarrier domain against the true channel at the
predicted block, averaged over subcarriers and test blocks. The per-series
time overhead of collecting training data is n_tr blocks for ``sl`` and
n_tr_prime blocks for the other three.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .channel import (
    ChannelConfig,
    ChannelTensor,
    DOMAIN_ANTENNA,
    DOMAIN_SUBCARRIER,
    PROVENANCE_ESTIMATED,
    PROVENANCE_PREDICTED,
    PROVENANCE_TRUE,
    draw_paths,
    synthesize,
)
from .datasets import (
    DatasetSpec,
    assemble_predictions,
    build_jl,
    build_jldt,
    build_series_dataset,
    fit_scale,
    real_to_complex,
)
from .errors import ConfigError, ContractError
from .estimation import PilotScheme, estimate_trace
from .mlp import TrainConfig, init_mlp, predict, train
from .rng import derive_seed, stream

APPROACHES = ("sl", "sl_small", "jl", "jldt")


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
    approaches: tuple = APPROACHES

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
            raise ConfigError(f"approaches must be a non-empty subset of {APPROACHES}, "
                              f"got {self.approaches}")
        for key in ("snr_db", "seeds", "approaches"):
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ConfigError(f"{key} has duplicate entries: {list(values)}")
        return self

    def dataset_spec(self, n_tr: int | None = None) -> DatasetSpec:
        return DatasetSpec(self.n0, self.n_tr if n_tr is None else n_tr,
                           self.n_te, self.n_gap)

    @property
    def required_blocks(self) -> int:
        return self.dataset_spec().min_blocks

    def overhead_blocks(self, approach: str) -> int:
        return self.n_tr if approach == "sl" else self.n_tr_prime

    def scheme(self, snr_db: float) -> PilotScheme:
        return PilotScheme.dft(self.tau, self.pilot_column, snr_db)


def nmse(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean over samples of ||h - h_hat||^2 / ||h||^2 (rows are samples)."""
    pred = np.atleast_2d(np.asarray(pred))
    truth = np.atleast_2d(np.asarray(truth))
    if pred.shape != truth.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    power = np.sum(np.abs(truth) ** 2, axis=1)
    if np.any(power == 0):
        raise ContractError("zero-norm truth sample in NMSE")
    return float(np.mean(np.sum(np.abs(pred - truth) ** 2, axis=1) / power))


def prepare_link(cfg: ExperimentConfig, snr_db: float, seed: int):
    """Deterministic (true, estimated) tensor pair for one (SNR, seed) cell."""
    chan_cfg = cfg.channel.with_seed(seed)
    truth = synthesize(chan_cfg, draw_paths(chan_cfg), cfg.required_blocks)
    est = estimate_trace(truth, cfg.scheme(snr_db), stream(seed, "pilot-noise"))
    return truth, est


def score(pred: ChannelTensor, truth: ChannelTensor, spec: DatasetSpec) -> float:
    """NMSE of an (n_te, L, M) prediction against the truth at the test label blocks.

    The only reader of the true tensor. Rows are the length-M subcarrier
    vectors in (subcarrier, block) order.
    """
    truth.require(PROVENANCE_TRUE, spec.min_blocks)
    label = truth.values[spec.n_gap + spec.n0 + np.arange(spec.n_te)]
    if pred.values.shape != label.shape:
        raise ContractError(f"prediction shape {pred.values.shape} != label shape {label.shape}")
    rows = [v.transpose(1, 0, 2).reshape(-1, label.shape[2]) for v in (pred.values, label)]
    return nmse(*rows)


def persistence_nmse(truth: ChannelTensor, est: ChannelTensor,
                     cfg: ExperimentConfig) -> float:
    """Sanity floor: predict h_(n+1) by the newest estimate g_n."""
    spec = cfg.dataset_spec()
    est.require(PROVENANCE_ESTIMATED, spec.min_blocks)
    newest = est.values[spec.n_gap + spec.n0 - 1 + np.arange(spec.n_te)]
    return score(ChannelTensor(newest, PROVENANCE_PREDICTED), truth, spec)


@dataclass(frozen=True)
class TrainJob:
    """One model to train: which series it sees and its random-stream tag.

    `series` is one series index of `domain`, or None for all of them pooled;
    `n_tr` is the training rows per series. `index` tags the init stream,
    the shuffle seed and the job's entry in histories and models.
    """

    domain: str
    series: int | None
    n_tr: int
    index: int

    def datasets(self, est: ChannelTensor, spec: DatasetSpec):
        """(train, test) windowed datasets of this job."""
        if self.series is None:
            build = build_jldt if self.domain == DOMAIN_ANTENNA else build_jl
            return build(est, spec)
        return build_series_dataset(est, (self.domain, self.series), spec)


def train_jobs(cfg: ExperimentConfig, approach: str) -> list:
    """sl and sl_small train one model per subcarrier; jl and jldt one pooled model."""
    if approach in ("sl", "sl_small"):
        n_tr = cfg.overhead_blocks(approach)
        return [TrainJob(DOMAIN_SUBCARRIER, l, n_tr, l)
                for l in range(cfg.channel.n_subcarriers)]
    domain = DOMAIN_ANTENNA if approach == "jldt" else DOMAIN_SUBCARRIER
    return [TrainJob(domain, None, cfg.n_tr_prime, 0)]


@dataclass
class CellResult:
    """One (approach, SNR, seed) evaluation."""

    approach: str
    snr_db: float
    seed: int
    nmse: float
    histories: dict = field(default_factory=dict)   # job index -> per-epoch loss
    models: dict = field(default_factory=dict)      # job index -> MlpModel (opt-in)


def _train_predict(train_ds, test_ds, cfg, init_stream, shuffle_seed):
    scale = fit_scale(train_ds)
    dims = (train_ds.features.shape[1], *cfg.hidden, train_ds.labels.shape[1])
    model = init_mlp(dims, init_stream)
    model, history = train(model, (train_ds.features / scale, train_ds.labels / scale),
                           TrainConfig(cfg.batch_size, cfg.epochs, cfg.learning_rate,
                                       shuffle_seed))
    preds = real_to_complex(predict(model, test_ds.features / scale) * scale)
    return preds, model, history


def evaluate_cell(truth: ChannelTensor, est: ChannelTensor, cfg: ExperimentConfig,
                  approach: str, seed: int, collect_models: bool = False) -> CellResult:
    """Train and score one approach on already-prepared tensors."""
    if approach not in APPROACHES:
        raise ConfigError(f"unknown approach {approach!r}")
    result = CellResult(approach, float("nan"), seed, float("nan"))
    parts = []
    for job in train_jobs(cfg, approach):
        train_ds, test_ds = job.datasets(est, cfg.dataset_spec(job.n_tr))
        preds, model, history = _train_predict(train_ds, test_ds, cfg,
                                               stream(seed, "mlp-init", job.index),
                                               derive_seed(seed, "shuffle", job.index))
        parts.append((job.domain, job.series, preds))
        result.histories[job.index] = history
        if collect_models:
            result.models[job.index] = model
    spec = cfg.dataset_spec()
    result.nmse = score(assemble_predictions(parts, spec, est.values.shape[1:]), truth, spec)
    return result


@dataclass(frozen=True)
class NmseEntry:
    approach: str
    snr_db: float
    nmse: float
    nmse_db: float
    overhead_blocks: int
    seed_count: int


@dataclass
class NmseReport:
    """Seed-averaged NMSE per (approach, SNR), plus diagnostics."""

    entries: list
    seeds: tuple
    persistence: dict                 # snr_db -> seed-averaged persistence NMSE
    runtime_seconds: float = 0.0
    cells: list = field(default_factory=list)  # per-(approach, snr, seed) CellResult

    def entry(self, approach: str, snr_db: float) -> NmseEntry:
        for e in self.entries:
            if e.approach == approach and e.snr_db == snr_db:
                return e
        raise KeyError((approach, snr_db))

    def csv_rows(self):
        """Rows for the fixed nmse.csv schema."""
        header = ("approach", "snr_db", "nmse_db", "seed_count", "overhead_blocks")
        rows = [(e.approach, e.snr_db, e.nmse_db, e.seed_count, e.overhead_blocks)
                for e in self.entries]
        return header, rows


def snr_sweep(cfg: ExperimentConfig, collect_models: bool = False) -> NmseReport:
    """Run the configured approaches over the SNR grid with shared links.

    Channel traces and pilot noise are regenerated deterministically per seed,
    so every approach sees byte-identical estimated tensors at each
    (SNR, seed); NMSE is averaged over seeds.
    """
    cfg.validate()
    started = time.perf_counter()
    cells = []
    persistence = {}
    for snr in cfg.snr_db:
        per_seed_persist = []
        for seed in cfg.seeds:
            truth, est = prepare_link(cfg, snr, seed)
            per_seed_persist.append(persistence_nmse(truth, est, cfg))
            for approach in cfg.approaches:
                cell = evaluate_cell(truth, est, cfg, approach, seed, collect_models)
                cell.snr_db = float(snr)
                cells.append(cell)
        persistence[float(snr)] = float(np.mean(per_seed_persist))

    entries = []
    for approach in cfg.approaches:
        for snr in cfg.snr_db:
            vals = [c.nmse for c in cells
                    if c.approach == approach and c.snr_db == float(snr)]
            mean = float(np.mean(vals))
            entries.append(NmseEntry(approach, float(snr), mean,
                                     10.0 * float(np.log10(mean)),
                                     cfg.overhead_blocks(approach), len(cfg.seeds)))
    return NmseReport(entries, cfg.seeds, persistence,
                      time.perf_counter() - started, cells)
