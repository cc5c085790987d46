"""Sliding-window training/test datasets for the channel predictors.

Blocks are 1-based in the window arithmetic below, matching the estimator
indexing: a training row with window end n holds the estimated channels of
blocks n-n0+1 .. n as features and block n+1 as label. Window ends run
n = n0 .. n_tr+n0-1 for training and n = n_gap+n0 .. n_gap+n_te+n0-1 for test.
Training therefore touches blocks 1 .. n_tr+n0 and the first test window
starts at block n_gap+1; the separation rule n_gap >= n_tr+n0 keeps every
training block, feature or label, before the first test block. Complex
vectors are split into (all real parts, then all imaginary parts) per window,
oldest window first.

Every builder returns (train, test): a WindowedDataset, and LazyWindows,
which cuts test features only when predict asks for a block. One routine,
_windows, cuts the windows of every selected column of a domain's (N, S, D)
series view; a label is the one-block window after its features. Pooled
rows are series-major, time-minor. Rows carry no tags: assemble_predictions
puts predicted test rows back by that same order.

Datasets hold estimated channels only, labels included (the true channel is
never measurable); the scorer reads the truth at each row's label block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import (
    ChannelTensor,
    DOMAIN_ANTENNA,
    DOMAIN_SUBCARRIER,
    PROVENANCE_ESTIMATED,
    PROVENANCE_PREDICTED,
    require_finite,
    series_view,
)
from .errors import ConfigError, ContractError


def complex_to_real(v: np.ndarray) -> np.ndarray:
    """(..., D) complex -> C-contiguous (..., 2D) real: real parts then imaginary parts."""
    v = np.asarray(v)
    d = v.shape[-1]
    out = np.empty(v.shape[:-1] + (2 * d,), dtype=v.real.dtype)
    out[..., :d] = v.real
    out[..., d:] = v.imag
    return out


@dataclass(frozen=True)
class DatasetSpec:
    """Window length and chronological split sizes (per series)."""

    n0: int     # input order: past blocks per feature row
    n_tr: int   # training rows per series
    n_te: int   # test rows per series
    n_gap: int  # offset separating training from test windows

    def validate(self) -> "DatasetSpec":
        if self.n0 < 1:
            raise ConfigError(f"n0 must be >= 1, got {self.n0}")
        if self.n_tr < 1:
            raise ConfigError(f"n_tr must be >= 1, got {self.n_tr}")
        if self.n_te < 1:
            raise ConfigError(f"n_te must be >= 1, got {self.n_te}")
        if self.n_gap < self.n_tr + self.n0:
            raise ConfigError(
                f"n_gap must be at least n_tr + n0 so that every training block "
                f"precedes the first test block (n_tr={self.n_tr}, n0={self.n0}, "
                f"n_gap={self.n_gap})")
        return self

    @property
    def min_blocks(self) -> int:
        """Blocks the input tensor must hold; the test phase reads the furthest."""
        return self.n_gap + self.n_te + self.n0 + 1


@dataclass(frozen=True)
class WindowedDataset:
    """Real-valued feature/label matrices cut from one or more series.

    features: (rows, 2*n0*D), labels: (rows, 2*D). A row's series and window
    are given by its position alone: series-major, time-minor (see _windows).
    """

    features: np.ndarray
    labels: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def _columns(values: np.ndarray, domain: str, index: int | None) -> np.ndarray:
    """View of series `index` of `domain`'s (N, S, D) view of `values`, or of all (None)."""
    view = series_view(values, domain)
    if index is not None and not 0 <= index < view.shape[1]:
        raise ContractError(f"{domain} series index {index} out of range [0, {view.shape[1]})")
    return view if index is None else view[:, index:index + 1]


def _windows(view: np.ndarray, start: int, rows: int, n0: int) -> np.ndarray:
    """The n0-block windows of `rows` window starts of every series of an (N, S, D) view.

    Row r of series s holds blocks start+r .. start+r+n0-1 (0-based), oldest
    first. Rows are series-major, time-minor, and C-contiguous. A feature
    row's label is the one-block window n0 blocks later, so the labels of
    _windows(view, start, rows, n0) are _windows(view, start + n0, rows, 1).
    """
    past = sliding_window_view(view[start:start + rows + n0 - 1], n0, axis=0)  # (rows, S, D, n0)
    windows = complex_to_real(past.transpose(1, 0, 3, 2))                      # (S, rows, n0, 2D)
    return windows.reshape(view.shape[1] * rows, -1)


@dataclass(frozen=True)
class LazyWindows:
    """Test feature rows, cut on demand in _windows' order: `rows` per series
    of each series of an (N, S, D) view, from block `start` on. A slice of
    step 1 cuts the windows of the series it spans and returns its rows over
    `scale`, the job's fitted scale, for predict to walk.
    """

    view: np.ndarray
    start: int
    rows: int
    n0: int
    scale: float = 1.0

    def __len__(self) -> int:
        return self.view.shape[1] * self.rows

    n_rows = property(__len__)

    def __getitem__(self, rows: slice) -> np.ndarray:
        if not isinstance(rows, slice) or rows.step not in (None, 1):
            raise ContractError(f"test windows are read by a slice of step 1, not {rows!r}")
        lo = 0 if rows.start is None else rows.start
        hi = self.n_rows if rows.stop is None else rows.stop
        if not 0 <= lo < hi <= self.n_rows:
            raise ContractError(f"rows {lo}..{hi} are not a non-empty cut of {self.n_rows} rows")
        first, last = lo // self.rows, (hi - 1) // self.rows + 1   # the series lo..hi spans
        spanned = _windows(self.view[:, first:last], self.start, self.rows, self.n0)
        features = spanned[lo - first * self.rows:hi - first * self.rows]
        features /= self.scale
        return features


def _datasets(est: ChannelTensor, domain: str, index: int | None, spec: DatasetSpec):
    """(train, test) windows of series `index` of `est`'s `domain` view, or of all (None)."""
    spec.validate()
    # only the blocks of the windows cut here are checked finite: a cell
    # checks its whole estimate once, not once per job
    est.require(PROVENANCE_ESTIMATED, spec.min_blocks, finite=False)
    cols = _columns(est.values, domain, index)
    for start, rows in ((0, spec.n_tr), (spec.n_gap, spec.n_te)):
        require_finite(cols[start:start + rows + spec.n0])
    return (WindowedDataset(_windows(cols, 0, spec.n_tr, spec.n0),
                            _windows(cols, spec.n0, spec.n_tr, 1)),
            LazyWindows(cols, spec.n_gap, spec.n_te, spec.n0))


def assemble_predictions(parts, shape: tuple, lo: int, hi: int) -> ChannelTensor:
    """Put blocks lo..hi of predicted test rows back into a subcarrier tensor.

    `shape` is the (n_te, L, M) of the whole prediction, of which the result
    holds blocks lo..hi. `parts` holds (domain, series, real rows) per job,
    `series` as the builders take it. The rows are label rows, one-block
    windows in _windows' order, so they go back by position, their real and
    imaginary halves straight into the real and imaginary parts. An entry
    that no job predicts stays NaN and fails validation.
    """
    n_te = shape[0]
    values = np.full((hi - lo, *shape[1:]), np.nan, dtype=np.complex128)
    for domain, series, rows in parts:
        target = _columns(values, domain, series)   # a view: writes reach `values`
        _, n_cols, dim = target.shape
        if rows.shape != (n_cols * n_te, 2 * dim):
            raise ContractError(f"{domain} series {'all' if series is None else series}: "
                                f"predicted rows {rows.shape} != ({n_cols * n_te}, {2 * dim})")
        rows = rows.reshape(n_cols, n_te, 2 * dim)[:, lo:hi].swapaxes(0, 1)
        target.real[...] = rows[..., :dim]
        target.imag[...] = rows[..., dim:]
    return ChannelTensor(values, PROVENANCE_PREDICTED).validate()


def build_series_dataset(est: ChannelTensor, series: tuple[str, int], spec: DatasetSpec):
    """(train, test) datasets of one series (one subcarrier or one antenna).

    `series` is (domain, index): series `index` of series_view(est.values, domain).
    """
    domain, index = series
    return _datasets(est, domain, index, spec)


def build_jl(est: ChannelTensor, spec: DatasetSpec):
    """(train, test) pooled subcarrier datasets: union over l of per-subcarrier windows.

    spec.n_tr is interpreted per series (N'_tr), so the pooled training set
    has L*n_tr rows in series-major, time-minor order.
    """
    return _datasets(est, DOMAIN_SUBCARRIER, None, spec)


def build_jldt(est: ChannelTensor, spec: DatasetSpec):
    """(train, test) antenna-domain pooled datasets: the same windows read by antenna.

    Rows are length-L vector windows; the pooled training set has M*n_tr rows.
    """
    return _datasets(est, DOMAIN_ANTENNA, None, spec)


def fit_scale(train: WindowedDataset) -> float:
    """Root-mean-square of all training feature entries (one global scalar)."""
    if train.n_rows == 0:
        raise ContractError("cannot fit a scale on an empty dataset")
    rms = float(np.sqrt(np.mean(train.features ** 2)))
    if rms == 0.0:
        raise ContractError("cannot fit a scale on an all-zero dataset")
    return rms
