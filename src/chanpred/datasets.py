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

Every builder returns (train, test). One routine cuts the windows of every
selected column of a domain's (N, S, D) series view; pooled rows are
series-major, time-minor. Rows carry no tags: assemble_predictions puts
predicted test rows back by that same order.

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


def real_to_complex(x: np.ndarray) -> np.ndarray:
    """Inverse of complex_to_real; the last axis must have even length."""
    x = np.asarray(x)
    if x.shape[-1] % 2 != 0:
        raise ContractError(f"last axis must have even length, got {x.shape[-1]}")
    d = x.shape[-1] // 2
    return x[..., :d] + 1j * x[..., d:]


@dataclass(frozen=True)
class DatasetSpec:
    """Window length and chronological split sizes (per series)."""

    n0: int = 3        # input order: past blocks per feature row
    n_tr: int = 1000   # training rows per series
    n_te: int = 200    # test rows per series
    n_gap: int = 1500  # offset separating training from test windows

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


def _windows(view: np.ndarray, start: int, rows: int, n0: int):
    """Features and labels of `rows` windows of every series of an (N, S, D) view.

    Row r of series s holds blocks start+r .. start+r+n0-1 (0-based) as
    features and block start+r+n0 as label. Rows are series-major,
    time-minor, and both arrays are C-contiguous.
    """
    n_series = view.shape[1]
    past = sliding_window_view(view[start:start + rows + n0 - 1], n0, axis=0)  # (rows, S, D, n0)
    feats = complex_to_real(past.transpose(1, 0, 3, 2))                       # (S, rows, n0, 2D)
    labels = complex_to_real(view[start + n0:start + n0 + rows].transpose(1, 0, 2))
    return feats.reshape(n_series * rows, -1), labels.reshape(n_series * rows, -1)


def _datasets(est: ChannelTensor, domain: str, index: int | None, spec: DatasetSpec):
    """(train, test) windows of series `index` of `est`'s `domain` view, or of all (None)."""
    spec.validate()
    est.require(PROVENANCE_ESTIMATED, spec.min_blocks)
    cols = _columns(est.values, domain, index)
    return tuple(WindowedDataset(*_windows(cols, start, rows, spec.n0))
                 for start, rows in ((0, spec.n_tr), (spec.n_gap, spec.n_te)))


def assemble_predictions(parts, spec: DatasetSpec, shape: tuple) -> ChannelTensor:
    """Put predicted test rows back into an (n_te, L, M) subcarrier tensor.

    `parts` holds (domain, series, predicted rows) per job, `series` as the
    builders take it. The rows are in _windows' order, so they go back by
    position. An entry that no job predicts stays NaN and fails validation.
    """
    values = np.full((spec.n_te, *shape), np.nan, dtype=np.complex128)
    for domain, series, preds in parts:
        target = _columns(values, domain, series)   # a view: writes reach `values`
        n_te, n_cols, dim = target.shape
        target[...] = preds.reshape(n_cols, n_te, dim).swapaxes(0, 1)
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
