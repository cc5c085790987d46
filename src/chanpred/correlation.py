"""Temporal auto- and cross-correlation diagnostics of channel series.

Correlations are sample averages over a window of N_avg blocks,
R(shift) = (1/N_avg) * sum_n <a_n, b_(n+shift)>, with the inner product
conjugate-linear in the first argument. Reported values are normalized by
sqrt(R_a(0) * R_b(0)) and averaged as magnitudes over series (auto) or over
series pairs (cross), separately for the subcarrier and antenna domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelTensor, DOMAIN_ANTENNA, DOMAIN_SUBCARRIER, PROVENANCE_TRUE, series_view
from .errors import ContractError


def _check_window(length: int, shift: int, n_avg: int) -> None:
    if n_avg < 1:
        raise ContractError(f"n_avg must be >= 1, got {n_avg}")
    if length < n_avg + abs(shift):
        raise ContractError(
            f"sequence of length {length} too short for n_avg={n_avg}, shift={shift}")


def _windows(a: np.ndarray, b: np.ndarray, shift: int, n_avg: int):
    # pairs (n, n+shift); negative shift slides the window so both stay in range
    if shift >= 0:
        return a[:n_avg], b[shift:shift + n_avg]
    return a[-shift:-shift + n_avg], b[:n_avg]


def cross_correlation(seq_a: np.ndarray, seq_b: np.ndarray,
                      shift: int, n_avg: int) -> complex:
    """Sample cross-correlation of two vector sequences at a block shift."""
    seq_a = np.atleast_2d(np.asarray(seq_a))
    seq_b = np.atleast_2d(np.asarray(seq_b))
    if seq_a.shape != seq_b.shape:
        raise ContractError(f"sequence shapes differ: {seq_a.shape} vs {seq_b.shape}")
    _check_window(seq_a.shape[0], shift, n_avg)
    wa, wb = _windows(seq_a, seq_b, shift, n_avg)
    return complex(np.sum(np.conj(wa) * wb) / n_avg)


def auto_correlation(seq: np.ndarray, shift: int, n_avg: int) -> complex:
    """Sample auto-correlation of a vector sequence at a block shift."""
    return cross_correlation(seq, seq, shift, n_avg)


@dataclass(frozen=True)
class CorrelationReport:
    """Averaged normalized correlation magnitudes per shift, both domains."""

    max_shift: int
    n_avg: int
    subcarrier_auto: np.ndarray   # (max_shift+1,)
    subcarrier_cross: np.ndarray
    antenna_auto: np.ndarray
    antenna_cross: np.ndarray

    def rows(self):
        """(shift, domain, auto_mag, cross_mag) rows for CSV emission."""
        out = []
        for domain, auto, cross in (
            ("subcarrier", self.subcarrier_auto, self.subcarrier_cross),
            ("antenna", self.antenna_auto, self.antenna_cross),
        ):
            for shift in range(self.max_shift + 1):
                out.append((shift, domain, float(auto[shift]), float(cross[shift])))
        return out


def _gram(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    # x: (n_avg, S, D) -> (S, S) matrix of <series_i, series_j> sums over (n, D)
    n, s, d = x1.shape
    a = np.ascontiguousarray(x1.conj().transpose(1, 0, 2)).reshape(s, n * d)
    b = np.ascontiguousarray(x2.transpose(1, 0, 2)).reshape(s, n * d)
    return (a @ b.T) / n


def _domain_curves(x: np.ndarray, max_shift: int, n_avg: int):
    # x: (N, S, D) series-major view of the tensor for one domain
    g0 = _gram(x[:n_avg], x[:n_avg])
    diag0 = np.real(np.diag(g0))
    denom = np.sqrt(np.outer(diag0, diag0))
    mask = ~np.eye(x.shape[1], dtype=bool)

    auto = np.empty(max_shift + 1)
    cross = np.empty(max_shift + 1)
    for shift in range(max_shift + 1):
        g = _gram(x[:n_avg], x[shift:shift + n_avg])
        norm = np.abs(g) / denom
        auto[shift] = float(np.mean(np.diag(norm)))
        cross[shift] = float(np.mean(norm[mask]))
    return auto, cross


def correlation_report(tensor: ChannelTensor, max_shift: int = 16,
                       n_avg: int = 2000) -> CorrelationReport:
    """Correlation study of a true channel tensor in both domains.

    Auto-correlation magnitudes are averaged over all series of each domain;
    cross-correlation magnitudes over all ordered pairs of distinct series.
    """
    tensor.validate()
    if tensor.provenance != PROVENANCE_TRUE:
        raise ContractError(
            f"correlation_report analyzes true channels, got provenance {tensor.provenance!r}")
    if max_shift < 0:
        raise ContractError(f"max_shift must be >= 0, got {max_shift}")
    _check_window(tensor.n_blocks, max_shift, n_avg)

    sub = series_view(tensor.values, DOMAIN_SUBCARRIER)             # series l, vectors over m
    sub_auto, sub_cross = _domain_curves(sub, max_shift, n_avg)
    ant = np.ascontiguousarray(series_view(tensor.values, DOMAIN_ANTENNA))  # series m, vectors over l
    ant_auto, ant_cross = _domain_curves(ant, max_shift, n_avg)

    return CorrelationReport(max_shift, n_avg, sub_auto, sub_cross, ant_auto, ant_cross)
