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


def _domain_curves(values: np.ndarray, domain: str, max_shift: int, n_avg: int):
    # One C-contiguous (S, N*D) transpose: row s is series s of the domain,
    # block after block, so the window of blocks shift .. shift+n_avg-1 is the
    # strided view [:, shift*D:(shift+n_avg)*D] and no shift copies data.
    x = series_view(values[:n_avg + max_shift], domain)
    n, s, d = x.shape
    if s < 2:
        raise ContractError(f"{domain} domain has {s} series; its cross-correlation "
                            f"needs at least 2")
    rows = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(s, n * d)
    first = rows[:, :n_avg * d].conj()
    mask = ~np.eye(s, dtype=bool)

    auto = np.empty(max_shift + 1)
    cross = np.empty(max_shift + 1)
    for shift in range(max_shift + 1):
        # (S, S) matrix of <series_i, series_j shifted> summed over (n, D)
        g = (first @ rows[:, shift * d:(shift + n_avg) * d].T) / n_avg
        if shift == 0:
            diag0 = np.real(np.diag(g))
            denom = np.sqrt(np.outer(diag0, diag0))
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
    if max_shift < 0:
        raise ContractError(f"max_shift must be >= 0, got {max_shift}")
    if n_avg < 1:
        raise ContractError(f"n_avg must be >= 1, got {n_avg}")
    tensor.require(PROVENANCE_TRUE, n_avg + max_shift)

    # subcarrier domain: series l, vectors over m; antenna domain: series m, vectors over l
    sub_auto, sub_cross = _domain_curves(tensor.values, DOMAIN_SUBCARRIER, max_shift, n_avg)
    ant_auto, ant_cross = _domain_curves(tensor.values, DOMAIN_ANTENNA, max_shift, n_avg)

    return CorrelationReport(max_shift, n_avg, sub_auto, sub_cross, ant_auto, ant_cross)
