"""Temporal auto- and cross-correlation diagnostics of channel series.

Correlations are sample averages over a window of N_avg blocks,
R(shift) = (1/N_avg) * sum_n <a_n, b_(n+shift)>, with the inner product
conjugate-linear in the first argument. Reported values are normalized by
sqrt(R_a(0) * R_b(0)) and averaged as magnitudes over series (auto) or over
series pairs (cross), separately for the subcarrier and antenna domains.

All shifts come from one pass of FFTs over overlapping segments of the
series view: per segment, the zero-padded FFT of its blocks against the FFT
of those blocks and the max_shift after them, multiplied frequency by
frequency into (S, S) products. Summing the products and taking one inverse
FFT gives R(0..max_shift). Memory is a few (F, S, D) and (F, S, S) arrays
for an FFT length F near max_shift + 48, never a copy of the tensor. A
synthesized link is read the same way: each segment's window of F blocks is
made when it is reached, once per domain, so its study never holds the
whole link either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelTensor,
    DOMAIN_ANTENNA,
    DOMAIN_SUBCARRIER,
    PROVENANCE_TRUE,
    SynthesizedLink,
    series_view,
)
from .errors import ContractError


@dataclass(frozen=True)
class CorrelationReport:
    """Averaged normalized correlation magnitudes per shift, both domains."""

    subcarrier_auto: np.ndarray   # (max_shift+1,)
    subcarrier_cross: np.ndarray
    antenna_auto: np.ndarray
    antenna_cross: np.ndarray


def _fft_length(max_shift: int) -> int:
    # smallest power of two >= max_shift + 48: each segment then averages at
    # least 48 blocks, so the segment count stays near n_avg / 48
    return 1 << (max_shift + 47).bit_length()


def _domain_curves(source, domain: str, s: int, max_shift: int, n_avg: int):
    """Auto and cross curves of `domain`'s s series of a tensor or link."""
    # Segments of seg blocks: the segment's FFT (A) against the FFT of the
    # same blocks and the max_shift after them (B). seg + max_shift <= F, so
    # lags 0..max_shift of conj(A) B never wrap round. P sums, per frequency,
    # the (S, S) products of all segments, and its inverse FFT holds every lag.
    fft_len = _fft_length(max_shift)
    seg = fft_len - max_shift
    p = np.zeros((fft_len, s, s), dtype=complex)
    for start in range(0, n_avg, seg):
        stop = min(start + seg, n_avg)
        x = series_view(source.read(start, stop + max_shift), domain)
        a = np.fft.fft(x[:stop - start], n=fft_len, axis=0)
        np.conjugate(a, out=a)
        b = np.fft.fft(x, n=fft_len, axis=0)
        # one frequency at a time, so no (F, S, S) product lives beside P; and
        # A, B and the window go before the next segment's are made
        for f in range(fft_len):
            p[f] += a[f] @ b[f].T
        del x, a, b
    g = np.fft.ifft(p, axis=0)[:max_shift + 1] / n_avg

    diag0 = np.real(np.diagonal(g[0]))
    norm = np.abs(g) / np.sqrt(np.outer(diag0, diag0))
    mask = ~np.eye(s, dtype=bool)
    auto = np.array([np.mean(np.diag(shift)) for shift in norm])
    cross = np.array([np.mean(shift[mask]) for shift in norm])
    return auto, cross


def check_window(max_shift: int, n_avg: int) -> None:
    """Reject a correlation window before any blocks are made or read for it."""
    if max_shift < 0:
        raise ContractError(f"max_shift must be >= 0, got {max_shift}")
    if n_avg < 1:
        raise ContractError(f"n_avg must be >= 1, got {n_avg}")


def correlation_report(source: ChannelTensor | SynthesizedLink, max_shift: int,
                       n_avg: int) -> CorrelationReport:
    """Correlation study of a true link in both domains.

    `source` is a true tensor, or a SynthesizedLink whose segment windows
    the study makes one at a time, so that it never holds the whole link.
    Auto-correlation magnitudes are averaged over all series of each domain;
    cross-correlation magnitudes over all ordered pairs of distinct series.
    """
    check_window(max_shift, n_avg)
    source.require(PROVENANCE_TRUE, n_avg + max_shift)
    # subcarrier domain: series l, vectors over m; antenna domain: series m, vectors over l
    domains = ((DOMAIN_SUBCARRIER, source.n_subcarriers), (DOMAIN_ANTENNA, source.n_antennas))
    for domain, s in domains:
        if s < 2:
            raise ContractError(f"{domain} domain has {s} series; its cross-correlation "
                                f"needs at least 2")
    (sub_auto, sub_cross), (ant_auto, ant_cross) = [
        _domain_curves(source, domain, s, max_shift, n_avg) for domain, s in domains]
    return CorrelationReport(sub_auto, sub_cross, ant_auto, ant_cross)
