"""Pilot transmission and least-squares channel estimation.

Per block and subcarrier the UE sends a length-tau pilot; the BS observes
Y = sqrt(rho) * h * phi^T + Z and recovers the LS estimate
g = Y conj(phi) / (sqrt(rho) * ||phi||^2) = h + e with per-element error
variance 1/(rho*tau) for unit-modulus pilots. estimate_trace applies this to
every (block, subcarrier) cell of a channel tensor, or of a synthesized link
whose blocks it makes one estimation chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelTensor, PROVENANCE_ESTIMATED, PROVENANCE_TRUE, SynthesizedLink
from .errors import ConfigError, ContractError

_EST_CHUNK = 64  # blocks per chunk; bounds the (chunk, L, M, tau) noise buffer


def db_to_linear(snr_db: float) -> float:
    return float(10.0 ** (snr_db / 10.0))


def dft_pilot(tau: int, k: int) -> np.ndarray:
    """Column k of the tau-point DFT matrix: entry t = exp(-j*2*pi*t*k/tau).

    Unit modulus entries; distinct columns are mutually orthogonal.
    """
    if tau < 1:
        raise ConfigError(f"pilot length must be >= 1, got {tau}")
    if not 0 <= k < tau:
        raise ConfigError(f"DFT column index must satisfy 0 <= k < tau, got k={k}, tau={tau}")
    t = np.arange(tau)
    return np.exp(-2j * np.pi * t * k / tau)


@dataclass(frozen=True)
class PilotScheme:
    """Pilot vector and linear SNR used for every (block, subcarrier) cell."""

    pilot: np.ndarray  # (tau,) complex, unit modulus entries
    snr: float         # rho, linear

    @property
    def tau(self) -> int:
        return self.pilot.shape[0]

    def validate(self) -> "PilotScheme":
        if self.pilot.ndim != 1 or self.tau < 1:
            raise ConfigError("pilot must be a non-empty vector")
        if self.snr <= 0:
            raise ConfigError(f"snr must be positive (linear), got {self.snr}")
        if not np.allclose(np.abs(self.pilot), 1.0, rtol=0, atol=1e-12):
            raise ConfigError("pilot entries must be unit modulus")
        return self

    @classmethod
    def dft(cls, tau: int, k: int, snr_db: float) -> "PilotScheme":
        return cls(dft_pilot(tau, k), db_to_linear(snr_db)).validate()


def estimate_trace(source: ChannelTensor | SynthesizedLink, scheme: PilotScheme,
                   rng: np.random.Generator, keep=None) -> ChannelTensor:
    """LS-estimate every (block, subcarrier) cell of a true tensor or link.

    Each cell receives Y = sqrt(rho) h phi^T + Z, an (M, tau) matrix with i.i.d.
    unit-variance complex Gaussian Z, and is estimated as
    g = Y conj(phi) / (sqrt(rho) ||phi||^2), vectorized in chunks of blocks.
    The noise comes from `rng` alone, drawn in fixed block order, so results
    are deterministic for a given rng.

    `keep`, ascending disjoint (lo, hi) ranges of 0-based blocks, limits the
    estimate to those blocks, in order (default: every block). Every
    block's noise is still drawn, so a kept block has the bits of the whole
    estimate; a chunk with no kept block only draws, and its true blocks are
    never read, so a SynthesizedLink never makes them.
    """
    source.require(PROVENANCE_TRUE, 1)
    scheme.validate()

    n_blocks, L, M = source.n_blocks, source.n_subcarriers, source.n_antennas
    tau = scheme.tau
    keep = [(0, n_blocks)] if keep is None else keep
    for prev, (lo, hi) in zip([0] + [hi for _, hi in keep], keep):
        if not prev <= lo < hi <= n_blocks:
            raise ContractError(f"keep range ({lo}, {hi}) is not ascending, disjoint, non-empty "
                                f"and inside [0, {n_blocks})")
    conj_pilot = np.conj(scheme.pilot)
    energy = float(np.sum(np.abs(scheme.pilot) ** 2))
    root_rho = np.sqrt(scheme.snr)
    # dividing complex noise by sqrt(2) + 0j multiplies each part by this rounded value
    noise_scale = 1.0 / np.sqrt(2)

    g = np.empty((sum(hi - lo for lo, hi in keep), L, M), dtype=np.complex128)
    filled = 0
    # two reused buffers, the received pilots Y and one part of Z; the noise is
    # drawn chunk by chunk, real parts then imaginary parts, kept or not
    y_buf = np.empty((min(_EST_CHUNK, n_blocks), L, M, tau), dtype=np.complex128)
    z_buf = np.empty(y_buf.shape)
    for start in range(0, n_blocks, _EST_CHUNK):
        stop = min(start + _EST_CHUNK, n_blocks)
        y, z = y_buf[:stop - start], z_buf[:stop - start]
        runs = [(max(lo, start), min(hi, stop)) for lo, hi in keep
                if max(lo, start) < min(hi, stop)]
        if not runs:
            rng.standard_normal(out=z)
            rng.standard_normal(out=z)
            continue
        np.multiply(root_rho, source.read(start, stop)[:, :, :, None], out=y)
        y *= scheme.pilot
        for part in (y.real, y.imag):
            rng.standard_normal(out=z)
            z *= noise_scale
            part += z
        for lo, hi in runs:
            kept = g[filled:filled + hi - lo]
            np.matmul(y[lo - start:hi - start], conj_pilot, out=kept)
            kept /= root_rho * energy
            filled += hi - lo

    return ChannelTensor(g, PROVENANCE_ESTIMATED).validate()
