"""Pilot transmission and least-squares channel estimation.

Per block and subcarrier the UE sends a length-tau pilot; the BS observes
Y = sqrt(rho) * h * phi^T + Z and recovers the LS estimate
g = Y conj(phi) / (sqrt(rho) * ||phi||^2) = h + e with per-element error
variance 1/(rho*tau) for unit-modulus pilots. estimate_trace applies this to
every (block, subcarrier) cell of a channel tensor at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelTensor, PROVENANCE_ESTIMATED, PROVENANCE_TRUE
from .errors import ConfigError, ContractError

_EST_CHUNK = 64  # blocks per chunk; bounds the (chunk, L, M, tau) noise buffer


def db_to_linear(snr_db: float) -> float:
    return float(10.0 ** (snr_db / 10.0))


def dft_pilot(tau: int, k: int = 1) -> np.ndarray:
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
    def dft(cls, tau: int, k: int = 1, snr_db: float = 10.0) -> "PilotScheme":
        return cls(dft_pilot(tau, k), db_to_linear(snr_db)).validate()


def estimate_trace(tensor: ChannelTensor, scheme: PilotScheme,
                   rng: np.random.Generator) -> ChannelTensor:
    """LS-estimate every (block, subcarrier) cell of a true tensor.

    Each cell receives Y = sqrt(rho) h phi^T + Z, an (M, tau) matrix with i.i.d.
    unit-variance complex Gaussian Z, and is estimated as
    g = Y conj(phi) / (sqrt(rho) ||phi||^2), vectorized in chunks of blocks.
    The noise comes from `rng` alone, drawn in fixed block order, so results
    are deterministic for a given rng.
    """
    tensor.validate()
    scheme.validate()
    if tensor.provenance != PROVENANCE_TRUE:
        raise ContractError(f"estimate_trace needs provenance 'true', got {tensor.provenance}")

    h = tensor.values
    n_blocks, L, M = h.shape
    tau = scheme.tau
    conj_pilot = np.conj(scheme.pilot)
    energy = float(np.sum(np.abs(scheme.pilot) ** 2))
    root_rho = np.sqrt(scheme.snr)

    g = np.empty_like(h)
    for start in range(0, n_blocks, _EST_CHUNK):
        stop = min(start + _EST_CHUNK, n_blocks)
        shape = (stop - start, L, M, tau)
        y = root_rho * h[start:stop, :, :, None] * scheme.pilot
        y = y + (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        g[start:stop] = y @ conj_pilot / (root_rho * energy)

    return ChannelTensor(g, PROVENANCE_ESTIMATED).validate()
