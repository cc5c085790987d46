"""LS pilot estimation (estimate_trace) against its analytic oracles."""

import numpy as np
import pytest

from chanpred import (
    ChannelConfig,
    ChannelTensor,
    ConfigError,
    ContractError,
    PilotScheme,
    db_to_linear,
    dft_pilot,
    draw_paths,
    estimate_trace,
    synthesize,
)
from chanpred.rng import stream
from conftest import ZeroNoise


class TestDftPilot:
    def test_dc_column(self):
        assert np.allclose(dft_pilot(4, 0), np.ones(4))

    def test_k1_hand_values(self):
        # exp(-j*pi*t/2) for t = 0..3
        assert np.allclose(dft_pilot(4, 1), [1, -1j, -1, 1j], atol=1e-12)

    def test_columns_orthogonal(self):
        assert abs(np.vdot(dft_pilot(4, 1), dft_pilot(4, 2))) < 1e-12

    def test_unit_modulus(self):
        for tau, k in ((1, 0), (5, 3), (8, 7)):
            assert np.allclose(np.abs(dft_pilot(tau, k)), 1.0)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            dft_pilot(4, 4)
        with pytest.raises(ConfigError):
            dft_pilot(4, -1)


def _repeated(h, blocks):
    """True (blocks, 1, M) tensor holding the same h in every block."""
    return ChannelTensor(np.tile(h, (blocks, 1, 1)), "true")


class UnitNoise:
    """Noise generator whose every draw is one, so Z = (1 + 1j) / sqrt(2) in each cell."""

    def standard_normal(self, shape):
        return np.ones(shape)


class TestLsEstimate:
    def test_inverts_noiseless_model(self):
        scheme = PilotScheme.dft(4, 2, snr_db=7.0)
        h = stream(3, "h").standard_normal(16) + 1j * stream(4, "h").standard_normal(16)
        est = estimate_trace(_repeated(h, 1), scheme, ZeroNoise())
        assert np.allclose(est.values[0, 0], h, atol=1e-12)

    def test_tau_one_matched_filter(self):
        # Y = sqrt(rho) h + Z with rho = 4; the estimate is Y / 2
        scheme = PilotScheme(np.array([1.0 + 0j]), 4.0)
        h = np.array([1.0 + 0.5j, 0.5 - 0.5j])
        y = 2.0 * h + (1 + 1j) / np.sqrt(2)
        est = estimate_trace(_repeated(h, 1), scheme, UnitNoise())
        assert np.allclose(est.values[0, 0], y / 2.0)

    def test_error_variance_matches_analytic(self):
        # per-element error variance 1/(rho*tau) = 0.5 at 0 dB, tau = 2
        scheme = PilotScheme.dft(2, 1, snr_db=0.0)
        m, trials = 8, 10_000
        h = stream(7, "h").standard_normal(m) + 1j * stream(8, "h").standard_normal(m)
        est = estimate_trace(_repeated(h, trials), scheme, stream(6, "z"))
        var = np.mean(np.abs(est.values - h) ** 2)
        assert abs(var - 0.5) / 0.5 < 0.10

    def test_unbiased(self):
        scheme = PilotScheme.dft(4, 1, snr_db=10.0)
        m, trials = 8, 10_000
        h = np.ones(m, dtype=complex)
        est = estimate_trace(_repeated(h, trials), scheme, stream(9, "z"))
        errs = np.mean(est.values - h, axis=0)
        sigma = np.sqrt(0.025 / trials)  # complex variance 1/(rho*tau) per element
        assert np.all(np.abs(errs) < 3 * sigma + 1e-9)

    def test_degenerate_pilot_rejected(self):
        scheme = PilotScheme(np.array([1.0 + 0j]), 4.0)
        object.__setattr__(scheme, "pilot", np.array([0.0 + 0j]))
        with pytest.raises((ContractError, ConfigError)):
            estimate_trace(_repeated(np.ones(2, dtype=complex), 3), scheme, stream(0, "z"))


@pytest.fixture(scope="module")
def truth():
    cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=4, seed=13)
    return synthesize(cfg, draw_paths(cfg), 50)


class TestEstimateTrace:
    def test_noise_suppressed_identity(self, truth):
        scheme = PilotScheme.dft(4, 1, snr_db=10.0)
        est = estimate_trace(truth, scheme, ZeroNoise())
        assert np.allclose(est.values, truth.values, atol=1e-12)
        assert est.provenance == "estimated"

    def test_deterministic(self, truth):
        scheme = PilotScheme.dft(4, 1, snr_db=10.0)
        a = estimate_trace(truth, scheme, stream(14, "pilot-noise"))
        b = estimate_trace(truth, scheme, stream(14, "pilot-noise"))
        assert np.array_equal(a.values, b.values)

    def test_per_subcarrier_nmse_matches_analytic(self):
        cfg = ChannelConfig(m_h=4, m_v=4, n_subcarriers=10, seed=15)
        truth = synthesize(cfg, draw_paths(cfg), 200)
        scheme = PilotScheme.dft(4, 1, snr_db=10.0)
        est = estimate_trace(truth, scheme, stream(15, "pilot-noise"))
        for l in range(0, 10, 3):
            err = est.values[:, l] - truth.values[:, l]
            nmse = np.sum(np.abs(err) ** 2) / np.sum(np.abs(truth.values[:, l]) ** 2)
            assert abs(nmse - 0.025) / 0.025 < 0.10

    def test_errors_independent_across_cells(self, truth):
        scheme = PilotScheme.dft(4, 1, snr_db=0.0)
        est = estimate_trace(truth, scheme, stream(16, "pilot-noise"))
        err = (est.values - truth.values).reshape(truth.n_blocks, -1)
        # sample cross-covariance between distinct (l, m) error streams
        c = err - err.mean(axis=0)
        cov = (c[:, :8].T.conj() @ c[:, 8:16]) / truth.n_blocks
        bound = 3.0 / np.sqrt(truth.n_blocks)  # error variance is 1/(rho*tau) = 0.25
        assert np.all(np.abs(cov) < bound)

    def test_wrong_domain_or_provenance(self, truth):
        scheme = PilotScheme.dft(4, 1, snr_db=10.0)
        est = estimate_trace(truth, scheme, stream(0, "n"))
        with pytest.raises(ContractError):
            estimate_trace(est, scheme, stream(0, "n"))

    def test_snr_conversion(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(0.0) == pytest.approx(1.0)
        with pytest.raises(ConfigError):
            PilotScheme(dft_pilot(4, 1), -1.0).validate()
