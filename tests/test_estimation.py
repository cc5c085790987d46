"""Pilot model and LS estimator against their analytic oracles."""

import numpy as np
import pytest

from chanpred import (
    ChannelConfig,
    ConfigError,
    ContractError,
    PilotScheme,
    db_to_linear,
    dft_pilot,
    draw_paths,
    estimate_trace,
    ls_estimate,
    synthesize,
    transmit_pilots,
)
from chanpred.rng import stream


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


class TestTransmitPilots:
    def test_noise_suppressed_exact(self):
        scheme = PilotScheme.dft(4, 1, snr_db=10.0)
        h = np.array([1 + 1j, -2j, 0.5, 0.25 - 0.25j])
        y = transmit_pilots(h, scheme, stream(0, "z"), noise=False)
        assert np.allclose(y, np.sqrt(scheme.snr) * np.outer(h, scheme.pilot))

    def test_pure_noise_unit_variance(self):
        scheme = PilotScheme.dft(2, 1, snr_db=0.0)
        rng = stream(1, "z")
        draws = np.stack([transmit_pilots(np.zeros(8), scheme, rng) for _ in range(2000)])
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.05

    def test_received_energy(self):
        # E||Y||_F^2 = rho*||h||^2*tau + M*tau
        rho, tau, m = 10.0, 4, 6
        scheme = PilotScheme(dft_pilot(tau, 1), rho)
        h = np.zeros(m, dtype=complex)
        h[0] = 1.0
        rng = stream(2, "z")
        energy = np.mean([np.sum(np.abs(transmit_pilots(h, scheme, rng)) ** 2)
                          for _ in range(10_000)])
        expected = rho * tau + m * tau
        assert abs(energy - expected) / expected < 0.05


class TestLsEstimate:
    def test_inverts_noiseless_model(self):
        scheme = PilotScheme.dft(4, 2, snr_db=7.0)
        h = stream(3, "h").standard_normal(16) + 1j * stream(4, "h").standard_normal(16)
        y = transmit_pilots(h, scheme, stream(5, "z"), noise=False)
        assert np.allclose(ls_estimate(y, scheme), h, atol=1e-12)

    def test_error_variance_matches_analytic(self):
        # per-element error variance 1/(rho*tau) = 0.025 at 10 dB, tau = 4
        scheme = PilotScheme.dft(4, 1, snr_db=10.0)
        m, trials = 8, 10_000
        rng = stream(6, "z")
        h = stream(7, "h").standard_normal(m) + 1j * stream(8, "h").standard_normal(m)
        errs = np.empty((trials, m), dtype=complex)
        for i in range(trials):
            errs[i] = ls_estimate(transmit_pilots(h, scheme, rng), scheme) - h
        var = np.mean(np.abs(errs) ** 2)
        assert abs(var - 0.025) / 0.025 < 0.10

    def test_unbiased(self):
        scheme = PilotScheme.dft(4, 1, snr_db=10.0)
        m, trials = 8, 10_000
        rng = stream(9, "z")
        h = np.ones(m, dtype=complex)
        errs = np.mean([ls_estimate(transmit_pilots(h, scheme, rng), scheme) - h
                        for i in range(trials)], axis=0)
        sigma = np.sqrt(0.025 / trials)  # complex variance 1/(rho*tau) per element
        assert np.all(np.abs(errs) < 3 * sigma + 1e-9)

    def test_tau_one_matched_filter(self):
        scheme = PilotScheme(np.array([1.0 + 0j]), 4.0)
        y = np.array([[2.0 + 1j], [1.0 - 1j]])
        assert np.allclose(ls_estimate(y, scheme), y[:, 0] / 2.0)

    def test_degenerate_pilot_rejected(self):
        scheme = PilotScheme(np.array([1.0 + 0j]), 4.0)
        object.__setattr__(scheme, "pilot", np.array([0.0 + 0j]))
        with pytest.raises((ContractError, ConfigError)):
            ls_estimate(np.ones((2, 1), dtype=complex), scheme)

    def test_shape_check(self):
        scheme = PilotScheme.dft(4, 1)
        with pytest.raises(ContractError):
            ls_estimate(np.ones((2, 3), dtype=complex), scheme)


@pytest.fixture(scope="module")
def truth():
    cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=4, seed=13)
    return synthesize(cfg, draw_paths(cfg), 50)


class TestEstimateTrace:
    def test_noise_suppressed_identity(self, truth):
        scheme = PilotScheme.dft(4, 1, snr_db=10.0)
        est = estimate_trace(truth, scheme, stream(0, "n"), noise=False)
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
