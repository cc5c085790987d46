"""LS pilot estimation (estimate_trace) against its analytic oracles."""

import re

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

    def standard_normal(self, out):
        out[...] = 1.0
        return out


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
    cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=4)
    return synthesize(cfg, draw_paths(cfg, 13), 50)


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
        cfg = ChannelConfig(m_h=4, m_v=4, n_subcarriers=10)
        truth = synthesize(cfg, draw_paths(cfg, 15), 200)
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

    def test_kept_blocks_have_the_bits_of_the_whole(self):
        # runs of 64-block chunks 0 (two of them) and 2; chunk 1 keeps none
        cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=3)
        truth = synthesize(cfg, draw_paths(cfg, 17), 150)
        scheme = PilotScheme.dft(4, 1, snr_db=5.0)
        whole = estimate_trace(truth, scheme, stream(17, "pilot-noise")).values
        keep = [(0, 3), (40, 64), (130, 131), (140, 150)]
        part = estimate_trace(truth, scheme, stream(17, "pilot-noise"), keep=keep)
        want = np.concatenate([whole[lo:hi] for lo, hi in keep])
        assert np.array_equal(part.values.view(np.uint64), want.view(np.uint64))
        assert part.provenance == "estimated"

    def test_unkept_chunks_only_draw(self, monkeypatch):
        # every chunk draws its real, then its imaginary parts; only the two
        # chunks with kept blocks compute, one matmul per run of kept blocks
        cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=3)
        truth = synthesize(cfg, draw_paths(cfg, 18), 150)
        scheme = PilotScheme.dft(4, 1, snr_db=5.0)
        draws, matmuls = [], []

        class Counted:
            def __init__(self):
                self.rng = stream(18, "pilot-noise")

            def standard_normal(self, out):
                draws.append(out.shape[0])
                return self.rng.standard_normal(out=out)

        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: matmuls.append(1) or matmul(*a, **k))
        rng = Counted()
        estimate_trace(truth, scheme, rng, keep=[(5, 10), (130, 140)])
        assert draws == [64, 64, 64, 64, 22, 22] and len(matmuls) == 2
        # an estimate of a few kept blocks leaves the stream where a whole
        # estimate leaves it
        rng, skipped = stream(18, "pilot-noise"), stream(18, "pilot-noise")
        estimate_trace(truth, scheme, rng)
        estimate_trace(truth, scheme, skipped, keep=[(5, 10), (130, 140)])
        assert rng.standard_normal() == skipped.standard_normal()

    @pytest.mark.parametrize("keep, bad", [
        pytest.param([(0, 50)], "(0, 50)", id="past-the-end"),
        pytest.param([(-2, 4)], "(-2, 4)", id="negative"),
        pytest.param([(0, 6), (4, 9)], "(4, 9)", id="overlapping"),
        pytest.param([(5, 8), (0, 3)], "(0, 3)", id="descending"),
        pytest.param([(0, 3), (3, 3)], "(3, 3)", id="empty"),
    ])
    def test_keep_outside_ascending_disjoint_ranges_refused(self, keep, bad):
        # such a keep once returned blocks of uninitialized memory that passed validation
        cfg = ChannelConfig(m_h=2, m_v=1, n_subcarriers=2)
        truth = synthesize(cfg, draw_paths(cfg, 3), 10)
        with pytest.raises(ContractError, match=re.escape(f"keep range {bad} is not ascending, "
                                                          "disjoint, non-empty and inside [0, 10)")):
            estimate_trace(truth, PilotScheme.dft(4, 1, snr_db=5.0), stream(3, "n"), keep=keep)

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
