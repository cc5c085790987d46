"""Correlation diagnostics against closed forms and a brute-force oracle."""

import numpy as np
import pytest

from chanpred import (
    ChannelConfig,
    ContractError,
    auto_correlation,
    correlation_report,
    cross_correlation,
    draw_paths,
    synthesize,
)
from chanpred.estimation import PilotScheme, estimate_trace
from chanpred.rng import stream
from conftest import random_tensor


def _seq(seed, n=60, d=4):
    rng = stream(seed, "seq")
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


class TestAutoCorrelation:
    def test_shift_zero_is_mean_square_norm(self):
        s = _seq(0)
        r0 = auto_correlation(s, 0, 50)
        assert abs(r0.imag) < 1e-12
        assert r0.real == pytest.approx(np.mean(np.sum(np.abs(s[:50]) ** 2, axis=1)))

    def test_constant_sequence(self):
        v = np.array([1 + 2j, -1j, 0.5])
        s = np.tile(v, (40, 1))
        for shift in (0, 1, 5):
            assert auto_correlation(s, shift, 30) == pytest.approx(np.sum(np.abs(v) ** 2))

    def test_rotating_sequence_closed_form(self):
        # seq_n = exp(j*w*n) v  =>  R(tau) = exp(j*w*tau) ||v||^2
        v = np.array([1.0, 2j, -0.5 + 0.5j])
        w = 0.3
        n = np.arange(50)
        s = np.exp(1j * w * n)[:, None] * v
        for shift in (0, 1, 3, 7):
            expected = np.exp(1j * w * shift) * np.sum(np.abs(v) ** 2)
            assert auto_correlation(s, shift, 40) == pytest.approx(expected)

    def test_insufficient_length(self):
        with pytest.raises(ContractError):
            auto_correlation(_seq(1, n=10), 5, 10)


class TestCrossCorrelation:
    def test_reduces_to_auto(self):
        s = _seq(2)
        assert cross_correlation(s, s, 3, 40) == auto_correlation(s, 3, 40)

    def test_orthogonal_constant_sequences(self):
        a = np.tile(np.array([1.0, 0.0]), (30, 1)).astype(complex)
        b = np.tile(np.array([0.0, 1.0]), (30, 1)).astype(complex)
        for shift in (0, 2):
            assert cross_correlation(a, b, shift, 20) == 0

    def test_independent_gaussian_sequences_decorrelate(self):
        # concentration of the sample inner product: normalized magnitude < 0.1
        a = _seq(3, n=2000, d=50)
        b = _seq(4, n=2000, d=50)
        r = cross_correlation(a, b, 0, 2000)
        norm = np.sqrt(auto_correlation(a, 0, 2000).real * auto_correlation(b, 0, 2000).real)
        assert abs(r) / norm < 0.1

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            cross_correlation(_seq(5, d=3), _seq(6, d=4), 0, 10)

    def test_hermitian_symmetry(self):
        a, b = _seq(7), _seq(8)
        for shift in (1, 4):
            lhs = cross_correlation(a, b, shift, 30)
            rhs = np.conj(cross_correlation(b, a, -shift, 30))
            assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.fixture(scope="module")
def small_trace():
    cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=5, seed=31)
    return synthesize(cfg, draw_paths(cfg), 60)


class TestCorrelationReport:
    def test_matches_brute_force(self, small_trace):
        # vectorized report vs naive double loop, exact for N_avg <= 50
        n_avg, max_shift = 40, 4
        rep = correlation_report(small_trace, max_shift=max_shift, n_avg=n_avg)
        v = small_trace.values
        L = small_trace.n_subcarriers
        r0 = [sum(np.vdot(v[n, l], v[n, l]).real for n in range(n_avg)) / n_avg
              for l in range(L)]
        for shift in range(max_shift + 1):
            autos, crosses = [], []
            for l in range(L):
                r = sum(np.vdot(v[n, l], v[n + shift, l]) for n in range(n_avg)) / n_avg
                autos.append(abs(r) / r0[l])
            for i in range(L):
                for j in range(L):
                    if i == j:
                        continue
                    r = sum(np.vdot(v[n, i], v[n + shift, j]) for n in range(n_avg)) / n_avg
                    crosses.append(abs(r) / np.sqrt(r0[i] * r0[j]))
            assert rep.subcarrier_auto[shift] == pytest.approx(np.mean(autos), abs=1e-12)
            assert rep.subcarrier_cross[shift] == pytest.approx(np.mean(crosses), abs=1e-12)

    def test_auto_is_one_at_shift_zero(self, small_trace):
        rep = correlation_report(small_trace, max_shift=3, n_avg=50)
        assert rep.subcarrier_auto[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.antenna_auto[0] == pytest.approx(1.0, abs=1e-12)

    def test_cauchy_schwarz(self, small_trace):
        rep = correlation_report(small_trace, max_shift=5, n_avg=50)
        for arr in (rep.subcarrier_auto, rep.subcarrier_cross,
                    rep.antenna_auto, rep.antenna_cross):
            assert np.all(arr <= 1.0 + 1e-9)
            assert np.all(arr >= 0.0)

    def test_default_channel_reproduces_both_regimes(self, default_trace):
        # the published study's regime: subcarrier channels almost fully
        # cross-correlated, antenna-domain channels nearly uncorrelated,
        # temporal autocorrelation high everywhere
        rep = correlation_report(default_trace, max_shift=16, n_avg=2000)
        assert np.all(rep.subcarrier_cross > 0.9)
        assert np.all(rep.antenna_cross < 0.3)
        assert np.all(rep.subcarrier_auto > 0.9)
        assert np.all(rep.antenna_auto > 0.9)

    def test_requires_true_provenance(self, small_trace):
        est = estimate_trace(small_trace, PilotScheme.dft(4, 1, snr_db=10.0),
                             stream(0, "n"))
        with pytest.raises(ContractError):
            correlation_report(est, max_shift=2, n_avg=20)

    def test_insufficient_blocks(self, small_trace):
        with pytest.raises(ContractError):
            correlation_report(small_trace, max_shift=20, n_avg=50)

    @pytest.mark.parametrize("n_avg", [0, -5])
    def test_averaging_window_must_be_positive(self, small_trace, n_avg):
        with pytest.raises(ContractError, match="n_avg"):
            correlation_report(small_trace, max_shift=2, n_avg=n_avg)

    def test_rows_layout(self, small_trace):
        rep = correlation_report(small_trace, max_shift=3, n_avg=50)
        rows = rep.rows()
        assert len(rows) == 2 * 4
        assert [r[1] for r in rows[:4]] == ["subcarrier"] * 4
        assert [r[0] for r in rows[:4]] == [0, 1, 2, 3]
