"""Correlation diagnostics against closed forms and a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanpred import (
    ChannelConfig,
    ChannelTensor,
    ContractError,
    correlation_report,
    draw_paths,
    series_view,
    synthesize,
)
from chanpred.estimation import PilotScheme, estimate_trace
from chanpred.rng import stream


def _copied_window_curves(x, max_shift, n_avg):
    # per-shift reference: both windows of every Gram copied contiguously
    def gram(x1, x2):
        n, s, d = x1.shape
        a = np.ascontiguousarray(x1.conj().transpose(1, 0, 2)).reshape(s, n * d)
        b = np.ascontiguousarray(x2.transpose(1, 0, 2)).reshape(s, n * d)
        return (a @ b.T) / n

    diag0 = np.real(np.diag(gram(x[:n_avg], x[:n_avg])))
    denom = np.sqrt(np.outer(diag0, diag0))
    mask = ~np.eye(x.shape[1], dtype=bool)
    auto, cross = np.empty(max_shift + 1), np.empty(max_shift + 1)
    for shift in range(max_shift + 1):
        norm = np.abs(gram(x[:n_avg], x[shift:shift + n_avg])) / denom
        auto[shift] = float(np.mean(np.diag(norm)))
        cross[shift] = float(np.mean(norm[mask]))
    return auto, cross


class TestAutoCorrelation:
    def test_shift_zero_is_mean_square_norm(self):
        # R(0) is the mean square norm over the first n_avg blocks only: a
        # constant series whose blocks after the window are doubled has
        # R(k)/R(0) = mean(c[k:k+n_avg]) = 1 + k/n_avg in both domains
        n_avg, max_shift = 20, 6
        H = np.array([[1 + 2j, -1j, 0.5], [0.5j, 1.0, -2.0]])
        scale = np.where(np.arange(n_avg + max_shift) < n_avg, 1.0, 2.0)
        values = scale[:, None, None] * H
        rep = correlation_report(ChannelTensor(values, "true"), max_shift=max_shift, n_avg=n_avg)
        expected = 1.0 + np.arange(max_shift + 1) / n_avg
        assert rep.subcarrier_auto == pytest.approx(expected, abs=1e-12)
        assert rep.antenna_auto == pytest.approx(expected, abs=1e-12)

    def test_insufficient_length(self):
        # n_avg + max_shift blocks are needed, and are enough
        rng = stream(1, "seq")
        values = rng.standard_normal((15, 2, 3)) + 1j * rng.standard_normal((15, 2, 3))
        with pytest.raises(ContractError, match="too short"):
            correlation_report(ChannelTensor(values[:14], "true"), max_shift=5, n_avg=10)
        rep = correlation_report(ChannelTensor(values, "true"), max_shift=5, n_avg=10)
        assert len(rep.subcarrier_auto) == 6


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
        for series, S, report_auto, report_cross in (
                (lambda n, l: v[n, l], small_trace.n_subcarriers,
                 rep.subcarrier_auto, rep.subcarrier_cross),
                (lambda n, m: v[n, :, m], small_trace.n_antennas,
                 rep.antenna_auto, rep.antenna_cross)):
            r0 = [sum(np.vdot(series(n, s), series(n, s)).real for n in range(n_avg)) / n_avg
                  for s in range(S)]
            for shift in range(max_shift + 1):
                autos, crosses = [], []
                for s in range(S):
                    r = sum(np.vdot(series(n, s), series(n + shift, s))
                            for n in range(n_avg)) / n_avg
                    autos.append(abs(r) / r0[s])
                for i in range(S):
                    for j in range(S):
                        if i == j:
                            continue
                        r = sum(np.vdot(series(n, i), series(n + shift, j))
                                for n in range(n_avg)) / n_avg
                        crosses.append(abs(r) / np.sqrt(r0[i] * r0[j]))
                assert report_auto[shift] == pytest.approx(np.mean(autos), abs=1e-12)
                assert report_cross[shift] == pytest.approx(np.mean(crosses), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 12), st.integers(0, 6),
           st.booleans(), st.integers(0, 10 ** 6))
    def test_bits_match_copied_windows(self, L, M, n_avg, max_shift, strided, seed):
        # the report reads shifted windows as views; a reference that copies
        # each window contiguously must give the same bits in both domains
        n = n_avg + max_shift
        rng = stream(seed, "corr-bits")
        base = rng.standard_normal((2 * n, L, M + 1)) + 1j * rng.standard_normal((2 * n, L, M + 1))
        values = base[::2, :, :M] if strided else np.ascontiguousarray(base[:n, :, :M])
        assert values.flags.c_contiguous != strided
        rep = correlation_report(ChannelTensor(values, "true"), max_shift=max_shift, n_avg=n_avg)
        for domain, auto, cross in (("subcarrier", rep.subcarrier_auto, rep.subcarrier_cross),
                                    ("antenna", rep.antenna_auto, rep.antenna_cross)):
            ref_auto, ref_cross = _copied_window_curves(
                np.ascontiguousarray(series_view(values, domain)), max_shift, n_avg)
            assert np.array_equal(auto, ref_auto)
            assert np.array_equal(cross, ref_cross)

    def test_rotating_sequence_closed_form(self):
        # h_n = exp(j*w*n) H  =>  R(shift) = exp(j*w*shift) ||series||^2: magnitude 1 normalized
        rng = stream(3, "rotating")
        H = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        values = np.exp(1j * 0.3 * np.arange(50))[:, None, None] * H
        rep = correlation_report(ChannelTensor(values, "true"), max_shift=7, n_avg=40)
        assert rep.subcarrier_auto == pytest.approx(np.ones(8), abs=1e-12)
        assert rep.antenna_auto == pytest.approx(np.ones(8), abs=1e-12)

    def test_constant_sequence(self):
        # constant series: every shift gives the normalized inner products of shift 0
        H = np.array([[1 + 2j, -1j, 0.5], [0.5j, 1.0, -2.0]])
        values = np.tile(H, (40, 1, 1))
        rep = correlation_report(ChannelTensor(values, "true"), max_shift=5, n_avg=30)
        for series, auto, cross in ((H, rep.subcarrier_auto, rep.subcarrier_cross),
                                    (H.T, rep.antenna_auto, rep.antenna_cross)):
            norms = np.linalg.norm(series, axis=1)
            cos = np.abs(series.conj() @ series.T) / np.outer(norms, norms)
            expected = np.mean(cos[~np.eye(len(series), dtype=bool)])
            assert auto == pytest.approx(np.ones(6), abs=1e-12)
            assert cross == pytest.approx(np.full(6, expected), abs=1e-12)

    def test_orthogonal_constant_sequences(self):
        # series (1, 0) and (0, 1) in both domains, constant in time
        values = np.tile(np.eye(2, dtype=complex), (30, 1, 1))
        rep = correlation_report(ChannelTensor(values, "true"), max_shift=2, n_avg=20)
        assert np.all(rep.subcarrier_cross == 0)
        assert np.all(rep.antenna_cross == 0)

    def test_independent_gaussian_sequences_decorrelate(self):
        # concentration of the sample inner product: normalized magnitude < 0.1
        rng = stream(4, "iid")
        values = rng.standard_normal((2001, 3, 50)) + 1j * rng.standard_normal((2001, 3, 50))
        rep = correlation_report(ChannelTensor(values, "true"), max_shift=1, n_avg=2000)
        assert np.all(rep.subcarrier_cross < 0.1)
        assert np.all(rep.antenna_cross < 0.1)
        assert rep.subcarrier_auto[1] < 0.1 and rep.antenna_auto[1] < 0.1

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

    @pytest.mark.parametrize("shape, domain", [((30, 4, 1), "antenna"),
                                               ((30, 1, 4), "subcarrier")])
    def test_single_series_domain_rejected(self, shape, domain):
        # the cross curve averages over pairs of distinct series; one series has none
        rng = stream(2, "seq")
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        with pytest.raises(ContractError, match=f"{domain} domain has 1 series"):
            correlation_report(ChannelTensor(values, "true"), max_shift=2, n_avg=20)

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
