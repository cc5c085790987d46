"""Correlation diagnostics against closed forms and a brute-force oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanpred import (
    ChannelConfig,
    ChannelTensor,
    ContractError,
    SynthesizedLink,
    correlation_report,
    draw_paths,
    series_view,
    synthesize,
)
from chanpred.channel import SYNTH_CHUNK
from chanpred.correlation import _fft_length
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


def _assert_near_copied_windows(rep, values, max_shift, n_avg):
    # the report sums in another order than the per-shift reference
    for domain, auto, cross in (("subcarrier", rep.subcarrier_auto, rep.subcarrier_cross),
                                ("antenna", rep.antenna_auto, rep.antenna_cross)):
        ref_auto, ref_cross = _copied_window_curves(
            np.ascontiguousarray(series_view(values, domain)), max_shift, n_avg)
        assert np.allclose(auto, ref_auto, rtol=0, atol=1e-13)
        assert np.allclose(cross, ref_cross, rtol=0, atol=1e-13)


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
    cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=5)
    return synthesize(cfg, draw_paths(cfg, 31), 60)


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
        # strided values give the bits of a contiguous copy of them, and both
        # domains agree with a reference that copies every shifted window
        n = n_avg + max_shift
        rng = stream(seed, "corr-bits")
        base = rng.standard_normal((2 * n, L, M + 1)) + 1j * rng.standard_normal((2 * n, L, M + 1))
        values = base[::2, :, :M] if strided else np.ascontiguousarray(base[:n, :, :M])
        assert values.flags.c_contiguous != strided
        rep = correlation_report(ChannelTensor(values, "true"), max_shift=max_shift, n_avg=n_avg)
        copied = correlation_report(ChannelTensor(np.ascontiguousarray(values), "true"),
                                    max_shift=max_shift, n_avg=n_avg)
        for curve in ("subcarrier_auto", "subcarrier_cross", "antenna_auto", "antenna_cross"):
            assert np.array_equal(getattr(rep, curve), getattr(copied, curve))
        _assert_near_copied_windows(rep, values, max_shift, n_avg)

    @pytest.mark.parametrize("max_shift", [0, 1, 16])
    @pytest.mark.parametrize("segs, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
    def test_windows_straddling_segments(self, max_shift, segs, extra):
        # lags come from FFT segments of seg blocks; windows of n_avg =
        # segs * seg + extra end before, on and after a segment boundary
        n_avg = segs * (_fft_length(max_shift) - max_shift) + extra
        rng = stream(n_avg + max_shift, "corr-segments")
        shape = (n_avg + max_shift, 3, 4)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rep = correlation_report(ChannelTensor(values, "true"), max_shift=max_shift, n_avg=n_avg)
        _assert_near_copied_windows(rep, values, max_shift, n_avg)

    def test_peak_memory_below_half_the_tensor(self):
        # the report holds per-segment FFTs and (S, S) sums, never a copy of
        # the tensor or of a domain's series
        rng = stream(5, "corr-memory")
        shape = (520, 20, 32)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tensor = ChannelTensor(values, "true")
        tracemalloc.start()
        try:
            correlation_report(tensor, max_shift=16, n_avg=504)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tensor_bytes = values.nbytes
        assert peak < tensor_bytes / 2

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
        # the correlate CSV has one row per shift 0..max_shift in each domain,
        # read from these curves: one value per shift, shift 0 first
        rep = correlation_report(small_trace, max_shift=3, n_avg=50)
        for curve in ("subcarrier_auto", "subcarrier_cross", "antenna_auto", "antenna_cross"):
            assert getattr(rep, curve).shape == (4,)


class TestSynthesizedLink:
    """The study of a link made window by window has the bits of the whole link's."""

    @pytest.mark.parametrize("blocks, max_shift", [
        (255, 16), (256, 16), (257, 16),             # around one chunk edge
        (511, 16), (512, 16), (513, 16),             # around two
        (513, 250)])                                 # windows longer than a chunk
    def test_bits_match_whole_link(self, blocks, max_shift):
        cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=5)
        paths = draw_paths(cfg, blocks)
        n_avg = blocks - max_shift
        seg = _fft_length(max_shift) - max_shift
        # some segment's window [start, stop + max_shift) crosses a chunk edge
        last_blocks = [min(start + seg, n_avg) + max_shift - 1 for start in range(0, n_avg, seg)]
        crossing = [start for start, last in zip(range(0, n_avg, seg), last_blocks)
                    if start // SYNTH_CHUNK != last // SYNTH_CHUNK]
        assert bool(crossing) == (blocks > SYNTH_CHUNK)
        whole = correlation_report(synthesize(cfg, paths, blocks), max_shift, n_avg)
        streamed = correlation_report(SynthesizedLink(cfg, paths, blocks), max_shift, n_avg)
        for curve in ("subcarrier_auto", "subcarrier_cross", "antenna_auto", "antenna_cross"):
            assert np.array_equal(getattr(streamed, curve), getattr(whole, curve))

    def test_too_short_link_rejected(self):
        cfg = ChannelConfig(m_h=2, m_v=2, n_subcarriers=5)
        link = SynthesizedLink(cfg, draw_paths(cfg, 3), 30)
        with pytest.raises(ContractError, match="link of 30 blocks too short"):
            correlation_report(link, max_shift=5, n_avg=26)
        assert len(correlation_report(link, max_shift=5, n_avg=25).antenna_auto) == 6
