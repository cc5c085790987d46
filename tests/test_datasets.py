"""Window arithmetic, real/imag packing, pooling, and normalization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanpred import (
    ChannelConfig,
    ChannelTensor,
    ConfigError,
    ContractError,
    DatasetSpec,
    build_jl,
    build_jldt,
    build_series_dataset,
    complex_to_real,
    draw_paths,
    fit_scale,
    real_to_complex,
    series_view,
    synthesize,
)
from chanpred.estimation import PilotScheme, estimate_trace
from chanpred.rng import stream


def _pair(seed=5, n=40, l=3, m_h=2, m_v=2):
    cfg = ChannelConfig(m_h=m_h, m_v=m_v, n_subcarriers=l, n_paths=7, seed=seed)
    truth = synthesize(cfg, draw_paths(cfg), n)
    est = estimate_trace(truth, PilotScheme.dft(4, 1, snr_db=10.0),
                         stream(seed, "pilot-noise"))
    return truth, est


class TestComplexRealSplit:
    def test_definition(self):
        assert np.array_equal(complex_to_real(np.array([1 + 2j, 3 - 1j])),
                              [1.0, 3.0, 2.0, -1.0])

    def test_real_vector_has_zero_imag_half(self):
        out = complex_to_real(np.array([1.0, -2.0], dtype=complex))
        assert np.array_equal(out[2:], [0.0, 0.0])

    def test_round_trip(self):
        rng = stream(1, "v")
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.array_equal(real_to_complex(complex_to_real(v)), v)

    def test_odd_length_rejected(self):
        with pytest.raises(ContractError):
            real_to_complex(np.zeros(5))


class TestDatasetSpec:
    def test_gap_must_exceed_n_tr(self):
        with pytest.raises(ConfigError, match="n_gap"):
            DatasetSpec(n0=3, n_tr=1000, n_te=10, n_gap=900).validate()

    def test_valid(self):
        DatasetSpec(n0=3, n_tr=5, n_te=3, n_gap=8).validate()   # n_gap = n_tr + n0
        with pytest.raises(ConfigError, match="n_gap"):
            DatasetSpec(n0=3, n_tr=5, n_te=3, n_gap=7).validate()


class TestBuildSeriesDataset:
    def test_train_window_arithmetic(self):
        # n0=3, n_tr=5: first row features from blocks (1,2,3), label block 4
        truth, est = _pair()
        spec = DatasetSpec(n0=3, n_tr=5, n_te=2, n_gap=8)
        ds, _ = build_series_dataset(est, ("subcarrier", 1), spec)
        assert ds.n_rows == 5
        v = series_view(est.values, "subcarrier")[:, 1]
        first = np.concatenate([complex_to_real(v[i]) for i in range(3)])
        assert np.array_equal(ds.features[0], first)
        assert np.array_equal(ds.labels[0], complex_to_real(v[3]))
        assert ds.block_end[0] == 3 and ds.block_end[-1] == 7

    def test_window_consistency_every_row(self):
        truth, est = _pair()
        spec = DatasetSpec(n0=2, n_tr=6, n_te=3, n_gap=8)
        for ds in build_series_dataset(est, ("subcarrier", 0), spec):
            v = series_view(est.values, "subcarrier")[:, 0]
            for r in range(ds.n_rows):
                end = ds.block_end[r]
                window = ds.features[r].reshape(spec.n0, -1)
                for w in range(spec.n0):
                    assert np.array_equal(real_to_complex(window[w]),
                                          v[end - spec.n0 + w])
                assert np.array_equal(real_to_complex(ds.labels[r]), v[end])

    def test_paper_scale_widths(self):
        # n0=3, M=64 -> feature width 384, label width 128
        cfg = ChannelConfig(m_h=8, m_v=8, n_subcarriers=2, seed=3)
        truth = synthesize(cfg, draw_paths(cfg), 12)
        est = estimate_trace(truth, PilotScheme.dft(4, 1, snr_db=10.0), stream(0, "n"))
        ds, _ = build_series_dataset(est, ("subcarrier", 0),
                                     DatasetSpec(n0=3, n_tr=4, n_te=1, n_gap=7))
        assert ds.features.shape == (4, 384)
        assert ds.labels.shape == (4, 128)

    def test_test_phase_index_range(self):
        # N_gap=1500, N_te=200, n0=3: last test window ends at block 1702,
        # label block 1703 (index arithmetic oracle)
        values = (np.arange(1704, dtype=float)[:, None, None]
                  + 0j * np.zeros((1704, 1, 1)))
        est = ChannelTensor(values + 1j, "estimated")
        spec = DatasetSpec(n0=3, n_tr=1000, n_te=200, n_gap=1500)
        _, ds = build_series_dataset(est, ("subcarrier", 0), spec)
        assert ds.n_rows == 200
        assert ds.block_end[0] == 1503 and ds.block_end[-1] == 1702
        # the label of the last row is the channel at block 1703 (0-based 1702)
        assert real_to_complex(ds.labels[-1])[0] == values[1702, 0, 0] + 1j

    def test_insufficient_blocks_rejected(self):
        truth, est = _pair(n=20)
        with pytest.raises(ContractError):
            build_series_dataset(est, ("subcarrier", 0),
                                 DatasetSpec(n0=3, n_tr=30, n_te=2, n_gap=33))
        with pytest.raises(ContractError):
            build_series_dataset(est, ("subcarrier", 0),
                                 DatasetSpec(n0=3, n_tr=5, n_te=10, n_gap=8))

    def test_provenance_and_domain_contracts(self):
        truth, est = _pair()
        spec = DatasetSpec(n0=2, n_tr=4, n_te=2, n_gap=6)
        with pytest.raises(ContractError):
            build_series_dataset(truth, ("subcarrier", 0), spec)
        with pytest.raises(ContractError):
            build_series_dataset(est, ("diagonal", 0), spec)   # not a domain
        with pytest.raises(ContractError):
            build_series_dataset(est, ("subcarrier", 99), spec)
        # L=3 subcarriers, M=4 antennas: index 3 exists only in the antenna view
        assert build_series_dataset(est, ("antenna", 3), spec)[0].n_rows == 4
        for series in (("subcarrier", 3), ("antenna", 4), ("antenna", -1)):
            with pytest.raises(ContractError, match="out of range"):
                build_series_dataset(est, series, spec)


class TestPooledBuilders:
    def test_jl_row_counts_paper_values(self):
        # L=50, N'_tr=20 -> 1000 pooled training rows
        cfg = ChannelConfig(m_h=1, m_v=2, n_subcarriers=50, seed=7)
        truth = synthesize(cfg, draw_paths(cfg), 48)
        est = estimate_trace(truth, PilotScheme.dft(4, 1, snr_db=10.0), stream(7, "n"))
        train, test = build_jl(est, DatasetSpec(n0=3, n_tr=20, n_te=2, n_gap=42))
        assert train.n_rows == 1000
        assert test.n_rows == 100

    def test_jl_small_arithmetic(self):
        # L=4, N'_tr=3, N_te=2 -> 12 train rows, 8 test rows
        truth, est = _pair(l=4)
        train, test = build_jl(est, DatasetSpec(n0=2, n_tr=3, n_te=2, n_gap=5))
        assert train.n_rows == 12
        assert test.n_rows == 8

    def test_jl_degenerate_single_subcarrier(self):
        truth, est = _pair(l=1)
        spec = DatasetSpec(n0=2, n_tr=4, n_te=2, n_gap=6)
        train, _ = build_jl(est, spec)
        series, _ = build_series_dataset(est, ("subcarrier", 0), spec)
        assert np.array_equal(train.features, series.features)
        assert np.array_equal(train.labels, series.labels)

    def test_union_order_series_major_time_minor(self):
        truth, est = _pair(l=3)
        train, _ = build_jl(est, DatasetSpec(n0=2, n_tr=4, n_te=2, n_gap=6))
        assert np.array_equal(train.series, np.repeat([0, 1, 2], 4))
        assert np.array_equal(train.block_end, np.tile([2, 3, 4, 5], 3))

    def test_jldt_shapes_paper_values(self):
        # M=64, N'_tr=20, n0=3, L=50 -> 1280 rows of width 300
        cfg = ChannelConfig(m_h=8, m_v=8, n_subcarriers=50, seed=9)
        truth = synthesize(cfg, draw_paths(cfg), 48)
        est = estimate_trace(truth, PilotScheme.dft(4, 1, snr_db=10.0), stream(9, "n"))
        train, test = build_jldt(est, DatasetSpec(n0=3, n_tr=20, n_te=2, n_gap=42))
        assert train.features.shape == (1280, 300)
        assert train.labels.shape == (1280, 100)
        assert test.labels.shape == (128, 100)

    def test_jldt_single_antenna_is_stacked_scalars(self):
        truth, est = _pair(l=4, m_h=1, m_v=1)
        spec = DatasetSpec(n0=2, n_tr=3, n_te=2, n_gap=5)
        train, _ = build_jldt(est, spec)
        expected, _ = build_series_dataset(est, ("antenna", 0), spec)
        assert np.array_equal(train.features, expected.features)

    def test_jl_jldt_same_total_feature_energy(self):
        # the transform is a re-grouping: pooled windows over the same blocks
        # carry exactly the same values
        truth, est = _pair(l=4)
        spec = DatasetSpec(n0=2, n_tr=4, n_te=2, n_gap=6)
        jl_train, _ = build_jl(est, spec)
        dt_train, _ = build_jldt(est, spec)
        assert np.sum(jl_train.features ** 2) == pytest.approx(
            np.sum(dt_train.features ** 2), rel=1e-12)

    def test_no_leakage_block_separation(self):
        truth, est = _pair(n=40)
        spec = DatasetSpec(n0=3, n_tr=8, n_te=4, n_gap=12)
        train, test = build_jl(est, spec)
        max_train_touched = int(train.block_end.max()) + 1   # label block
        min_test_touched = int(test.block_end.min()) - spec.n0 + 1
        assert max_train_touched < min_test_touched


class TestScaling:
    def test_rms_of_plus_minus_two_is_two(self):
        import dataclasses
        truth, est = _pair()
        spec = DatasetSpec(n0=2, n_tr=4, n_te=2, n_gap=6)
        ds, _ = build_series_dataset(est, ("subcarrier", 0), spec)
        signs = np.sign(stream(0, "s").standard_normal(ds.features.shape))
        rigged = dataclasses.replace(ds, features=2.0 * signs)
        assert fit_scale(rigged) == pytest.approx(2.0)

    def test_zero_dataset_rejected(self):
        import dataclasses
        truth, est = _pair()
        spec = DatasetSpec(n0=2, n_tr=4, n_te=2, n_gap=6)
        ds, _ = build_series_dataset(est, ("subcarrier", 0), spec)
        zeroed = dataclasses.replace(ds, features=np.zeros_like(ds.features))
        with pytest.raises(ContractError):
            fit_scale(zeroed)


def _naive_rows(est_values, domain, ids, spec, phase):
    """Per-row loop over the window arithmetic of the module docstring."""
    start, rows = (0, spec.n_tr) if phase == "train" else (spec.n_gap, spec.n_te)
    feats, labels, series, block_end = [], [], [], []
    for s in ids:
        v = est_values[:, s, :] if domain == "subcarrier" else est_values[:, :, s]
        for r in range(rows):
            end = start + spec.n0 + r            # 1-based window end n
            window = [v[end - spec.n0 + w] for w in range(spec.n0)]   # blocks n-n0+1 .. n
            feats.append(np.concatenate([np.concatenate([x.real, x.imag]) for x in window]))
            labels.append(np.concatenate([v[end].real, v[end].imag]))   # block n+1
            series.append(s)
            block_end.append(end)
    return np.array(feats), np.array(labels), np.array(series), np.array(block_end)


@st.composite
def _window_cases(draw):
    n0 = draw(st.integers(1, 4))
    n_tr = draw(st.integers(1, 6))
    n_te = draw(st.integers(1, 5))
    spec = DatasetSpec(n0=n0, n_tr=n_tr, n_te=n_te, n_gap=n_tr + n0 + draw(st.integers(0, 4)))
    shape = (spec.min_blocks + draw(st.integers(0, 3)),
             draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    rng = stream(draw(st.integers(0, 2 ** 32 - 1)), "windows")
    est = ChannelTensor(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), "estimated")
    return spec, est


class TestWindowsProperty:
    @settings(max_examples=60, deadline=None)
    @given(_window_cases())
    def test_builders_match_naive_loop(self, case):
        spec, est = case
        pooled = {"subcarrier": build_jl(est, spec), "antenna": build_jldt(est, spec)}
        for domain in ("subcarrier", "antenna"):
            n_series = series_view(est.values, domain).shape[1]
            for p, phase in enumerate(("train", "test")):
                cases = [(pooled[domain][p], range(n_series))]
                cases += [(build_series_dataset(est, (domain, s), spec)[p], [s])
                          for s in range(n_series)]
                for ds, ids in cases:
                    feats, labels, series, block_end = _naive_rows(
                        est.values, domain, ids, spec, phase)
                    assert ds.features.flags["C_CONTIGUOUS"]
                    assert np.array_equal(ds.features, feats)
                    assert np.array_equal(ds.labels, labels)
                    assert np.array_equal(ds.series, series)
                    assert np.array_equal(ds.block_end, block_end)
