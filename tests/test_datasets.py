"""Window arithmetic, real/imag packing, pooling, and normalization."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chanpred import (
    ChannelConfig,
    ChannelTensor,
    ConfigError,
    ContractError,
    DatasetSpec,
    WindowedDataset,
    build_jl,
    build_jldt,
    build_series_dataset,
    complex_to_real,
    draw_paths,
    fit_scale,
    series_view,
    synthesize,
)
from chanpred import mlp
from chanpred.datasets import LazyWindows, _windows, assemble_predictions
from chanpred.estimation import PilotScheme, estimate_trace
from chanpred.mlp import init_mlp
from chanpred.rng import stream


def _pair(seed=5, n=40, l=3, m_h=2, m_v=2):
    cfg = ChannelConfig(m_h=m_h, m_v=m_v, n_subcarriers=l, n_paths=7)
    truth = synthesize(cfg, draw_paths(cfg, seed), n)
    est = estimate_trace(truth, PilotScheme.dft(4, 1, snr_db=10.0),
                         stream(seed, "pilot-noise"))
    return truth, est


def real_to_complex(x):
    """Inverse of complex_to_real: reads packed rows back as complex vectors."""
    d = x.shape[-1] // 2
    return x[..., :d] + 1j * x[..., d:]


def _numbered(n_blocks, l=1, m=1):
    """Tensor whose entry at 1-based block n, subcarrier l, antenna m is
    n + (100 l + m)j: the real part names the block, the imaginary part the cell."""
    cells = 100 * np.arange(l)[:, None] + np.arange(m)
    return ChannelTensor(np.arange(1, n_blocks + 1)[:, None, None] + 1j * cells, "estimated")


def _whole(ds):
    """Every row of a builder's dataset. The test phase's features are one slice
    of its LazyWindows; its labels are the one-block windows n0 blocks later."""
    if not isinstance(ds, LazyWindows):
        return ds
    return WindowedDataset(ds[0:ds.n_rows], _windows(ds.view, ds.start + ds.n0, ds.rows, 1))


def _read(ds, n0):
    """Feature blocks (rows, n0), label blocks (rows,) and label cells (rows, D) of a
    dataset cut from _numbered, read from its values alone."""
    d = ds.labels.shape[1] // 2
    feats = ds.features.reshape(ds.n_rows, n0, 2, d)     # row, window slot, re/im, entry
    labels = ds.labels.reshape(ds.n_rows, 2, d)
    assert np.all(feats[:, :, 0] == feats[:, :, 0, :1])    # one block per window slot
    assert np.all(labels[:, 0] == labels[:, 0, :1])
    assert np.all(feats[:, :, 1] == labels[:, None, 1])    # every slot reads the label's series
    return feats[:, :, 0, 0], labels[:, 0, 0], labels[:, 1]


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
        # the last row's window ends at block 7
        ds, _ = build_series_dataset(_numbered(spec.min_blocks, l=2), ("subcarrier", 1), spec)
        feats, labels, cells = _read(ds, spec.n0)
        assert np.array_equal(feats, [[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6], [5, 6, 7]])
        assert np.array_equal(labels, [4, 5, 6, 7, 8])
        assert np.all(cells == 100)

    def test_window_consistency_every_row(self):
        truth, est = _pair()
        spec = DatasetSpec(n0=2, n_tr=6, n_te=3, n_gap=8)
        v = series_view(est.values, "subcarrier")[:, 0]
        datasets = build_series_dataset(est, ("subcarrier", 0), spec)
        for ds, start, rows in zip(datasets, (0, spec.n_gap), (spec.n_tr, spec.n_te)):
            assert ds.n_rows == rows
            ds = _whole(ds)
            for r in range(ds.n_rows):
                end = start + spec.n0 + r   # 1-based window end, from the row's position
                window = ds.features[r].reshape(spec.n0, -1)
                for w in range(spec.n0):
                    assert np.array_equal(real_to_complex(window[w]),
                                          v[end - spec.n0 + w])
                assert np.array_equal(real_to_complex(ds.labels[r]), v[end])

    def test_paper_scale_widths(self):
        # n0=3, M=64 -> feature width 384, label width 128
        cfg = ChannelConfig(m_h=8, m_v=8, n_subcarriers=2)
        truth = synthesize(cfg, draw_paths(cfg, 3), 12)
        est = estimate_trace(truth, PilotScheme.dft(4, 1, snr_db=10.0), stream(0, "n"))
        ds, _ = build_series_dataset(est, ("subcarrier", 0),
                                     DatasetSpec(n0=3, n_tr=4, n_te=1, n_gap=7))
        assert ds.features.shape == (4, 384)
        assert ds.labels.shape == (4, 128)

    def test_test_phase_index_range(self):
        # N_gap=1500, N_te=200, n0=3: last test window ends at block 1702,
        # label block 1703 (index arithmetic oracle)
        spec = DatasetSpec(n0=3, n_tr=1000, n_te=200, n_gap=1500)
        _, ds = build_series_dataset(_numbered(1704), ("subcarrier", 0), spec)
        assert ds.n_rows == 200
        feats, labels, _ = _read(_whole(ds), spec.n0)
        assert np.array_equal(feats[[0, -1]], [[1501, 1502, 1503], [1700, 1701, 1702]])
        assert np.array_equal(labels, np.arange(1504, 1704))

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


class TestFiniteWindows:
    """A builder checks for non-finite values only in the blocks its windows read."""

    # 0-based blocks read: 0 .. 5 (training) and 8 .. 12 (test) of 14
    SPEC = DatasetSpec(n0=2, n_tr=4, n_te=3, n_gap=8)

    def _with_nan(self, block, l=1):
        est = _numbered(self.SPEC.min_blocks, l=3, m=2)
        values = est.values.copy()
        values[block, l, 0] = np.nan
        return ChannelTensor(values, "estimated")

    @pytest.mark.parametrize("block", [0, 5, 8, 12])
    def test_non_finite_in_its_windows_refused(self, block):
        est = self._with_nan(block)
        for build in (lambda: build_series_dataset(est, ("subcarrier", 1), self.SPEC),
                      lambda: build_series_dataset(est, ("antenna", 0), self.SPEC),
                      lambda: build_jl(est, self.SPEC), lambda: build_jldt(est, self.SPEC)):
            with pytest.raises(ContractError, match="non-finite"):
                build()

    @pytest.mark.parametrize("block", [6, 7, 13])
    def test_blocks_outside_its_windows_not_read(self, block):
        est = self._with_nan(block)
        train, test = build_series_dataset(est, ("subcarrier", 1), self.SPEC)
        assert np.isfinite(train.features).all() and np.isfinite(_whole(test).labels).all()
        build_jldt(est, self.SPEC)

    def test_other_series_not_read(self):
        est = self._with_nan(3, l=2)
        build_series_dataset(est, ("subcarrier", 1), self.SPEC)
        build_series_dataset(est, ("antenna", 1), self.SPEC)
        with pytest.raises(ContractError, match="non-finite"):
            build_series_dataset(est, ("subcarrier", 2), self.SPEC)


class TestPooledBuilders:
    def test_jl_row_counts_paper_values(self):
        # L=50, N'_tr=20 -> 1000 pooled training rows
        cfg = ChannelConfig(m_h=1, m_v=2, n_subcarriers=50)
        truth = synthesize(cfg, draw_paths(cfg, 7), 48)
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
        spec = DatasetSpec(n0=2, n_tr=4, n_te=2, n_gap=6)
        est = _numbered(spec.min_blocks, l=3, m=2)
        # subcarrier l reads cells 100 l + (0, 1); antenna m reads cells (0, 100, 200) + m
        for build, series_cells in ((build_jl, [[0, 1], [100, 101], [200, 201]]),
                                    (build_jldt, [[0, 100, 200], [1, 101, 201]])):
            train, _ = build(est, spec)
            _, labels, cells = _read(train, spec.n0)
            assert np.array_equal(labels, np.tile([3, 4, 5, 6], len(series_cells)))
            assert np.array_equal(cells, np.repeat(series_cells, 4, axis=0))

    def test_jldt_shapes_paper_values(self):
        # M=64, N'_tr=20, n0=3, L=50 -> 1280 rows of width 300
        cfg = ChannelConfig(m_h=8, m_v=8, n_subcarriers=50)
        truth = synthesize(cfg, draw_paths(cfg, 9), 48)
        est = estimate_trace(truth, PilotScheme.dft(4, 1, snr_db=10.0), stream(9, "n"))
        train, test = build_jldt(est, DatasetSpec(n0=3, n_tr=20, n_te=2, n_gap=42))
        assert train.features.shape == (1280, 300)
        assert train.labels.shape == (1280, 100)
        assert _whole(test).labels.shape == (128, 100)

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
        spec = DatasetSpec(n0=3, n_tr=8, n_te=4, n_gap=12)
        train, test = build_jl(_numbered(40, l=3, m=2), spec)
        train_feats, train_labels, _ = _read(train, spec.n0)
        test_feats, _, _ = _read(_whole(test), spec.n0)
        max_train_touched = max(train_feats.max(), train_labels.max())
        assert max_train_touched == spec.n_tr + spec.n0
        assert test_feats.min() == spec.n_gap + 1
        assert max_train_touched < test_feats.min()


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
    feats, labels = [], []
    for s in ids:
        v = est_values[:, s, :] if domain == "subcarrier" else est_values[:, :, s]
        for r in range(rows):
            end = start + spec.n0 + r            # 1-based window end n
            window = [v[end - spec.n0 + w] for w in range(spec.n0)]   # blocks n-n0+1 .. n
            feats.append(np.concatenate([np.concatenate([x.real, x.imag]) for x in window]))
            labels.append(np.concatenate([v[end].real, v[end].imag]))   # block n+1
    return np.array(feats), np.array(labels)


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
                    ds = _whole(ds)
                    # exact equality with the per-row loop pins the row order too
                    feats, labels = _naive_rows(est.values, domain, ids, spec, phase)
                    assert ds.features.flags["C_CONTIGUOUS"]
                    assert np.array_equal(ds.features, feats)
                    assert np.array_equal(ds.labels, labels)


def _sl_job(est, spec):
    """The (train, test) datasets of an sl job: one series, subcarrier 1."""
    return build_series_dataset(est, ("subcarrier", 1), spec)


class TestLazyWindows:
    # 7 test rows per series: blocks of 5 rows straddle every series boundary,
    # blocks of 7 end on one
    SPEC = DatasetSpec(n0=3, n_tr=4, n_te=7, n_gap=9)
    # (builder, domain, series ids, n0); the n0 = 3 pooled cases keep their ids
    VIEWS = [pytest.param(build_jl, "subcarrier", None, 3, id="build_jl-subcarrier"),
             pytest.param(build_jldt, "antenna", None, 3, id="build_jldt-antenna"),
             pytest.param(build_jl, "subcarrier", None, 1, id="build_jl-subcarrier-n0=1"),
             pytest.param(build_jldt, "antenna", None, 1, id="build_jldt-antenna-n0=1"),
             pytest.param(_sl_job, "subcarrier", [1], 3, id="sl-subcarrier"),
             pytest.param(_sl_job, "subcarrier", [1], 1, id="sl-subcarrier-n0=1")]

    def _test_rows(self, builder, n0=3):
        spec = dataclasses.replace(self.SPEC, n0=n0)
        _, est = _pair(n=spec.min_blocks)   # 3 subcarriers, 4 antennas
        return est, spec, builder(est, spec)[1]

    @pytest.mark.parametrize("builder, domain, ids, n0", VIEWS)
    @pytest.mark.parametrize("block", [1, 3, 5, 7, 8, 13, 28])
    def test_cuts_equal_whole_phase_rows(self, builder, domain, ids, n0, block):
        est, spec, test = self._test_rows(builder, n0)
        ids = range(series_view(est.values, domain).shape[1]) if ids is None else ids
        feats, _ = _naive_rows(est.values, domain, ids, spec, "test")
        n = test.n_rows
        assert n == len(feats)
        # blocks of `block` rows with a short tail, and as predict walks them,
        # the last block taking the remainder
        for bounds in ([*range(0, n, block), n], [*range(0, max(n // block, 1) * block, block), n]):
            for lo, hi in zip(bounds, bounds[1:]):
                assert np.array_equal(test[lo:hi], feats[lo:hi])

    @pytest.mark.parametrize("builder", [build_jl, build_jldt])
    def test_predict_on_cut_rows_equals_predict_on_matrix(self, monkeypatch, builder):
        monkeypatch.setattr(mlp, "_PREDICT_ROWS", 5)
        _, _, test = self._test_rows(builder)
        whole = test[0:test.n_rows] / 1.7
        cuts, windows, getitem, cut_windows = [], [], LazyWindows.__getitem__, _windows

        def spy(ds, rows):
            cuts.append((rows.start, rows.stop))
            return getitem(ds, rows)

        def windows_spy(view, start, rows, n0):
            windows.append((start, n0))
            return cut_windows(view, start, rows, n0)

        monkeypatch.setattr(LazyWindows, "__getitem__", spy)
        monkeypatch.setattr("chanpred.datasets._windows", windows_spy)
        model = init_mlp((whole.shape[1], 8, 2 * whole.shape[1] // 6), stream(3, "mlp-init"))
        rows = mlp.predict(model, dataclasses.replace(test, scale=1.7))
        assert np.array_equal(rows, mlp.predict(model, whole))
        # 21 jl rows (3 series of 7) or 28 jldt rows (4 series); the last block
        # takes the remainder
        bounds = {21: [0, 5, 10, 15, 21], 28: [0, 5, 10, 15, 20, 28]}[test.n_rows]
        assert cuts == list(zip(bounds, bounds[1:]))
        # only feature windows are cut: no one-block (label) window, n0 blocks on
        assert windows == [(test.start, test.n0)] * len(cuts)

    @pytest.mark.parametrize("lo, hi", [(3, 3), (4, 2), (-1, 2), (0, 22)])
    def test_empty_or_outside_cut_rejected(self, lo, hi):
        _, _, test = self._test_rows(build_jl)
        with pytest.raises(ContractError, match=f"rows {lo}..{hi} are not a non-empty cut of 21"):
            test[lo:hi]

    @pytest.mark.parametrize("rows", [slice(0, 6, 2), slice(6, 0, -1), 3])
    def test_index_other_than_unit_step_slice_rejected(self, rows):
        # predict reads consecutive rows; a step or an index is refused, not
        # read as the consecutive rows lo..hi
        _, _, test = self._test_rows(build_jl)
        assert np.array_equal(test[0:6], test[0:6:1])
        with pytest.raises(ContractError, match="slice of step 1"):
            test[rows]


def _perfect_part(est, domain, series, spec):
    """(domain, series, real rows) of one job whose predictions are its test labels."""
    if series is None:
        _, test = (build_jl if domain == "subcarrier" else build_jldt)(est, spec)
    else:
        _, test = build_series_dataset(est, (domain, series), spec)
    return domain, series, _whole(test).labels


class TestAssemblePredictions:
    SPEC = DatasetSpec(n0=2, n_tr=3, n_te=4, n_gap=6)

    def _assemble(self, parts, est):
        """All n_te blocks of the prediction `parts` make of `est`'s test phase."""
        return assemble_predictions(parts, (self.SPEC.n_te, *est.values.shape[1:]),
                                    0, self.SPEC.n_te)

    def _label_blocks(self, est):
        return est.values[self.SPEC.n_gap + self.SPEC.n0 + np.arange(self.SPEC.n_te)]

    def test_each_job_shape_puts_back_its_labels(self):
        est = _numbered(self.SPEC.min_blocks, l=3, m=2)
        for parts in ([_perfect_part(est, "subcarrier", l, self.SPEC) for l in range(3)],
                      [_perfect_part(est, "subcarrier", None, self.SPEC)],
                      [_perfect_part(est, "antenna", None, self.SPEC)]):
            rebuilt = self._assemble(parts, est)
            assert rebuilt.provenance == "predicted"
            assert np.array_equal(rebuilt.values, self._label_blocks(est))

    def test_per_series_part_and_pooled_part(self):
        # a pooled antenna part fills every entry, then a per-series part cut
        # from the negated tensor overwrites subcarrier 1 and nothing else
        est = _numbered(self.SPEC.min_blocks, l=3, m=2)
        negated = ChannelTensor(-est.values, "estimated")
        parts = [_perfect_part(est, "antenna", None, self.SPEC),
                 _perfect_part(negated, "subcarrier", 1, self.SPEC)]
        expected = self._label_blocks(est)
        expected[:, 1] *= -1
        rebuilt = self._assemble(parts, est)
        assert np.array_equal(rebuilt.values, expected)

    def test_unpredicted_column_rejected(self):
        est = _numbered(self.SPEC.min_blocks, l=3, m=2)
        parts = [_perfect_part(est, "subcarrier", l, self.SPEC) for l in (0, 2)]
        with pytest.raises(ContractError, match="non-finite"):
            self._assemble(parts, est)

    @pytest.mark.parametrize("domain, series, name", [
        ("subcarrier", 1, "subcarrier series 1"), ("antenna", None, "antenna series all")])
    @pytest.mark.parametrize("cut", ["row", "column", "reshaped"])
    def test_mis_sized_part_rejected_by_name(self, domain, series, name, cut):
        # "reshaped" holds the right number of entries in the wrong shape
        est = _numbered(self.SPEC.min_blocks, l=3, m=2)
        domain, series, rows = _perfect_part(est, domain, series, self.SPEC)
        rows = {"row": rows[:-1], "column": rows[:, :-2],
                "reshaped": rows.reshape(2 * rows.shape[0], -1)}[cut]
        with pytest.raises(ContractError, match=name):
            self._assemble([(domain, series, rows)], est)
