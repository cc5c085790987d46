"""Experiment orchestration: NMSE, approach equivalences, fairness, trends."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chanpred import (
    APPROACHES,
    ChannelConfig,
    ChannelTensor,
    ConfigError,
    ContractError,
    ExperimentConfig,
    mean_nmse,
    nmse,
    persistence_nmse,
    prepare_link,
    snr_sweep,
)
from chanpred.channel import (
    PROVENANCES,
    SYNTH_CHUNK,
    SynthesizedLink,
    draw_paths,
    series_view,
    synthesize,
)
from chanpred.cli import config_from_dict
from chanpred.correlation import correlation_report
from chanpred.datasets import (
    DatasetSpec,
    _windows,
    build_jl,
    build_jldt,
    build_series_dataset,
    complex_to_real,
    fit_scale,
)
from chanpred.estimation import _EST_CHUNK, PilotScheme, estimate_trace
from chanpred.mlp import TrainConfig, init_mlp, train
from chanpred.pipelines import PERSISTENCE, assemble_predictions, evaluate_cell, score
from chanpred.rng import derive_seed, stream
from conftest import ZeroNoise, random_tensor


def micro_config(l=3, n_tr_prime=4, m_h=2, m_v=2, **kw):
    chan_kw = dict(m_h=m_h, m_v=m_v, n_subcarriers=l, n_paths=7,
                   speed=2.0 / 3.6, doppler_grid_blocks=60)
    chan_kw.update(kw.pop("channel", {}))
    defaults = dict(
        channel=ChannelConfig(**chan_kw),
        snr_db=(10.0,), n0=2, n_tr_prime=n_tr_prime,
        n_gap=n_tr_prime * l + 2, n_te=4, hidden=(16,),
        batch_size=16, learning_rate=1e-3, epochs=30, seeds=(1,))
    defaults.update(kw)
    return ExperimentConfig(**defaults).validate()


class TestNmse:
    def test_trivial_values(self):
        t = stream(0, "t").standard_normal((5, 3)) + 1j
        assert nmse(t, t) == 0.0
        assert nmse(np.zeros_like(t), t) == pytest.approx(1.0)
        assert nmse(2 * t, t) == pytest.approx(1.0)

    def test_zero_norm_truth_rejected(self):
        with pytest.raises(ContractError):
            nmse(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            nmse(np.ones((2, 2)), np.ones((2, 3)))


class TestConfigValidation:
    def test_budget_consistency_enforced(self):
        with pytest.raises(ConfigError, match="n_tr_prime"):
            config_from_dict({"preset": "desk", "n_tr": 10})

    def test_unknown_approach(self):
        with pytest.raises(ConfigError):
            micro_config(approaches=("sl", "nope"))

    def test_required_blocks(self):
        cfg = micro_config()
        assert cfg.required_blocks == cfg.n_gap + cfg.n_te + cfg.n0 + 1


class TestDegenerateEquivalences:
    def test_jl_equals_sl_for_single_subcarrier(self):
        cfg = micro_config(l=1, n_tr_prime=6)
        labels, est = prepare_link(cfg, 10.0, seed=1)
        a = evaluate_cell(labels, est, cfg, "sl", seed=1)
        b = evaluate_cell(labels, est, cfg, "jl", seed=1)
        assert a.nmse == b.nmse

    def test_jldt_equals_sl_for_scalar_series(self):
        cfg = micro_config(l=1, n_tr_prime=6, m_h=1, m_v=1)
        labels, est = prepare_link(cfg, 10.0, seed=2)
        a = evaluate_cell(labels, est, cfg, "sl", seed=2)
        b = evaluate_cell(labels, est, cfg, "jldt", seed=2)
        assert a.nmse == pytest.approx(b.nmse, abs=1e-15)


class TestJobTags:
    @pytest.mark.parametrize("approach", APPROACHES)
    def test_each_history_is_its_job_trained_directly(self, approach):
        # job k: the windows of its builder, init stream ("mlp-init", k) and
        # shuffle seed ("shuffle", k); per-subcarrier jobs are tagged by
        # subcarrier, a pooled job by 0
        cfg = micro_config(l=3, epochs=8)
        labels, est = prepare_link(cfg, 10.0, seed=5)
        cell = evaluate_cell(labels, est, cfg, approach, seed=5)
        spec = cfg.kept_spec(cfg.overhead_blocks(approach))
        per_subcarrier = approach in ("sl", "sl_small")
        assert set(cell.histories) == ({0, 1, 2} if per_subcarrier else {0})
        for k in cell.histories:
            if per_subcarrier:
                ds, _ = build_series_dataset(est, ("subcarrier", k), spec)
            else:
                ds, _ = (build_jldt if approach == "jldt" else build_jl)(est, spec)
            scale = fit_scale(ds)
            x, y = ds.features / scale, ds.labels / scale
            model = init_mlp((x.shape[1], *cfg.hidden, y.shape[1]), stream(5, "mlp-init", k))
            _, history = train(model, (x, y), TrainConfig(cfg.batch_size, cfg.epochs,
                                                          cfg.learning_rate,
                                                          derive_seed(5, "shuffle", k)))
            assert history == cell.histories[k]


class TestJobMemory:
    # paper dims, a tiny model: L = 50, M = 64, n_te = 200
    CFG = ExperimentConfig(n_te=200, hidden=(4,), epochs=1, snr_db=(0.0,), seeds=(1,),
                           approaches=("jldt",)).validate()
    L, M = CFG.channel.n_subcarriers, CFG.channel.n_antennas

    def _peak(self):
        """tracemalloc peak of a jldt evaluate_cell on random tensors made before tracing."""
        est = random_tensor(1, self.CFG.kept_spec().min_blocks, self.L, self.M, "estimated")
        labels = random_tensor(2, self.CFG.n_te, self.L, self.M)
        tracemalloc.start()
        try:
            cell = evaluate_cell(labels, est, self.CFG, "jldt", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(cell.nmse)
        return peak

    def test_jldt_job_never_holds_the_test_features(self):
        # the 64 * 200 test windows of width 2 * n0 * L hold 30.7 MB of
        # features, more than the job holds at its peak (its predicted rows,
        # 10.2 MB, and one chunk of them put back for scoring); predict cuts
        # them in blocks
        test_features = self.M * self.CFG.n_te * 2 * self.CFG.n0 * self.L * 8
        assert test_features == 30_720_000
        assert self._peak() < test_features

    def test_jldt_job_never_holds_a_prediction_tensor(self):
        # score puts the predicted rows back one chunk of test blocks at a
        # time: an (n_te, L, M) tensor of them, 10.2 MB, would go past the bound
        rows = self.M * self.CFG.n_te * 2 * self.L * 8
        tensor = self.CFG.n_te * self.L * self.M * 16
        assert (rows, tensor) == (10_240_000, 10_240_000)
        assert self._peak() < rows + tensor // 2


def _label_values(labels):
    """Every block of a cell's labels, read at once."""
    return labels.read(0, labels.n_blocks)


def _full_truth(cfg, seed):
    """The whole true tensor of a cell's link, which prepare_link never holds."""
    return synthesize(cfg.channel, draw_paths(cfg.channel, seed), cfg.required_blocks)


def _kept(cfg, values):
    """The blocks of a whole link that prepare_link keeps: the head, then the tail."""
    return np.concatenate([values[:cfg.head_blocks], values[cfg.n_gap:]])


class TestStaticChannel:
    def test_noise_free_static_channel_learned_exactly(self):
        # constant map is realizable: NMSE < 1e-4 with brief training
        cfg = micro_config(l=2, n_tr_prime=5,
                           channel={"n_paths": 1, "speed": 0.0, "delay_spread": 0.0},
                           epochs=300, learning_rate=1e-2, n0=2)
        truth = _full_truth(cfg, 3)
        est = estimate_trace(truth, cfg.scheme(10.0), ZeroNoise())
        est = ChannelTensor(_kept(cfg, est.values), "estimated")
        first = cfg.n_gap + cfg.n0
        labels = ChannelTensor(truth.values[first:first + cfg.n_te], "true")
        cell = evaluate_cell(labels, est, cfg, "sl", seed=3)
        assert cell.nmse < 1e-4


class TestKeptLayout:
    def test_head_fits_every_configured_approach(self):
        cfg = micro_config(l=3, n_tr_prime=4, n0=2, n_gap=40)
        assert cfg.head_blocks == 3 * 4 + 2   # sl's rows
        for approaches in (("jldt",), ("jl", "sl_small")):
            assert dataclasses.replace(cfg, approaches=approaches).head_blocks == 4 + 2
        spec = cfg.kept_spec()
        assert (spec.n_tr, spec.n_gap, spec.min_blocks) == (12, 14, 14 + cfg.n_te + 2 + 1)

    def test_full_length_estimate_refused(self):
        # windowed at n_gap's offset the test windows would read head blocks
        cfg = micro_config(approaches=("jldt",), n_gap=30)
        labels, kept = prepare_link(cfg, 10.0, seed=3)
        full = ChannelTensor(estimate_trace(_full_truth(cfg, 3), cfg.scheme(10.0),
                                            stream(3, "pilot-noise")).values, "estimated")
        assert (kept.n_blocks, full.n_blocks) == (cfg.kept_spec().min_blocks, cfg.required_blocks)
        assert kept.n_blocks < full.n_blocks
        for call in (lambda est: persistence_nmse(labels, est, cfg),
                     lambda est: evaluate_cell(labels, est, cfg, "jldt", seed=3)):
            call(kept)
            with pytest.raises(ContractError, match="kept layout") as exc:
                call(full)
            assert f"{full.n_blocks} blocks" in str(exc.value)
            assert f"{kept.n_blocks} blocks" in str(exc.value)

    @pytest.mark.parametrize("approach", ["sl", "sl_small", "jldt"])
    def test_non_finite_anywhere_refused(self, approach):
        # the last kept block and the head past sl_small's rows are in no
        # window of sl_small; the cell checks the whole estimate all the same
        cfg = micro_config(approaches=("sl", "sl_small", "jldt"))
        labels, est = prepare_link(cfg, 10.0, seed=3)
        spec = cfg.kept_spec(cfg.overhead_blocks("sl_small"))
        for block in (spec.n_tr + spec.n0, est.n_blocks - 1):
            values = est.values.copy()
            values[block, 0, 0] = np.nan
            bad = ChannelTensor(values, "estimated")
            if approach == "sl_small":
                build_series_dataset(bad, ("subcarrier", 0), spec)   # its windows are finite
            with pytest.raises(ContractError, match="non-finite"):
                evaluate_cell(labels, bad, cfg, approach, seed=3)
            with pytest.raises(ContractError, match="non-finite"):
                persistence_nmse(labels, bad, cfg)

    def test_unconfigured_approach_refused(self):
        # sl's rows do not fit the head of a jldt-only cell
        cfg = micro_config(approaches=("jldt",), n_gap=30)
        labels, est = prepare_link(cfg, 10.0, seed=3)
        with pytest.raises(ConfigError, match="'sl' is not one of the configured"):
            evaluate_cell(labels, est, cfg, "sl", seed=3)

    def test_unknown_label_refused_unvalidated(self):
        # a misspelled label on a config that skipped validate() is not
        # trained as some other approach; the link is refused before estimation
        cfg = micro_config(approaches=("jldt",), n_gap=30)
        labels, est = prepare_link(cfg, 10.0, seed=3)
        typo = dataclasses.replace(cfg, approaches=("jdlt",))
        unknown = r"unknown approach 'jdlt'; expected one of \('sl', 'sl_small', 'jl', 'jldt'\)"
        for call in (lambda: typo.overhead_blocks("jdlt"),
                     lambda: prepare_link(typo, 10.0, seed=3),
                     lambda: evaluate_cell(labels, est, typo, "jdlt", seed=3)):
            with pytest.raises(ConfigError, match=unknown):
                call()


class TestPersistence:
    @pytest.mark.parametrize("seed, approaches", [(1, tuple(APPROACHES)), (2, tuple(APPROACHES)),
                                                  (1, ("jldt",))], ids=["s1", "s2", "jldt-s1"])
    def test_equals_nmse_of_newest_estimate_rows(self, seed, approaches):
        # each label block predicted by the estimate of the block before it,
        # both read from the whole link; rows in (subcarrier, block) order
        cfg = micro_config(approaches=approaches)
        labels, est = prepare_link(cfg, 10.0, seed=seed)
        truth = _full_truth(cfg, seed)
        full = estimate_trace(truth, cfg.scheme(10.0), stream(seed, "pilot-noise")).values
        label_blocks = cfg.n_gap + cfg.n0 + np.arange(cfg.n_te)
        rows = [v.transpose(1, 0, 2).reshape(-1, v.shape[2])
                for v in (full[label_blocks - 1], truth.values[label_blocks])]
        assert persistence_nmse(labels, est, cfg) == nmse(*rows)


class TestJldtReconstruction:
    def test_true_labels_reconstruct_exactly(self):
        cfg = micro_config()
        truth = _full_truth(cfg, 4)
        labels, _ = prepare_link(cfg, 10.0, seed=4)
        spec = DatasetSpec(cfg.n0, cfg.n_tr_prime, cfg.n_te, cfg.n_gap)
        # windows cut from the truth itself: each test label, the one-block
        # window n0 blocks after its features, is the true channel of its row,
        # so predicting the labels must rebuild the truth exactly
        _, test_ds = build_jldt(ChannelTensor(truth.values, "estimated"), spec)
        part = ("antenna", None,
                _windows(test_ds.view, test_ds.start + spec.n0, test_ds.rows, 1))
        rebuilt = assemble_predictions([part], (spec.n_te, *truth.values.shape[1:]),
                                       0, spec.n_te)
        label_blocks = spec.n_gap + spec.n0 + np.arange(spec.n_te)
        assert np.array_equal(rebuilt.values, truth.values[label_blocks])
        assert np.array_equal(rebuilt.values, _label_values(labels))
        assert score([part], labels) == 0.0
        assert rebuilt.provenance == "predicted"


def _link_case(blocks, n_te, head=None):
    """A link of `blocks` for a cell of every approach, or of jldt alone with a `head`."""
    if head is None:
        return pytest.param(blocks, n_te, 4, tuple(APPROACHES), id=f"{blocks}-{n_te}")
    return pytest.param(blocks, n_te, head - 2, ("jldt",), id=f"{blocks}-{n_te}-head{head}")


class TestPrepareLink:
    """prepare_link makes only the link's kept blocks; the bits are those of the whole."""

    @pytest.mark.parametrize("blocks, n_te, n_tr_prime, approaches", [
        # link ends around multiples of 64 and 256; a head of 14 blocks (sl's)
        *(_link_case(blocks, 4) for blocks in (127, 128, 129, 255, 256, 257, 511, 512, 513)),
        _link_case(300, 60), _link_case(600, 400),    # labels across chunk edges
        # heads around multiples of 64 and 256; every tail starts mid chunk
        _link_case(207, 4, 63), _link_case(201, 4, 64), _link_case(307, 4, 65),
        _link_case(781, 4, 255), _link_case(790, 10, 256), _link_case(900, 4, 257),
        _link_case(40, 4, 10),                        # head and tail in one chunk
        _link_case(21, 4)])                           # head and tail meet: the whole link
    def test_chunks_equal_whole_link(self, blocks, n_te, n_tr_prime, approaches):
        n_gap = blocks - n_te - 3                     # required_blocks = n_gap + n_te + n0 + 1
        cfg = micro_config(n0=2, n_te=n_te, n_gap=n_gap, n_tr_prime=n_tr_prime,
                           approaches=approaches)
        assert cfg.required_blocks == blocks
        labels, est = prepare_link(cfg, 10.0, seed=11)
        truth = _full_truth(cfg, 11)
        want = estimate_trace(truth, cfg.scheme(10.0), stream(11, "pilot-noise"))
        assert est.n_blocks == cfg.head_blocks + n_te + 3
        assert np.array_equal(est.values.view(np.uint64),
                              _kept(cfg, want.values).view(np.uint64))
        first = cfg.n_gap + cfg.n0
        got_labels = truth.values[first:first + cfg.n_te]
        assert np.array_equal(_label_values(labels).view(np.uint64), got_labels.view(np.uint64))
        assert labels.require("true", cfg.n_te).n_blocks == cfg.n_te
        assert est.provenance == "estimated"

    @staticmethod
    def _peak_within_kept_bytes(cfg):
        # paper-like L = 50, M = 64: beside its output, the kept estimate (the
        # labels are a link that makes blocks as they are read), prepare_link
        # may hold one estimation chunk of truth, synthesize's (64, L, P) mix
        # for it and estimate_trace's two buffers, Y (complex) and one part of
        # Z (real), each (64, L, M, tau); the full truth alone is more. The
        # slack covers lazy imports and the small arrays
        L, M, tau = cfg.channel.n_subcarriers, cfg.channel.n_antennas, cfg.tau
        tracemalloc.start()
        try:
            labels, est = prepare_link(cfg, 0.0, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        complex_bytes = 16
        outputs = cfg.kept_spec().min_blocks * L * M * complex_bytes
        chunk = _EST_CHUNK * L * (M + cfg.channel.n_paths) * complex_bytes
        buffers = 64 * L * M * tau * (complex_bytes + 8)
        assert peak < outputs + chunk + buffers + 2 * 2 ** 20   # 2 MB: lazy imports, small arrays
        assert (labels.n_blocks, labels.n_subcarriers, labels.n_antennas) == (cfg.n_te, L, M)
        assert est.values.nbytes == outputs

    def test_peak_memory_holds_no_full_truth(self):
        # four synthesis chunks, three of them whole; a head of 53 blocks (sl's)
        cfg = ExperimentConfig(n0=3, n_tr_prime=1, n_te=20, n_gap=3 * SYNTH_CHUNK + 1 - 24,
                               snr_db=(0.0,), seeds=(1,)).validate()
        assert cfg.required_blocks == 3 * SYNTH_CHUNK + 1
        assert cfg.kept_spec().min_blocks == 53 + 24
        self._peak_within_kept_bytes(cfg)

    def test_jldt_link_holds_only_its_kept_blocks(self):
        # paper-jldt's link: 227 of 1704 blocks kept, 11.6 of 87.2 MB; the
        # whole estimate alone is above the bound
        cfg = ExperimentConfig(approaches=("jldt",), snr_db=(0.0,), seeds=(1,)).validate()
        assert (cfg.required_blocks, cfg.kept_spec().min_blocks) == (1704, 227)
        self._peak_within_kept_bytes(cfg)

    def test_sweep_drops_each_link_before_the_next(self, monkeypatch):
        # a long link and a tiny model, so a link left over from the first
        # seed would show in the second seed's prepare_link peak
        cfg = micro_config(n_tr_prime=1000, n_gap=3002, epochs=1, hidden=(4,),
                           batch_size=128, approaches=("jl",), seeds=(1, 2))
        link_bytes = (cfg.kept_spec().min_blocks + cfg.n_te) * 3 * 4 * 16
        peaks = []

        def traced(*args):
            tracemalloc.reset_peak()
            link = prepare_link(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return link

        monkeypatch.setattr("chanpred.pipelines.prepare_link", traced)
        tracemalloc.start()
        try:
            snr_sweep(cfg)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 2
        # slack for what the first cell leaves behind: its result and history
        assert peaks[1] <= peaks[0] + link_bytes // 8


def _parts(pred):
    """An (n_te, L, M) prediction tensor as score's input: one pooled subcarrier part."""
    rows = complex_to_real(pred.values.swapaxes(0, 1)).reshape(-1, 2 * pred.n_antennas)
    return [("subcarrier", None, rows)]


class TestScore:
    def _perfect(self, seed):
        cfg = micro_config()
        link, est = prepare_link(cfg, 10.0, seed=seed)
        labels = ChannelTensor(_label_values(link), "true")
        pred = _parts(ChannelTensor(labels.values.copy(), "predicted"))
        assert score(pred, labels) == score(pred, link) == 0.0
        return pred, labels, est

    def test_estimate_is_not_truth(self):
        pred, _, est = self._perfect(7)
        with pytest.raises(ContractError, match="provenance"):
            score(pred, est)

    @pytest.mark.parametrize("missing", [1, 3])
    def test_short_truth_rejected(self, missing):
        pred, labels, _ = self._perfect(8)
        short = ChannelTensor(labels.values[:labels.n_blocks - missing], "true")
        with pytest.raises(ContractError, match="too short"):
            score(pred, short)

    def test_shape_mismatch_rejected(self):
        pred, labels, _ = self._perfect(9)
        longer = ChannelTensor(np.concatenate([labels.values, labels.values[:1]]), "true")
        narrower = ChannelTensor(labels.values[:, :, 1:], "true")
        for bad in (longer, narrower):
            with pytest.raises(ContractError, match="predicted rows"):
                score(pred, bad)

    def test_labels_not_3d_rejected_by_name(self):
        # validated before their shape is read, so not an IndexError
        labels = ChannelTensor(np.ones((4, 3)), "true")
        with pytest.raises(ContractError, match="must be 3-D"):
            score([("subcarrier", None, np.zeros((6, 4)))], labels)

    @settings(max_examples=60, deadline=None)
    @given(n_te=st.integers(1, 12), l=st.integers(1, 9), m=st.integers(1, 40),
           seed=st.integers(0, 2 ** 16))
    @example(n_te=5, l=1, m=8, seed=0)
    @example(n_te=5, l=6, m=1, seed=1)
    def test_equals_nmse_of_transposed_rows(self, n_te, l, m, seed):
        # rows in (subcarrier, block) order, as the scorer once built them
        spec = DatasetSpec(n0=2, n_tr=1, n_te=n_te, n_gap=3)
        truth = random_tensor(seed, n=spec.min_blocks, l=l, m=m)
        pred = random_tensor(seed + 1, n=n_te, l=l, m=m, provenance="predicted")
        label = truth.values[spec.n_gap + spec.n0 + np.arange(n_te)]
        rows = [v.transpose(1, 0, 2).reshape(-1, m) for v in (pred.values, label)]
        assert score(_parts(pred), ChannelTensor(label, "true")) == nmse(*rows)

    @settings(max_examples=30, deadline=None)
    @given(n_te=st.integers(1, 200), l=st.integers(1, 4), m=st.integers(1, 5),
           domain=st.sampled_from([None, "subcarrier", "antenna"]), link=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @example(n_te=1, l=1, m=3, domain=None, link=True, seed=0)
    @example(n_te=63, l=3, m=1, domain="antenna", link=True, seed=1)
    @example(n_te=64, l=2, m=2, domain="subcarrier", link=False, seed=2)
    @example(n_te=65, l=1, m=1, domain="antenna", link=True, seed=3)
    @example(n_te=129, l=4, m=3, domain=None, link=False, seed=4)
    @example(n_te=200, l=3, m=4, domain="antenna", link=True, seed=5)
    def test_chunks_of_parts_equal_nmse_of_transposed_rows(self, n_te, l, m, domain, link,
                                                             seed):
        # the jobs' parts, per series (domain None: one per subcarrier) or one
        # pooled, scored chunk by chunk against a tensor or a link
        pred = random_tensor(seed + 1, n=n_te, l=l, m=m, provenance="predicted")
        if link:
            cfg = ChannelConfig(m_h=m, m_v=1, n_subcarriers=l, n_paths=3)
            labels = SynthesizedLink(cfg, draw_paths(cfg, seed), n_te, first_block=seed % 70)
        else:
            labels = random_tensor(seed, n=n_te, l=l, m=m)
        series = [("subcarrier", k) for k in range(l)] if domain is None else [(domain, None)]
        parts = []
        for d, k in series:
            view = series_view(pred.values, d)[:, slice(None) if k is None else slice(k, k + 1)]
            parts.append((d, k, complex_to_real(view.swapaxes(0, 1)).reshape(-1, 2 * view.shape[2])))
        rows = [v.transpose(1, 0, 2).reshape(-1, m) for v in (pred.values, _label_values(labels))]
        assert score(parts, labels) == nmse(*rows)

    @pytest.mark.parametrize("block", [0, 63, 64, 130, 199])
    def test_unpredicted_entry_in_any_chunk_refused(self, block):
        labels = random_tensor(0, n=200, l=3, m=2)
        rows = complex_to_real(labels.values.swapaxes(0, 1)).reshape(3, 200, 4)
        parts = [("subcarrier", k, rows[k]) for k in range(3)]
        assert score(parts, labels) == 0.0
        with pytest.raises(ContractError, match="non-finite"):
            score(parts[:2], labels)          # subcarrier 2 predicted by no job
        rows[1, block, 3] = np.nan
        with pytest.raises(ContractError, match="non-finite"):
            score(parts, labels)

    def test_peak_memory_below_one_prediction(self):
        # paper-like (n_te, L, M): the norms go subcarrier by subcarrier, so
        # no transient reaches a tensor's size
        labels = random_tensor(0, n=200, l=50, m=64)
        pred = random_tensor(1, n=200, l=50, m=64, provenance="predicted")
        parts = _parts(pred)
        tracemalloc.start()
        try:
            score(parts, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < pred.values.nbytes


def _require_consumer(name):
    """(provenance, blocks, call) of one reader of ChannelTensor.require."""
    spec = DatasetSpec(n0=2, n_tr=3, n_te=2, n_gap=5)
    if name == "build_series_dataset":
        series = ("antenna", 1)
        return "estimated", spec.min_blocks, lambda t: build_series_dataset(t, series, spec)
    if name in ("build_jl", "build_jldt"):
        build = build_jl if name == "build_jl" else build_jldt
        return "estimated", spec.min_blocks, lambda t: build(t, spec)
    if name == "score":
        parts = _parts(random_tensor(2, n=spec.n_te, provenance="predicted"))
        return "true", spec.n_te, lambda t: score(parts, t)
    if name == "persistence_nmse":
        cfg = micro_config(l=3, m_h=2, m_v=2, n_tr_prime=1)
        labels = random_tensor(3, n=cfg.n_te)
        return "estimated", cfg.kept_spec().min_blocks, lambda t: persistence_nmse(labels, t, cfg)
    if name == "estimate_trace":
        scheme = PilotScheme.dft(4, 1, 10.0)
        return "true", 1, lambda t: estimate_trace(t, scheme, stream(0, "noise"))
    return "true", 7, lambda t: correlation_report(t, max_shift=2, n_avg=5)


class TestTensorPreconditions:
    @pytest.mark.parametrize("name", [
        "build_series_dataset", "build_jl", "build_jldt", "score",
        "persistence_nmse", "estimate_trace", "correlation_report"])
    def test_wrong_provenance_and_one_block_short_rejected(self, name):
        provenance, need, call = _require_consumer(name)
        call(random_tensor(1, n=need, provenance=provenance))   # exactly enough
        wrong = next(p for p in PROVENANCES if p != provenance)
        with pytest.raises(ContractError, match="provenance") as exc:
            call(random_tensor(1, n=need, provenance=wrong))
        assert repr(provenance) in str(exc.value) and repr(wrong) in str(exc.value)
        with pytest.raises(ContractError, match="too short") as exc:
            call(random_tensor(1, n=need - 1, provenance=provenance))
        assert f"{need - 1} blocks" in str(exc.value) and f"{need} blocks" in str(exc.value)


class TestScaleInvariance:
    def test_global_rescaling_leaves_nmse(self):
        cfg = micro_config()
        labels, est = prepare_link(cfg, 10.0, seed=5)
        scaled_labels = ChannelTensor(4.0 * _label_values(labels), "true")
        scaled_est = dataclasses.replace(est, values=4.0 * est.values)
        for approach in ("sl", "jl", "jldt"):
            a = evaluate_cell(labels, est, cfg, approach, seed=5)
            b = evaluate_cell(scaled_labels, scaled_est, cfg, approach, seed=5)
            assert abs(a.nmse - b.nmse) < 1e-12


class TestFairnessAndDeterminism:
    def test_prepared_links_byte_identical(self):
        cfg = micro_config()
        l1, e1 = prepare_link(cfg, 10.0, seed=6)
        l2, e2 = prepare_link(cfg, 10.0, seed=6)
        assert np.array_equal(_label_values(l1), _label_values(l2))
        assert np.array_equal(e1.values, e2.values)

    def test_report_determinism(self):
        cfg = micro_config()
        r1, r2 = ([(c.approach, c.snr_db, c.seed, c.nmse) for c in snr_sweep(cfg)]
                  for _ in range(2))
        assert r1 == r2

    def test_trace_shared_across_snrs(self):
        cfg = micro_config(snr_db=(0.0, 10.0))
        la, ea = prepare_link(cfg, 0.0, seed=7)
        lb, eb = prepare_link(cfg, 10.0, seed=7)
        assert np.array_equal(_label_values(la), _label_values(lb))
        # the noise is shared too: only its scale 1/sqrt(rho) differs
        truth = _kept(cfg, _full_truth(cfg, 7).values)
        ratio = np.sqrt(cfg.scheme(10.0).snr / cfg.scheme(0.0).snr)
        assert np.allclose((ea.values - truth) / ratio, eb.values - truth, rtol=1e-9, atol=1e-12)


class TestOverheadAccounting:
    def test_blocks_per_approach(self):
        cfg = micro_config(l=4, n_tr_prime=5, approaches=("sl", "jl"))
        assert cfg.overhead_blocks("sl") == 20
        assert cfg.overhead_blocks("sl_small") == 5
        assert cfg.overhead_blocks("jl") == 5
        assert cfg.overhead_blocks("jldt") == 5


def _desk_like_micro():
    # the desk regime shrunk: partial state-space coverage for sl, full
    # diversity for jldt, pooled arcs for jl/sl_small, nonzero mean Doppler
    # so copy-forward pays the per-block rotation
    return micro_config(
        l=4, n_tr_prime=10, m_h=2, m_v=2,
        channel={"n_paths": 13, "speed": 6.0 / 3.6, "doppler_grid_blocks": 60,
                 "delay_spread": 4e-7, "doppler_offset": 10.0},
        n0=3, n_gap=43, n_te=30, hidden=(64,), batch_size=32,
        learning_rate=1e-3, epochs=80, snr_db=(0.0, 20.0), seeds=(1, 2, 3))


@pytest.fixture(scope="module")
def desk_micro_cells():
    return snr_sweep(_desk_like_micro())


class TestTrends:
    def test_nmse_non_increasing_in_snr_on_average(self, desk_micro_cells):
        for approach in ("sl", "sl_small", "jl", "jldt"):
            lo = mean_nmse(desk_micro_cells, approach, 0.0)
            hi = mean_nmse(desk_micro_cells, approach, 20.0)
            assert hi <= lo

    def test_full_budget_approaches_beat_persistence_at_high_snr(self, desk_micro_cells):
        persist = mean_nmse(desk_micro_cells, PERSISTENCE, 20.0)
        assert mean_nmse(desk_micro_cells, "sl", 20.0) < persist
        assert mean_nmse(desk_micro_cells, "jldt", 20.0) < persist
