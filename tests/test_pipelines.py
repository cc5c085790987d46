"""Experiment orchestration: NMSE, approach equivalences, fairness, trends."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chanpred import (
    ChannelConfig,
    ChannelTensor,
    ConfigError,
    ContractError,
    ExperimentConfig,
    nmse,
    persistence_nmse,
    prepare_link,
    snr_sweep,
)
from chanpred.channel import PROVENANCES
from chanpred.cli import config_from_dict
from chanpred.correlation import correlation_report
from chanpred.datasets import (
    DatasetSpec,
    build_jl,
    build_jldt,
    build_series_dataset,
    real_to_complex,
)
from chanpred.estimation import PilotScheme, estimate_trace
from chanpred.pipelines import assemble_predictions, evaluate_cell, score
from chanpred.rng import stream
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
        truth, est = prepare_link(cfg, 10.0, seed=1)
        a = evaluate_cell(truth, est, cfg, "sl", seed=1)
        b = evaluate_cell(truth, est, cfg, "jl", seed=1)
        assert a.nmse == b.nmse

    def test_jldt_equals_sl_for_scalar_series(self):
        cfg = micro_config(l=1, n_tr_prime=6, m_h=1, m_v=1)
        truth, est = prepare_link(cfg, 10.0, seed=2)
        a = evaluate_cell(truth, est, cfg, "sl", seed=2)
        b = evaluate_cell(truth, est, cfg, "jldt", seed=2)
        assert a.nmse == pytest.approx(b.nmse, abs=1e-15)


class TestStaticChannel:
    def test_noise_free_static_channel_learned_exactly(self):
        # constant map is realizable: NMSE < 1e-4 with brief training
        from chanpred.estimation import estimate_trace
        from chanpred.channel import draw_paths, synthesize
        cfg = micro_config(l=2, n_tr_prime=5,
                           channel={"n_paths": 1, "speed": 0.0, "delay_spread": 0.0},
                           epochs=300, learning_rate=1e-2, n0=2)
        chan = cfg.channel.with_seed(3)
        truth = synthesize(chan, draw_paths(chan), cfg.required_blocks)
        est = estimate_trace(truth, cfg.scheme(10.0), ZeroNoise())
        cell = evaluate_cell(truth, est, cfg, "sl", seed=3)
        assert cell.nmse < 1e-4


class TestJldtReconstruction:
    def test_true_labels_reconstruct_exactly(self):
        cfg = micro_config()
        truth, _ = prepare_link(cfg, 10.0, seed=4)
        spec = cfg.dataset_spec(cfg.n_tr_prime)
        # windows cut from the truth itself: each test label is the true channel
        # of its row, so predicting the labels must rebuild the truth exactly
        _, test_ds = build_jldt(ChannelTensor(truth.values, "estimated"), spec)
        part = ("antenna", None, real_to_complex(test_ds.labels))
        rebuilt = assemble_predictions([part], spec, truth.values.shape[1:])
        label_blocks = spec.n_gap + spec.n0 + np.arange(spec.n_te)
        assert np.array_equal(rebuilt.values, truth.values[label_blocks])
        assert rebuilt.provenance == "predicted"


class TestScore:
    def _perfect(self, seed):
        cfg = micro_config()
        truth, est = prepare_link(cfg, 10.0, seed=seed)
        spec = cfg.dataset_spec()
        label = truth.values[spec.n_gap + spec.n0 + np.arange(spec.n_te)]
        pred = ChannelTensor(label, "predicted")
        assert score(pred, truth, spec) == 0.0
        return pred, truth, est, spec

    def test_estimate_is_not_truth(self):
        pred, _, est, spec = self._perfect(7)
        with pytest.raises(ContractError, match="provenance"):
            score(pred, est, spec)

    @pytest.mark.parametrize("missing", [1, 3])
    def test_short_truth_rejected(self, missing):
        pred, truth, _, spec = self._perfect(8)
        short = ChannelTensor(truth.values[:spec.min_blocks - missing], "true")
        with pytest.raises(ContractError, match="blocks"):
            score(pred, short, spec)

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
        assert score(pred, truth, spec) == nmse(*rows)

    def test_peak_memory_below_one_prediction(self):
        # paper-like (n_te, L, M): the labels are a view and the norms go
        # subcarrier by subcarrier, so no transient reaches a tensor's size
        spec = DatasetSpec(n0=3, n_tr=1, n_te=200, n_gap=4)
        truth = random_tensor(0, n=spec.min_blocks, l=50, m=64)
        pred = random_tensor(1, n=spec.n_te, l=50, m=64, provenance="predicted")
        tracemalloc.start()
        try:
            score(pred, truth, spec)
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
        pred = random_tensor(2, n=spec.n_te, provenance="predicted")
        return "true", spec.min_blocks, lambda t: score(pred, t, spec)
    if name == "persistence_nmse":
        cfg = micro_config(l=3, m_h=2, m_v=2, n_tr_prime=1)
        truth = random_tensor(3, n=cfg.required_blocks)
        return "estimated", cfg.required_blocks, lambda t: persistence_nmse(truth, t, cfg)
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
        truth, est = prepare_link(cfg, 10.0, seed=5)
        scaled_truth = dataclasses.replace(truth, values=4.0 * truth.values)
        scaled_est = dataclasses.replace(est, values=4.0 * est.values)
        for approach in ("sl", "jl", "jldt"):
            a = evaluate_cell(truth, est, cfg, approach, seed=5)
            b = evaluate_cell(scaled_truth, scaled_est, cfg, approach, seed=5)
            assert abs(a.nmse - b.nmse) < 1e-12


class TestFairnessAndDeterminism:
    def test_prepared_links_byte_identical(self):
        cfg = micro_config()
        t1, e1 = prepare_link(cfg, 10.0, seed=6)
        t2, e2 = prepare_link(cfg, 10.0, seed=6)
        assert np.array_equal(t1.values, t2.values)
        assert np.array_equal(e1.values, e2.values)

    def test_report_determinism(self):
        cfg = micro_config()
        r1 = snr_sweep(cfg)
        r2 = snr_sweep(cfg)
        for e1, e2 in zip(r1.entries, r2.entries):
            assert e1.nmse == e2.nmse
        assert r1.persistence == r2.persistence

    def test_trace_shared_across_snrs(self):
        cfg = micro_config(snr_db=(0.0, 10.0))
        ta, _ = prepare_link(cfg, 0.0, seed=7)
        tb, _ = prepare_link(cfg, 10.0, seed=7)
        assert np.array_equal(ta.values, tb.values)


class TestOverheadAccounting:
    def test_blocks_per_approach(self):
        cfg = micro_config(l=4, n_tr_prime=5, approaches=("sl", "jl"))
        assert cfg.overhead_blocks("sl") == 20
        assert cfg.overhead_blocks("sl_small") == 5
        assert cfg.overhead_blocks("jl") == 5
        assert cfg.overhead_blocks("jldt") == 5
        rep = snr_sweep(cfg)
        assert rep.entry("sl", 10.0).overhead_blocks == 20
        assert rep.entry("jl", 10.0).overhead_blocks == 5


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
def desk_micro_report():
    return snr_sweep(_desk_like_micro())


class TestTrends:
    def test_nmse_non_increasing_in_snr_on_average(self, desk_micro_report):
        for approach in ("sl", "sl_small", "jl", "jldt"):
            lo = desk_micro_report.entry(approach, 0.0).nmse
            hi = desk_micro_report.entry(approach, 20.0).nmse
            assert hi <= lo

    def test_full_budget_approaches_beat_persistence_at_high_snr(self, desk_micro_report):
        persist = desk_micro_report.persistence[20.0]
        assert desk_micro_report.entry("sl", 20.0).nmse < persist
        assert desk_micro_report.entry("jldt", 20.0).nmse < persist
