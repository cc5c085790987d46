"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 5 trains the full desk-preset experiment and takes several minutes.
"""

import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from chanpred import (
    ChannelConfig,
    ChannelTensor,
    PilotScheme,
    adam_step,
    correlation_report,
    dft_pilot,
    draw_paths,
    init_mlp,
    loss_mse,
    predict,
    series_view,
    snr_sweep,
    synthesize,
)
from chanpred.channel import DOMAIN_ANTENNA
from chanpred.datasets import DatasetSpec, build_jl, build_jldt
from chanpred.estimation import estimate_trace
from chanpred.mlp import AdamState, MlpModel, _layer_views, backward
from chanpred.cli import main, parse_config
from chanpred.rng import stream


def _report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_ls_estimator_oracle():
    # per-element LS error variance = 1/(rho*tau) = 0.025 at 10 dB, tau=4,
    # over >= 10^4 pilot transmissions, in under 10 s
    started = time.perf_counter()
    scheme = PilotScheme(dft_pilot(4, 1), 10.0)
    m, trials = 8, 10_000
    h = stream(102, "h").standard_normal(m) + 1j * stream(103, "h").standard_normal(m)
    # the same h in every block, so each block is one pilot transmission
    truth = ChannelTensor(np.tile(h, (trials, 1, 1)), "true")
    est = estimate_trace(truth, scheme, stream(101, "ls-oracle"))
    var = float(np.mean(np.abs(est.values - h) ** 2))
    elapsed = time.perf_counter() - started
    ok = abs(var - 0.025) / 0.025 < 0.10 and elapsed < 10.0
    _report(1, ok, f"LS error variance {var:.5f} vs 0.025 analytic "
                   f"({trials} transmissions, {elapsed:.1f} s)")


GRAD_STEP = 1e-6
GRAD_BOUND = 1e-4


class GradCoord(NamedTuple):
    """One parameter coordinate of a gradient check; `err` < bound passes."""

    layer: int
    param: str
    index: int
    analytic: float
    central: float
    left: float
    right: float
    kink: bool
    err: float

    def describe(self):
        return (f"layer {self.layer} {self.param}[{self.index}]"
                f"{' (ReLU kink)' if self.kink else ''}: analytic {self.analytic:.6g}, "
                f"central {self.central:.6g}, left {self.left:.6g}, right {self.right:.6g}")


def _hidden_masks(model, x):
    """ReLU on/off masks (pre > 0) of every hidden layer for the batch `x`."""
    masks = []
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w.T + b
        masks.append(z > 0)
        a = np.maximum(z, 0.0)
    return masks


def _grad_check_case(seed):
    """Criterion 2's random model (dims <= 8, zero biases) and 3-sample batch."""
    rng = stream(seed, "accept-grad")
    dims = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(2, 5)))]
    model = init_mlp(dims, seed)
    x = rng.standard_normal((3, dims[0]))
    y = rng.standard_normal((3, dims[-1]))
    return model, x, y


def _check_gradient(model, batch, grad):
    """Check the flat gradient `grad` against finite differences of loss_mse.

    A coordinate whose +-step evaluation flips any hidden ReLU mask sits on a
    kink, where the loss has no derivative; there `err` is how far the analytic
    value lies outside the [left, right] one-sided differences, relative to
    their size. Elsewhere `err` is the relative error against the central
    difference. Returns one GradCoord per parameter coordinate.
    """
    x, y = batch
    base = loss_mse(predict(model, x), y)
    base_masks = _hidden_masks(model, x)
    coords = []
    grad_w, grad_b = _layer_views(grad, model.dims)
    for li in range(model.n_layers):
        for param, arr, layer_grad in (("w", model.weights[li], grad_w[li]),
                                       ("b", model.biases[li], grad_b[li])):
            flat = arr.reshape(-1)
            for idx, g in enumerate(layer_grad.reshape(-1).tolist()):
                orig = flat[idx]
                flat[idx] = orig + GRAD_STEP
                up = loss_mse(predict(model, x), y)
                up_masks = _hidden_masks(model, x)
                flat[idx] = orig - GRAD_STEP
                down = loss_mse(predict(model, x), y)
                down_masks = _hidden_masks(model, x)
                flat[idx] = orig
                kink = not all(np.array_equal(m, u) and np.array_equal(m, d)
                               for m, u, d in zip(base_masks, up_masks, down_masks))
                left, right = (base - down) / GRAD_STEP, (up - base) / GRAD_STEP
                central = (up - down) / (2 * GRAD_STEP)
                if kink:
                    lo, hi = min(left, right), max(left, right)
                    err = max(lo - g, g - hi, 0.0) / max(abs(lo), abs(hi), 1e-6)
                else:
                    err = abs(g - central) / max(abs(g), abs(central), 1e-6)
                coords.append(GradCoord(li, param, idx, g, central, left, right,
                                        kink, err))
    return coords


def test_criterion_2_gradient_checks():
    # >= 50 randomized small MLPs (dims <= 8): backprop vs central differences;
    # where a +-step flips a ReLU mask, vs the one-sided difference bracket
    n_models = 50
    checked = []
    for seed in range(n_models):
        model, x, y = _grad_check_case(seed)
        grad, _ = backward(model, (x, y))
        checked += [(seed, c) for c in _check_gradient(model, (x, y), grad)]
    kinks = [c for _, c in checked if c.kink]
    worst_smooth = max(c.err for _, c in checked if not c.kink)
    violations = sum(c.err >= GRAD_BOUND for c in kinks)
    worst_seed, worst = max(checked, key=lambda sc: sc[1].err)
    ok = worst.err < GRAD_BOUND
    _report(2, ok,
            f"{n_models} random MLPs, {len(checked)} coordinates, {len(kinks)} at "
            f"ReLU kinks; worst non-kink relative error {worst_smooth:.2e} "
            f"(bound {GRAD_BOUND:.0e}), {violations} kink bracket violations"
            + ("" if ok else f"; worst: seed {worst_seed} {worst.describe()}"))


def test_criterion_2_check_flags_corrupted_gradients():
    # the check must still catch a wrong gradient, off a kink and on one
    model, x, y = _grad_check_case(2)
    grad, _ = backward(model, (x, y))
    coords = _check_gradient(model, (x, y), grad)
    assert all(c.err < GRAD_BOUND for c in coords)
    kink = next(c for c in coords if (c.layer, c.param, c.index) == (1, "b", 1))
    assert kink.kink and kink.analytic == 0.0
    smooth = max((c for c in coords if not c.kink), key=lambda c: abs(c.analytic))
    for target, value in ((smooth, smooth.analytic * 1.01), (kink, -1.0)):
        corrupted = grad.copy()
        layer_grads = _layer_views(corrupted, model.dims)[target.param == "b"]
        layer_grads[target.layer].reshape(-1)[target.index] = value
        flagged = [c for c in _check_gradient(model, (x, y), corrupted)
                   if c.err >= GRAD_BOUND]
        assert [(c.layer, c.param, c.index, c.kink) for c in flagged] == \
            [(target.layer, target.param, target.index, target.kink)], \
            [c.describe() for c in flagged]


def test_criterion_3_adam_oracle():
    # 3-step scalar ADAM with constant gradient vs hand-stepped reference
    theta0, g, lr, b1, b2, eps = 0.3, 0.5, 1e-3, 0.9, 0.999, 1e-8
    model = MlpModel((1, 1), np.array([theta0, 0.0]))
    state = AdamState.for_model(model, learning_rate=lr)
    observed = []
    for _ in range(3):
        adam_step(model, np.array([g, 0.0]), state)
        observed.append(float(model.weights[0][0, 0]))
    theta, m, v = theta0, 0.0, 0.0
    expected = []
    for t in (1, 2, 3):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta = theta - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        expected.append(theta)
    worst = max(abs(o - e) for o, e in zip(observed, expected))
    _report(3, worst < 1e-12, f"3-step scalar trace max deviation {worst:.2e}")


def test_criterion_4_correlation_regimes():
    # default synthetic channel, N_avg=2000, shifts 0..16: subcarrier cross
    # > 0.9, antenna cross < 0.3, both autos > 0.9; under 1 minute
    started = time.perf_counter()
    cfg = ChannelConfig()
    tensor = synthesize(cfg, draw_paths(cfg), 2016)
    rep = correlation_report(tensor, max_shift=16, n_avg=2000)
    elapsed = time.perf_counter() - started
    checks = {
        "sub_cross>0.9": float(np.min(rep.subcarrier_cross)),
        "ant_cross<0.3": float(np.max(rep.antenna_cross)),
        "sub_auto>0.9": float(np.min(rep.subcarrier_auto)),
        "ant_auto>0.9": float(np.min(rep.antenna_auto)),
    }
    ok = (checks["sub_cross>0.9"] > 0.9 and checks["ant_cross<0.3"] < 0.3
          and checks["sub_auto>0.9"] > 0.9 and checks["ant_auto>0.9"] > 0.9
          and elapsed < 60.0)
    _report(4, ok, f"{checks} ({elapsed:.1f} s)")


@pytest.mark.slow
def test_criterion_5_desk_scale_ordering():
    # ordinal reproduction of the reported comparison at desk scale, >= 3
    # seeds, SNR 15 dB: jldt beats the matched-budget sl and jl; the tiny-
    # budget sl variant is the worst of all four; under 15 minutes
    started = time.perf_counter()
    cfg = parse_config(preset="desk", overrides={"snr_db": [15.0],
                                                 "seeds": [1, 2, 3]})
    report = snr_sweep(cfg)
    elapsed = time.perf_counter() - started
    n = {e.approach: e.nmse for e in report.entries}
    db = {k: round(10 * np.log10(v), 2) for k, v in n.items()}
    ok = (n["sl"] > n["jldt"] and n["jl"] > n["jldt"]
          and n["sl_small"] > max(n["sl"], n["jl"], n["jldt"])
          and elapsed < 900.0)
    _report(5, ok, f"NMSE dB {db}: sl>jldt, jl>jldt, sl_small worst "
                   f"({elapsed:.0f} s, 3 seeds)")


def test_criterion_6_time_overhead_accounting():
    # exact integer bookkeeping, no training needed
    cfg = parse_config(preset="desk")
    l = cfg.channel.n_subcarriers
    ok = (cfg.overhead_blocks("jl") == cfg.n_tr_prime
          and cfg.overhead_blocks("jldt") == cfg.n_tr_prime
          and cfg.overhead_blocks("sl") == cfg.n_tr
          and cfg.n_tr == l * cfg.n_tr_prime)
    _report(6, ok, f"overhead blocks: sl={cfg.overhead_blocks('sl')}, "
                   f"jl=jldt={cfg.overhead_blocks('jl')}, L*N'_tr={l * cfg.n_tr_prime}")


def test_criterion_7_domain_round_trip():
    worst_shapes = []
    rng = stream(700, "shapes")
    for case in range(100):
        n = int(rng.integers(1, 12))
        l = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        vals = rng.standard_normal((n, l, m)) + 1j * rng.standard_normal((n, l, m))
        ant = series_view(vals, DOMAIN_ANTENNA)
        if not (all(np.array_equal(ant[:, j], vals[:, :, j]) for j in range(m))
                and np.shares_memory(ant, vals)
                and np.array_equal(series_view(ant, DOMAIN_ANTENNA), vals)):
            worst_shapes.append((n, l, m))
    _report(7, not worst_shapes,
            f"100 randomized shapes round-trip bit-exactly"
            + (f"; failures: {worst_shapes}" if worst_shapes else ""))


def test_criterion_8_no_leakage_and_determinism(tmp_path):
    # (a) block-index separation for both presets' dataset construction, read
    # from the values themselves: every entry of block n (1-based) is n + nj,
    # so each feature or label entry names the block it came from
    leak_ok = True
    for preset in ("paper", "desk"):
        cfg = parse_config(preset=preset)
        blocks = np.arange(1, cfg.required_blocks + 1) * (1 + 1j)
        est = ChannelTensor(np.repeat(blocks, 2 * 2).reshape(-1, 2, 2), "estimated")
        for n_tr in (cfg.n_tr, cfg.n_tr_prime):
            spec = DatasetSpec(cfg.n0, n_tr, cfg.n_te, cfg.n_gap)
            for builder in (build_jl, build_jldt):
                train, test = builder(est, spec)
                seen = np.concatenate([train.features.ravel(), train.labels.ravel()])
                leak_ok = leak_ok and (
                    seen.max() < test.features.min()
                    # training reads blocks 1 .. n_tr+n0, test n_gap+1 .. n_gap+n_te+n0
                    and (seen.min(), seen.max()) == (1, n_tr + spec.n0)
                    and (test.features.min(), test.labels.max())
                    == (spec.n_gap + 1, spec.n_gap + spec.n_te + spec.n0))

    # (b) identical seeds -> byte-identical output files for every subcommand
    import json
    micro = {
        "m_h": 2, "m_v": 2, "subcarriers": 3, "paths": 7,
        "speed_mps": 6.0 / 3.6, "doppler_grid_blocks": 60,
        "doppler_offset_hz": 10.0, "n0": 2, "n_tr": 12, "n_tr_prime": 4,
        "n_gap": 14, "n_te": 4, "hidden": [16], "batch_size": 16,
        "epochs": 20, "snr_db": [10.0], "seeds": [7],
    }
    cfg_path = tmp_path / "micro.json"
    cfg_path.write_text(json.dumps(micro))

    det_ok = True
    outputs = {}
    for rep in ("a", "b"):
        d = tmp_path / rep
        d.mkdir()
        trace = str(d / "true.trace")
        est = str(d / "est.trace")
        canon = str(d / "canon.trace")
        corr = str(d / "corr.csv")
        run_csv = str(d / "run.csv")
        sweep_csv = str(d / "sweep.csv")
        assert main(["generate", "--config", str(cfg_path), "--out", trace,
                     "--blocks", "30"]) == 0
        assert main(["import", "--trace", trace, "--out", canon]) == 0
        assert main(["estimate", "--config", str(cfg_path), "--trace", trace,
                     "--out", est]) == 0
        assert main(["correlate", "--config", str(cfg_path), "--n-avg", "20",
                     "--max-shift", "3", "--out", corr]) == 0
        assert main(["run", "--config", str(cfg_path), "--approach", "jldt",
                     "--out", run_csv]) == 0
        assert main(["sweep", "--config", str(cfg_path), "--out", sweep_csv]) == 0
        outputs[rep] = [Path(p).read_text() for p in (trace, canon, est, corr,
                                                 run_csv, sweep_csv)]
    det_ok = outputs["a"] == outputs["b"]

    _report(8, leak_ok and det_ok,
            f"train/test block separation for both presets: {leak_ok}; "
            f"byte-identical repeated outputs across all subcommands: {det_ok}")
