"""The benchmark's calls into chanpred must still resolve and run.

perfbench/tracing.py swaps chanpred functions by name from outside the
package, and perfbench/workloads.py parses configs, reads `cfg.n_tr` and
trains through `mlp.train` and `init_mlp`; a rename, a deleted function or
a changed signature would silently zero its metrics or fail its runs. Its
paper-link check also pins the trace header bytes. This test only reads
perfbench.
"""

import importlib
import math
import pathlib

import pytest

from chanpred import ChannelConfig, ExperimentConfig
from chanpred import pipelines

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_tracing_targets_resolve_and_count_jobs(monkeypatch):
    tracing = _perfbench(monkeypatch, "tracing")
    for module, attr, *_ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    n_sub = 3
    cfg = ExperimentConfig(
        channel=ChannelConfig(m_h=2, m_v=1, n_subcarriers=n_sub, n_paths=5),
        snr_db=(10.0,), n0=2, n_tr_prime=3, n_gap=3 * n_sub + 2, n_te=2,
        hidden=(4,), batch_size=8, epochs=2, seeds=(1,),
        approaches=("sl", "jl", "jldt")).validate()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        pipelines.snr_sweep(cfg)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mlp.jobs"] == n_sub + 1 + 1
    # train and test rows per series, times the series each builder reads:
    # sl L*(n_tr + n_te), jl L*(n_tr' + n_te), jldt M*(n_tr' + n_te)
    n_ant, n_tr_prime, n_te = 2, 3, 2
    assert metrics["datasets.rows"] == (n_sub * (n_sub * n_tr_prime + n_te)
                                        + n_sub * (n_tr_prime + n_te)
                                        + n_ant * (n_tr_prime + n_te)) == 58


@pytest.mark.parametrize("workload", ["desk-separate", "paper-jldt"])
def test_workload_configs_parse_with_training_work(monkeypatch, tmp_path, workload):
    workloads = _perfbench(monkeypatch, "workloads")
    steps, jobs = workloads.config_work(workload, "tiny", str(tmp_path))
    assert steps > 0 and jobs > 0


def test_paper_projection_trains_and_projects(monkeypatch):
    workloads = _perfbench(monkeypatch, "workloads")
    projection = workloads.paper_projection("tiny", 1)
    assert math.isfinite(projection["hours"]) and projection["hours"] > 0
    assert all(s > 0 for s in projection["s_per_step"].values())
    assert all(n > 0 for n in projection["steps_per_cell"].values())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_paper_link_check_passes(monkeypatch, tmp_path, seed):
    workloads = _perfbench(monkeypatch, "workloads")
    _, outputs = workloads.run("paper-link", "tiny", seed, str(tmp_path))
    failed, _ = workloads.check("paper-link", outputs, None)
    assert failed == {}


def test_traced_desk_sweep_has_one_backward_per_adam_step(monkeypatch, tmp_path):
    # the benchmark's gate counts mlp.adam_step spans against the config's
    # step count; a refactor that fuses or skips either call must fail here
    tracing = _perfbench(monkeypatch, "tracing")
    workloads = _perfbench(monkeypatch, "workloads")
    from chanpred.cli import parse_config
    preset, path = workloads.write_config("desk-separate", "tiny", str(tmp_path))
    steps = sum(workloads.adam_steps(parse_config(path, preset=preset)).values())

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        _, outputs = workloads.run("desk-separate", "tiny", 1, str(tmp_path))
    assert outputs["error"] is None
    names = [span["name"] for span in tracer.spans]
    assert steps > 0
    assert names.count("mlp.adam_step") == steps
    assert names.count("mlp.backward") == steps
    # one SNR and one seed: each subcarrier's train and test rows, per approach
    cfg = parse_config(path, preset=preset)
    assert cfg.snr_db == (15.0,) and cfg.approaches == ("sl", "sl_small")
    rows = sum(cfg.channel.n_subcarriers * (cfg.overhead_blocks(a) + cfg.n_te)
               for a in cfg.approaches)
    assert tracing.layer_metrics(tracer.spans)["datasets.rows"] == rows
