"""The benchmark's tracer must still find and count what it instruments.

perfbench/tracing.py swaps chanpred functions by name from outside the
package; a rename or a deleted function would silently zero its metrics.
This test only reads perfbench.
"""

import importlib
import pathlib

from chanpred import ChannelConfig, ExperimentConfig
from chanpred import pipelines

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracing_targets_resolve_and_count_jobs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module, attr, *_ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)

    n_sub = 3
    cfg = ExperimentConfig(
        channel=ChannelConfig(m_h=2, m_v=1, n_subcarriers=n_sub, n_paths=5),
        snr_db=(10.0,), n0=2, n_tr=3 * n_sub, n_tr_prime=3, n_gap=3 * n_sub + 2, n_te=2,
        hidden=(4,), batch_size=8, epochs=2, seeds=(1,)).validate()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        pipelines.snr_sweep(cfg, approaches=("sl", "jl", "jldt"))
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mlp.jobs"] == n_sub + 1 + 1
    assert metrics["datasets.rows"] > 0
