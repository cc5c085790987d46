"""Span tracing of chanpred's public layer functions, from outside the package.

`instrument()` swaps each traced function for a timing wrapper in every
loaded ``chanpred`` module that holds a reference to it (``from .x import y``
binds the name in the importing module too, so patching only the defining
module would miss calls made through ``cli`` or ``pipelines``). Spans are kept
in memory; `layer_metrics()` turns them into the per-layer metrics and
`Tracer.dump()` writes them out when the iteration ends.

A span's self time is its duration minus the durations of its direct child
spans; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

from chanpred.pipelines import APPROACHES

# read, write: params, m, v; read only: grad  -> 7 float64 passes per parameter
ADAM_ARRAY_PASSES = 7
FLOAT_BYTES = 8
DATASET_SPANS = ("datasets.build_series_dataset", "datasets.build_jl", "datasets.build_jldt")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _gemm_flop(dims, rows):
    """Multiply-add flops of one backward() call: forward, weight grads, deltas."""
    pairs = list(zip(dims[:-1], dims[1:]))
    forward = sum(2 * rows * i * o for i, o in pairs)
    grad_w = forward
    delta = sum(2 * rows * i * o for i, o in pairs[1:])
    return forward + grad_w + delta


def _note_backward(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    rows = len(_arg(args, kwargs, 1, "batch")[0])
    return {"rows": rows, "flop": _gemm_flop(model.dims, rows)}


def _note_adam(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    return {"bytes": ADAM_ARRAY_PASSES * FLOAT_BYTES * model.n_parameters()}


def _note_dataset(args, kwargs, result):
    parts = result if isinstance(result, tuple) else (result,)
    return {"rows": sum(p.n_rows for p in parts)}


def _note_export(args, kwargs, result):
    tensor = _arg(args, kwargs, 0, "tensor")
    path = _arg(args, kwargs, 1, "path")
    return {"records": int(tensor.values.size), "bytes": os.path.getsize(path)}


def _note_import(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return {"records": int(result.values.size), "bytes": os.path.getsize(path)}


def _note_cell(args, kwargs, result):
    return {"approach": _arg(args, kwargs, 3, "approach")}


# (module, function, span name, annotation taken after the span has ended)
TARGETS = (
    ("chanpred.cli", "main", "cli.main", None),
    ("chanpred.pipelines", "snr_sweep", "pipelines.snr_sweep", None),
    ("chanpred.pipelines", "prepare_link", "pipelines.prepare_link", None),
    ("chanpred.pipelines", "persistence_nmse", "pipelines.persistence_nmse", None),
    ("chanpred.pipelines", "evaluate_cell", "pipelines.evaluate_cell", _note_cell),
    ("chanpred.channel", "synthesize", "channel.synthesize", None),
    ("chanpred.channel", "export_trace", "channel.export_trace", _note_export),
    ("chanpred.channel", "import_trace", "channel.import_trace", _note_import),
    ("chanpred.estimation", "estimate_trace", "estimation.estimate_trace", None),
    ("chanpred.correlation", "correlation_report", "correlation.correlation_report", None),
    ("chanpred.datasets", "build_series_dataset", "datasets.build_series_dataset", _note_dataset),
    ("chanpred.datasets", "build_jl", "datasets.build_jl", _note_dataset),
    ("chanpred.datasets", "build_jldt", "datasets.build_jldt", _note_dataset),
    ("chanpred.mlp", "init_mlp", "mlp.init_mlp", None),
    ("chanpred.mlp", "train", "mlp.train", None),
    ("chanpred.mlp", "backward", "mlp.backward", _note_backward),
    ("chanpred.mlp", "adam_step", "mlp.adam_step", _note_adam),
    ("chanpred.mlp", "predict", "mlp.predict", None),
)


class Tracer:
    """In-memory span recorder: name, start, end, parent index, notes."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.update(note(args, kwargs, result))
            return result
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap every TARGETS function for a traced wrapper; restore on exit."""
    swapped = []
    try:
        for module_name, attr, name, note in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = tracer.wrap(name, original, note)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "chanpred" and not mod_name.startswith("chanpred."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        swapped.append((mod, key, original))
                        setattr(mod, key, wrapper)
        yield tracer
    finally:
        for mod, key, original in reversed(swapped):
            setattr(mod, key, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metric values (unit-free numbers) from one traced iteration."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]

    def select(name, **match):
        return [i for i, s in enumerate(spans)
                if s["name"] == name and all(s.get(k) == v for k, v in match.items())]

    def total(name, **match):
        return sum(spans[i]["end"] - spans[i]["start"] for i in select(name, **match))

    def self_time(name):
        return sum(spans[i]["end"] - spans[i]["start"] - child_time[i] for i in select(name))

    def noted(name, key):
        return sum(spans[i][key] for i in select(name))

    outer_datasets = [s for s in spans if s["name"] in DATASET_SPANS
                      and (s["parent"] is None or spans[s["parent"]]["name"] not in DATASET_SPANS)]

    adam_s, steps = total("mlp.adam_step"), len(select("mlp.adam_step"))
    backward_s, backward_calls = total("mlp.backward"), len(select("mlp.backward"))
    adam_gb = noted("mlp.adam_step", "bytes") / 1e9
    gemm_gflop = noted("mlp.backward", "flop") / 1e9
    export_s, import_s = total("channel.export_trace"), total("channel.import_trace")
    metrics = {
        "mlp.adam_step.s": adam_s,
        "mlp.adam_step.ms_per_step": 1e3 * _ratio(adam_s, steps),
        "mlp.adam.gbytes_computed": adam_gb,
        "mlp.adam.gbps_achieved": _ratio(adam_gb, adam_s),
        "mlp.backward.s": backward_s,
        "mlp.backward.ms_per_step": 1e3 * _ratio(backward_s, backward_calls),
        "mlp.gemm.gflop_computed": gemm_gflop,
        "mlp.gemm.gflops_achieved": _ratio(gemm_gflop, backward_s),
        "mlp.train.s": total("mlp.train"),
        "mlp.train.self_s": self_time("mlp.train"),
        "mlp.steps": steps,
        "mlp.rows_per_step": _ratio(noted("mlp.backward", "rows"), backward_calls),
        "mlp.jobs": len(select("mlp.train")),
        "mlp.init_mlp.s": total("mlp.init_mlp"),
        "mlp.predict.s": total("mlp.predict"),
        "datasets.build.s": sum(s["end"] - s["start"] for s in outer_datasets),
        "datasets.rows": sum(s["rows"] for s in outer_datasets),
        "pipelines.prepare_link.s": total("pipelines.prepare_link"),
        "pipelines.evaluate_cell.self_s": self_time("pipelines.evaluate_cell"),
        "pipelines.persistence_nmse.s": total("pipelines.persistence_nmse"),
        "pipelines.snr_sweep.s": total("pipelines.snr_sweep"),
        "channel.synthesize.s": total("channel.synthesize"),
        "estimation.estimate_trace.s": total("estimation.estimate_trace"),
        "correlation.correlation_report.s": total("correlation.correlation_report"),
        "channel.export_trace.s": export_s,
        "channel.export_trace.us_per_record":
            1e6 * _ratio(export_s, noted("channel.export_trace", "records")),
        "channel.import_trace.s": import_s,
        "channel.import_trace.us_per_record":
            1e6 * _ratio(import_s, noted("channel.import_trace", "records")),
        "channel.trace.bytes": noted("channel.export_trace", "bytes")
                               + noted("channel.import_trace", "bytes"),
        "cli.main.self_s": self_time("cli.main"),
    }
    for approach in APPROACHES:
        metrics[f"pipelines.evaluate_cell.{approach}.s"] = total(
            "pipelines.evaluate_cell", approach=approach)
    return metrics
