"""One benchmark iteration in a fresh interpreter; prints one JSON line.

Started by run.py with one JSON argument: workload, scale, seed, traced,
probe, workdir and spans_path. The BLAS thread count and PYTHONPATH come from
the environment run.py sets.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import traceback


def _environment() -> dict:
    import numpy
    import chanpred
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "chanpred": os.path.dirname(chanpred.__file__),
    }


def main(spec: dict) -> dict:
    import workloads
    from tracing import Tracer, instrument, layer_metrics

    result = {"error": None, "layers": None, "projection": None, "env": _environment()}
    workload, scale, seed = spec["workload"], spec["scale"], spec["seed"]
    tracer = Tracer()
    try:
        with instrument(tracer) if spec["traced"] else contextlib.nullcontext():
            result["wall_s"], result["outputs"] = workloads.run(
                workload, scale, seed, spec["workdir"])
        if spec["traced"]:
            result["layers"] = layer_metrics(tracer.spans)
            tracer.dump(spec["spans_path"])
        if spec["probe"]:
            result["projection"] = workloads.paper_projection(scale, seed)
        result["steps"], result["jobs"] = workloads.config_work(workload, scale, spec["workdir"])
    except Exception:  # reported to run.py, which fails the iteration's operations
        result["error"] = traceback.format_exc()
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
