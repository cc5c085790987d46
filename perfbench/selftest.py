"""Fast self-test of the benchmark on tiny configs (well under a minute).

    python3 perfbench/selftest.py

For every workload it runs the same code path as run.py at a tiny scale and
checks that
  * an untraced run emits every end_to_end metric of BENCHMARK.json and a
    traced run every per_layer metric, each with its declared unit;
  * a reference taken from one run is reproduced by a traced run (no failed
    operation, so tracing changes no output);
  * a deliberately wrong reference fails every operation;
  * a traced iteration whose spans miss training work fails every operation.
Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import run
import workloads

SEED = 3


def _emitted(result: dict, manifest: dict, section: str) -> list:
    """Problems with the metrics a run reports for one BENCHMARK.json section."""
    with contextlib.redirect_stdout(io.StringIO()):
        final = run.report(result, manifest)
    problems = []
    for metric in manifest[section]:
        got = final["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"{metric['name']} missing")
        elif got["unit"] != metric["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{metric['name']} reported as {got}")
    extra = set(final["metrics"]) - {m["name"] for m in manifest[section]}
    problems += [f"{name} not declared" for name in sorted(extra)]
    return problems


def _wrong(ref: dict) -> dict:
    """The reference with every digest and NMSE changed: every operation must fail."""
    bad = copy.deepcopy(ref)
    for name in bad["digests"]:
        bad["digests"][name] = "0" * 64
    for op in bad.get("nmse_db", {}):
        bad["nmse_db"][op] += 0.01
    return bad


def main() -> int:
    manifest = run.load_manifest()
    problems = []
    for workload in workloads.WORKLOADS:
        plain = run.measure(workload, "tiny", SEED, 1, False, {})
        errors = [it["error"] for it in plain["iterations"] if it.get("error")]
        problems += [f"{workload}: iteration failed: {e}" for e in errors]
        if errors:
            continue
        problems += [f"{workload} end_to_end: {p}" for p in _emitted(plain, manifest, "end_to_end")]

        ref = workloads.reference_of(plain["iterations"][0]["outputs"])
        traced = run.measure(workload, "tiny", SEED, 1, True, {workload: {str(SEED): ref}})
        problems += [f"{workload} per_layer: {p}" for p in _emitted(traced, manifest, "per_layer")]
        if traced["gate"]["failed"]:
            problems.append(f"{workload}: reference not reproduced: {traced['gate']['failures']}")

        lossy = copy.deepcopy(next(it for it in traced["iterations"] if it["traced"]))
        lossy["layers"]["mlp.steps"] += 1
        lost = run.gate(workload, SEED, [lossy], {})
        if lost["failed"] != lost["attempted"]:
            problems.append(f"{workload}: spans missing a step failed {lost['failed']} "
                            f"of {lost['attempted']} operations")

        wrong = run.measure(workload, "tiny", SEED, 1, False,
                            {workload: {str(SEED): _wrong(ref)}})
        if wrong["gate"]["failed"] != wrong["gate"]["attempted"]:
            problems.append(f"{workload}: a wrong reference failed {wrong['gate']['failed']} "
                            f"of {wrong['gate']['attempted']} operations")
    print(json.dumps({"selftest": "fail" if problems else "pass", "problems": problems}, indent=1))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
