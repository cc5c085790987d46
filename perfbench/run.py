"""chanpred benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src/`.
Each iteration runs in a fresh interpreter (worker.py), one at a time, with
the BLAS thread count pinned. Iterations repeat until the next one would end
after `--seconds`; metrics are medians over iterations.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: wall_s (the CLI
calls of one iteration), setup_s (median over fresh interpreters of
`import chanpred` plus config parse and validation, sampled in batches
between iterations) and peak_rss_mb (peak resident memory of an iteration's
process). --trace 1 alternates untraced and traced iterations, at least two
of each, and reports the per-layer metrics, plus train_steps_per_s,
paper_sweep_projection_h and trace.overhead_s from the untraced ones; spans
are written to `.bench_out/`. Every iteration's outputs pass through the
correctness gate (workloads.check), and a traced iteration fails it too if
its spans do not count the training jobs and ADAM steps its config implies
(spans made outside the worker process are lost); the last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

# one BLAS thread: steadier on a small shared host, and leaves the other cores
# to job-level parallelism inside the program
BLAS_THREADS = 1
SETUP_SAMPLES = 21
# a ~0.14 s import follows the host's speed of the moment, so the samples are
# taken in batches spread over the run rather than in one burst
SETUP_BATCH = 7
RUN_LIMIT_S = 170.0      # a run must end within 180 s
CHILD_TIMEOUT_MIN_S = 20.0

SETUP_CODE = """
import time
started = time.perf_counter()
import chanpred
from chanpred.cli import parse_config
parse_config({path!r}, {{"seeds": [{seed}]}}, preset={preset!r})
print(time.perf_counter() - started)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_record() -> dict:
    """Where the run happened: git revision, cores, Python, BLAS threads."""
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    return {
        "git_rev": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": (status != "") if status is not None else None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "blas_threads": BLAS_THREADS,
    }


def measure_setup(workload: str, scale: str, seed: int, count: int) -> list:
    """Seconds each fresh interpreter spends importing chanpred and parsing the config."""
    samples = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        preset, path = workloads.write_config(workload, scale, workdir)
        code = SETUP_CODE.format(path=path, seed=seed, preset=preset)
        for _ in range(count):
            proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                                  capture_output=True, text=True, timeout=60, check=True)
            samples.append(float(proc.stdout.strip()))
    return samples


def run_iteration(workload, scale, seed, traced, probe, index, timeout) -> dict:
    """Run one iteration in a worker process; returns its result and duration."""
    tag = f"{workload}-{scale}-seed{seed}"
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR)
    spec = {"workload": workload, "scale": scale, "seed": seed, "traced": traced,
            "probe": probe, "workdir": workdir,
            "spans_path": str(OUT_DIR / f"spans-{tag}-{index}.json")}
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
                              env=child_env(), capture_output=True, text=True, timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {
            "error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    except subprocess.TimeoutExpired:
        result = {"error": f"worker timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["traced"] = traced
    result["duration_s"] = time.monotonic() - started
    return result


def _lost_spans(it: dict) -> str | None:
    """Why a traced iteration's spans undercount its training work, if they do."""
    if not it["traced"]:
        return None
    counted = (it["layers"]["mlp.jobs"], it["layers"]["mlp.steps"])
    if counted == (it["jobs"], it["steps"]):
        return None
    return (f"spans count {counted[0]} training jobs and {counted[1]} ADAM steps, "
            f"the config implies {it['jobs']} and {it['steps']}")


def gate(workload: str, seed: int, iterations: list, references: dict) -> dict:
    """Count attempted and failed operations over all iterations."""
    ref = references.get(workload, {}).get(str(seed))
    attempted, failures, drifts = 0, [], []
    for i, it in enumerate(iterations):
        ops = workloads.OPS[workload]
        attempted += len(ops)
        if it.get("error"):
            failed, drift = {op: it["error"] for op in ops}, None
        else:
            failed, drift = workloads.check(workload, it["outputs"], ref)
            lost = _lost_spans(it)
            if lost:
                failed.update({op: lost for op in ops if op not in failed})
        failures += [f"iteration {i} {op}: {reason}" for op, reason in failed.items()]
        if drift is not None:
            drifts.append(drift)
    return {"attempted": attempted, "failed": len(failures), "failures": failures,
            "reference": ref is not None, "nmse_drift_db": max(drifts, default=None)}


def measure(workload: str, scale: str, seed: int, seconds: float, trace: bool,
            references: dict) -> dict:
    """Run the iterations of one benchmark run and compute its metrics."""
    run_started = time.monotonic()
    OUT_DIR.mkdir(exist_ok=True)
    setup, spent, iterations = [], 0.0, []
    while True:
        if not trace and len(setup) < SETUP_SAMPLES:
            setup += measure_setup(workload, scale, seed, SETUP_BATCH)
        traced = trace and len(iterations) % 2 == 1
        # the step-cost probes feed a per-layer metric, so only traced runs pay for them
        probe = trace and not traced and workload == "paper-jldt"
        timeout = max(CHILD_TIMEOUT_MIN_S, RUN_LIMIT_S - (time.monotonic() - run_started))
        it = run_iteration(workload, scale, seed, traced, probe, len(iterations), timeout)
        iterations.append(it)
        spent += it["duration_s"]
        if (it.get("error") or "").startswith("worker timed out"):
            break
        more = (trace and len(iterations) < 4) or spent + it["duration_s"] <= seconds
        fits = time.monotonic() - run_started + it["duration_s"] <= RUN_LIMIT_S
        if not (more and fits):
            break
    while not trace and len(setup) < SETUP_SAMPLES:
        setup += measure_setup(workload, scale, seed, SETUP_BATCH)

    ok = [it for it in iterations if not it.get("error")]
    plain = [it for it in ok if not it["traced"]]
    traced_its = [it for it in ok if it["traced"]]
    result = {"workload": workload, "seed": seed, "scale": scale, "trace": trace,
              "host": host_record(), "gate": gate(workload, seed, iterations, references),
              "iterations": iterations, "setup_samples_s": setup, "metrics": {}}
    if not plain or (trace and not traced_its):
        return result
    wall = statistics.median(it["wall_s"] for it in plain)
    if trace:
        metrics = {name: statistics.median(it["layers"][name] for it in traced_its)
                   for name in traced_its[0]["layers"]}
        metrics["trace.overhead_s"] = statistics.median(it["wall_s"] for it in traced_its) - wall
        metrics["train_steps_per_s"] = plain[0]["steps"] / wall
        projections = [it["projection"]["hours"] for it in plain if it["projection"]]
        metrics["paper_sweep_projection_h"] = statistics.median(projections) if projections else 0.0
    else:
        metrics = {"wall_s": wall, "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(it["maxrss_mb"] for it in plain)}
    result["metrics"] = metrics
    return result


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_references() -> dict:
    with open(BENCH_DIR / "references.json") as f:
        return json.load(f)


def report(result: dict, manifest: dict) -> dict:
    """Print the human-readable summary; return the final JSON object."""
    declared = manifest["per_layer" if result["trace"] else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    g = result["gate"]
    for name, unit in units.items():
        print(f"{name} = {result['metrics'][name]!r} {unit}")
    print(f"error_rate = {g['failed'] / g['attempted']!r} ratio "
          f"({g['failed']} of {g['attempted']} operations)")
    drift = g["nmse_drift_db"]
    print(f"nmse_drift_db = {drift!r} dB" if drift is not None else
          "nmse_drift_db = n/a (no stored NMSE reference for this workload and seed)")
    for failure in g["failures"]:
        print(f"FAILED {failure}")
    env = next((it["env"] for it in result["iterations"] if "env" in it), {})
    print(f"host: {json.dumps({**result['host'], **env})}")
    projection = next((it["projection"] for it in result["iterations"]
                       if it.get("projection")), None)
    if projection:
        print(f"paper sweep projection: {json.dumps(projection)}")
    return {"correct": g["failed"] == 0, "attempted": g["attempted"], "failed": g["failed"],
            "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.SHIPPED_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=load_manifest()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chanpred" / "__init__.py").is_file():
        print(f"error: no chanpred sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(args.workload, "full", args.seed, args.seconds, bool(args.trace),
                     load_references())
    if not result["metrics"]:
        print("error: no iteration completed:", file=sys.stderr)
        for it in result["iterations"]:
            print(it.get("error"), file=sys.stderr)
        return 1
    with open(OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(report(result, load_manifest())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
