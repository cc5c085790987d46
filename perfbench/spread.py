"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--baseline perfbench/baseline.json]

Runs run.py ten times per workload, with seeds 101-110 and the run_seconds of
BENCHMARK.json, and prints for each end-to-end metric its median, quartiles
(statistics.quantiles, n=4) and interquartile spread as a share of the
median, next to the metric's bound. With --baseline it also makes one traced
run per workload at the default seed and writes medians, quartiles,
per-layer values and the host record to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run
import workloads

SEEDS = range(101, 111)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["host"] = next(json.loads(line[len("host: "):]) for line in lines
                          if line.startswith("host: "))
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    manifest = run.load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="write the baseline JSON here")
    args = parser.parse_args()
    seconds = manifest["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    why = {w["name"]: w["why"] for w in manifest["workloads"]}
    baseline = {"run_seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in why:
        seeds = list(SEEDS)
        results = [bench(workload, seed, seconds, 0) for seed in seeds]
        all_correct &= all(r["correct"] for r in results)
        entry = {"why": why[workload], "seeds": seeds,
                 "correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else \
                "WITHIN BOUND" if stats["spread"] <= bound else "OVER BOUND"
            print(f"{workload:14s} {name:12s} median {stats['median']:.4f}  "
                  f"q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  spread {stats['spread']:.4f}  "
                  f"bound {bound}  {flag}", flush=True)
        if args.baseline:
            traced = bench(workload, workloads.SHIPPED_SEEDS[0], seconds, 1)
            all_correct &= traced["correct"]
            entry["per_layer_seed"] = workloads.SHIPPED_SEEDS[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    if args.baseline:
        baseline["host"] = {k: v for k, v in results[-1]["host"].items() if k != "chanpred"}
        with open(args.baseline, "w") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
