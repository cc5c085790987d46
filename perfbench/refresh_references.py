"""Regenerate references.json: the outputs each shipped seed must reproduce.

    python3 perfbench/refresh_references.py

Runs one untraced full-scale iteration of every workload for each shipped
seed. A seed's outputs are stored only if they pass the seed-independent
invariants. Only run this on a commit whose outputs are known to be right:
the references are what later commits are checked against.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    references = {}
    for workload in workloads.WORKLOADS:
        for seed in workloads.SHIPPED_SEEDS:
            it = run.run_iteration(workload, "full", seed, False, False, 0, 170.0)
            if it.get("error"):
                print(f"{workload} seed {seed}: {it['error']}", file=sys.stderr)
                return 1
            failed, _ = workloads.check(workload, it["outputs"], None)
            if failed:
                print(f"{workload} seed {seed}: invariants fail: {failed}", file=sys.stderr)
                return 1
            references.setdefault(workload, {})[str(seed)] = \
                workloads.reference_of(it["outputs"])
            print(f"{workload} seed {seed}: {references[workload][str(seed)]}")
    with open(run.BENCH_DIR / "references.json", "w") as f:
        json.dump(references, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
