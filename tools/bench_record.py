"""Record checkouts' end-to-end benchmark metrics, one BENCH_<short-sha>.json each.

    python3 tools/bench_record.py [--checkout DIR [DIR ...]]

Runs each checkout's `perfbench/run.py --trace 0` three times at seed 1 for
each workload the first checkout's BENCHMARK.json declares, each run a
fresh process started in the checkout's root at the benchmark's own run
length, taking the workloads in turn so that a slow spell of the host
spreads over all of them. Each of those runs is made twice: once in this
process's environment, as the benchmark runs it, and once with
MALLOC_MMAP_THRESHOLD_=131072 added. Given several checkouts, such as a
parent and a change, the tool alternates them run by run: each run of one
is followed at once by the same run of the others, and the checkout that
goes first rotates from one repeat to the next, so drift of the host falls
on all of them alike. glibc's dynamic mmap threshold moves
`peak_rss_mb` by about 19 MB with the heap layout alone (the checkout path
is enough to shift it), and a pinned threshold takes that out.

Each checkout's record goes to BENCH_<short-sha>.json at the root of the
repository holding this tool (BENCH_<short-sha>-dirty.json if the checkout
has uncommitted changes). It holds, per workload and metric (wall_s, setup_s,
peak_rss_mb), the median and quartiles over the runs and each run's value,
and the operations failed and attempted over all runs: under `workloads`
for the runs in this process's environment (MALLOC_MMAP_THRESHOLD_, if
set there, is `malloc_mmap_threshold`), and under `pinned_mmap_threshold`
for the runs with the threshold added. It also holds where the runs
happened: host, nproc, numpy's BLAS name and version, the BLAS thread count
the benchmark pins, commit and checkout path, the checkout's
`src/chanpred/*.py` line total as `src_lines`, and the commits of the
checkouts its runs alternated with as `interleaved_with`.

perfbench is only started, never imported or changed. The default checkout
is the repository holding this tool; `--checkout` measures others, such as
clones of a parent commit and of a change, with the same recorder.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
RUNS = 3
SEED = 1
PINNED = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def _git(checkout: Path, *args) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _dirty(checkout: Path) -> bool:
    return _git(checkout, "status", "--porcelain", "--untracked-files=no") not in ("", None)


def _shown(path: Path) -> str:
    """`path` with the home directory written as ~."""
    home = Path.home()
    return "~/" + str(path.relative_to(home)) if path.is_relative_to(home) else str(path)


def _run(checkout: Path, workload: str, extra_env: dict) -> dict:
    """One `perfbench/run.py --trace 0` run: its final JSON line and its run record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(SEED), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env={**os.environ, **extra_env},
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    with open(checkout / ".bench_out" / f"run-{workload}-seed{SEED}-trace0.json") as f:
        record = json.load(f)
    env = next((it["env"] for it in record["iterations"] if "env" in it), {})
    return {"result": result, "host": record["host"], "env": env}


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _summarize(done: dict) -> dict:
    """Per workload: runs, failures and each metric's summary over the runs."""
    out = {}
    for w, outcomes in done.items():
        ok = [o for o in outcomes if "result" in o]
        entry = {
            "runs": len(outcomes),
            "failed_runs": [o["error"] for o in outcomes if "error" in o],
            "attempted": sum(o["result"]["attempted"] for o in ok),
            "failed": sum(o["result"]["failed"] for o in ok),
        }
        for name in METRICS:
            values = [o["result"]["metrics"][name]["value"] for o in ok]
            if len(values) >= 2:
                entry[name] = {**_summary(values), "unit": ok[0]["result"]["metrics"][name]["unit"]}
        out[w] = entry
    return out


def record(checkouts: list, workloads: list) -> list:
    """Run every workload RUNS times in each environment and checkout, the
    checkouts alternating run by run, and summarize each checkout's runs."""
    envs = {"plain": {}, "pinned": PINNED}
    done = {c: {mode: {w: [] for w in workloads} for mode in envs} for c in checkouts}
    for i in range(RUNS):
        first = i % len(checkouts)
        for w in workloads:
            for mode, extra_env in envs.items():
                for c in checkouts[first:] + checkouts[:first]:
                    print(f"run {i + 1}/{RUNS} {w} {mode} {_shown(c)}", file=sys.stderr, flush=True)
                    done[c][mode][w].append(_run(c, w, extra_env))
    commits = {c: _git(c, "rev-parse", "HEAD") for c in checkouts}
    return [_record(c, done[c], [commits[o] for o in checkouts if o != c]) for c in checkouts]


def _record(checkout: Path, done: dict, interleaved_with: list) -> dict:
    """One checkout's record from its runs in each environment."""
    ok = [o for runs in done["plain"].values() for o in runs if "result" in o]
    host, env = (ok[0]["host"], ok[0]["env"]) if ok else ({}, {})
    return {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": _dirty(checkout),
        "checkout": _shown(checkout),
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": env.get("numpy"),
        "blas": {k: (env.get("blas") or {}).get(k) for k in ("name", "version")},
        "blas_threads": host.get("blas_threads"),
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "seed": SEED,
        # the measured checkout's library size, as `wc -l src/chanpred/*.py` counts it
        "src_lines": sum(p.read_bytes().count(b"\n")
                         for p in (checkout / "src" / "chanpred").glob("*.py")),
        "workloads": _summarize(done["plain"]),
        "pinned_mmap_threshold": {**PINNED, "workloads": _summarize(done["pinned"])},
        "interleaved_with": interleaved_with,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, nargs="+", default=[REPO],
                        help="roots of the checkouts to measure, alternated run by run "
                             "(default: this repository)")
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkout]
    paths = [REPO / (f"BENCH_{_git(c, 'rev-parse', '--short', 'HEAD') or 'unknown'}"
                     f"{'-dirty' if _dirty(c) else ''}.json") for c in checkouts]
    if len(set(paths)) < len(paths):
        parser.error(f"two checkouts would write the same record: {[p.name for p in paths]}")
    with open(checkouts[0] / "BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    for path, rec in zip(paths, record(checkouts, workloads)):
        with open(path, "w") as f:
            json.dump(rec, f, indent=1)
            f.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
