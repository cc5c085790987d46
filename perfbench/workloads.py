"""The benchmark's workloads: inputs from a seed, one iteration, and the gate.

Each workload runs through chanpred's CLI entry point (`chanpred.cli.main`)
in the calling process and returns its outputs; `check()` compares them with
the stored reference of a shipped seed, or with seed-independent invariants
for any other seed. An operation is one (approach, SNR, seed) cell or one
trace step; the gate reports the operations that failed.

* desk-separate: `sweep --preset desk` with sl and sl_small at one SNR and
  seed, epochs cut: 32 independent trainings, batch-128 GEMM-bound jobs (sl)
  next to 10-row ADAM-bound jobs (sl_small).
* paper-jldt: `run --approach jldt --preset paper` at one SNR and seed,
  epochs cut to 80: one pooled job at paper dims plus a paper-size link and
  antenna-domain windowing. Training is then a little over half of an
  iteration; dataset windowing, the link and persistence make up the rest. In a traced run, its untraced iterations also
  probe the step cost of every paper training shape for the paper-sweep
  projection.
* paper-link: no training: `generate`, `estimate`, `correlate` at paper
  dims and an `import --out` round trip.

chanpred is imported inside the functions that need it: run.py imports this
module without the program on its path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import time

SHIPPED_SEEDS = (1, 2)   # 1 is the default seed, 2 is held out for checking claims
WORKLOADS = ("desk-separate", "paper-jldt", "paper-link")
OPS = {
    "desk-separate": ("sl", "sl_small"),
    "paper-jldt": ("jldt",),
    "paper-link": ("generate", "estimate", "correlate", "import"),
}

# tiny paper-like geometry for the self-test; keeps n_tr = n_tr_prime * L
_TINY_PAPER = {"m_h": 2, "m_v": 2, "subcarriers": 4, "n_tr": 80, "n_tr_prime": 20,
               "n_gap": 100, "n_te": 20, "epochs": 2, "hidden": [16, 16]}
CONFIGS = {
    ("desk-separate", "full"): ("desk", {"approaches": ["sl", "sl_small"],
                                         "snr_db": [15.0], "epochs": 20}),
    ("desk-separate", "tiny"): ("desk", {"approaches": ["sl", "sl_small"],
                                         "snr_db": [15.0], "epochs": 2, "hidden": [16, 16]}),
    ("paper-jldt", "full"): ("paper", {"approaches": ["jldt"], "snr_db": [0.0], "epochs": 80}),
    ("paper-jldt", "tiny"): ("paper", {**_TINY_PAPER, "approaches": ["jldt"], "snr_db": [0.0]}),
    ("paper-link", "full"): ("paper", {"snr_db": [10.0]}),
    ("paper-link", "tiny"): ("paper", {**_TINY_PAPER, "snr_db": [10.0]}),
}
# paper-link sizes: (blocks generated, correlation n_avg, correlation max shift)
LINK_SIZES = {"full": (64, 2000, 16), "tiny": (8, 40, 4)}
# the sweep paper_sweep_projection_h projects
PROJECTED = {"full": ("paper", {}), "tiny": ("paper", {k: v for k, v in _TINY_PAPER.items()
                                                       if k != "epochs"})}
PROBE_MIN_STEPS = 40


def write_config(workload: str, scale: str, workdir: str) -> tuple:
    """Write the workload's config JSON; return (preset, path)."""
    preset, data = CONFIGS[(workload, scale)]
    path = os.path.join(workdir, "config.json")
    with open(path, "w") as f:
        json.dump(data, f)
    return preset, path


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _csv_rows(path: str) -> list:
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class _Cli:
    """Calls chanpred.cli.main in-process and times each call."""

    def __init__(self):
        self.wall_s = 0.0
        self.stdout = ""

    def __call__(self, argv) -> str | None:
        """Run one CLI call; return None on success, else the error."""
        from chanpred import cli
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            rc, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        finally:
            self.wall_s += time.perf_counter() - started
        self.stdout += out.getvalue()
        return None if rc == 0 else f"exit {rc}: {err.getvalue().strip()}"


def _persistence_db(stdout: str) -> float:
    match = re.search(r"^persistence snr=.*nmse=\s*(\S+) dB", stdout, re.MULTILINE)
    return float(match.group(1)) if match else float("nan")


def _training(workload, scale, seed, workdir, csv_name, argv_head):
    preset, cfg_path = write_config(workload, scale, workdir)
    out = os.path.join(workdir, csv_name)
    loss = os.path.join(workdir, "loss.csv")
    cli = _Cli()
    error = cli([*argv_head, "--preset", preset, "--config", cfg_path, f"--seed={seed}",
                 "--out", out, "--loss-out", loss])
    outputs = {"error": error}
    if error is None:
        outputs["nmse_db"] = {r["approach"]: float(r["nmse_db"]) for r in _csv_rows(out)}
        outputs["persistence_db"] = _persistence_db(cli.stdout)
        outputs["digests"] = {csv_name: _sha256(out), "loss.csv": _sha256(loss)}
    return cli.wall_s, outputs


def run_paper_link(scale, seed, workdir):
    preset, cfg_path = write_config("paper-link", scale, workdir)
    blocks, n_avg, max_shift = LINK_SIZES[scale]
    files = {name: os.path.join(workdir, name)
             for name in ("true.trace", "est.trace", "corr.csv", "copy.trace")}
    common = ["--preset", preset, "--config", cfg_path, f"--seed={seed}"]
    cli = _Cli()
    errors = {
        "generate": cli(["generate", *common, "--blocks", str(blocks),
                         "--out", files["true.trace"]]),
        "estimate": cli(["estimate", *common, "--trace", files["true.trace"],
                         "--out", files["est.trace"]]),
        "correlate": cli(["correlate", *common, "--n-avg", str(n_avg),
                          "--max-shift", str(max_shift), "--out", files["corr.csv"]]),
        "import": cli(["import", "--trace", files["est.trace"], "--out", files["copy.trace"]]),
    }
    from chanpred.cli import parse_config
    cfg = parse_config(cfg_path, preset=preset)
    outputs = {
        "errors": errors,
        "dims": [blocks, cfg.channel.n_subcarriers, cfg.channel.n_antennas],
        "digests": {k: _sha256(p) for k, p in files.items() if os.path.exists(p)},
        "headers": {},
    }
    for name in ("true.trace", "est.trace"):
        if os.path.exists(files[name]):
            with open(files[name]) as f:
                f.readline()
                outputs["headers"][name] = f.readline().strip()
    if errors["correlate"] is None:
        rows = _csv_rows(files["corr.csv"])
        outputs["correlation"] = {
            f"{r['domain']}_{col}": float(r[col])
            for r in rows for col in ("auto_mag", "cross_mag") if r["shift"] == "0"}
        outputs["correlation"]["cross_gap_min"] = min(
            float(s["cross_mag"]) - float(a["cross_mag"])
            for s in rows if s["domain"] == "subcarrier"
            for a in rows if a["domain"] == "antenna" and a["shift"] == s["shift"])
    return cli.wall_s, outputs


def run(workload: str, scale: str, seed: int, workdir: str):
    """One iteration: (wall seconds of the CLI calls, outputs for check())."""
    if workload == "desk-separate":
        return _training(workload, scale, seed, workdir, "nmse.csv", ["sweep"])
    if workload == "paper-jldt":
        return _training(workload, scale, seed, workdir, "run.csv",
                         ["run", "--approach", "jldt"])
    if workload == "paper-link":
        return run_paper_link(scale, seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def training_shapes(cfg) -> list:
    """(approach, layer dims, training rows, jobs) of each configured approach."""
    L, M = cfg.channel.n_subcarriers, cfg.channel.n_antennas
    sub_dims = (2 * cfg.n0 * M, *cfg.hidden, 2 * M)
    ant_dims = (2 * cfg.n0 * L, *cfg.hidden, 2 * L)
    shapes = {"sl": (sub_dims, cfg.n_tr, L), "sl_small": (sub_dims, cfg.n_tr_prime, L),
              "jl": (sub_dims, L * cfg.n_tr_prime, 1), "jldt": (ant_dims, M * cfg.n_tr_prime, 1)}
    return [(a, *shapes[a]) for a in cfg.approaches]


def adam_steps(cfg) -> dict:
    """ADAM steps per (SNR, seed) cell for each approach; exact from the config."""
    return {a: jobs * cfg.epochs * math.ceil(rows / cfg.batch_size)
            for a, _, rows, jobs in training_shapes(cfg)}


def config_work(workload: str, scale: str, workdir: str) -> tuple:
    """(ADAM steps, training jobs) of one iteration of a workload; (0, 0) without training."""
    if workload == "paper-link":
        return 0, 0
    from chanpred.cli import parse_config
    preset, path = write_config(workload, scale, workdir)
    cfg = parse_config(path, preset=preset)
    return sum(adam_steps(cfg).values()), sum(jobs for *_, jobs in training_shapes(cfg))


def _probe_step_s(dims, rows, cfg, seed) -> float:
    """Seconds per step of mlp.train on `rows` random rows at layer `dims`."""
    from chanpred import mlp
    from chanpred.rng import stream
    rng = stream(seed, "bench-probe")
    x = rng.standard_normal((rows, dims[0]))
    y = rng.standard_normal((rows, dims[-1]))
    per_epoch = math.ceil(rows / cfg.batch_size)
    epochs = math.ceil(PROBE_MIN_STEPS / per_epoch)
    model = mlp.init_mlp(dims, stream(seed, "bench-probe-init"))
    started = time.perf_counter()
    mlp.train(model, (x, y), mlp.TrainConfig(cfg.batch_size, epochs, cfg.learning_rate, seed))
    return (time.perf_counter() - started) / (epochs * per_epoch)


def paper_projection(scale: str, seed: int) -> dict:
    """Serial projection of the paper sweep from step costs measured here.

    hours = cells * (link + sum over approaches of steps * seconds per step),
    with cells = SNRs x seeds and each training shape probed once through
    mlp.train; prepare_link is timed once at paper size.
    """
    from chanpred import pipelines
    from chanpred.cli import parse_config
    preset, overrides = PROJECTED[scale]
    cfg = parse_config(None, overrides, preset=preset)
    step_s = {}
    for _, dims, rows, _ in training_shapes(cfg):
        if (dims, rows) not in step_s:
            step_s[(dims, rows)] = _probe_step_s(dims, rows, cfg, seed)
    started = time.perf_counter()
    pipelines.prepare_link(cfg, cfg.snr_db[0], seed)
    link_s = time.perf_counter() - started
    steps = adam_steps(cfg)
    cells = len(cfg.snr_db) * len(cfg.seeds)
    train_s = sum(steps[a] * step_s[(dims, rows)] for a, dims, rows, _ in training_shapes(cfg))
    return {
        "hours": cells * (link_s + train_s) / 3600.0,
        "cells": cells,
        "link_s": link_s,
        "steps_per_cell": steps,
        "s_per_step": {f"{'-'.join(map(str, d))}@{r}": s for (d, r), s in step_s.items()},
    }


def reference_of(outputs: dict) -> dict:
    """The part of an iteration's outputs that a shipped seed must reproduce."""
    return {k: outputs[k] for k in ("nmse_db", "digests") if k in outputs}


def check(workload: str, outputs: dict, ref: dict | None) -> tuple:
    """(failed operations {op: reason}, nmse drift in dB or None) of one iteration.

    With a reference every NMSE and digest must match exactly; without one
    the seed-independent invariants must hold.
    """
    if workload == "paper-link":
        return _check_link(outputs, ref), None
    ops = OPS[workload]
    if outputs.get("error"):
        return {op: outputs["error"] for op in ops}, None
    nmse_db = outputs["nmse_db"]
    failed = {op: "NMSE missing or not finite" for op in ops
              if not math.isfinite(nmse_db.get(op, float("nan")))}
    drift = None
    if ref is not None:
        drift = max((abs(nmse_db[op] - ref["nmse_db"][op]) for op in ops if op not in failed),
                    default=None)
        for op in ops:
            if op not in failed and nmse_db[op] != ref["nmse_db"][op]:
                failed[op] = f"NMSE {nmse_db[op]} dB != reference {ref['nmse_db'][op]} dB"
        for name, digest in ref["digests"].items():
            if outputs["digests"].get(name) != digest:
                for op in ops:
                    failed.setdefault(op, f"{name} differs from the reference")
    elif workload == "desk-separate" and not failed:
        if not nmse_db["sl"] < nmse_db["sl_small"]:
            failed["sl"] = f"sl {nmse_db['sl']} dB does not beat sl_small {nmse_db['sl_small']} dB"
    elif workload == "paper-jldt" and not failed:
        if not nmse_db["jldt"] < outputs["persistence_db"]:
            failed["jldt"] = (f"jldt {nmse_db['jldt']} dB does not beat persistence "
                              f"{outputs['persistence_db']} dB")
    return failed, drift


def _check_link(outputs: dict, ref: dict | None) -> dict:
    failed = {op: err for op, err in outputs["errors"].items() if err}
    digests = outputs["digests"]
    if ref is not None:
        expect = {"generate": ("true.trace", "true.trace"), "estimate": ("est.trace", "est.trace"),
                  "correlate": ("corr.csv", "corr.csv"), "import": ("copy.trace", "est.trace")}
        for op, (name, ref_name) in expect.items():
            if op not in failed and digests.get(name) != ref["digests"][ref_name]:
                failed[op] = f"{name} differs from the reference"
        return failed
    n, L, M = outputs["dims"]
    for op, name, provenance in (("generate", "true.trace", "true"),
                                 ("estimate", "est.trace", "estimated")):
        want = f"N={n} L={L} M={M} domain=subcarrier provenance={provenance}"
        if op not in failed and outputs["headers"].get(name) != want:
            failed[op] = f"{name} header {outputs['headers'].get(name)!r} != {want!r}"
    if "correlate" not in failed:
        corr = outputs["correlation"]
        autos_one = all(abs(corr[f"{d}_auto_mag"] - 1.0) < 1e-9 for d in ("subcarrier", "antenna"))
        if not autos_one or not corr["cross_gap_min"] > 0:
            failed["correlate"] = f"correlation regimes violated: {corr}"
    if "import" not in failed and digests.get("copy.trace") != digests.get("est.trace"):
        failed["import"] = "re-exported trace is not byte-identical to its source"
    return failed
