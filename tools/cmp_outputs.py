"""Check that two checkouts write byte-identical outputs.

    python3 tools/cmp_outputs.py --checkout PARENT CHANGE

Runs a fixed set of `chanpred` commands in each checkout, each a fresh
process with PYTHONPATH set to the checkout's `src` and 1 BLAS thread:

- `sweep --preset desk --seed 1 --snr-db 15` at 20 epochs;
- `run --preset paper --seed 1 --snr-db 15` for jldt, jl and sl_small at
  3 epochs, with `--save-models`;
- `run --preset paper --approach sl --seed 1 --snr-db 0` at 1 epoch.

Every command writes its NMSE report (`--out`) and loss history
(`--loss-out`). Each output file is hashed (SHA-256) as soon as its command
ends, in a temporary directory removed then, so the disk holds one
command's outputs at a time; paper sl_small's 50 checkpoints are about
0.6 GB. The tool then prints one `same` or `differs` line per output file
and exits 0 only if every command succeeded in both checkouts and every
file is identical in both. It reads nothing of the checkouts but what their
commands write.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
# name -> (chanpred arguments, epochs, whether checkpoints are saved)
COMMANDS = {
    "desk-sweep": (["sweep", "--preset", "desk", "--seed", "1", "--snr-db", "15"], 20, False),
    **{f"paper-{a}": (["run", "--preset", "paper", "--approach", a,
                       "--seed", "1", "--snr-db", "15"], 3, True)
       for a in ("jldt", "jl", "sl_small")},
    "paper-sl": (["run", "--preset", "paper", "--approach", "sl",
                  "--seed", "1", "--snr-db", "0"], 1, False),
}


def _sha256(path: Path) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _outputs(checkout: Path, name: str, scratch: Path) -> dict:
    """{output file: SHA-256} of one command run in `checkout`, its files written under `scratch`."""
    argv, epochs, save_models = COMMANDS[name]
    config, work = scratch / "config.json", scratch / "out"
    config.write_text(json.dumps({"epochs": epochs}))
    work.mkdir()
    argv = [sys.executable, "-m", "chanpred.cli", *argv, "--config", str(config),
            "--out", "nmse.csv", "--loss-out", "loss.csv"]
    if save_models:
        argv += ["--save-models", "models"]
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(checkout.resolve() / "src")}
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} failed in {checkout} (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    return {str(p.relative_to(work)): _sha256(p) for p in sorted(work.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", nargs=2, type=Path, required=True,
                        metavar=("PARENT", "CHANGE"))
    checkouts = parser.parse_args(argv).checkout
    identical = True
    for name in COMMANDS:
        hashes = []
        for checkout in checkouts:
            with tempfile.TemporaryDirectory() as scratch:
                try:
                    hashes.append(_outputs(checkout, name, Path(scratch)))
                except RuntimeError as exc:
                    print(f"failed  {exc}")
                    return 1
        for file in sorted(hashes[0].keys() | hashes[1].keys()):
            same = file in hashes[0] and hashes[0].get(file) == hashes[1].get(file)
            identical = identical and same
            print(f"{'same' if same else 'differs':7s} {name}/{file}", flush=True)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
