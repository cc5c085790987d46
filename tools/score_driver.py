"""Run one `chanpred` command in-process and record the bits of what it scores.

    python3 tools/score_driver.py DIGESTS CHANPRED_ARG ...

Calls `chanpred.cli.main` with the given arguments, with
`chanpred.pipelines.score` wrapped, and exits with its status. `evaluate_cell`
and `persistence_nmse` look `score` up when they call it, so the wrapper sees
every scored prediction. For each call it writes one line to DIGESTS:
`float.hex` of the NMSE and, when the prediction is a cell's job parts, a
SHA-256 over each part's domain, series, rows shape and rows bytes, in order.
The NMSE CSVs print 10 significant digits, and loss files and checkpoints are
written before any test row is read, so these lines are what shows a change
in the predicted bits. `tools/cmp_outputs.py` runs its commands through this.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from chanpred import cli, pipelines   # from the checkout on PYTHONPATH


def _rows_digest(parts) -> str:
    digest = hashlib.sha256()
    for domain, series, rows in parts:
        digest.update(repr((domain, series, rows.shape)).encode())
        digest.update(np.ascontiguousarray(rows))
    return digest.hexdigest()


def main(argv) -> int:
    digests_path, args = argv[0], argv[1:]
    score = pipelines.score
    with open(digests_path, "w") as digests:
        def recorded(pred, labels):
            value = score(pred, labels)
            rows = "" if isinstance(pred, pipelines.ChannelTensor) else _rows_digest(pred)
            print(float.hex(value), rows, file=digests, flush=True)
            return value

        pipelines.score = recorded
        try:
            return cli.main(args)
        finally:
            pipelines.score = score


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
