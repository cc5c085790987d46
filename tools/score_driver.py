"""Run one `chanpred` command in-process and record the bits of what it scores.

    python3 tools/score_driver.py DIGESTS CHANPRED_ARG ...

Calls `chanpred.cli.main` with the given arguments, with
`chanpred.pipelines.score` wrapped, and exits with its status. `evaluate_cell`
and `persistence_nmse` look `score` up when they call it, so the wrapper sees
every scored prediction. For each call it writes one line to DIGESTS:
`float.hex` of the NMSE and a SHA-256 of the (n_te, L, M) complex prediction
that `score` compares with the labels, its job parts put back by the
checkout's own `assemble_predictions`, so every predicted bit is covered,
persistence's included. The checkout's `score` must take job parts, as
every `score` does since persistence became one. The NMSE CSVs
print 10 significant digits, and loss files and checkpoints are written
before any test row is read, so these lines are what shows a change in the
predicted bits. `tools/cmp_outputs.py` runs its commands through this.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from chanpred import cli, pipelines   # from the checkout on PYTHONPATH
from chanpred.datasets import assemble_predictions


def _prediction_digest(parts, labels) -> str:
    """SHA-256 of the (n_te, L, M) prediction that `score` compares with `labels`."""
    shape = (labels.n_blocks, labels.n_subcarriers, labels.n_antennas)
    pred = assemble_predictions(parts, shape, 0, shape[0])
    return hashlib.sha256(np.ascontiguousarray(pred.values)).hexdigest()


def main(argv) -> int:
    digests_path, args = argv[0], argv[1:]
    score = pipelines.score
    with open(digests_path, "w") as digests:
        def recorded(parts, labels):
            value = score(parts, labels)
            print(float.hex(value), _prediction_digest(parts, labels), file=digests, flush=True)
            return value

        pipelines.score = recorded
        try:
            return cli.main(args)
        finally:
            pipelines.score = score


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
