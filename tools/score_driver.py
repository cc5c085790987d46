"""Run one `chanpred` command in-process and record the bits of what it scores.

    python3 tools/score_driver.py DIGESTS CHANPRED_ARG ...

Calls `chanpred.cli.main` with the given arguments, with
`chanpred.pipelines.score` wrapped, and exits with its status. `evaluate_cell`
and `persistence_nmse` look `score` up when they call it, so the wrapper sees
every scored prediction. For each call it writes one line to DIGESTS:
`float.hex` of the NMSE and a SHA-256 of the (n_te, L, M) complex prediction
that `score` compares with the labels. Job parts are put back into it by
the checkout's own `assemble_predictions`; a prediction tensor, which a
checkout whose `score` still takes one passes, is hashed as it is. Either
way every predicted bit is covered, persistence's included. The NMSE CSVs
print 10 significant digits, and loss files and checkpoints are written
before any test row is read, so these lines are what shows a change in the
predicted bits. `tools/cmp_outputs.py` runs its commands through this.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from chanpred import cli, pipelines   # from the checkout on PYTHONPATH
from chanpred.channel import ChannelTensor
from chanpred.datasets import assemble_predictions


def _prediction_digest(pred, labels) -> str:
    """SHA-256 of the (n_te, L, M) prediction that `score` compares with `labels`."""
    if not isinstance(pred, ChannelTensor):
        shape = (labels.n_blocks, labels.n_subcarriers, labels.n_antennas)
        pred = assemble_predictions(pred, shape, 0, shape[0])
    return hashlib.sha256(np.ascontiguousarray(pred.values)).hexdigest()


def main(argv) -> int:
    digests_path, args = argv[0], argv[1:]
    score = pipelines.score
    with open(digests_path, "w") as digests:
        def recorded(pred, labels):
            value = score(pred, labels)
            print(float.hex(value), _prediction_digest(pred, labels), file=digests, flush=True)
            return value

        pipelines.score = recorded
        try:
            return cli.main(args)
        finally:
            pipelines.score = score


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
