"""Bit-identity gate on the LSTM kernels.

``data/lstm_golden.json`` holds sha256 digests of what ``forward`` and
``backward`` produce for seeded networks and windows: infer and train
predictions, the train cache's activated gates, cells and hidden states, and
the gradients. Any reordering of the floating-point work moves a digest, so a
kernel change that claims to keep every bit must pass this file unchanged;
the 1e-12 comparisons against the per-gate reference in
``test_lstm_kernels.py`` cover changes that do not.

Rerecord with ``PYTHONPATH=src python tests/test_lstm_golden.py`` only for a
change that is meant to move these bits, and say so where the change is
described.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from evtdetect.losses import LossSpec, loss_grad_wrt_preds
from evtdetect.network import backward, forward, init_network

GOLDEN_PATH = Path(__file__).parent / "data" / "lstm_golden.json"

LOOK_BACK = 20
DROPOUT = 0.1
# (hidden sizes, batch): batch 1 takes BLAS's vector path, (6, 4) stacks two
# layers, 64 is the training batch, 256 and 512 are inference chunks.
SHAPES = [((24,), 1), ((6, 4), 3), ((24,), 64), ((16,), 256), ((24,), 512)]
OUTPUT_SIZES = [1, 3]
CASES = [(h, b, o) for h, b in SHAPES for o in OUTPUT_SIZES]


def case_id(hidden_sizes, batch, output_size) -> str:
    return f"h{'x'.join(map(str, hidden_sizes))}_b{batch}_o{output_size}"


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        sha.update(repr(arr.shape).encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


def digests(hidden_sizes, batch, output_size) -> dict[str, str]:
    """Digests of one seeded forward/backward round trip."""
    rng = np.random.default_rng(batch * 10 + output_size)
    network = init_network(hidden_sizes, output_size, dropout_rate=DROPOUT, seed=11)
    windows = rng.uniform(size=(batch, LOOK_BACK))
    targets = rng.uniform(size=(batch, output_size))

    infer, _ = forward(network, windows, train=False)
    train, cache = forward(network, windows, train=True, rng=np.random.default_rng(5))
    dpreds = loss_grad_wrt_preds(train, targets, LossSpec("mse"))
    grads = backward(network, cache, dpreds, weight_decay=1e-4)
    return {
        "infer": _digest(infer),
        "train": _digest(train),
        "gates": _digest(*cache.gates),
        "cells": _digest(*cache.cells),
        "hidden": _digest(*cache.hidden),
        "grads": _digest(*grads),
    }


@pytest.mark.parametrize(
    "hidden_sizes,batch,output_size", CASES, ids=[case_id(*c) for c in CASES]
)
def test_bits_match_golden(hidden_sizes, batch, output_size):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert digests(hidden_sizes, batch, output_size) == golden[case_id(hidden_sizes, batch, output_size)]


if __name__ == "__main__":
    record = {case_id(*c): digests(*c) for c in CASES}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record)} cases to {GOLDEN_PATH}")
