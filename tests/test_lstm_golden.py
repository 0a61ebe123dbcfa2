"""Bit-identity gate on the LSTM kernels.

``data/lstm_golden.json`` holds sha256 digests of what ``forward`` and
``backward`` produce for seeded networks and windows: infer and train
predictions, the train cache's activated gates, cells and hidden states, and
the gradients. Any reordering of the floating-point work moves a digest, so a
kernel change that claims to keep every bit must pass this file unchanged;
the 1e-12 comparisons against the per-gate reference in
``test_lstm_kernels.py`` cover changes that do not.

``PYTHONPATH=src python tests/test_lstm_golden.py`` records the cases the file
does not hold yet and leaves every recorded entry as it is. Add
``--rerecord`` to overwrite them all, only for a change that is meant to move
these bits, and say so where the change is described.
"""
import hashlib
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from evtdetect.losses import LossSpec, loss_grad_wrt_preds
from evtdetect.network import Workspace, backward, forward, init_network

GOLDEN_PATH = Path(__file__).parent / "data" / "lstm_golden.json"

LOOK_BACK = 20
DROPOUT = 0.1
# (hidden sizes, batch): batch 1 takes BLAS's vector path, (6, 4) stacks two
# layers, 64 is the training batch, 256 and 512 are inference chunks.
SHAPES = [((24,), 1), ((6, 4), 3), ((24,), 64), ((16,), 256), ((24,), 512)]
OUTPUT_SIZES = [1, 3]
# (hidden sizes, batch, output size, look back): the smallest batch on BLAS's
# matrix path, spike-benchmark's last training batch (1,580 windows in
# batches of 64), the widest single-layer preset, the nyc-taxi geometry, and
# one-step windows.
EXTRA_CASES = [((24,), 2, 1, LOOK_BACK), ((24,), 44, 1, LOOK_BACK), ((60,), 64, 1, LOOK_BACK),
               ((50, 20), 64, 24, 48), ((24,), 64, 1, 1)]
CASES = [(h, b, o, LOOK_BACK) for h, b in SHAPES for o in OUTPUT_SIZES] + EXTRA_CASES
# Digests a case leaves out: at batch 44 OpenBLAS splits the gradient
# products (inner dimension 880) across threads, and the sums round by thread
# count.
THREAD_SPLIT = {"h24_b44_o1": "grads"}
# One window of standard normal values through an undropped network at batch
# 1, where the vector path's rounding shows.
NORMAL_CASE = "h24_b1_o1_normal"


def case_id(hidden_sizes, batch, output_size, look_back=LOOK_BACK) -> str:
    suffix = "" if look_back == LOOK_BACK else f"_l{look_back}"
    return f"h{'x'.join(map(str, hidden_sizes))}_b{batch}_o{output_size}{suffix}"


def _digest(*arrays: np.ndarray) -> str:
    sha = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        sha.update(repr(arr.shape).encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()


def digests(hidden_sizes, batch, output_size, look_back=LOOK_BACK, work=None) -> dict[str, str]:
    """Digests of one seeded forward/backward round trip, those of
    ``THREAD_SPLIT`` included."""
    rng = np.random.default_rng(batch * 10 + output_size)
    network = init_network(hidden_sizes, output_size, dropout_rate=DROPOUT, seed=11)
    windows = rng.uniform(size=(batch, look_back))
    targets = rng.uniform(size=(batch, output_size))
    return round_trip(network, windows, targets, work)


def golden_digests(hidden_sizes, batch, output_size, look_back=LOOK_BACK) -> dict[str, str]:
    """The digests of a case that the golden file records."""
    result = digests(hidden_sizes, batch, output_size, look_back)
    result.pop(THREAD_SPLIT.get(case_id(hidden_sizes, batch, output_size, look_back)), None)
    return result


def normal_digests() -> dict[str, str]:
    rng = np.random.default_rng(0)
    network = init_network((24,), 1, seed=3)
    return round_trip(network, rng.normal(size=(1, LOOK_BACK)), rng.normal(size=(1, 1)))


def round_trip(network, windows, targets, work=None) -> dict[str, str]:
    infer, _ = forward(network, windows, train=False, work=work)
    train, cache = forward(network, windows, train=True, rng=np.random.default_rng(5), work=work)
    dpreds = loss_grad_wrt_preds(train, targets, LossSpec("mse"))
    grads = backward(network, cache, dpreds, weight_decay=1e-4, work=work)
    return {
        "infer": _digest(infer),
        "train": _digest(train),
        "gates": _digest(*cache.gates),
        "cells": _digest(*cache.cells),
        "hidden": _digest(*cache.hidden),
        "grads": _digest(*grads),
    }


@pytest.mark.parametrize("hidden_sizes,batch,output_size,look_back", CASES, ids=[case_id(*c) for c in CASES])
def test_bits_match_golden(hidden_sizes, batch, output_size, look_back):
    golden = json.loads(GOLDEN_PATH.read_text())[case_id(hidden_sizes, batch, output_size, look_back)]
    assert golden_digests(hidden_sizes, batch, output_size, look_back) == golden


def test_normal_window_at_batch_one_matches_golden():
    assert normal_digests() == json.loads(GOLDEN_PATH.read_text())[NORMAL_CASE]


def test_train_caches_of_separate_calls_are_independent():
    network = init_network((6, 4), 1, dropout_rate=DROPOUT, seed=11)
    rng = np.random.default_rng(2)
    first_windows, second_windows = rng.uniform(size=(2, 5, LOOK_BACK))
    _, first = forward(network, first_windows, train=True, rng=np.random.default_rng(5))
    kept = [a.copy() for a in first.gates + first.cells + first.hidden]
    _, second = forward(network, second_windows, train=True, rng=np.random.default_rng(5))

    assert all(np.array_equal(a, b) for a, b in zip(kept, first.gates + first.cells + first.hidden))
    for ours, theirs in zip(first.gates + first.cells + first.hidden, second.gates + second.cells + second.hidden):
        assert not np.shares_memory(ours, theirs)


@pytest.mark.parametrize("hidden_sizes,output_size,look_back", [((24,), 1, LOOK_BACK), ((50, 20), 24, 48)],
                         ids=["h24", "h50x20"])
def test_workspace_reused_across_batch_sizes_gives_fresh_digests(hidden_sizes, output_size, look_back):
    work = Workspace()
    for batch in (64, 44, 64):
        fresh = digests(hidden_sizes, batch, output_size, look_back)
        assert digests(hidden_sizes, batch, output_size, look_back, work) == fresh, batch


if __name__ == "__main__":
    rerecord = "--rerecord" in sys.argv[1:]
    golden = {} if rerecord or not GOLDEN_PATH.exists() else json.loads(GOLDEN_PATH.read_text())
    computes = {case_id(*c): partial(golden_digests, *c) for c in CASES} | {NORMAL_CASE: normal_digests}
    missing = {key: compute for key, compute in computes.items() if key not in golden}
    golden.update({key: compute() for key, compute in missing.items()})
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(missing)} cases to {GOLDEN_PATH}; {len(golden) - len(missing)} kept")
