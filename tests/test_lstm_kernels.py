"""The fused-gate LSTM kernels against the per-gate reference, and model
files of a format version the reader does not know."""
import json

import numpy as np
import pytest

import lstm_reference as ref
from evtdetect.losses import LossSpec, loss_grad_wrt_preds
from evtdetect.network import (
    UnsupportedModelFormat,
    backward,
    forward,
    init_network,
    load_network,
)

# Set from float64 rounding before any comparison was run: the fused kernels
# only reorder sums (bias before recurrent term, one matmul over all
# timesteps instead of per-step accumulation) and evaluate the sigmoid as
# 0.5 * tanh(x / 2) + 0.5.
OUTPUT_ATOL = 1e-12
GRAD_RTOL = 1e-9  # per array, relative to its largest reference entry

CASES = [((24,), 1), ((24,), 64), ((24,), 512), ((6, 4), 3)]
LOOK_BACK = 20


def _instance(hidden_sizes, batch, dropout_rate=0.1):
    rng = np.random.default_rng(batch)
    network = init_network(hidden_sizes, output_size=2, dropout_rate=dropout_rate, seed=7)
    windows = rng.uniform(size=(batch, LOOK_BACK))
    targets = rng.uniform(size=(batch, 2))
    return network, windows, targets


def _assert_grads_close(fused, reference):
    assert len(fused) == len(reference)
    for got, want in zip(fused, reference):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=GRAD_RTOL * np.max(np.abs(want)))


@pytest.mark.parametrize("hidden_sizes,batch", CASES)
def test_infer_matches_reference(hidden_sizes, batch):
    network, windows, _ = _instance(hidden_sizes, batch)
    got, cache = forward(network, windows, train=False)
    want, _ = ref.forward(network, windows, train=False)
    assert cache is None
    np.testing.assert_allclose(got, want, rtol=0, atol=OUTPUT_ATOL)


@pytest.mark.parametrize("hidden_sizes,batch", CASES)
def test_train_step_matches_reference(hidden_sizes, batch):
    network, windows, targets = _instance(hidden_sizes, batch)
    got, cache = forward(network, windows, train=True, rng=np.random.default_rng(5))
    want, ref_cache = ref.forward(network, windows, train=True, rng=np.random.default_rng(5))
    np.testing.assert_allclose(got, want, rtol=0, atol=OUTPUT_ATOL)
    for mask, ref_mask in zip(cache.masks, ref_cache["masks"]):
        np.testing.assert_array_equal(mask, ref_mask)

    dpreds = loss_grad_wrt_preds(want, targets, LossSpec("mse"))
    _assert_grads_close(backward(network, cache, dpreds), ref.backward(network, ref_cache, dpreds))


def test_single_step_windows():
    network, windows, targets = _instance((5, 3), 4)
    windows = windows[:, :1]
    got, cache = forward(network, windows, train=True, rng=1)
    want, ref_cache = ref.forward(network, windows, train=True, rng=1)
    np.testing.assert_allclose(got, want, rtol=0, atol=OUTPUT_ATOL)
    dpreds = got - targets
    _assert_grads_close(backward(network, cache, dpreds), ref.backward(network, ref_cache, dpreds))


def test_unknown_format_version_is_typed(tmp_path):
    # Version 1 stored each gate's arrays apart, and version 2 the training
    # loss spec; no reader for either is kept.
    for version in (1, 2, 99):
        path = tmp_path / f"model{version}.npz"
        meta = json.dumps({"format_version": version}).encode()
        np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8))
        with pytest.raises(UnsupportedModelFormat, match=f"^unsupported model format version {version}$"):
            load_network(path)
    assert issubclass(UnsupportedModelFormat, ValueError)
