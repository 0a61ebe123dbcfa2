"""The fused-gate LSTM kernels against the per-gate reference, and model
files of the per-gate format v1."""
import json
from pathlib import Path

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

V1_MODEL = Path(__file__).parent / "data" / "model_v1.npz"

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


class TestFormatV1:
    """``model_v1.npz`` was written by the per-gate v1 ``save_network`` for
    ``init_network((3, 2), output_size=2, dropout_rate=0.25, seed=17)`` with
    every bias then replaced by seeded normal draws, and an evt loss spec."""

    def test_loads_stacked_per_gate_arrays(self):
        network, spec = load_network(V1_MODEL)
        assert spec == {"center": None, "kind": "evt", "threshold": 0.25, "weight_decay": 1e-4}
        assert network.dropout_rate == 0.25
        with np.load(V1_MODEL) as raw:
            for li, layer in enumerate(network.lstm_layers):
                for kind, stacked in zip("wub", layer.parameters()):
                    per_gate = [raw[f"layer{li}_{kind}_{gate}"] for gate in ref.GATES]
                    np.testing.assert_array_equal(stacked, np.concatenate(per_gate))
            np.testing.assert_array_equal(network.dense.weights, raw["dense_weights"])

    def test_seeded_init_draws_like_v1(self):
        loaded, _ = load_network(V1_MODEL)
        fresh = init_network((3, 2), output_size=2, dropout_rate=0.25, seed=17)
        for a, b in zip(fresh.weight_matrices(), loaded.weight_matrices()):
            np.testing.assert_array_equal(a, b)

    def test_predicts_like_reference(self):
        network, _ = load_network(V1_MODEL)
        windows = np.linspace(-1.0, 1.0, 10).reshape(2, 5)
        got, _ = forward(network, windows)
        want, _ = ref.forward(network, windows)
        np.testing.assert_allclose(got, want, rtol=0, atol=OUTPUT_ATOL)


def test_unknown_format_version_is_typed(tmp_path):
    path = tmp_path / "model.npz"
    meta = json.dumps({"format_version": 99}).encode()
    np.savez(path, meta=np.frombuffer(meta, dtype=np.uint8))
    with pytest.raises(UnsupportedModelFormat, match="99"):
        load_network(path)
    assert issubclass(UnsupportedModelFormat, ValueError)
