import math

import numpy as np
import pytest

from evtdetect.losses import LossSpec
from evtdetect.network import (
    DenseParams,
    LstmLayerParams,
    Network,
    forward,
    init_network,
    load_network,
    lstm_cell_step,
    predict,
    save_network,
)


def zero_layer(hidden, inputs):
    return LstmLayerParams(
        W=np.zeros((4 * hidden, inputs)), U=np.zeros((4 * hidden, hidden)), b=np.zeros(4 * hidden)
    )


def gate_rows(hidden, gate):
    """Rows of gate ``gate`` (one of i, f, o, g) in a stacked W, U or b."""
    k = "ifog".index(gate)
    return slice(k * hidden, (k + 1) * hidden)


class TestCellStep:
    def test_zero_weights_zero_cell(self):
        layer = zero_layer(3, 2)
        h, c = lstm_cell_step(np.ones(2), np.zeros(3), np.zeros(3), layer)
        np.testing.assert_allclose(c, 0.0)
        np.testing.assert_allclose(h, 0.0)

    def test_zero_weights_unit_cell(self):
        layer = zero_layer(1, 1)
        h, c = lstm_cell_step(np.ones(1), np.zeros(1), np.ones(1), layer)
        # Gates sit at sigmoid(0) = 0.5 and the candidate at tanh(0) = 0.
        np.testing.assert_allclose(c, [0.5])
        np.testing.assert_allclose(h, [0.5 * math.tanh(0.5)])

    def test_matches_scalar_oracle(self):
        # Independent step-by-step evaluation of the gate equations.
        rng = np.random.default_rng(3)
        layer = LstmLayerParams(*(rng.normal(size=s) for s in [(8, 2), (8, 2), (8,)]))
        x, h_prev, c_prev = rng.normal(size=2), rng.normal(size=2), rng.normal(size=2)

        def sig(a):
            return 1.0 / (1.0 + math.exp(-a))

        expect_h, expect_c = [], []
        for r in range(2):
            pre = {}
            for name in "ifog":
                rows = gate_rows(2, name)
                w, u, b = layer.W[rows], layer.U[rows], layer.b[rows]
                pre[name] = sum(w[r][col] * x[col] for col in range(2)) \
                    + sum(u[r][col] * h_prev[col] for col in range(2)) + b[r]
            i, f, o, g = sig(pre["i"]), sig(pre["f"]), sig(pre["o"]), math.tanh(pre["g"])
            c = f * c_prev[r] + i * g
            expect_c.append(c)
            expect_h.append(o * math.tanh(c))

        h, c = lstm_cell_step(x, h_prev, c_prev, layer)
        np.testing.assert_allclose(h, expect_h, rtol=1e-12)
        np.testing.assert_allclose(c, expect_c, rtol=1e-12)

    def test_shape_mismatch(self):
        layer = zero_layer(3, 2)
        with pytest.raises(ValueError):
            lstm_cell_step(np.ones(5), np.zeros(3), np.zeros(3), layer)


class TestForward:
    def test_zero_network_outputs_dense_bias(self):
        net = Network([zero_layer(4, 1)], DenseParams(np.zeros((2, 4)), np.array([0.7, -0.3])))
        preds, _ = forward(net, np.random.default_rng(0).normal(size=(5, 6)))
        np.testing.assert_allclose(preds, np.tile([0.7, -0.3], (5, 1)))

    def test_infer_deterministic(self):
        net = init_network((6, 5), output_size=2, dropout_rate=0.5, seed=7)
        window = np.random.default_rng(1).normal(size=(3, 8))
        a, _ = forward(net, window, train=False)
        b, _ = forward(net, window, train=False)
        np.testing.assert_array_equal(a, b)

    def test_zero_dropout_train_equals_infer(self):
        net = init_network((6,), output_size=1, dropout_rate=0.0, seed=7)
        window = np.random.default_rng(2).normal(size=(4, 5))
        train_out, cache = forward(net, window, train=True, rng=123)
        infer_out, _ = forward(net, window, train=False)
        np.testing.assert_array_equal(train_out, infer_out)
        assert cache is not None

    def test_dropout_seed_reproducible(self):
        net = init_network((6,), output_size=1, dropout_rate=0.4, seed=7)
        window = np.random.default_rng(2).normal(size=(4, 5))
        a, _ = forward(net, window, train=True, rng=11)
        b, _ = forward(net, window, train=True, rng=11)
        c, _ = forward(net, window, train=True, rng=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_single_window_shape(self):
        net = init_network((4,), output_size=3, seed=0)
        preds, _ = forward(net, np.zeros(5))
        assert preds.shape == (1, 3)

    def test_layer_arrays_must_stack_four_gates(self):
        layer = zero_layer(4, 1)
        layer.b = np.zeros(4)
        with pytest.raises(ValueError, match="four gates"):
            Network([layer], DenseParams(np.zeros((1, 4)), np.zeros(1)))

    def test_feature_size_mismatch(self):
        net = init_network((4,), output_size=1, input_size=2, seed=0)
        with pytest.raises(ValueError):
            forward(net, np.zeros((2, 5)))


class TestPredict:
    def test_chunks_match_one_forward_pass(self):
        # 600 windows span two full chunks and a partial third one
        net = init_network((6, 5), output_size=2, dropout_rate=0.5, seed=7)
        windows = np.random.default_rng(3).normal(size=(600, 8))
        whole, _ = forward(net, windows, train=False)
        np.testing.assert_allclose(predict(net, windows), whole, rtol=1e-12, atol=0.0)

    def test_no_windows(self):
        net = init_network((4,), output_size=3, seed=0)
        assert predict(net, np.zeros((0, 5))).shape == (0, 3)


class TestInit:
    def test_forget_bias_is_one(self):
        net = init_network((5, 4), output_size=2, seed=3)
        for layer in net.lstm_layers:
            h = layer.hidden_size
            np.testing.assert_array_equal(layer.b[gate_rows(h, "f")], 1.0)
            for gate in "iog":
                np.testing.assert_array_equal(layer.b[gate_rows(h, gate)], 0.0)

    def test_fan_in_bounds(self):
        net = init_network((8,), output_size=1, seed=5)
        layer = net.lstm_layers[0]
        assert layer.W.shape == (32, 1) and layer.U.shape == (32, 8)
        assert np.max(np.abs(layer.W)) <= 1.0
        assert np.max(np.abs(layer.U)) <= 1.0 / math.sqrt(8)

    def test_seeded_reproducible(self):
        a = init_network((5,), output_size=1, seed=9)
        b = init_network((5,), output_size=1, seed=9)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = init_network((7, 3), output_size=2, dropout_rate=0.25, seed=21)
        spec = LossSpec("evt", weight_decay=1e-4, threshold=0.321)
        path = tmp_path / "model.npz"
        save_network(path, net, spec)
        loaded, spec_dict = load_network(path)
        assert loaded.dropout_rate == net.dropout_rate
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert spec_dict == spec.to_dict()
        out_a, _ = forward(net, np.linspace(0, 1, 6))
        out_b, _ = forward(loaded, np.linspace(0, 1, 6))
        np.testing.assert_array_equal(out_a, out_b)

    def test_round_trip_without_spec(self, tmp_path):
        net = init_network((4,), output_size=1, seed=2)
        path = tmp_path / "m.npz"
        save_network(path, net)
        loaded, spec_dict = load_network(path)
        assert spec_dict is None
        np.testing.assert_array_equal(loaded.dense.weights, net.dense.weights)
