import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import evtdetect
from evtdetect.network import (
    _META_TYPES,
    DenseParams,
    ForwardCache,
    LstmLayerParams,
    Network,
    Workspace,
    backward,
    forward,
    init_network,
    load_network,
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


def cell_states(layer, windows):
    """Hidden and cell states (T, B, H) of a one-layer, dropout-free network
    over ``windows`` (B, T), from a train-mode forward pass."""
    net = Network([layer], DenseParams(np.zeros((1, layer.hidden_size)), np.zeros(1)))
    _, cache = forward(net, windows, train=True)
    return cache.hidden[0], cache.cells[0]


class TestCellStep:
    def test_zero_weights_zero_cell(self):
        h, c = cell_states(zero_layer(3, 1), np.ones((1, 2)))
        np.testing.assert_allclose(c, 0.0)
        np.testing.assert_allclose(h, 0.0)

    def test_zero_weights_unit_cell(self):
        # Gates sit at sigmoid(0) = 0.5; a g bias of 20 puts the candidate at
        # tanh(20) = 1 in float64, so the cell reads 0.5, then 0.5 * 0.5 + 0.5.
        layer = zero_layer(1, 1)
        layer.b[gate_rows(1, "g")] = 20.0
        h, c = cell_states(layer, np.ones((1, 2)))
        np.testing.assert_allclose(c[:, 0, 0], [0.5, 0.75])
        np.testing.assert_allclose(h[:, 0, 0], [0.5 * math.tanh(0.5), 0.5 * math.tanh(0.75)])

    def test_matches_scalar_oracle(self):
        # Independent step-by-step evaluation of the gate equations over a
        # two-step window; the second step reads a nonzero h and c.
        rng = np.random.default_rng(3)
        layer = LstmLayerParams(*(rng.normal(size=s) for s in [(8, 1), (8, 2), (8,)]))
        windows = rng.normal(size=(3, 2))

        def sig(a):
            return 1.0 / (1.0 + math.exp(-a))

        expect_h, expect_c = np.empty((2, 3, 2)), np.empty((2, 3, 2))
        for n, window in enumerate(windows):
            h_prev, c_prev = [0.0, 0.0], [0.0, 0.0]
            for t, x in enumerate(window):
                for r in range(2):
                    pre = {}
                    for name in "ifog":
                        rows = gate_rows(2, name)
                        w, u, b = layer.W[rows], layer.U[rows], layer.b[rows]
                        pre[name] = w[r][0] * x + sum(u[r][col] * h_prev[col] for col in range(2)) + b[r]
                    i, f, o, g = sig(pre["i"]), sig(pre["f"]), sig(pre["o"]), math.tanh(pre["g"])
                    expect_c[t, n, r] = f * c_prev[r] + i * g
                    expect_h[t, n, r] = o * math.tanh(expect_c[t, n, r])
                h_prev, c_prev = expect_h[t, n], expect_c[t, n]

        h, c = cell_states(layer, windows)
        np.testing.assert_allclose(h, expect_h, rtol=1e-12)
        np.testing.assert_allclose(c, expect_c, rtol=1e-12)


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
        preds, _ = forward(net, np.zeros((1, 5)))
        assert preds.shape == (1, 3)

    @pytest.mark.parametrize("shape", [(5,), (2, 5, 1)])
    def test_windows_must_be_two_dimensional(self, shape):
        net = init_network((4,), output_size=1, seed=0)
        with pytest.raises(ValueError, match=rf"\(batch, look_back\), got {re.escape(str(shape))}"):
            forward(net, np.zeros(shape))

    def test_layer_arrays_must_stack_four_gates(self):
        layer = zero_layer(4, 1)
        layer.b = np.zeros(4)
        with pytest.raises(ValueError, match="four gates"):
            Network([layer], DenseParams(np.zeros((1, 4)), np.zeros(1)))

    def test_feature_size_mismatch(self):
        with pytest.raises(ValueError, match="first LSTM layer must read one value"):
            Network([zero_layer(4, 2)], DenseParams(np.zeros((1, 4)), np.zeros(1)))

    def test_backward_needs_a_train_mode_cache(self):
        net = init_network((4,), output_size=1, seed=0)
        preds, infer_cache = forward(net, np.zeros((2, 5)), train=False)
        for cache in (infer_cache, ForwardCache()):
            with pytest.raises(ValueError, match=r"no train-mode cache; run forward\(train=True\) first"):
                backward(net, cache, np.ones_like(preds))


class TestBackwardWorkspace:
    @staticmethod
    def _round_trip(hidden_sizes, dropout_rate, look_back, output_size=1, batch=64):
        net = init_network(hidden_sizes, output_size, dropout_rate=dropout_rate, seed=0)
        windows = np.random.default_rng(1).uniform(size=(batch, look_back))
        work = Workspace()
        preds, cache = forward(net, windows, train=True, rng=2, work=work)
        backward(net, cache, np.ones_like(preds), work=work)
        return net, cache, work

    def test_a_spent_cache_raises(self):
        net, cache, _ = self._round_trip((4,), 0.1, 5, batch=2)
        with pytest.raises(ValueError, match=r"no train-mode cache; run forward\(train=True\) first"):
            backward(net, cache, np.ones((2, 1)))

    def test_deltas_replace_the_gates_instead_of_a_second_array(self):
        # spike-benchmark's geometry: one step's gates are read only at that
        # step, so its deltas take their place
        steps, batch, hsize = 20, 64, 24
        *_, work = self._round_trip((hsize,), 0.1, steps, batch=batch)
        sizes = {name: flat.size for name, flat in work._flat.items()}
        assert [name for name, size in sizes.items() if size == steps * batch * 4 * hsize] == ["gates0"]
        assert sum(sizes.values()) * 8 <= 2.1 * 2**20

    def test_dropout_scales_the_output_gradient_in_place(self):
        # the nyc-taxi preset's geometry: two dropped layers
        *_, work = self._round_trip((50, 20), 0.4, 48, output_size=24)
        assert not [name for name in work._flat if name.startswith("dh_out")]


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

    def test_threads_predicting_at_once_match_one_thread(self):
        # each call refills its own workspace, so concurrent callers share no arrays
        net = init_network((6, 5), output_size=2, seed=7)
        windows = [np.random.default_rng(seed).normal(size=(300, 8)) for seed in range(4)]
        alone = [predict(net, w) for w in windows]
        with ThreadPoolExecutor(max_workers=4) as pool:
            together = list(pool.map(lambda w: [predict(net, w) for _ in range(20)], windows, timeout=60))
        for want, got in zip(alone, together):
            assert all(np.array_equal(want, g) for g in got)


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
        errors = ("key", np.random.default_rng(0).exponential(size=9), np.linspace(0.0, 1.0, 4), np.ones(3))
        path = tmp_path / "model.npz"
        save_network(path, net, 0.321, look_back=6, errors=errors)
        loaded, threshold, look_back, loaded_errors = load_network(path)
        assert (threshold, look_back) == (0.321, 6)
        assert loaded.dropout_rate == net.dropout_rate
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert loaded_errors[0] == "key" and len(loaded_errors) == len(errors)
        for a, b in zip(errors[1:], loaded_errors[1:]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        out_a, _ = forward(net, np.linspace(0, 1, 6)[None])
        out_b, _ = forward(loaded, np.linspace(0, 1, 6)[None])
        np.testing.assert_array_equal(out_a, out_b)

    def test_round_trip_without_spec(self, tmp_path):
        net = init_network((4,), output_size=1, seed=2)
        path = tmp_path / "m.npz"
        save_network(path, net, None, 6)
        loaded, threshold, look_back, errors = load_network(path)
        assert threshold is None
        assert look_back == 6
        assert errors is None
        np.testing.assert_array_equal(loaded.dense.weights, net.dense.weights)

    def test_meta_holds_only_the_fields_load_network_checks(self, tmp_path):
        path = tmp_path / "m.npz"
        save_network(path, init_network((4,), output_size=1, seed=2), 0.5, 6,
                     ("key", np.ones(2), np.ones(2), np.ones(2)))
        with np.load(path) as saved:
            meta = json.loads(bytes(saved["meta"]).decode())
        assert sorted(meta) == sorted(["format_version", *(name for name, _, _ in _META_TYPES)])

    @pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE")
    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        # A file-size limit below the new model's size makes the write fail
        # part of the way through, as a full disk would.
        path = tmp_path / "model.npz"
        save_network(path, init_network((4,), output_size=1, seed=2), None, 6)
        before = path.read_bytes()
        limit = len(before) // 2
        script = (
            "import resource, signal, sys\n"
            "from evtdetect.network import init_network, save_network\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
            "save_network(sys.argv[1], init_network((32,), output_size=1, seed=3), None, 6)\n"
        )
        src = str(Path(evtdetect.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode != 0
        assert "File too large" in result.stderr
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
