"""Per-gate reference LSTM: the loop-per-gate forward pass and BPTT that the
fused kernels in ``evtdetect.network`` replace.

Every gate has its own W, U and b slice and its own matmuls, the sigmoid uses
masked branches, and every gradient is accumulated step by step. The fused
kernels do the same arithmetic in another order, so the tests compare them
within tolerances rather than bit for bit.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

GATES = "ifog"


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def per_gate(layer) -> SimpleNamespace:
    """Views ``w_i`` ... ``b_g`` of a stacked layer's W, U and b."""
    h = layer.hidden_size
    views = {}
    for k, gate in enumerate(GATES):
        rows = slice(k * h, (k + 1) * h)
        views[f"w_{gate}"] = layer.W[rows]
        views[f"u_{gate}"] = layer.U[rows]
        views[f"b_{gate}"] = layer.b[rows]
    return SimpleNamespace(hidden_size=h, **views)


def forward(network, windows, train=False, rng=None):
    """Returns (preds, cache); the cache is None in infer mode."""
    x = np.asarray(windows, dtype=float)[:, :, None]  # (batch, look_back) windows
    steps, batch = x.shape[1], x.shape[0]

    use_dropout = train and network.dropout_rate > 0.0
    gen = np.random.default_rng(rng) if use_dropout else None
    keep = 1.0 - network.dropout_rate

    cache = {"inputs": [], "gates": [], "masks": []} if train else None
    seq = np.swapaxes(x, 0, 1)  # (T, B, D)
    for layer in map(per_gate, network.lstm_layers):
        hsize = layer.hidden_size
        i_s, f_s, o_s, g_s, c_s, h_s = (np.empty((steps, batch, hsize)) for _ in range(6))
        h = np.zeros((batch, hsize))
        c = np.zeros((batch, hsize))
        for t in range(steps):
            xt = seq[t]
            i = sigmoid(xt @ layer.w_i.T + h @ layer.u_i.T + layer.b_i)
            f = sigmoid(xt @ layer.w_f.T + h @ layer.u_f.T + layer.b_f)
            o = sigmoid(xt @ layer.w_o.T + h @ layer.u_o.T + layer.b_o)
            g = np.tanh(xt @ layer.w_g.T + h @ layer.u_g.T + layer.b_g)
            c = f * c + i * g
            h = o * np.tanh(c)
            i_s[t], f_s[t], o_s[t], g_s[t], c_s[t], h_s[t] = i, f, o, g, c, h

        out = h_s
        mask = None
        if use_dropout:
            mask = (gen.uniform(size=out.shape) < keep).astype(float)
            out = out * mask / keep
        if cache is not None:
            cache["inputs"].append(seq)
            cache["gates"].append({"i": i_s, "f": f_s, "o": o_s, "g": g_s, "c": c_s})
            cache["masks"].append(mask)
        seq = out

    top_last = seq[-1]
    preds = top_last @ network.dense.weights.T + network.dense.biases
    if cache is not None:
        cache["top_last"] = top_last
    return preds, cache


def backward(network, cache, dpreds):
    """Gradients without weight decay, stacked per layer into the order of
    ``Network.parameters()`` (W, U, b per layer, then the dense layer)."""
    keep = 1.0 - network.dropout_rate
    d_dense_w = dpreds.T @ cache["top_last"]
    d_dense_b = dpreds.sum(axis=0)

    steps, batch = cache["inputs"][0].shape[:2]
    dout = np.zeros((steps, batch, network.lstm_layers[-1].hidden_size))
    dout[-1] = dpreds @ network.dense.weights

    grads = [d_dense_w, d_dense_b]
    for idx in range(len(network.lstm_layers) - 1, -1, -1):
        layer = per_gate(network.lstm_layers[idx])
        gates = cache["gates"][idx]
        inputs = cache["inputs"][idx]
        mask = cache["masks"][idx]
        i_s, f_s, o_s, g_s, c_s = (gates[k] for k in ("i", "f", "o", "g", "c"))

        dw = {k: np.zeros_like(getattr(layer, f"w_{k}")) for k in GATES}
        du = {k: np.zeros_like(getattr(layer, f"u_{k}")) for k in GATES}
        db = {k: np.zeros_like(getattr(layer, f"b_{k}")) for k in GATES}
        dx_seq = np.zeros_like(inputs)
        dh_carry = np.zeros((batch, layer.hidden_size))
        dc_carry = np.zeros_like(dh_carry)

        for t in range(steps - 1, -1, -1):
            dup = dout[t] if mask is None else dout[t] * mask[t] / keep
            dh = dup + dh_carry
            i, f, o, g, c = i_s[t], f_s[t], o_s[t], g_s[t], c_s[t]
            tanh_c = np.tanh(c)
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c**2) + dc_carry
            c_prev = c_s[t - 1] if t > 0 else np.zeros_like(c)
            # The recurrent path sees the undropped hidden state.
            h_prev = o_s[t - 1] * np.tanh(c_prev) if t > 0 else None
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_carry = dc * f

            da = {
                "i": di * i * (1.0 - i),
                "f": df * f * (1.0 - f),
                "o": do * o * (1.0 - o),
                "g": dg * (1.0 - g**2),
            }
            xt = inputs[t]
            for k in GATES:
                dw[k] += da[k].T @ xt
                db[k] += da[k].sum(axis=0)
                if t > 0:
                    du[k] += da[k].T @ h_prev
            dx_seq[t] = sum(da[k] @ getattr(layer, f"w_{k}") for k in GATES)
            dh_carry = sum(da[k] @ getattr(layer, f"u_{k}") for k in GATES)

        stacked = [np.concatenate([d[k] for k in GATES]) for d in (dw, du, db)]
        grads = stacked + grads
        dout = dx_seq
    return grads
