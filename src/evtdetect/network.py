"""Minimal recurrent forecaster: stacked LSTM layers and a linear dense head.

Everything is plain numpy. Each LSTM layer stacks its four gates row-wise in
the order i, f, o, g, so the input projection of a whole window is one matmul
done before the time loop and each step adds one recurrent matmul. The
forward pass over a batch of windows caches the gate activations needed for
exact backpropagation through time; gradients are analytic, not
approximated. Dropout is the inverted variant, applied to each recurrent
layer's output stream in train mode only, so inference needs no rescaling.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from .data import atomic_write_bytes

SERIAL_FORMAT_VERSION = 2


class UnsupportedModelFormat(ValueError):
    """A model file carries a format version this reader does not know."""


@dataclass
class LstmLayerParams:
    """Input weights W (4H x D), recurrent weights U (4H x H) and biases b
    (4H), each stacking the gates i, f, o, g in that order."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.U.shape[1]

    @property
    def input_size(self) -> int:
        return self.W.shape[1]

    def weight_matrices(self) -> list[np.ndarray]:
        return [self.W, self.U]

    def parameters(self) -> list[np.ndarray]:
        return [self.W, self.U, self.b]


@dataclass
class DenseParams:
    """Linear output layer: O x H weights and O biases."""

    weights: np.ndarray
    biases: np.ndarray

    def parameters(self) -> list[np.ndarray]:
        return [self.weights, self.biases]


@dataclass
class Network:
    """Stacked LSTM layers feeding one linear dense layer."""

    lstm_layers: list[LstmLayerParams]
    dense: DenseParams
    dropout_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        size = self.lstm_layers[0].input_size
        for layer in self.lstm_layers:
            hsize = layer.hidden_size
            if layer.input_size != size:
                raise ValueError("adjacent layer dimensions are incompatible")
            if not layer.W.shape[0] == layer.U.shape[0] == layer.b.shape[0] == 4 * hsize:
                raise ValueError("LSTM layer arrays must stack four gates")
            size = hsize
        if self.dense.weights.shape[1] != size:
            raise ValueError("dense layer does not match last hidden size")

    @property
    def output_size(self) -> int:
        return self.dense.weights.shape[0]

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for layer in self.lstm_layers:
            params += layer.parameters()
        return params + self.dense.parameters()

    def weight_matrices(self) -> list[np.ndarray]:
        mats: list[np.ndarray] = []
        for layer in self.lstm_layers:
            mats += layer.weight_matrices()
        return mats + [self.dense.weights]

    def copy(self) -> "Network":
        layers = [
            LstmLayerParams(*(a.copy() for a in layer.parameters()))
            for layer in self.lstm_layers
        ]
        dense = DenseParams(self.dense.weights.copy(), self.dense.biases.copy())
        return Network(layers, dense, self.dropout_rate)


def init_network(
    hidden_sizes: tuple[int, ...],
    output_size: int,
    input_size: int = 1,
    dropout_rate: float = 0.0,
    seed: int | np.random.Generator = 0,
) -> Network:
    """Seeded uniform init in +-1/sqrt(fan_in); forget-gate biases start at 1.

    W and U are each one draw over their four stacked gates, which takes the
    same values from the generator as four per-gate draws in gate order.
    """
    rng = np.random.default_rng(seed)

    def uniform(rows: int, cols: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(cols)
        return rng.uniform(-bound, bound, size=(rows, cols))

    layers = []
    d = input_size
    for h in hidden_sizes:
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0
        layers.append(LstmLayerParams(W=uniform(4 * h, d), U=uniform(4 * h, h), b=b))
        d = h
    dense = DenseParams(weights=uniform(output_size, d), biases=np.zeros(output_size))
    return Network(layers, dense, dropout_rate)


def _halved(layer: LstmLayerParams) -> tuple[np.ndarray, ...]:
    """Operands of :func:`_step` for one layer: ``[W | b]`` and the
    transposed view of ``U``, their i, f, o rows halved, and the column
    ``scale`` [0.5 (i, f, o) | 1 (g)] and ``shift`` [0.5 | -0.0].

    Halving is exact, so the pre-activations come out as exactly half of the
    unscaled ones, the argument sigmoid(x) = 0.5 * tanh(x / 2) + 0.5 needs.
    Multiplying by 1 and adding -0.0 leave every g value, signed zeros
    included, as tanh gave it. ``U`` stays a transposed view: with a
    contiguous copy numpy sends a batch of one to another BLAS kernel, which
    rounds differently.
    """
    hsize = layer.hidden_size
    scale = np.ones(4 * hsize)
    scale[: 3 * hsize] = 0.5
    shift = np.full(4 * hsize, -0.0)
    shift[: 3 * hsize] = 0.5
    Wb = np.column_stack([layer.W, layer.b]) * scale[:, None]
    return Wb, (layer.U * scale[:, None]).T, scale, shift


def _step(
    a: np.ndarray,
    c_prev: np.ndarray,
    c: np.ndarray,
    h: np.ndarray,
    ig: np.ndarray,
    scale: np.ndarray,
    shift: np.ndarray,
) -> None:
    """Activate pre-activations ``a`` (..., 4H) in place, their i, f, o
    columns already halved, and advance the cell into ``c`` and ``h``:
    c = f * c_prev + i * g and h = o * tanh(c). ``ig`` is scratch shaped
    like ``c``; ``scale`` and ``shift`` broadcast against ``a``.

    sigmoid(x) = 0.5 * tanh(x / 2) + 0.5, so one tanh covers all four gates,
    and one multiply and one add over all columns finish i, f and o.
    """
    np.tanh(a, out=a)
    a *= scale
    a += shift
    hsize = c.shape[-1]
    i, f, o, g = (a[..., k * hsize : (k + 1) * hsize] for k in range(4))
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=ig)
    c += ig
    np.tanh(c, out=h)
    h *= o


@dataclass
class ForwardCache:
    """Activations recorded during a train-mode forward pass."""

    layer_inputs: list[np.ndarray] = field(default_factory=list)  # (T, B, D) each
    gates: list[np.ndarray] = field(default_factory=list)  # activated i|f|o|g (T, B, 4H)
    cells: list[np.ndarray] = field(default_factory=list)  # c (T, B, H)
    hidden: list[np.ndarray] = field(default_factory=list)  # undropped h (T, B, H)
    masks: list[np.ndarray | None] = field(default_factory=list)
    top_output_last: np.ndarray | None = None  # (B, H) input seen by the dense layer


def forward(
    network: Network,
    windows: np.ndarray,
    train: bool = False,
    rng: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run a batch of look-back windows through the network.

    ``windows`` has shape (batch, look_back) for scalar inputs, or
    (batch, look_back, input_size). Infer mode is a pure deterministic
    function and keeps only what the next layer reads; train mode applies
    inverted dropout (seeded through ``rng``) and returns the activation
    cache for :func:`backward`.
    """
    x = np.asarray(windows, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim == 2:
        x = x[:, :, None]
    if x.shape[2] != network.lstm_layers[0].input_size:
        raise ValueError("window feature size does not match the first layer")
    batch, steps = x.shape[:2]

    use_dropout = train and network.dropout_rate > 0.0
    gen = np.random.default_rng(rng) if use_dropout else None
    keep = 1.0 - network.dropout_rate

    cache = ForwardCache() if train else None
    seq = np.swapaxes(x, 0, 1)  # (T, B, D)
    top = len(network.lstm_layers) - 1
    for li, layer in enumerate(network.lstm_layers):
        hsize = layer.hidden_size
        Wb, UT, scale, shift = _halved(layer)
        # One matmul for all steps, the bias riding on a constant-one input
        # column; np.dot because matmul takes a slow non-BLAS loop for one feature.
        flat = np.concatenate([seq.reshape(steps * batch, -1), np.ones((steps * batch, 1))], axis=1)
        gates = np.dot(flat, Wb.T).reshape(steps, batch, -1)
        # Infer mode keeps only the states the next layer reads; the rest
        # cycle through two slots.
        keep_h = train or li < top
        h_s = np.empty((steps if keep_h else 2, batch, hsize))
        c_s = np.empty((steps if train else 2, batch, hsize))
        # Full (B, 4H) tiles: a same-shape multiply and add run about twice
        # as fast as broadcasting one row.
        rec, scale_tile, shift_tile = np.empty((3, batch, 4 * hsize))
        scale_tile[:] = scale
        shift_tile[:] = shift
        c_prev = np.zeros((batch, hsize))
        ig = np.empty_like(c_prev)
        for t in range(steps):
            if t:
                np.dot(h_s[(t - 1) % len(h_s)], UT, out=rec)
                gates[t] += rec
            c, h = c_s[t % len(c_s)], h_s[t % len(h_s)]
            _step(gates[t], c_prev, c, h, ig, scale_tile, shift_tile)
            c_prev = c

        if not keep_h:  # top layer in infer mode: the dense layer reads the last step only
            seq = h[None]
            break
        out = h_s
        mask = None
        if use_dropout:
            mask = (gen.uniform(size=out.shape) < keep).astype(float)
            out = out * mask / keep
        if cache is not None:
            cache.layer_inputs.append(seq)
            cache.gates.append(gates)
            cache.cells.append(c_s)
            cache.hidden.append(h_s)
            cache.masks.append(mask)
        seq = out

    top_last = seq[-1]  # (B, H)
    preds = top_last @ network.dense.weights.T + network.dense.biases
    if cache is not None:
        cache.top_output_last = top_last
    return preds, cache


# Windows per infer-mode forward pass in :func:`predict`; it bounds memory.
# With OpenBLAS, predictions of one or two outputs were bit-identical at 64,
# 256 and 512; with three or five, the dense head rounded some rows
# differently (relative difference 6e-12 at most).
PREDICT_CHUNK = 256


def predict(network: Network, windows: np.ndarray) -> np.ndarray:
    """Infer-mode predictions (n, output_size) for ``n`` look-back windows,
    ``PREDICT_CHUNK`` windows per :func:`forward` pass."""
    preds = np.empty((len(windows), network.output_size))
    for lo in range(0, len(windows), PREDICT_CHUNK):
        batch, _ = forward(network, windows[lo : lo + PREDICT_CHUNK], train=False)
        preds[lo : lo + len(batch)] = batch
    return preds


def _layer_backward(layer: LstmLayerParams, cache: ForwardCache, idx: int, dh_out: np.ndarray):
    """BPTT through layer ``idx`` given d(loss)/d(its undropped output stream).

    Returns (dW, dU, db, d inputs). The time loop only fills the stacked
    pre-activation deltas; each gradient is then one matmul over all steps.
    """
    inputs, gates = cache.layer_inputs[idx], cache.gates[idx]
    c_s, h_s = cache.cells[idx], cache.hidden[idx]
    steps, batch, hsize = h_s.shape
    i_s, f_s, o_s, g_s = (gates[..., k * hsize : (k + 1) * hsize] for k in range(4))
    tanh_c = np.tanh(c_s)
    # d(activation)/d(pre-activation): s(1 - s) for the sigmoid gates, 1 - g^2 for g.
    dact = gates * (1.0 - gates)
    dact[..., 3 * hsize :] = 1.0 - g_s**2

    da = np.empty_like(gates)
    zero = np.zeros((batch, hsize))
    dh_carry = dc_carry = zero
    for t in range(steps - 1, -1, -1):
        dh = dh_out[t] + dh_carry
        dc = dh * o_s[t] * (1.0 - tanh_c[t] ** 2) + dc_carry
        d = da[t]
        np.multiply(dc, g_s[t], out=d[:, :hsize])
        np.multiply(dc, c_s[t - 1] if t else zero, out=d[:, hsize : 2 * hsize])
        np.multiply(dh, tanh_c[t], out=d[:, 2 * hsize : 3 * hsize])
        np.multiply(dc, i_s[t], out=d[:, 3 * hsize :])
        d *= dact[t]
        dc_carry = dc * f_s[t]
        dh_carry = d @ layer.U

    flat = da.reshape(-1, 4 * hsize)
    dW = flat.T @ inputs.reshape(steps * batch, -1)
    dU = da[1:].reshape(-1, 4 * hsize).T @ h_s[:-1].reshape(-1, hsize)
    db = flat.sum(axis=0)
    dx = (flat @ layer.W).reshape(inputs.shape)
    return dW, dU, db, dx


def backward(
    network: Network,
    cache: ForwardCache,
    dpreds: np.ndarray,
    weight_decay: float = 0.0,
) -> list[np.ndarray]:
    """Exact BPTT gradients of a batch loss, given d(loss)/d(predictions).

    Returns gradients in the same order as ``Network.parameters()``. The
    weight-decay term (lambda/2) * sum of squared Frobenius norms contributes
    lambda * W to every weight matrix, biases excluded.
    """
    if cache.top_output_last is None:
        raise ValueError("stale or infer-mode cache; run forward(train=True) first")
    keep = 1.0 - network.dropout_rate

    d_dense_w = dpreds.T @ cache.top_output_last
    d_dense_b = dpreds.sum(axis=0)

    steps, batch = cache.layer_inputs[0].shape[:2]
    # Gradient w.r.t. the (possibly dropped) output stream of the top layer.
    dout = np.zeros((steps, batch, network.lstm_layers[-1].hidden_size))
    dout[-1] = dpreds @ network.dense.weights

    grads = [d_dense_w, d_dense_b]
    for idx in range(len(network.lstm_layers) - 1, -1, -1):
        mask = cache.masks[idx]
        dh_out = dout if mask is None else dout * mask / keep
        dW, dU, db, dout = _layer_backward(network.lstm_layers[idx], cache, idx, dh_out)
        grads = [dW, dU, db] + grads

    if weight_decay > 0.0:
        decayed = {id(m) for m in network.weight_matrices()}
        for p, g in zip(network.parameters(), grads):
            if id(p) in decayed:
                g += weight_decay * p
    return grads


def save_network(path, network: Network, loss_spec=None, look_back: int | None = None) -> None:
    """Serialize a network (and optionally its training loss spec and the
    window length it was trained on) to .npz, written atomically.

    The format is versioned and round-trips bit-exactly; all matrices are
    stored row-major.
    """
    meta = {
        "format_version": SERIAL_FORMAT_VERSION,
        "dropout_rate": network.dropout_rate,
        "hidden_sizes": [l.hidden_size for l in network.lstm_layers],
        "input_size": network.lstm_layers[0].input_size,
        "output_size": network.output_size,
        "loss_spec": None if loss_spec is None else loss_spec.to_dict(),
        "look_back": look_back,
    }
    arrays = {}
    for li, layer in enumerate(network.lstm_layers):
        for name, arr in zip("WUb", layer.parameters()):
            arrays[f"layer{li}_{name}"] = np.ascontiguousarray(arr)
    arrays["dense_weights"] = np.ascontiguousarray(network.dense.weights)
    arrays["dense_biases"] = np.ascontiguousarray(network.dense.biases)
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    atomic_write_bytes(path, buf.getvalue())


def load_network(path):
    """Inverse of :func:`save_network`. Returns (network, loss_spec_dict,
    look_back); look_back is None when the file does not record it, as in
    files written before it was recorded."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        version = meta["format_version"]
        if version != SERIAL_FORMAT_VERSION:
            raise UnsupportedModelFormat(f"unsupported model format version {version}")
        layers = []
        for li in range(len(meta["hidden_sizes"])):
            W, U, b = (data[f"layer{li}_{name}"] for name in "WUb")
            layers.append(LstmLayerParams(W, U, b))
        dense = DenseParams(data["dense_weights"], data["dense_biases"])
        network = Network(layers, dense, meta["dropout_rate"])
    return network, meta["loss_spec"], meta.get("look_back")
