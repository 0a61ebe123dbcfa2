"""Minimal recurrent forecaster: stacked LSTM layers and a linear dense head.

Everything is plain numpy. Each LSTM layer stacks its four gates row-wise in
the order i, f, o, g, so the input projection of a step, or of a whole
window before the time loop, is one matmul and each step adds one recurrent
matmul. The forward pass over a batch of windows caches the gate activations
needed for exact backpropagation through time; gradients are analytic, not
approximated. Dropout is the inverted variant, applied to each recurrent
layer's output stream in train mode only, so inference needs no rescaling.
A :class:`Workspace` lets repeated passes refill one set of arrays.
"""
from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .checks import EvtdetectError, finite_number
from .data import atomic_write_bytes

SERIAL_FORMAT_VERSION = 4
# A model file's stored errors: one array per split, in split order.
ERROR_ARRAYS = ("train_errors", "val_errors", "test_errors")


class UnsupportedModelFormat(EvtdetectError):
    """A model file this reader cannot read: not an .npz archive, of a format
    version it does not know, lacking its meta, a meta field or an array, or
    holding one of the wrong type or shape."""


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
        if self.lstm_layers[0].input_size != 1:
            raise ValueError("the first LSTM layer must read one value per step")
        size = 1
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

    def flatten(self) -> np.ndarray:
        """Copy the parameters, in ``parameters()`` order, into one flat
        array, rebind each to its view of that array, and return the array.
        The network's arrays are replaced, not written to."""
        params = self.parameters()
        flat = np.concatenate([p.ravel() for p in params])
        ends = np.cumsum([0] + [p.size for p in params])
        views = [flat[lo:hi].reshape(p.shape) for p, lo, hi in zip(params, ends, ends[1:])]
        for k, layer in enumerate(self.lstm_layers):
            layer.W, layer.U, layer.b = views[3 * k : 3 * k + 3]
        self.dense.weights, self.dense.biases = views[-2:]
        return flat

    def weight_matrices(self) -> list[np.ndarray]:
        mats: list[np.ndarray] = []
        for layer in self.lstm_layers:
            mats += layer.weight_matrices()
        return mats + [self.dense.weights]


def init_network(
    hidden_sizes: tuple[int, ...],
    output_size: int,
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
    d = 1
    for h in hidden_sizes:
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0
        layers.append(LstmLayerParams(W=uniform(4 * h, d), U=uniform(4 * h, h), b=b))
        d = h
    dense = DenseParams(weights=uniform(output_size, d), biases=np.zeros(output_size))
    return Network(layers, dense, dropout_rate)


def _step(
    a: np.ndarray,
    c_prev: np.ndarray,
    c: np.ndarray,
    tanh_c: np.ndarray,
    h: np.ndarray,
    ig: np.ndarray,
    scale: np.ndarray,
    shift: np.ndarray,
) -> None:
    """Activate pre-activations ``a`` (..., 4H) in place, their i, f, o
    columns already halved, and advance the cell into ``c``, ``tanh_c`` and
    ``h``: c = f * c_prev + i * g and h = o * tanh(c). ``tanh_c`` may be
    ``h`` itself when tanh(c) need not be kept. ``ig`` is scratch shaped
    like ``c``; ``scale`` and ``shift`` broadcast against ``a``.

    sigmoid(x) = 0.5 * tanh(x / 2) + 0.5, so one tanh covers all four gates,
    and one multiply and one add over all columns finish i, f and o.
    """
    np.tanh(a, out=a)
    a *= scale
    a += shift
    hsize = c.shape[-1]
    i, f, o, g = a[..., :hsize], a[..., hsize : 2 * hsize], a[..., 2 * hsize : 3 * hsize], a[..., 3 * hsize :]
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=ig)
    c += ig
    np.tanh(c, out=tanh_c)
    np.multiply(tanh_c, o, out=h)


class Workspace:
    """Arrays that :func:`forward` and :func:`backward` refill call after
    call instead of allocating anew.

    Each named array is a contiguous view of a flat buffer that grows to the
    largest size asked of it, so a short last batch reuses a full batch's
    buffers. A workspace serves one caller at a time: the arrays of a
    train-mode cache drawn from it hold until the next forward pass with it,
    its gates only until :func:`backward` writes the deltas over them.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def _prepared(layer: LstmLayerParams, scale: np.ndarray,
              work: Workspace) -> tuple[np.ndarray, np.ndarray]:
    """The right operands of a layer's input and recurrent products, written
    contiguously into ``work``: ``[W | b]`` and ``U`` transposed, their i, f,
    o columns halved by the column ``scale`` [0.5 (i, f, o) | 1 (g)].

    Halving is exact, so the pre-activations come out as exactly half of the
    unscaled ones, the argument sigmoid(x) = 0.5 * tanh(x / 2) + 0.5 needs.
    """
    rows, hsize = layer.input_size + 1, layer.hidden_size
    WbT = work.take("Wb", (rows, 4 * hsize))
    UT = work.take("U", (hsize, 4 * hsize))
    np.multiply(layer.W.T, scale, out=WbT[:-1])
    np.multiply(layer.b, scale, out=WbT[-1])
    np.multiply(layer.U.T, scale, out=UT)
    return WbT, UT


def _skip_uniforms(gen: np.random.Generator, count: int) -> None:
    """Move ``gen`` past the ``count`` doubles that ``random`` would draw.

    A PCG64 generator takes one 64-bit output per double and jumps ahead
    with ``advance``. That drops a pending 32-bit half, such as
    ``permutation`` leaves; a double never uses it, so it is put back. Any
    other bit generator draws the values and discards them.
    """
    if not count:
        return
    bits = gen.bit_generator
    if not isinstance(bits, np.random.PCG64):
        gen.random(count)
        return
    pending = bits.state
    bits.advance(count)
    if pending["has_uint32"]:
        state = bits.state
        state["has_uint32"], state["uinteger"] = pending["has_uint32"], pending["uinteger"]
        bits.state = state


@dataclass
class ForwardCache:
    """Activations recorded during a train-mode forward pass, for one
    :func:`backward`, which overwrites the gates with their deltas and marks
    the cache spent by clearing ``top_output_last``."""

    layer_inputs: list[np.ndarray] = field(default_factory=list)  # (T, B, D) each
    gates: list[np.ndarray] = field(default_factory=list)  # activated i|f|o|g (T, B, 4H)
    cells: list[np.ndarray] = field(default_factory=list)  # c (T, B, H)
    tanh_cells: list[np.ndarray] = field(default_factory=list)  # tanh(c) (T, B, H)
    hidden: list[np.ndarray] = field(default_factory=list)  # undropped h (T, B, H)
    # dropout masks over the steps the next layer reads: (T, B, H), the top's (1, B, H)
    masks: list[np.ndarray | None] = field(default_factory=list)
    top_output_last: np.ndarray | None = None  # (B, H) input seen by the dense layer


def forward(
    network: Network,
    windows: np.ndarray,
    train: bool = False,
    rng: int | np.random.Generator | None = None,
    *,
    work: Workspace | None = None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Run a batch of look-back windows of a univariate series, shaped
    (batch, look_back), through the network.

    Infer mode is a pure deterministic function and keeps only what the next
    layer reads; train mode applies inverted dropout (seeded through ``rng``)
    and returns the activation cache for :func:`backward`. The cache's arrays
    come from ``work``, to be refilled by its next pass, or without it from
    a workspace of this call alone. The predictions are always new.
    """
    x = np.asarray(windows, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"windows must have shape (batch, look_back), got {x.shape}")
    batch, steps = x.shape
    work = Workspace() if work is None else work

    use_dropout = train and network.dropout_rate > 0.0
    gen = np.random.default_rng(rng) if use_dropout else None
    keep = 1.0 - network.dropout_rate

    cache = ForwardCache() if train else None
    seq = np.swapaxes(x, 0, 1)[:, :, None]  # (T, B, 1)
    top = len(network.lstm_layers) - 1
    for li, layer in enumerate(network.lstm_layers):
        hsize = layer.hidden_size
        # Full (B, 4H) tiles of the column scale [0.5 (i, f, o) | 1 (g)] and
        # shift [0.5 | -0.0]: a same-shape multiply and add run about twice
        # as fast as broadcasting one row. Multiplying by 1 and adding -0.0
        # leave every g value, signed zeros included, as tanh gave it.
        rec, scale_tile, shift_tile = work.take("tiles", (3, batch, 4 * hsize))
        scale_tile[:, : 3 * hsize] = shift_tile[:, : 3 * hsize] = 0.5
        scale_tile[:, 3 * hsize :] = 1.0
        shift_tile[:, 3 * hsize :] = -0.0
        WbT, UT = _prepared(layer, scale_tile[0], work)
        # The bias rides on a constant-one input column; np.dot because
        # matmul takes a slow non-BLAS loop for one feature.
        xin = work.take(f"input{li}", (steps, batch, seq.shape[-1] + 1))
        xin[..., :-1] = seq
        xin[..., -1] = 1.0
        # Train mode keeps every step's gates for backward and projects all
        # steps in one product; inference projects each step into one
        # (B, 4H) slot, which stays in cache.
        if train:
            gates = work.take(f"gates{li}", (steps, batch, 4 * hsize))
            np.dot(xin.reshape(steps * batch, -1), WbT, out=gates.reshape(steps * batch, -1))
        else:
            gates = work.take("gates", (1, batch, 4 * hsize))
        # Infer mode keeps only the states the next layer reads; the rest
        # cycle through two slots.
        keep_h = train or li < top
        h_s = work.take(f"hidden{li}", (steps if keep_h else 2, batch, hsize))
        c_s = work.take(f"cells{li}", (steps if train else 2, batch, hsize))
        tanh_s = work.take(f"tanh_cells{li}", c_s.shape) if train else h_s
        c_prev, ig = work.take("cell_scratch", (2, batch, hsize))
        c_prev[:] = 0.0
        for t in range(steps):
            a = gates[t % len(gates)]
            if not train:
                np.dot(xin[t], WbT, out=a)
            if t:
                np.dot(h_s[(t - 1) % len(h_s)], UT, out=rec)
                a += rec
            c, h = c_s[t % len(c_s)], h_s[t % len(h_s)]
            _step(a, c_prev, c, tanh_s[t % len(tanh_s)], h, ig, scale_tile, shift_tile)
            c_prev = c

        if not keep_h:  # top layer in infer mode: the dense layer reads the last step only
            seq = h[None]
            break
        out = h_s if li < top else h_s[-1:]  # the dense layer reads the top's last step only
        mask = None
        if use_dropout:
            # Each mask holds what one (T, B, H) draw per layer would give its
            # steps; the top layer's covers the last step only, and the
            # generator skips the values of the others.
            # random(out=) draws what uniform(size=) draws from the same stream.
            _skip_uniforms(gen, (steps - len(out)) * batch * hsize)
            mask = work.take(f"mask{li}", out.shape)
            gen.random(out=mask)
            np.less(mask, keep, out=mask)
            dropped = work.take(f"dropped{li}", out.shape)
            np.multiply(out, mask, out=dropped)
            dropped /= keep
            out = dropped
        if cache is not None:
            cache.layer_inputs.append(seq)
            cache.gates.append(gates)
            cache.cells.append(c_s)
            cache.tanh_cells.append(tanh_s)
            cache.hidden.append(h_s)
            cache.masks.append(mask)
        seq = out

    top_last = seq[-1]  # (B, H)
    preds = top_last @ network.dense.weights.T + network.dense.biases
    if cache is not None:
        cache.top_output_last = top_last
    return preds, cache


# Windows per infer-mode forward pass in :func:`predict`; it bounds the
# workspace the passes share. With OpenBLAS, predictions of one or two outputs
# were bit-identical at 64, 256 and 512; with three or five, the dense head
# rounded some rows differently (relative difference 6e-12 at most).
PREDICT_CHUNK = 256


def predict(network: Network, windows: np.ndarray) -> np.ndarray:
    """Infer-mode predictions (n, output_size) for ``n`` look-back windows,
    ``PREDICT_CHUNK`` windows per :func:`forward` pass, all passes refilling
    one workspace."""
    preds = np.empty((len(windows), network.output_size))
    work = Workspace()
    for lo in range(0, len(windows), PREDICT_CHUNK):
        batch, _ = forward(network, windows[lo : lo + PREDICT_CHUNK], train=False, work=work)
        preds[lo : lo + len(batch)] = batch
    return preds


def _layer_backward(layer: LstmLayerParams, cache: ForwardCache, idx: int, dh_out: np.ndarray,
                    work: Workspace):
    """BPTT through layer ``idx`` given d(loss)/d(its undropped output stream)
    on its last ``len(dh_out)`` steps; the earlier steps' are zero.

    Returns (dW, dU, db, d inputs), d inputs None for the bottom layer, whose
    inputs are the windows. The time loop writes each step's stacked
    pre-activation deltas over that step's cached gates, which no later step
    reads; each gradient is then one matmul over all steps. The scratch
    arrays come from ``work``, shared by every layer; d inputs is the
    layer's own, read by the layer below.
    """
    inputs, gates = cache.layer_inputs[idx], cache.gates[idx]
    c_s, tanh_c, h_s = cache.cells[idx], cache.tanh_cells[idx], cache.hidden[idx]
    steps, batch, hsize = h_s.shape
    first_out = steps - len(dh_out)
    d, dact = work.take("step_delta", (2, batch, 4 * hsize))
    dact_g = dact[:, 3 * hsize :]
    deltas = work.take("step_deltas", (6, batch, hsize))
    deltas[:] = 0.0
    zero, dh_sum, dc, dc_carry, dh_carry, dtanh = deltas
    for t in range(steps - 1, -1, -1):
        a = gates[t]
        i, f, o, g = (a[:, k * hsize : (k + 1) * hsize] for k in range(4))
        dh = dh_carry
        if t >= first_out:
            dh = np.add(dh_out[t - first_out], dh_carry, out=dh_sum)
        np.square(tanh_c[t], out=dtanh)  # d tanh(c) / dc = 1 - tanh(c)^2
        np.subtract(1.0, dtanh, out=dtanh)
        np.multiply(dh, o, out=dc)
        dc *= dtanh
        dc += dc_carry
        np.multiply(dc, g, out=d[:, :hsize])
        np.multiply(dc, c_s[t - 1] if t else zero, out=d[:, hsize : 2 * hsize])
        np.multiply(dh, tanh_c[t], out=d[:, 2 * hsize : 3 * hsize])
        np.multiply(dc, i, out=d[:, 3 * hsize :])
        np.multiply(dc, f, out=dc_carry)
        # d(activation)/d(pre-activation), s(1 - s) for the sigmoid gates and
        # 1 - g^2 for g, times d: the step's deltas, written over its gates.
        np.subtract(1.0, a, out=dact)
        dact *= a
        np.square(g, out=dact_g)
        np.subtract(1.0, dact_g, out=dact_g)
        np.multiply(dact, d, out=a)
        if t:  # nothing reads the carry into the step before the first
            np.matmul(a, layer.U, out=dh_carry)

    flat = gates.reshape(-1, 4 * hsize)
    dW = flat.T @ inputs.reshape(steps * batch, -1)
    dU = gates[1:].reshape(-1, 4 * hsize).T @ h_s[:-1].reshape(-1, hsize)
    db = flat.sum(axis=0)
    dx = None
    if idx:
        dx = work.take(f"dinputs{idx}", inputs.shape)
        np.matmul(flat, layer.W, out=dx.reshape(steps * batch, -1))
    return dW, dU, db, dx


def backward(
    network: Network,
    cache: ForwardCache,
    dpreds: np.ndarray,
    weight_decay: float = 0.0,
    *,
    work: Workspace | None = None,
) -> list[np.ndarray]:
    """Exact BPTT gradients of a batch loss, given d(loss)/d(predictions).

    Returns gradients in the same order as ``Network.parameters()``, always
    new arrays; the scratch comes from ``work`` when given. The weight-decay
    term (lambda/2) * sum of squared Frobenius norms contributes lambda * W
    to every weight matrix, biases excluded. The cache is spent: its gates
    are overwritten with their deltas, and a second call on it raises.
    """
    if cache is None or cache.top_output_last is None:
        raise ValueError("no train-mode cache; run forward(train=True) first, once per backward")
    work = Workspace() if work is None else work
    keep = 1.0 - network.dropout_rate

    d_dense_w = dpreds.T @ cache.top_output_last
    d_dense_b = dpreds.sum(axis=0)
    cache.top_output_last = None

    # Gradient w.r.t. the (possibly dropped) output stream of the top layer,
    # of which the dense layer reads the last step only. Each layer's is an
    # array of this call's own, so dropout scales it in place.
    dout = (dpreds @ network.dense.weights)[None]

    grads = [d_dense_w, d_dense_b]
    for idx in range(len(network.lstm_layers) - 1, -1, -1):
        mask = cache.masks[idx]
        if mask is not None:
            dout *= mask
            dout /= keep
        dW, dU, db, dout = _layer_backward(network.lstm_layers[idx], cache, idx, dout, work)
        grads = [dW, dU, db] + grads

    if weight_decay > 0.0:
        decayed = {id(m) for m in network.weight_matrices()}
        for p, g in zip(network.parameters(), grads):
            if id(p) in decayed:
                g += weight_decay * p
    return grads


def save_network(path, network: Network, threshold: float | None, look_back: int,
                 errors: tuple[str, np.ndarray, np.ndarray, np.ndarray] | None = None) -> None:
    """Serialize a network, its detection threshold (None for a model that
    has none), the window length it was trained on, and optionally
    ``errors``: a key with the network's errors on the training, validation
    and test windows, to .npz, written atomically.

    The format is versioned and round-trips bit-exactly; all matrices are
    stored row-major.
    """
    meta = {
        "format_version": SERIAL_FORMAT_VERSION,
        "dropout_rate": network.dropout_rate,
        "hidden_sizes": [l.hidden_size for l in network.lstm_layers],
        "output_size": network.output_size,
        "threshold": threshold,
        "look_back": look_back,
        "errors_key": None if errors is None else errors[0],
    }
    arrays = {}
    for li, layer in enumerate(network.lstm_layers):
        for name, arr in zip("WUb", layer.parameters()):
            arrays[f"layer{li}_{name}"] = np.ascontiguousarray(arr)
    arrays["dense_weights"] = np.ascontiguousarray(network.dense.weights)
    arrays["dense_biases"] = np.ascontiguousarray(network.dense.biases)
    if errors is not None:
        arrays.update(zip(ERROR_ARRAYS, errors[1:]))
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    atomic_write_bytes(path, buf.getvalue())


# Each meta field that load_network reads: what it must be, and the test of
# it, on decoded JSON, where a whole number is an int, not a bool or 1.0. A
# missing field is reported where it is read.
_META_TYPES = (
    ("hidden_sizes", "a non-empty list of whole numbers >= 1",
     lambda v: isinstance(v, list) and v and all(type(h) is int and h >= 1 for h in v)),
    ("dropout_rate", "a number", lambda v: type(v) in (int, float)),
    ("output_size", "a whole number >= 1", lambda v: type(v) is int and v >= 1),
    ("look_back", "a whole number >= 1", lambda v: type(v) is int and v >= 1),
    ("threshold", "null or a finite number", lambda v: v is None or finite_number(v)),
    ("errors_key", "null or a string", lambda v: v is None or isinstance(v, str)),
)


def _weights(arrays: dict, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The model file's array ``name``, which must be float64 of ``shape``."""
    array = arrays[name]
    if array.dtype != np.float64 or array.shape != shape:
        raise UnsupportedModelFormat(
            f"model file's {name!r} is not a float64 array of shape {shape}: {array.dtype} {array.shape}")
    return array


def load_network(path):
    """Inverse of :func:`save_network`. Returns (network, threshold,
    look_back, errors); errors is None when the file holds none. Raises
    UnsupportedModelFormat naming what is wrong."""
    try:
        data = np.load(path)  # never with allow_pickle: unpickling a file can run its code
    except (ValueError, EOFError, zipfile.BadZipFile):
        data = None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise UnsupportedModelFormat(f"{path} is not an .npz archive of arrays")
    with data:
        arrays = {name: data[name] for name in data.files}
    try:
        raw = arrays["meta"]
        if raw.dtype != np.uint8 or raw.ndim != 1:
            raise UnsupportedModelFormat("model file's meta is not UTF-8 JSON bytes")
        try:
            meta = json.loads(bytes(raw).decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise UnsupportedModelFormat("model file's meta is not UTF-8 JSON bytes") from None
        if not isinstance(meta, dict):
            raise UnsupportedModelFormat("model file's meta is not a JSON object")
        version = meta["format_version"]
        if version != SERIAL_FORMAT_VERSION:
            raise UnsupportedModelFormat(f"unsupported model format version {version}")
        for name, wanted, ok in _META_TYPES:
            if name in meta and not ok(meta[name]):
                raise UnsupportedModelFormat(f"model file's {name!r} is not {wanted}: {meta[name]!r}")
        layers = []
        d = 1
        for li, h in enumerate(meta["hidden_sizes"]):
            shapes = ((4 * h, d), (4 * h, h), (4 * h,))
            layers.append(LstmLayerParams(*(_weights(arrays, f"layer{li}_{name}", shape)
                                            for name, shape in zip("WUb", shapes))))
            d = h
        out = meta["output_size"]
        dense = DenseParams(_weights(arrays, "dense_weights", (out, d)),
                            _weights(arrays, "dense_biases", (out,)))
        try:
            network = Network(layers, dense, meta["dropout_rate"])
        except ValueError as exc:  # the dropout rate's range; the arrays' shapes are checked above
            raise UnsupportedModelFormat(f"model file's network is not valid: {exc}") from None
        key = meta["errors_key"]
        errors = None if key is None else (key, *(arrays[name] for name in ERROR_ARRAYS))
        return network, meta["threshold"], meta["look_back"], errors
    except KeyError as exc:
        raise UnsupportedModelFormat(f"model file has no {exc.args[0]!r}") from None
