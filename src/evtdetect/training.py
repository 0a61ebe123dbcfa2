"""Training loops: plain forecaster, threshold-embedded model, and the
hypersphere reference objective.

The threshold-embedded model alternates between gradient updates of the
network under the threshold-distance objective and periodic re-estimation of
the detection threshold from the training errors: every ``k`` epochs the
initial threshold is set to a high quantile of the current absolute errors, a
GPD is fitted to the excesses, and the detection threshold is recomputed from
the fitted tail. The threshold starts at zero, so the first ``k`` epochs
reduce to plain error minimization.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import evt
from .checks import HALF_OPEN_UNIT, NON_NEGATIVE, OPEN_UNIT, POSITIVE, EvtdetectError, check, number, whole
from .data import WindowedDataset
from .detectors import DetectionResult, first_horizon_errors, prediction_errors, threshold_decisions
from .losses import LossSpec, batch_loss, loss_grad_wrt_preds
from .network import Network, backward, forward, init_network, predict
from .optim import adam_step, clip_global_norm, init_adam_state

MAX_GRAD_NORM = 5.0
# The largest hidden size a TrainConfig accepts: a layer's U (4H x H float64)
# then takes 32 MiB.
MAX_HIDDEN_SIZE = 1024


class NoThresholdEstimate(EvtdetectError):
    """No threshold re-estimate of an evt training run succeeded."""


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run. Defaults follow the shipped presets."""

    hidden_sizes: tuple[int, ...] = (20,)
    epochs: int = 100
    batch_size: int = 64
    threshold_update_period: int = 20
    learning_rate: float = 1e-3
    dropout_rate: float = 0.0
    weight_decay: float = 1e-4
    risk: float = 1e-4
    init_quantile: float = 0.98
    patience: int = 10
    convergence_tol: float = 1e-5
    convergence_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch_size", "threshold_update_period", "patience",
                     "convergence_patience", "seed"):
            within = NON_NEGATIVE if name == "seed" else POSITIVE
            object.__setattr__(self, name, whole(name, getattr(self, name), within))
        for name, within in (("learning_rate", POSITIVE), ("dropout_rate", HALF_OPEN_UNIT),
                             ("weight_decay", NON_NEGATIVE), ("risk", OPEN_UNIT),
                             ("init_quantile", OPEN_UNIT), ("convergence_tol", NON_NEGATIVE)):
            number(name, getattr(self, name), within)
        check(self.threshold_update_period <= self.epochs, "threshold_update_period",
              f"not exceed epochs ({self.epochs})", self.threshold_update_period)
        hidden_sizes = tuple(whole("hidden_sizes", h) for h in self.hidden_sizes)
        check(hidden_sizes and min(hidden_sizes) >= 1, "hidden_sizes",
              "be a non-empty list of sizes >= 1", list(hidden_sizes))
        check(max(hidden_sizes) <= MAX_HIDDEN_SIZE, "hidden_sizes",
              f"hold sizes <= {MAX_HIDDEN_SIZE}", list(hidden_sizes))
        object.__setattr__(self, "hidden_sizes", hidden_sizes)


@dataclass
class TrainedModel:
    """A trained network with the loss spec it ended with and its per-epoch
    history. ``spec.threshold`` is the final detection threshold (evt, and
    svdd's closing one).

    ``errors`` holds the first-horizon errors on the (train, validation)
    windows of the weights left in ``network``, or None when training did
    not predict with them: without the training-set pass, or when no epoch's
    weights were kept."""

    network: Network
    spec: LossSpec
    history: list[dict] = field(default_factory=list)
    initial_mean_abs_prediction: float | None = None
    errors: tuple[np.ndarray, np.ndarray] | None = None


def _sgd_epoch(
    network: Network,
    params: list[np.ndarray],
    state,
    data: WindowedDataset,
    spec: LossSpec,
    config: TrainConfig,
    rng: np.random.Generator,
) -> None:
    order = rng.permutation(len(data))
    for lo in range(0, len(order), config.batch_size):
        idx = order[lo : lo + config.batch_size]
        preds, cache = forward(network, data.inputs[idx], train=True, rng=rng)
        dpreds = loss_grad_wrt_preds(preds, data.targets[idx], spec)
        grads = backward(network, cache, dpreds, weight_decay=spec.weight_decay)
        # Free the activations before the next batch's forward: held through
        # it, they add about 3 MiB to spike-benchmark's peak RSS.
        del cache
        clip_global_norm(grads, MAX_GRAD_NORM)
        adam_step(params, grads, state, config.learning_rate)


def _start(
    config: TrainConfig, train: WindowedDataset, val: WindowedDataset, network: Network | None = None
) -> tuple[Network, np.random.Generator]:
    """The seeded generator, and ``network`` or a fresh network drawn from it."""
    if len(train) == 0 or len(val) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(config.seed)
    if network is None:
        network = init_network(
            config.hidden_sizes,
            output_size=train.look_ahead,
            dropout_rate=config.dropout_rate,
            seed=rng,
        )
    return network, rng


def _train_epochs(
    network: Network,
    spec: LossSpec,
    config: TrainConfig,
    train: WindowedDataset,
    val: WindowedDataset,
    rng: np.random.Generator,
    after_epoch=None,
    restore_best: bool = False,
    record_train_loss: bool = True,
) -> tuple[list[dict], LossSpec, tuple[np.ndarray, np.ndarray] | None]:
    """The epoch loop shared by every objective: one Adam pass over shuffled
    minibatches, the train and validation losses, one history record, and
    early stopping once validation loss goes stale for ``patience`` epochs.

    ``after_epoch(record, train_preds, spec)`` adds the objective's fields to
    the epoch's record and returns the spec for the next epoch and whether to
    stop now. With ``restore_best`` the weights of the best validation epoch
    are restored at the end. Without ``record_train_loss`` the training set
    is not predicted, the records hold only ``epoch`` and ``val_loss``, and
    ``after_epoch`` must be None. Returns the history, the final spec, and
    the first-horizon (train, validation) errors of the weights left in
    ``network``: the last epoch's, or the restored epoch's, and None without
    the training pass or when ``restore_best`` kept no epoch (every
    ``val_loss`` NaN).
    """
    params = network.parameters()
    state = init_adam_state(params)
    history: list[dict] = []
    best_val = np.inf
    best_params = [p.copy() for p in params] if restore_best else None
    kept = None
    stale = 0
    for epoch in range(1, config.epochs + 1):
        _sgd_epoch(network, params, state, train, spec, config, rng)
        weights = network.weight_matrices()
        record = {"epoch": epoch}
        preds = None
        if record_train_loss:
            preds = predict(network, train.inputs)
            record["train_loss"] = batch_loss(preds, train.targets, spec, weights)
        val_preds = predict(network, val.inputs)
        val_loss = batch_loss(val_preds, val.targets, spec, weights)
        record["val_loss"] = val_loss
        epoch_preds = None if preds is None else (preds, val_preds)
        if not restore_best:
            kept = epoch_preds
        stop = False
        if after_epoch is not None:
            spec, stop = after_epoch(record, preds, spec)
        history.append(record)
        if val_loss < best_val:
            best_val = val_loss
            stale = 0
            if restore_best:
                best_params = [p.copy() for p in params]
                kept = epoch_preds
        else:
            stale += 1
            stop = stop or stale >= config.patience
        if stop:
            break
    if restore_best:
        for p, b in zip(params, best_params):
            p[...] = b
    errors = None if kept is None else tuple(map(first_horizon_errors, kept, (train, val)))
    return history, spec, errors


def train_forecaster(
    config: TrainConfig,
    train: WindowedDataset,
    val: WindowedDataset,
    *,
    record_train_loss: bool = True,
) -> TrainedModel:
    """Minimize MSE with Adam; early-stop on validation MSE and keep the best
    weights seen. Deterministic for a fixed seed.

    Each epoch predicts the validation windows for early stopping. With
    ``record_train_loss`` (the default) it also predicts the training windows
    and records their loss as ``train_loss``; prediction draws no random
    numbers, so the weights are the same either way."""
    network, rng = _start(config, train, val)
    history, spec, errors = _train_epochs(network, LossSpec("mse"), config, train, val, rng,
                                          restore_best=True, record_train_loss=record_train_loss)
    return TrainedModel(network=network, spec=spec, history=history, errors=errors)


def _update_threshold(
    errors: np.ndarray, config: TrainConfig, previous: float | None
) -> tuple[float | None, dict]:
    """Re-estimate the detection threshold from the current training errors.

    Falls back to the previous threshold when there are too few excesses or
    the tail fit cannot accommodate the requested risk.
    """
    try:
        fit = evt.fit_tail(errors, config.init_quantile)
        threshold = evt.pot_threshold(fit, config.risk)
    except (evt.TooFewExcesses, evt.RiskTooHigh):
        initial = evt.initial_threshold(errors, config.init_quantile)
        return previous, {"initial_threshold": initial, "retained_previous": True}
    return threshold, {"initial_threshold": fit.threshold, "gamma": fit.gamma, "sigma": fit.sigma,
                       "peak_count": fit.peak_count}


def train_evt_lstm(
    config: TrainConfig,
    train: WindowedDataset,
    val: WindowedDataset,
    network: Network | None = None,
) -> TrainedModel:
    """Alternating minimization: gradient epochs under a frozen threshold,
    with the threshold re-estimated from training errors every
    ``threshold_update_period`` epochs (starting from zero).

    Training stops when the epoch objective's relative change stays below
    ``convergence_tol`` for ``convergence_patience`` consecutive epochs, when
    validation loss under the current threshold goes stale for ``patience``
    epochs, or at the epoch budget. When the last epoch was not a re-estimate
    epoch, the threshold is re-estimated once more from its training errors,
    and recorded on its history record, so that it fits the final weights.
    Pass ``network`` to warm-start from pretrained weights instead of a fresh
    initialization.
    """
    network, rng = _start(config, train, val, network)
    flat_epochs = 0
    prev_obj = None

    def update(record, errors, spec):
        new_threshold, info = _update_threshold(errors, config, spec.threshold)
        record["threshold_update"] = info
        record["threshold_after_update"] = new_threshold
        return replace(spec, threshold=new_threshold)

    def after_epoch(record, preds, spec):
        nonlocal flat_epochs, prev_obj
        record["threshold"] = spec.threshold
        if record["epoch"] % config.threshold_update_period == 0:
            spec = update(record, first_horizon_errors(preds, train), spec)
        train_loss = record["train_loss"]
        if prev_obj is not None:
            rel = abs(train_loss - prev_obj) / max(abs(prev_obj), 1e-12)
            flat_epochs = flat_epochs + 1 if rel < config.convergence_tol else 0
        prev_obj = train_loss
        return spec, flat_epochs >= config.convergence_patience

    spec = LossSpec("evt", weight_decay=config.weight_decay, threshold=0.0)
    history, spec, errors = _train_epochs(network, spec, config, train, val, rng, after_epoch)
    if history[-1]["epoch"] % config.threshold_update_period:  # stopped between re-estimates
        spec = update(history[-1], errors[0], spec)
    return TrainedModel(network=network, spec=spec, history=history, errors=errors)


def train_svdd(
    config: TrainConfig,
    train: WindowedDataset,
    val: WindowedDataset,
) -> TrainedModel:
    """Train under the hypersphere objective with the center fixed to the mean
    of an initial forward pass over the training data.

    A final detection threshold is still calibrated from the training errors
    by the same peaks-over-threshold procedure, so decision scores stay
    comparable across objectives."""
    network, rng = _start(config, train, val)
    initial_preds = predict(network, train.inputs)
    spec = LossSpec("svdd", weight_decay=config.weight_decay, center=initial_preds.mean(axis=0))

    def after_epoch(record, preds, spec):
        record["mean_abs_prediction"] = float(np.mean(np.abs(preds)))
        return spec, False

    history, spec, errors = _train_epochs(network, spec, config, train, val, rng, after_epoch)
    threshold, _ = _update_threshold(errors[0], config, previous=None)
    return TrainedModel(
        network=network,
        spec=replace(spec, threshold=threshold),
        history=history,
        initial_mean_abs_prediction=float(np.mean(np.abs(initial_preds))),
        errors=errors,
    )


def require_threshold_estimate(model: TrainedModel, config: TrainConfig, train_size: int) -> None:
    """Raise NoThresholdEstimate for an evt model none of whose threshold
    re-estimates succeeded: its threshold is still the starting 0.0, which
    flags every point. ``train_size`` is the number of training windows."""
    if model.spec.kind != "evt":
        return
    updates = [r["threshold_update"] for r in model.history if "threshold_update" in r]
    if all(u.get("retained_previous") for u in updates):
        raise NoThresholdEstimate(
            f"none of {len(updates)} threshold re-estimates in {len(model.history)} epochs "
            f"succeeded (too few excesses above the {config.init_quantile} quantile of "
            f"{train_size} training errors, or risk too high)"
        )


def decision_scores(model: TrainedModel, data: WindowedDataset) -> DetectionResult:
    """Score ``|prediction - target| - threshold``; non-negative scores are
    flagged anomalous."""
    if model.spec.threshold is None:
        raise ValueError("model has no detection threshold; train with the evt or svdd objective")
    return threshold_decisions(prediction_errors(model.network, data), model.spec.threshold)


def run_manifest(
    model: TrainedModel,
    config: TrainConfig,
    wall_clock_seconds: float | None = None,
) -> dict:
    """JSON-ready record of a training run.

    ``wall_clock_seconds`` is the only non-deterministic field; leave it None
    for byte-reproducible artifacts.
    """
    manifest = {
        "config": asdict(config),
        "loss_kind": model.spec.kind,
        "threshold": model.spec.threshold,
        "epochs_run": len(model.history),
        "history": model.history,
    }
    if model.initial_mean_abs_prediction is not None:
        manifest["initial_mean_abs_prediction"] = model.initial_mean_abs_prediction
    if wall_clock_seconds is not None:
        manifest["wall_clock_seconds"] = wall_clock_seconds
    return manifest
