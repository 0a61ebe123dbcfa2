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

from dataclasses import asdict, dataclass, field

import numpy as np

from . import evt
from .data import WindowedDataset
from .detectors import DetectionResult, first_horizon_errors, prediction_errors, threshold_decisions
from .losses import LossSpec, batch_loss, loss_grad_wrt_preds
from .network import Network, backward, forward, init_network, predict
from .optim import adam_step, clip_global_norm, init_adam_state

MAX_GRAD_NORM = 5.0


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
        if self.threshold_update_period > self.epochs:
            raise ValueError("threshold_update_period must not exceed epochs")
        for name in ("epochs", "batch_size", "threshold_update_period",
                     "learning_rate", "patience", "convergence_patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.risk < 1.0:
            raise ValueError("risk must lie in (0, 1)")
        if not 0.0 < self.init_quantile < 1.0:
            raise ValueError("init_quantile must lie in (0, 1)")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))


@dataclass
class TrainedModel:
    """A trained network with its loss kind, per-epoch history, the final
    detection threshold (evt, and svdd's closing one) and the svdd center."""

    network: Network
    loss_kind: str
    threshold: float | None = None
    history: list[dict] = field(default_factory=list)
    initial_mean_abs_prediction: float | None = None
    center: np.ndarray | None = None


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
        clip_global_norm(grads, MAX_GRAD_NORM)
        adam_step(params, grads, state, config.learning_rate)


def _start(
    config: TrainConfig, train: WindowedDataset, val: WindowedDataset, network: Network | None
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
) -> tuple[list[dict], LossSpec]:
    """The epoch loop shared by every objective: one Adam pass over shuffled
    minibatches, the train and validation losses, one history record, and
    early stopping once validation loss goes stale for ``patience`` epochs.

    ``after_epoch(record, train_preds, spec)`` adds the objective's fields to
    the epoch's record and returns the spec for the next epoch and whether to
    stop now. With ``restore_best`` the weights of the best validation epoch
    are restored at the end. Returns the history and the final spec.
    """
    params = network.parameters()
    state = init_adam_state(params)
    history: list[dict] = []
    best_val = np.inf
    best_params = [p.copy() for p in params] if restore_best else None
    stale = 0
    for epoch in range(1, config.epochs + 1):
        _sgd_epoch(network, params, state, train, spec, config, rng)
        preds = predict(network, train.inputs)
        weights = network.weight_matrices()
        train_loss = batch_loss(preds, train.targets, spec, weights)
        val_loss = batch_loss(predict(network, val.inputs), val.targets, spec, weights)
        record = {"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss}
        stop = False
        if after_epoch is not None:
            spec, stop = after_epoch(record, preds, spec)
        history.append(record)
        if val_loss < best_val:
            best_val = val_loss
            stale = 0
            if restore_best:
                best_params = [p.copy() for p in params]
        else:
            stale += 1
            stop = stop or stale >= config.patience
        if stop:
            break
    if restore_best:
        for p, b in zip(params, best_params):
            p[...] = b
    return history, spec


def train_forecaster(
    config: TrainConfig,
    train: WindowedDataset,
    val: WindowedDataset,
    network: Network | None = None,
) -> TrainedModel:
    """Minimize MSE with Adam; early-stop on validation MSE and keep the best
    weights seen. Deterministic for a fixed seed."""
    network, rng = _start(config, train, val, network)
    history, _ = _train_epochs(network, LossSpec("mse"), config, train, val, rng, restore_best=True)
    return TrainedModel(network=network, loss_kind="mse", history=history)


def _update_threshold(errors: np.ndarray, config: TrainConfig, previous: float) -> tuple[float, dict]:
    """Re-estimate the detection threshold from the current training errors.

    Falls back to the previous threshold when there are too few excesses or
    the tail fit cannot accommodate the requested risk.
    """
    initial = evt.initial_threshold(errors, config.init_quantile)
    info: dict = {"initial_threshold": initial}
    try:
        fit = evt.fit_gpd(
            evt.excesses_over(errors, initial),
            threshold=initial,
            total_count=errors.size,
        )
        threshold = evt.pot_threshold(fit, config.risk)
        info.update(gamma=fit.gamma, sigma=fit.sigma, peak_count=fit.peak_count)
    except (evt.TooFewExcesses, evt.RiskTooHigh):
        info["retained_previous"] = True
        return previous, info
    return threshold, info


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
    epochs, or at the epoch budget. Pass ``network`` to warm-start from
    pretrained weights instead of a fresh initialization.
    """
    network, rng = _start(config, train, val, network)
    flat_epochs = 0
    prev_obj = None

    def after_epoch(record, preds, spec):
        nonlocal flat_epochs, prev_obj
        record["threshold"] = spec.threshold
        if record["epoch"] % config.threshold_update_period == 0:
            errors = first_horizon_errors(preds, train).errors
            new_threshold, info = _update_threshold(errors, config, spec.threshold)
            spec = spec.with_threshold(new_threshold)
            record["threshold_update"] = info
            record["threshold_after_update"] = new_threshold
        train_loss = record["train_loss"]
        if prev_obj is not None:
            rel = abs(train_loss - prev_obj) / max(abs(prev_obj), 1e-12)
            flat_epochs = flat_epochs + 1 if rel < config.convergence_tol else 0
        prev_obj = train_loss
        return spec, flat_epochs >= config.convergence_patience

    spec = LossSpec("evt", weight_decay=config.weight_decay, threshold=0.0)
    history, spec = _train_epochs(network, spec, config, train, val, rng, after_epoch)
    return TrainedModel(
        network=network,
        loss_kind="evt",
        threshold=spec.threshold,
        history=history,
    )


def train_svdd(
    config: TrainConfig,
    train: WindowedDataset,
    val: WindowedDataset,
    network: Network | None = None,
) -> TrainedModel:
    """Train under the hypersphere objective with the center fixed to the mean
    of an initial forward pass over the training data.

    A final detection threshold is still calibrated from the training errors
    by the same peaks-over-threshold procedure, so decision scores stay
    comparable across objectives."""
    network, rng = _start(config, train, val, network)
    initial_preds = predict(network, train.inputs)
    spec = LossSpec("svdd", weight_decay=config.weight_decay, center=initial_preds.mean(axis=0))
    last_preds = None

    def after_epoch(record, preds, spec):
        nonlocal last_preds
        last_preds = preds
        record["mean_abs_prediction"] = float(np.mean(np.abs(preds)))
        return spec, False

    # No weights are restored, so the last epoch's predictions are the final network's.
    history, _ = _train_epochs(network, spec, config, train, val, rng, after_epoch)
    errors = first_horizon_errors(last_preds, train).errors
    threshold, _ = _update_threshold(errors, config, previous=np.nan)
    return TrainedModel(
        network=network,
        loss_kind="svdd",
        threshold=None if np.isnan(threshold) else threshold,
        history=history,
        initial_mean_abs_prediction=float(np.mean(np.abs(initial_preds))),
        center=spec.center,
    )


def decision_scores(model: TrainedModel, data: WindowedDataset) -> DetectionResult:
    """Score ``|prediction - target| - threshold``; non-negative scores are
    flagged anomalous."""
    if model.threshold is None:
        raise ValueError("model has no detection threshold; train with the evt or svdd objective")
    return threshold_decisions(prediction_errors(model.network, data), model.threshold)


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
        "loss_kind": model.loss_kind,
        "threshold": model.threshold,
        "epochs_run": len(model.history),
        "history": model.history,
    }
    if model.initial_mean_abs_prediction is not None:
        manifest["initial_mean_abs_prediction"] = model.initial_mean_abs_prediction
    if wall_clock_seconds is not None:
        manifest["wall_clock_seconds"] = wall_clock_seconds
    return manifest
