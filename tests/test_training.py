import copy

import numpy as np
import pytest

from evtdetect import evt, network, training
from evtdetect.data import LabeledSeries, make_windows
from evtdetect.detectors import prediction_errors
from evtdetect.losses import LossSpec, batch_loss, loss_grad_wrt_preds
from evtdetect.network import forward
from evtdetect.optim import adam_step, clip_global_norm, init_adam_state
from evtdetect.training import (
    TrainConfig,
    TrainedModel,
    decision_scores,
    train_evt_lstm,
    train_forecaster,
    train_svdd,
)
from infer_counting import count_infer_windows


def windows_from(values, look_back=4, look_ahead=1):
    series = LabeledSeries(np.arange(len(values), dtype=float), np.asarray(values, float))
    return make_windows(series, look_back, look_ahead)


@pytest.fixture(scope="module")
def sine_windows():
    t = np.arange(400)
    values = 0.5 + 0.4 * np.sin(2 * np.pi * t / 25.0)
    train = windows_from(values[:300], look_back=20)
    val = windows_from(values[300:], look_back=20)
    return train, val


SMALL = dict(hidden_sizes=(10,), batch_size=32, learning_rate=5e-3,
             dropout_rate=0.0, weight_decay=0.0, patience=10, seed=3)


@pytest.mark.parametrize("name", ["epochs", "batch_size", "patience", "seed"])
def test_config_rejects_boolean_counts(name):
    with pytest.raises(ValueError, match=f"^{name} must be a whole number, got True$"):
        TrainConfig(**{"epochs": 1, "threshold_update_period": 1, name: True})


class TestForecaster:
    def test_constant_series_learned(self):
        train = windows_from(np.full(80, 0.7))
        val = windows_from(np.full(30, 0.7))
        model = train_forecaster(TrainConfig(epochs=100, threshold_update_period=20, **SMALL), train, val)
        preds, _ = forward(model.network, val.inputs, train=False)
        assert np.mean((preds - val.targets) ** 2) < 1e-4

    def test_sine_benchmark(self, sine_windows):
        train, val = sine_windows
        model = train_forecaster(TrainConfig(epochs=60, threshold_update_period=20, **SMALL), train, val)
        assert min(r["val_loss"] for r in model.history) < 1e-3

    def test_deterministic_history(self, sine_windows):
        train, val = sine_windows
        cfg = TrainConfig(epochs=8, threshold_update_period=4, **SMALL)
        a = train_forecaster(cfg, train, val)
        b = train_forecaster(cfg, train, val)
        assert a.history == b.history
        for pa, pb in zip(a.network.parameters(), b.network.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_history_records_train_loss_by_default(self, sine_windows):
        train, val = sine_windows
        model = train_forecaster(TrainConfig(epochs=4, threshold_update_period=2, **SMALL), train, val)
        assert [sorted(r) for r in model.history] == [["epoch", "train_loss", "val_loss"]] * 4

    def test_without_train_loss_skips_the_training_set_pass(self, monkeypatch, sine_windows):
        # prediction draws no random numbers: the weights and val losses match
        train, val = sine_windows
        cfg = TrainConfig(epochs=4, threshold_update_period=2, **SMALL)
        full = train_forecaster(cfg, train, val)
        counted = count_infer_windows(monkeypatch)
        lean = train_forecaster(cfg, train, val, record_train_loss=False)
        assert sum(counted) == 4 * len(val)
        assert lean.history == [{"epoch": r["epoch"], "val_loss": r["val_loss"]} for r in full.history]
        for pa, pb in zip(full.network.parameters(), lean.network.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_empty_dataset_rejected(self, sine_windows):
        train, _ = sine_windows
        empty = windows_from(np.arange(5.0))
        empty = type(empty)(empty.inputs[:0], empty.targets[:0], empty.target_indices[:0])
        with pytest.raises(ValueError):
            train_forecaster(TrainConfig(**SMALL), empty, train)


@pytest.fixture(scope="module")
def trained(sine_windows):
    # quantile 0.88 leaves the re-estimates on 280 windows enough excesses
    cfg = TrainConfig(epochs=10, threshold_update_period=2, risk=1e-3, init_quantile=0.88,
                      convergence_tol=1e-12, **SMALL)
    return cfg, train_evt_lstm(cfg, sine_windows[0], sine_windows[1])


class TestEvtLstm:

    def test_update_schedule(self, trained):
        cfg, model = trained
        update_epochs = [r["epoch"] for r in model.history if "threshold_update" in r]
        expected = [e for e in range(1, len(model.history) + 1) if e % cfg.threshold_update_period == 0]
        assert update_epochs == expected

    def test_first_phase_threshold_zero(self, trained):
        _, model = trained
        assert model.history[0]["threshold"] == 0.0

    def test_threshold_exceeds_initial_after_update(self, trained):
        _, model = trained
        checked = 0
        for record in model.history:
            info = record.get("threshold_update")
            if info and "retained_previous" not in info:
                assert record["threshold_after_update"] > info["initial_threshold"]
                assert np.isfinite(record["threshold_after_update"])
                checked += 1
        assert checked > 0

    def test_determinism(self, sine_windows):
        cfg = TrainConfig(epochs=6, threshold_update_period=3, risk=1e-3, **SMALL)
        a = train_evt_lstm(cfg, sine_windows[0], sine_windows[1])
        b = train_evt_lstm(cfg, sine_windows[0], sine_windows[1])
        assert a.history == b.history
        assert a.spec == b.spec
        for pa, pb in zip(a.network.parameters(), b.network.parameters()):
            np.testing.assert_array_equal(pa, pb)


def test_last_update_matches_final_network(trained, sine_windows):
    # the τ re-estimate of the last epoch reads the final network's training errors
    cfg, model = trained
    info = model.history[-1]["threshold_update"]
    errors = prediction_errors(model.network, sine_windows[0])
    assert info["initial_threshold"] == evt.initial_threshold(errors, cfg.init_quantile)


def test_threshold_update_reuses_epoch_predictions(monkeypatch, sine_windows):
    # each epoch predicts its train and validation windows once, and τ
    # re-estimates read the train predictions instead of predicting again
    train, val = sine_windows
    counted = count_infer_windows(monkeypatch)
    cfg = TrainConfig(epochs=4, threshold_update_period=2, risk=1e-3, **SMALL)
    model = train_evt_lstm(cfg, train, val)
    assert sum("threshold_update" in r for r in model.history) == 2
    assert sum(counted) == len(model.history) * (len(train) + len(val))


def test_off_cycle_stop_refits_threshold_to_final_weights(sine_windows):
    # 5 epochs with τ every 2: the last scheduled re-estimate reads epoch 4's
    # weights, so one more from epoch 5's training errors sets the saved τ.
    train, val = sine_windows
    cfg = TrainConfig(epochs=5, threshold_update_period=2, risk=1e-3, init_quantile=0.8, **SMALL)
    model = train_evt_lstm(cfg, train, val)
    assert [r["epoch"] for r in model.history if "threshold_update" in r] == [2, 4, 5]
    errors = prediction_errors(model.network, train)
    expected = evt.pot_threshold(evt.fit_tail(errors, cfg.init_quantile), cfg.risk)
    assert model.spec.threshold == expected
    assert model.history[-1]["threshold_after_update"] == expected
    assert model.history[-1]["threshold"] == model.history[-2]["threshold_after_update"] != expected


def _fit_gpd_raising(exc):
    def fit_gpd(*args, **kwargs):
        raise exc
    return fit_gpd


def test_typed_fit_failure_retains_threshold(monkeypatch, sine_windows):
    monkeypatch.setattr(evt, "fit_gpd", _fit_gpd_raising(evt.TooFewExcesses("injected")))
    cfg = TrainConfig(epochs=2, threshold_update_period=2, risk=1e-3, **SMALL)
    model = train_evt_lstm(cfg, *sine_windows)
    assert model.history[-1]["threshold_update"]["retained_previous"] is True
    assert model.spec.threshold == 0.0


def test_fallbacks_record_their_reasons(monkeypatch, sine_windows):
    # Risk 0.5 lies above the 0.2 share of excesses at quantile 0.8, so each
    # fit that succeeds cannot reach it; the first fit finds too few excesses.
    fit_tail, fits = evt.fit_tail, []

    def first_fit_too_few(errors, level):
        fits.append(level)
        if len(fits) == 1:
            raise evt.TooFewExcesses("injected")
        return fit_tail(errors, level)

    monkeypatch.setattr(evt, "fit_tail", first_fit_too_few)
    train, val = sine_windows
    cfg = TrainConfig(epochs=6, threshold_update_period=2, risk=0.5, init_quantile=0.8,
                      convergence_patience=6, **SMALL)
    model = train_evt_lstm(cfg, train, val)
    updates = [r["threshold_update"] for r in model.history if "threshold_update" in r]
    assert [u["reason"] for u in updates] == ["too_few_excesses", "risk_too_high", "risk_too_high"]
    assert all(u["retained_previous"] for u in updates)
    with pytest.raises(training.NoThresholdEstimate) as raised:
        training.require_threshold_estimate(model, cfg, len(train))
    assert str(raised.value) == (
        "none of 3 threshold re-estimates in 6 epochs succeeded (1 with too few excesses above the 0.8 "
        f"quantile of {len(train)} training errors, 2 with the risk too high for the fitted tail)")


def test_off_cycle_fallback_retains_threshold(monkeypatch, sine_windows):
    monkeypatch.setattr(evt, "fit_gpd", _fit_gpd_raising(evt.TooFewExcesses("injected")))
    cfg = TrainConfig(epochs=3, threshold_update_period=2, risk=1e-3, **SMALL)
    model = train_evt_lstm(cfg, *sine_windows)
    assert [r["epoch"] for r in model.history if "threshold_update" in r] == [2, 3]
    assert model.history[-1]["threshold_update"]["retained_previous"] is True
    assert model.spec.threshold == 0.0


def test_untyped_fit_error_propagates(monkeypatch, sine_windows):
    # A plain ValueError from the fit is a bug, not a degenerate tail.
    monkeypatch.setattr(evt, "fit_gpd", _fit_gpd_raising(ValueError("injected bug")))
    cfg = TrainConfig(epochs=2, threshold_update_period=2, risk=1e-3, **SMALL)
    with pytest.raises(ValueError, match="injected bug"):
        train_evt_lstm(cfg, *sine_windows)


def test_non_finite_errors_are_not_retained_as_too_few_excesses():
    # A diverged network's NaN errors must surface, not read as a thin tail.
    cfg = TrainConfig(risk=1e-3, init_quantile=0.85, **SMALL)
    errors = np.append(np.linspace(0.01, 1.0, 299), np.nan)
    with pytest.raises(ValueError, match="finite"):
        training._update_threshold(errors, cfg, previous=0.5)


def test_update_schedule_at_paper_defaults():
    # k=20 with a 100-epoch budget recomputes the threshold at 20, 40, ..., 100
    values = 0.5 + 0.3 * np.sin(np.arange(60) / 3.0)
    train = windows_from(values, look_back=4)
    val = windows_from(values[:20], look_back=4)
    cfg = TrainConfig(hidden_sizes=(4,), epochs=100, threshold_update_period=20,
                      batch_size=64, learning_rate=1e-3, dropout_rate=0.0,
                      weight_decay=0.0, risk=1e-3, patience=100,
                      convergence_tol=1e-15, seed=0)
    model = train_evt_lstm(cfg, train, val)
    update_epochs = [r["epoch"] for r in model.history if "threshold_update" in r]
    assert update_epochs == [20, 40, 60, 80, 100]


def test_recorded_loss_matches_recomputation(sine_windows):
    train, val = sine_windows
    cfg = TrainConfig(epochs=6, threshold_update_period=3, risk=1e-3,
                      convergence_tol=1e-12, **SMALL)
    model = train_evt_lstm(cfg, train, val)
    last = model.history[-1]
    spec = LossSpec("evt", weight_decay=cfg.weight_decay, threshold=last["threshold"])
    preds, _ = forward(model.network, train.inputs, train=False)
    recomputed = batch_loss(preds, train.targets, spec, model.network.weight_matrices())
    assert abs(recomputed - last["train_loss"]) < 1e-10


def test_warm_start_uses_given_network(sine_windows):
    train, val = sine_windows
    cfg = TrainConfig(epochs=4, threshold_update_period=2, risk=1e-3, **SMALL)
    base = train_forecaster(cfg, train, val)
    warm = train_evt_lstm(cfg, train, val, network=copy.deepcopy(base.network))
    scratch = train_evt_lstm(cfg, train, val)
    assert warm.history != scratch.history


def _per_array_weights(cfg, train, val):
    """The weights of train_evt_lstm's first ``cfg.epochs`` epochs, from a
    loop that updates each parameter array with its own adam_step."""
    net, rng = training._start(cfg, train, val)
    spec = LossSpec("evt", weight_decay=cfg.weight_decay, threshold=0.0)
    params = net.parameters()
    state = init_adam_state(params)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train))
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            preds, cache = forward(net, train.inputs[idx], train=True, rng=rng)
            dpreds = loss_grad_wrt_preds(preds, train.targets[idx], spec)
            grads = network.backward(net, cache, dpreds, weight_decay=spec.weight_decay)
            clip_global_norm(grads, training.MAX_GRAD_NORM)
            adam_step(params, grads, state, cfg.learning_rate)
    return params


@pytest.mark.parametrize("seed", [3, 11])
def test_flat_parameter_buffer_keeps_per_array_bits(sine_windows, seed):
    # One threshold re-estimate, after the last epoch: every epoch trains
    # under threshold 0.0, as the loop above does.
    cfg = TrainConfig(hidden_sizes=(6, 4), epochs=3, threshold_update_period=3, batch_size=32,
                      learning_rate=5e-3, dropout_rate=0.2, weight_decay=1e-3, seed=seed)
    model = train_evt_lstm(cfg, *sine_windows)
    assert len(model.history) == 3
    want = _per_array_weights(cfg, *sine_windows)
    for got, ref in zip(model.network.parameters(), want, strict=True):
        np.testing.assert_array_equal(got, ref)


class TestDecisionScores:
    @staticmethod
    def model_with_threshold(threshold):
        from evtdetect.network import DenseParams, Network
        from tests.test_network import zero_layer

        net = Network([zero_layer(2, 1)], DenseParams(np.zeros((1, 2)), np.zeros(1)))
        spec = LossSpec("mse") if threshold is None else LossSpec("evt", threshold=threshold)
        return TrainedModel(network=net, spec=spec)

    def test_boundary_inclusive(self):
        # a zero network predicts 0, so the error equals the target value
        model = self.model_with_threshold(0.5)
        data = windows_from([0.0, 0.0, 0.0, 0.0, 0.5], look_back=4)
        det = decision_scores(model, data)
        assert det.scores[0] == pytest.approx(0.0)
        assert det.flags[0]  # score exactly 0 is anomalous

    def test_perfect_predictions_zero_flags(self):
        model = self.model_with_threshold(0.25)
        data = windows_from([0.0] * 8, look_back=4)
        det = decision_scores(model, data)
        assert det.flags.sum() == 0
        np.testing.assert_allclose(det.scores, -0.25)

    def test_hand_values(self):
        model = self.model_with_threshold(0.5)
        data = windows_from([0.0, 0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 0.9][:5], look_back=4)
        det = decision_scores(model, data)
        np.testing.assert_allclose(det.scores, [-0.4])
        data2 = windows_from([0.0, 0.0, 0.0, 0.0, 0.9], look_back=4)
        det2 = decision_scores(model, data2)
        np.testing.assert_allclose(det2.scores, [0.4])
        assert det.flags.tolist() == [False] and det2.flags.tolist() == [True]

    def test_requires_threshold(self):
        model = self.model_with_threshold(None)
        with pytest.raises(ValueError):
            decision_scores(model, windows_from([0.0] * 8, look_back=4))


def test_svdd_records_prediction_magnitude(sine_windows):
    train, val = sine_windows
    cfg = TrainConfig(epochs=4, threshold_update_period=2, **SMALL)
    model = train_svdd(cfg, train, val)
    assert model.initial_mean_abs_prediction is not None
    assert all("mean_abs_prediction" in r for r in model.history)
    assert model.spec.kind == "svdd"


def test_svdd_threshold_from_last_epoch_predictions(monkeypatch, sine_windows):
    # one center pass, then train and validation once per epoch; the closing
    # threshold still equals one computed from the final network
    train, val = sine_windows
    counted = count_infer_windows(monkeypatch)
    # quantile 0.85 leaves the 30 excesses a tail fit needs among 280 windows
    cfg = TrainConfig(epochs=4, threshold_update_period=2, risk=1e-3, init_quantile=0.85, **SMALL)
    model = train_svdd(cfg, train, val)
    assert sum(counted) == len(train) + len(model.history) * (len(train) + len(val))
    errors = prediction_errors(model.network, train)
    expected, info = training._update_threshold(errors, cfg, previous=None)
    assert "retained_previous" not in info
    assert model.spec.threshold == expected
    fresh, _ = training._start(cfg, train, val, None)  # the center is the untrained mean
    np.testing.assert_array_equal(model.spec.center, network.predict(fresh, train.inputs).mean(axis=0))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=10, threshold_update_period=20)
    with pytest.raises(ValueError):
        TrainConfig(risk=0.0)
    with pytest.raises(ValueError):
        TrainConfig(init_quantile=1.0)


def test_no_predictions_kept_without_the_training_set_pass(sine_windows):
    train, val = sine_windows
    cfg = TrainConfig(epochs=2, threshold_update_period=2, **SMALL)
    assert train_forecaster(cfg, train, val, record_train_loss=False).errors is None


def test_no_predictions_kept_when_no_epoch_is_restored(sine_windows):
    # every val_loss is NaN, so restore_best puts back the initial weights,
    # which no epoch predicted with
    train, val = sine_windows
    nan_val = type(val)(val.inputs, np.full_like(val.targets, np.nan), val.target_indices)
    cfg = TrainConfig(epochs=2, threshold_update_period=2, **SMALL)
    model = train_forecaster(cfg, train, nan_val)
    fresh, _ = training._start(cfg, train, nan_val, None)
    for a, b in zip(model.network.parameters(), fresh.parameters()):
        np.testing.assert_array_equal(a, b)
    assert model.errors is None
