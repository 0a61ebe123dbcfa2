import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from evtdetect import evaluation
from evtdetect.data import LabeledSeries, SplitSpec, prepare
from evtdetect.detectors import (
    DEFAULT_RISK_GRID,
    calibrate_gaussian_threshold,
    calibrate_risk,
    detect,
    fit_gaussian,
    gaussian_logpd,
    tukey_threshold,
)
from evtdetect.evaluation import (
    BenchmarkConfig,
    ConfusionCounts,
    LabelsRequired,
    benchmark,
    compute_metrics,
    confusion,
    format_report,
)
from evtdetect.synthetic import make_spike_series
from evtdetect.training import TrainConfig
from infer_counting import count_infer_windows


class TestConfusion:
    def test_identity(self):
        c = confusion([True, False, False], [True, False, False])
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 2, 0, 0)

    def test_all_false_alarms(self):
        c = confusion([True, True], [False, False])
        assert c.fp == 2 and c.tp == 0

    def test_mixed_enumeration(self):
        c = confusion([False, True, True, False], [True, True, False, False])
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([True], [True, False])

    def test_total_equals_scored_length(self):
        rng = np.random.default_rng(0)
        flags = rng.uniform(size=57) < 0.4
        labels = rng.uniform(size=57) < 0.2
        assert confusion(flags, labels).total == 57

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        flags = rng.uniform(size=30) < 0.5
        labels = rng.uniform(size=30) < 0.5
        base = confusion(flags, labels)
        perm = rng.permutation(30)
        assert confusion(flags[perm], labels[perm]) == base


class TestMetrics:
    def test_perfect(self):
        m = compute_metrics(ConfusionCounts(tp=5, fp=0, fn=0, tn=10))
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_hand_values(self):
        m = compute_metrics(ConfusionCounts(tp=1, fp=1, fn=0, tn=0))
        assert m.precision == 0.5
        assert m.recall == 1.0
        assert m.f1 == pytest.approx(2.0 / 3.0)

    def test_precision_undefined(self):
        m = compute_metrics(ConfusionCounts(tp=0, fp=0, fn=3, tn=5))
        assert m.precision == 0.0 and not m.precision_defined
        assert m.recall == 0.0 and m.recall_defined

    def test_recall_undefined(self):
        m = compute_metrics(ConfusionCounts(tp=0, fp=2, fn=0, tn=5))
        assert m.recall == 0.0 and not m.recall_defined

    def test_f1_undefined(self):
        m = compute_metrics(ConfusionCounts(tp=0, fp=1, fn=1, tn=5))
        assert m.f1 == 0.0 and not m.f1_defined

    def test_harmonic_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tp, fp, fn, tn = rng.integers(0, 20, size=4)
            m = compute_metrics(ConfusionCounts(int(tp), int(fp), int(fn), int(tn)))
            if m.precision + m.recall > 0:
                assert m.f1 == pytest.approx(
                    2 * m.precision * m.recall / (m.precision + m.recall), abs=1e-12
                )


def small_spike_series():
    return make_spike_series(length=1800, period=30.0, val_spikes=3, test_spikes=5,
                             margin=15, min_separation=8, seed=2)


@pytest.fixture(scope="module")
def tiny_benchmark():
    series = small_spike_series()
    config = BenchmarkConfig(
        split=SplitSpec(0.8, 0.1, 0.1),
        look_back=10,
        look_ahead=1,
        train=TrainConfig(hidden_sizes=(8,), epochs=14, threshold_update_period=7,
                          learning_rate=5e-3, dropout_rate=0.0, weight_decay=1e-4,
                          patience=14, seed=0),
    )
    return series, config, benchmark(series, config)


class TestCalibrate:
    @pytest.fixture(scope="class")
    def split_errors(self):
        """Train, validation and test errors, each with three labeled spikes."""
        rng = np.random.default_rng(3)
        errs, labels = [], []
        for n in (2000, 300, 300):
            e = rng.exponential(0.05, n)
            spikes = np.zeros(n, dtype=bool)
            spikes[rng.choice(n, 3, replace=False)] = True
            e[spikes] += 2.0
            errs.append(e)
            labels.append(spikes)
        return tuple(errs), tuple(labels)

    @pytest.mark.parametrize("rule", ["gaussian", "tukey", "evt"])
    def test_returns_the_fitted_rules_detections_on_the_test_errors(self, split_errors, rule):
        errs, labels = split_errors
        det, params = evaluation.calibrate(rule, errs, labels, DEFAULT_RISK_GRID, 0.98)
        if rule == "gaussian":
            gfit = fit_gaussian(errs[0])
            fitted = replace(gfit, logpd_threshold=calibrate_gaussian_threshold(
                gaussian_logpd(errs[1], gfit), labels[1]))
            expected = {"mu": fitted.mu, "sigma2": fitted.sigma2, "logpd_threshold": fitted.logpd_threshold}
        elif rule == "tukey":
            fitted = tukey_threshold(np.concatenate(errs))
            expected = {"q1": fitted.q1, "q3": fitted.q3, "fence": fitted.fence}
        else:
            fitted = calibrate_risk(np.concatenate(errs[:2]), np.concatenate(labels[:2]))
            expected = {"risk": fitted.risk, "threshold": fitted.threshold, "gamma": fitted.fit.gamma,
                        "sigma": fitted.fit.sigma, "initial_threshold": fitted.fit.threshold}
        reference = detect(errs[2], fitted)
        assert det.flags.any()
        for name in ("scores", "flags"):
            np.testing.assert_array_equal(getattr(det, name), getattr(reference, name))
        assert params == expected


class TestBenchmark:
    def test_four_rule_report(self, tiny_benchmark):
        _, _, report = tiny_benchmark
        assert set(report["rules"]) == {"gaussian", "tukey", "evt", "evt_lstm"}
        for row in report["rules"].values():
            assert ("metrics" in row) or ("error" in row)

    def test_deterministic(self, tiny_benchmark):
        series, config, report = tiny_benchmark
        again = benchmark(series, config)
        assert again == report

    def test_requires_labels(self, tiny_benchmark):
        series, config, _ = tiny_benchmark
        unlabeled = LabeledSeries(series.timestamps, series.values, None)
        with pytest.raises(LabelsRequired):
            benchmark(unlabeled, config)

    def test_format_report(self, tiny_benchmark):
        _, _, report = tiny_benchmark
        text = format_report(report)
        assert "gaussian" in text and "evt_lstm" in text

    def test_scored_points_match_counts(self, tiny_benchmark):
        _, config, report = tiny_benchmark
        for row in report["rules"].values():
            if "metrics" in row:
                m = row["metrics"]
                assert m["tp"] + m["fp"] + m["fn"] + m["tn"] == report["scored_points"]

    def test_untyped_calibration_error_propagates(self, tiny_benchmark, monkeypatch):
        # Only the rules' typed failures become error rows; a plain ValueError
        # from the evt calibration is a bug and must surface.
        series, config, _ = tiny_benchmark

        def broken(*args, **kwargs):
            raise ValueError("injected bug")

        monkeypatch.setattr(evaluation, "calibrate_risk", broken)
        short = TrainConfig(hidden_sizes=(4,), epochs=1, threshold_update_period=1, seed=0)
        with pytest.raises(ValueError, match="injected bug"):
            benchmark(series, BenchmarkConfig(split=config.split, look_back=10, train=short))

    @pytest.mark.parametrize("grid", [(), ("a",), (0,), (2,), (-1e-3,), 1e-3, (True,), (float("nan"),)],
                             ids=["empty", "string", "zero", "two", "negative", "scalar", "bool", "nan"])
    def test_risk_grid_must_hold_risks(self, tiny_benchmark, grid):
        series, config, _ = tiny_benchmark
        with pytest.raises(ValueError, match=r"^risk_grid must be a non-empty list of numbers in \(0, 1\)"):
            benchmark(series, replace(config, risk_grid=grid))


# sha256 of json.dumps(report, sort_keys=True) for the configuration below,
# recorded before the forecaster stopped predicting its training set each
# epoch (the same at 1 and 2 BLAS threads).
COUNTED_REPORT_SHA256 = "395bd47abc9a30511bc1a97bc40e1fee4be2533df7160246581e3aef7a583e69"


@pytest.fixture(scope="module")
def counted_benchmark():
    series = small_spike_series()
    config = BenchmarkConfig(
        split=SplitSpec(0.8, 0.1, 0.1), look_back=10, look_ahead=1,
        train=TrainConfig(hidden_sizes=(8,), epochs=4, threshold_update_period=2,
                          learning_rate=5e-3, dropout_rate=0.1, weight_decay=1e-4,
                          init_quantile=0.95, patience=4, convergence_tol=1e-12, seed=0),
    )
    with pytest.MonkeyPatch.context() as mp:
        counted = count_infer_windows(mp)
        report = benchmark(series, config)
    windows, _, _ = prepare(series, config.split, config.look_back, config.look_ahead)
    return report, counted, [len(w) for w in windows]


def test_benchmark_forecaster_predicts_only_its_validation_windows(counted_benchmark):
    # Patience and tolerance let every one of the 4 epochs run. Per epoch the
    # forecaster predicts its validation windows and the end-to-end model its
    # train and validation windows; then come the forecaster's errors on the
    # three splits and the end-to-end model's test decisions.
    report, counted, (n_train, n_val, n_test) = counted_benchmark
    assert "metrics" in report["rules"]["evt_lstm"]
    forecaster = 4 * n_val
    errors = n_train + n_val + n_test
    end_to_end = 4 * (n_train + n_val)
    assert sum(counted) == forecaster + errors + end_to_end + n_test


def test_benchmark_report_unchanged_without_the_training_set_pass(counted_benchmark):
    report, _, _ = counted_benchmark
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == COUNTED_REPORT_SHA256


def test_evt_lstm_without_a_threshold_estimate_is_an_error_row():
    # About 1,430 training windows leave under 30 excesses above the 0.98
    # quantile, so every re-estimate falls back and τ stays 0.0, which would
    # flag every test point.
    config = BenchmarkConfig(
        split=SplitSpec(0.8, 0.1, 0.1), look_back=10, look_ahead=1,
        train=TrainConfig(hidden_sizes=(8,), epochs=6, threshold_update_period=2,
                          learning_rate=5e-3, dropout_rate=0.0, weight_decay=1e-4,
                          patience=10, seed=0),
    )
    report = benchmark(small_spike_series(), config)
    row = report["rules"]["evt_lstm"]
    assert set(row) == {"error"}
    assert row["error"].startswith("none of 3 threshold re-estimates in 6 epochs succeeded")
    assert "evt_lstm   calibration failed: none of 3" in format_report(report)
