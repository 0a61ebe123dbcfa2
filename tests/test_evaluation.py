import numpy as np
import pytest

from evtdetect import evaluation
from evtdetect.data import LabeledSeries, SplitSpec
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


@pytest.fixture(scope="module")
def tiny_benchmark():
    series = make_spike_series(length=1800, period=30.0, val_spikes=3, test_spikes=5,
                               margin=15, min_separation=8, seed=2)
    config = BenchmarkConfig(
        split=SplitSpec(0.8, 0.1, 0.1),
        look_back=10,
        look_ahead=1,
        train=TrainConfig(hidden_sizes=(8,), epochs=14, threshold_update_period=7,
                          learning_rate=5e-3, dropout_rate=0.0, weight_decay=1e-4,
                          patience=14, seed=0),
    )
    return series, config, benchmark(series, config)


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
