import math

import numpy as np
import pytest

from evtdetect import evt
from evtdetect.data import LabeledSeries, make_windows
from evtdetect.detectors import (
    DegenerateErrors,
    EvtRule,
    GaussianFit,
    NoAnomaliesInValidation,
    PredictionErrors,
    RuleNotCalibrated,
    TukeyFit,
    calibrate_gaussian_threshold,
    calibrate_risk,
    detect,
    fit_gaussian,
    gaussian_logpd,
    prediction_errors,
    tukey_threshold,
    with_threshold,
)
from evtdetect.network import DenseParams, Network, init_network
from tests.test_network import zero_layer


def errs(values):
    values = np.asarray(values, dtype=float)
    return PredictionErrors(values, np.arange(len(values)))


class TestPredictionErrors:
    def test_constant_zero_predictor(self):
        # A zero network forecasts its dense bias (0 here), so errors are |y|.
        net = Network([zero_layer(3, 1)], DenseParams(np.zeros((1, 3)), np.zeros(1)))
        series = LabeledSeries(np.arange(5.0), np.array([0.5, 0.1, 0.2, 0.2, 0.8]))
        ds = make_windows(series, look_back=2, look_ahead=1)
        pe = prediction_errors(net, ds)
        np.testing.assert_allclose(pe.errors, [0.2, 0.2, 0.8])
        np.testing.assert_array_equal(pe.indices, [2, 3, 4])

    def test_deterministic(self):
        net = init_network((6,), output_size=1, dropout_rate=0.5, seed=4)
        series = LabeledSeries(np.arange(30.0), np.sin(np.arange(30.0)))
        ds = make_windows(series, 5, 1)
        a = prediction_errors(net, ds)
        b = prediction_errors(net, ds)
        np.testing.assert_array_equal(a.errors, b.errors)

    def test_perfect_predictor_zero_errors(self):
        # On a constant series, a zero network with the constant as its dense
        # bias is a perfect one-step predictor.
        net = Network([zero_layer(3, 1)], DenseParams(np.zeros((1, 3)), np.array([0.7])))
        series = LabeledSeries(np.arange(8.0), np.full(8, 0.7))
        pe = prediction_errors(net, make_windows(series, 3, 1))
        np.testing.assert_allclose(pe.errors, 0.0, atol=1e-15)

    def test_one_step_ahead_component_used(self):
        # With look_ahead 2 the first horizon component defines the error.
        net = Network([zero_layer(2, 1)], DenseParams(np.zeros((2, 2)), np.array([0.3, 9.9])))
        series = LabeledSeries(np.arange(6.0), np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6]))
        ds = make_windows(series, look_back=2, look_ahead=2)
        pe = prediction_errors(net, ds)
        np.testing.assert_allclose(pe.errors, np.abs(0.3 - series.values[2:5]))


class TestGaussian:
    def test_mle_hand_values(self):
        fit = fit_gaussian(errs([1.0, 1.0, 1.0, 3.0]))
        assert fit.mu == pytest.approx(1.5)
        assert fit.sigma2 == pytest.approx(0.75)

    def test_mle_two_points(self):
        fit = fit_gaussian(errs([0.0, 2.0]))
        assert (fit.mu, fit.sigma2) == (1.0, 1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateErrors):
            fit_gaussian(errs([2.0, 2.0]))

    def test_logpd_peak(self):
        fit = GaussianFit(mu=0.5, sigma2=1.0)
        assert gaussian_logpd(0.5, fit) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_logpd_symmetry(self):
        fit = GaussianFit(mu=2.0, sigma2=4.0)
        assert gaussian_logpd(2.0 + 3.0, fit) == pytest.approx(gaussian_logpd(2.0 - 3.0, fit))

    def test_logpd_far_point(self):
        fit = GaussianFit(mu=0.0, sigma2=1.0)
        assert gaussian_logpd(10.0, fit) == pytest.approx(-0.5 * math.log(2 * math.pi) - 50.0)


class TestCalibrateGaussian:
    def test_separable_returns_midpoint(self):
        scores = np.array([-30.0, -28.0, -5.0, -4.0, -3.0])
        labels = np.array([True, True, False, False, False])
        assert calibrate_gaussian_threshold(scores, labels) == pytest.approx(-16.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        distinct = rng.normal(size=40)
        labels = rng.uniform(size=40) < 0.3

        for scores in (distinct, np.round(distinct, 1)):  # the second has ties
            def f1_at(threshold):
                flagged = scores < threshold
                tp = np.sum(flagged & labels)
                fp = np.sum(flagged & ~labels)
                fn = np.sum(~flagged & labels)
                return 2 * tp / (2 * tp + fp + fn) if tp else 0.0

            chosen = calibrate_gaussian_threshold(scores, labels)
            dense = np.linspace(scores.min() - 1, scores.max() + 1, 4001)
            assert f1_at(chosen) >= max(f1_at(t) for t in dense) - 1e-12

            unique = np.unique(scores)
            midpoints = (unique[:-1] + unique[1:]) / 2.0
            f1s = [f1_at(t) for t in midpoints]
            assert chosen == min(t for t, f in zip(midpoints, f1s) if f == max(f1s))

    def test_requires_anomaly(self):
        with pytest.raises(NoAnomaliesInValidation):
            calibrate_gaussian_threshold(np.array([-1.0, -2.0]), np.array([False, False]))

    def test_requires_normal_point(self):
        with pytest.raises(NoAnomaliesInValidation):
            calibrate_gaussian_threshold(np.array([-1.0, -2.0]), np.array([True, True]))


class TestTukey:
    def test_formula(self):
        fit = TukeyFit(q1=10.0, q3=20.0, fence=50.0)
        assert fit.fence == 50.0

    def test_one_to_hundred(self):
        fit = tukey_threshold(errs(np.arange(1.0, 101.0)))
        assert fit.q1 == pytest.approx(25.75)
        assert fit.q3 == pytest.approx(75.25)
        assert fit.fence == pytest.approx(223.75)
        det = detect(errs(np.arange(1.0, 101.0)), fit)
        assert det.flags.sum() == 0

    def test_constant_errors_nothing_flagged(self):
        fit = tukey_threshold(errs([3.0] * 10))
        assert fit.fence == 3.0
        assert detect(errs([3.0] * 10), fit).flags.sum() == 0

    def test_single_outlier_among_spread(self):
        data = errs([1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 100.0])
        det = detect(data, tukey_threshold(data))
        assert det.flags.tolist() == [False] * 7 + [True]

    def test_three_ties_and_one_outlier_boundary(self):
        # Type-7 quartiles put Q3 between the last tie and the outlier, so the
        # fence lands exactly on the outlier and the strict inequality spares it.
        data = errs([1.0, 1.0, 1.0, 100.0])
        fit = tukey_threshold(data)
        assert fit.q1 == 1.0
        assert fit.q3 == pytest.approx(25.75)
        assert fit.fence == pytest.approx(100.0)
        assert detect(data, fit).flags.sum() == 0

    def test_quarter_identical_maxima_never_flagged(self):
        values = np.concatenate([np.linspace(0, 5, 30), np.full(10, 9.0)])
        fit = tukey_threshold(errs(values))
        assert fit.fence >= 9.0
        assert detect(errs(values), fit).flags.sum() == 0


class TestCalibrateRisk:
    @staticmethod
    def stream(anomaly_values, size=3000):
        rng = np.random.default_rng(5)
        base = rng.exponential(0.05, size)
        values = np.concatenate([base, anomaly_values])
        labels = np.concatenate([np.zeros(size, bool), np.ones(len(anomaly_values), bool)])
        return errs(values), labels

    def test_all_admissible_takes_smallest(self):
        stream, labels = self.stream([3.0, 3.2], size=10000)
        rule = calibrate_risk(stream, labels)
        # premise: even the strictest grid value catches both anomalies
        assert evt.pot_threshold(rule.fit, 1e-5) < 3.0
        assert rule.risk == 1e-5

    def test_only_loosest_admissible(self):
        stream, labels = self.stream([5.0])
        t_mid = evt.pot_threshold(rule_fit := evt.fit_tail(stream.errors, 0.98), 1e-4)
        t_loose = evt.pot_threshold(rule_fit, 1e-3)
        # an anomaly between the loose and middle thresholds
        stream2, labels2 = self.stream([(t_loose + t_mid) / 2.0, 5.0])
        rule = calibrate_risk(stream2, labels2)
        assert rule.risk == 1e-3

    def test_no_full_recall_takes_best_f1(self):
        # one anomaly below every threshold: recall can never reach 1
        fit = evt.fit_tail(self.stream([])[0].errors[:3000], 0.98)
        t_strict = evt.pot_threshold(fit, 1e-5)
        stream, labels = self.stream([0.01, t_strict + 1.0])
        rule = calibrate_risk(stream, labels)
        best = max(
            (2 * np.sum((stream.errors > evt.pot_threshold(rule.fit, r)) & labels)
             / (2 * np.sum((stream.errors > evt.pot_threshold(rule.fit, r)) & labels)
                + np.sum((stream.errors > evt.pot_threshold(rule.fit, r)) & ~labels)
                + np.sum((stream.errors <= evt.pot_threshold(rule.fit, r)) & labels)),
             r)
            for r in (1e-3, 1e-4, 1e-5)
        )
        assert rule.risk == best[1]

    def test_vacuous_recall_with_no_anomalies(self):
        stream, labels = self.stream([])
        rule = calibrate_risk(stream, labels)
        assert rule.risk == 1e-5


class TestDetect:
    def test_evt_zero_flags_below_initial_threshold(self):
        fit = evt.GpdFit(gamma=0.1, sigma=1.0, threshold=2.0, total_count=1000, peak_count=20)
        rule = EvtRule(fit=fit, risk=1e-3, threshold=evt.pot_threshold(fit, 1e-3))
        data = errs([0.5, 1.0, 2.0])  # all at or below the initial threshold
        det = detect(data, rule)
        assert det.flags.sum() == 0
        np.testing.assert_allclose(det.scores, data.errors - rule.threshold)

    def test_evt_flags_error_equal_to_threshold(self):
        # The paper's tie rule: a decision score error - threshold of exactly 0
        # is anomalous, as in training.decision_scores.
        fit = evt.GpdFit(gamma=0.1, sigma=1.0, threshold=2.0, total_count=1000, peak_count=20)
        rule = EvtRule(fit=fit, risk=1e-3, threshold=3.5)
        det = detect(errs([3.4, 3.5, 3.6]), rule)
        assert det.flags.tolist() == [False, True, True]
        assert det.scores[1] == 0.0

    def test_gaussian_vacuous_threshold(self):
        rule = GaussianFit(mu=0.0, sigma2=1.0, logpd_threshold=-np.inf)
        det = detect(errs([0.1, 5.0, 99.0]), rule)
        assert det.flags.sum() == 0

    def test_gaussian_requires_calibration(self):
        with pytest.raises(RuleNotCalibrated):
            detect(errs([1.0]), GaussianFit(mu=0.0, sigma2=1.0))

    def test_unknown_rule_type(self):
        with pytest.raises(TypeError):
            detect(errs([1.0]), object())

    def test_evt_flags_monotone_in_risk(self):
        rng = np.random.default_rng(6)
        data = errs(rng.exponential(1.0, 5000))
        fit = evt.fit_tail(data.errors, 0.98)
        previous = None
        # smaller risk -> higher threshold -> flags shrink
        for risk in (1e-3, 1e-4, 1e-5):
            rule = EvtRule(fit=fit, risk=risk, threshold=evt.pot_threshold(fit, risk))
            flagged = set(np.nonzero(detect(data, rule).flags)[0])
            if previous is not None:
                assert flagged <= previous
            previous = flagged

    def test_flags_invariant_under_monotone_transform(self):
        data = errs([0.1, 0.4, 0.9, 2.0])
        fit = tukey_threshold(data)
        base = detect(data, fit).flags

        scaled = errs(np.asarray([0.1, 0.4, 0.9, 2.0]) * 7.0)
        fit_scaled = TukeyFit(q1=fit.q1 * 7, q3=fit.q3 * 7, fence=fit.fence * 7)
        np.testing.assert_array_equal(detect(scaled, fit_scaled).flags, base)

    def test_gaussian_flag_set_is_distance_ball(self):
        fit = GaussianFit(mu=1.0, sigma2=4.0, logpd_threshold=-3.0)
        e = np.linspace(-5, 8, 200)
        det = detect(errs(np.abs(e)), with_threshold(fit, -3.0))
        # scores decrease monotonically in |e - mu|, so the flagged set is
        # exactly {|e - mu| > radius} for the induced radius
        scores = gaussian_logpd(np.abs(e), fit)
        radius = np.sqrt(2 * fit.sigma2 * (-3.0 - (-0.5 * np.log(2 * np.pi * fit.sigma2))) * -1)
        np.testing.assert_array_equal(det.flags, np.abs(np.abs(e) - fit.mu) > radius)
