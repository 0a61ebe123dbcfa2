import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtdetect import evt


def gpd_inverse_cdf_samples(rng, gamma, sigma, size):
    # Independent sampling oracle: x = (sigma/gamma) * ((1-u)^(-gamma) - 1).
    u = rng.uniform(size=size)
    if gamma == 0.0:
        return -sigma * np.log(1.0 - u)
    return sigma / gamma * ((1.0 - u) ** (-gamma) - 1.0)


class TestInitialThreshold:
    def test_interpolated_order_statistic(self):
        errors = np.arange(1.0, 101.0)
        assert evt.initial_threshold(errors, 0.98) == pytest.approx(98.02)

    def test_constant_sample(self):
        for level in (0.1, 0.5, 0.98):
            assert evt.initial_threshold(np.full(17, 4.2), level) == 4.2

    def test_median(self):
        assert evt.initial_threshold(np.array([1.0, 2.0, 3.0]), 0.5) == 2.0

    def test_empty(self):
        with pytest.raises(ValueError):
            evt.initial_threshold(np.array([]), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # A NaN quantile would otherwise turn into "too few excesses" downstream.
        errors = np.append(np.linspace(0.1, 1.0, 99), bad)
        with pytest.raises(ValueError, match="finite"):
            evt.initial_threshold(errors, 0.98)


class TestExcesses:
    def test_filter(self):
        np.testing.assert_array_equal(evt.excesses_over(np.array([1.0, 5.0, 9.0]), 4.0), [1.0, 5.0])

    def test_all_below(self):
        assert evt.excesses_over(np.array([1.0, 2.0]), 4.0).size == 0

    def test_strict_inequality(self):
        assert evt.excesses_over(np.array([4.0]), 4.0).size == 0


class TestLogLikelihood:
    def test_exponential_branch(self):
        assert evt.gpd_log_likelihood(np.array([1.0]), 0.0, 1.0) == pytest.approx(-1.0)

    def test_unit_gamma(self):
        expected = -2.0 * math.log(2.0)
        assert evt.gpd_log_likelihood(np.array([1.0]), 1.0, 1.0) == pytest.approx(expected)

    def test_support_violation(self):
        with pytest.raises(evt.SupportViolation):
            evt.gpd_log_likelihood(np.array([1.5]), -1.0, 1.0)

    def test_tiny_gamma_routes_to_exponential(self):
        x = np.array([0.5, 1.5])
        assert evt.gpd_log_likelihood(x, 1e-12, 2.0) == pytest.approx(
            evt.gpd_log_likelihood(x, 0.0, 2.0)
        )


class TestFitGpd:
    def test_exponential_recovery(self):
        rng = np.random.default_rng(42)
        fit = evt.fit_gpd(gpd_inverse_cdf_samples(rng, 0.0, 1.0, 10000))
        assert abs(fit.gamma) <= 0.05
        assert abs(fit.sigma - 1.0) <= 0.05

    def test_uniform_recovery(self):
        # Uniform(0,1) is exactly GPD(gamma=-1, sigma=1).
        rng = np.random.default_rng(43)
        fit = evt.fit_gpd(rng.uniform(0.0, 1.0, 10000))
        assert abs(fit.gamma + 1.0) <= 0.05
        assert abs(fit.sigma - 1.0) <= 0.05

    def test_heavy_tail_recovery(self):
        rng = np.random.default_rng(44)
        fit = evt.fit_gpd(gpd_inverse_cdf_samples(rng, 0.2, 1.0, 10000))
        assert abs(fit.gamma - 0.2) <= 0.05
        assert abs(fit.sigma - 1.0) <= 0.1

    def test_too_few(self):
        with pytest.raises(evt.TooFewExcesses):
            evt.fit_gpd(np.ones(10))

    def test_non_positive(self):
        x = np.concatenate([np.full(40, 1.0), [0.0]])
        with pytest.raises(ValueError, match="strictly positive"):
            evt.fit_gpd(x)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        x = np.append(np.linspace(0.1, 2.0, 40), bad)
        with pytest.raises(ValueError, match="finite") as info:
            evt.fit_gpd(x)
        assert not isinstance(info.value, evt.SupportViolation)

    def test_returned_candidate_beats_exponential(self):
        rng = np.random.default_rng(45)
        x = gpd_inverse_cdf_samples(rng, 0.4, 2.0, 5000)
        fit = evt.fit_gpd(x)
        ll_best = evt.gpd_log_likelihood(x, fit.gamma, fit.sigma)
        ll_exp = evt.gpd_log_likelihood(x, 0.0, float(x.mean()))
        assert ll_best >= ll_exp

    def test_near_constant_sample_prefers_exponential(self):
        x = np.full(50, 3.0) + np.linspace(0, 1e-9, 50)
        fit = evt.fit_gpd(x)
        assert abs(fit.gamma) < 1e-6
        assert fit.sigma == pytest.approx(3.0, rel=1e-6)


class TestPotThreshold:
    def test_hand_evaluated_example(self):
        fit = evt.GpdFit(gamma=0.1, sigma=1.0, threshold=2.0, total_count=10000, peak_count=200)
        expected = 2.0 + (1.0 / 0.1) * (0.05 ** (-0.1) - 1.0)
        assert evt.pot_threshold(fit, 1e-3) == pytest.approx(expected, abs=1e-6)

    def test_exponential_limit(self):
        fit = evt.GpdFit(gamma=0.0, sigma=1.0, threshold=0.0, total_count=1000, peak_count=100)
        assert evt.pot_threshold(fit, 0.01) == pytest.approx(math.log(10.0), abs=1e-9)

    def test_risk_at_peak_ratio_rejected(self):
        fit = evt.GpdFit(gamma=0.1, sigma=1.0, threshold=2.0, total_count=100, peak_count=10)
        with pytest.raises(evt.RiskTooHigh):
            evt.pot_threshold(fit, 0.1)

    def test_continuity_across_zero_gamma(self):
        base = dict(sigma=1.0, threshold=0.0, total_count=1000, peak_count=100)
        limit = evt.pot_threshold(evt.GpdFit(gamma=0.0, **base), 0.01)
        for gamma in (1e-8, -1e-8):
            near = evt.pot_threshold(evt.GpdFit(gamma=gamma, **base), 0.01)
            assert near == pytest.approx(limit, abs=1e-6)

    def test_exceeds_initial_threshold(self):
        fit = evt.GpdFit(gamma=-0.4, sigma=2.0, threshold=5.0, total_count=500, peak_count=50)
        assert evt.pot_threshold(fit, 1e-4) > 5.0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("gamma, sigma", [(0.5, 1e307), (0.0, 1e308)], ids=["gpd", "exponential"])
    def test_threshold_that_overflows_is_degenerate(self, gamma, sigma):
        fit = evt.GpdFit(gamma=gamma, sigma=sigma, threshold=1.0, total_count=10000, peak_count=200)
        with pytest.raises(evt.DegenerateErrors, match=r"^the detection threshold at risk 1e-06 overflows$"):
            evt.pot_threshold(fit, 1e-6)


class TestTailProbability:
    def test_at_threshold(self):
        fit = evt.GpdFit(gamma=0.3, sigma=1.0, threshold=2.0, total_count=400, peak_count=20)
        assert evt.tail_probability(2.0, fit) == pytest.approx(0.05)

    def test_inverse_of_pot_threshold(self):
        fit = evt.GpdFit(gamma=0.3, sigma=1.5, threshold=2.0, total_count=400, peak_count=20)
        q = 1e-3
        assert evt.tail_probability(evt.pot_threshold(fit, q), fit) == pytest.approx(q, abs=1e-9)

    def test_short_tail_support_endpoint(self):
        fit = evt.GpdFit(gamma=-1.0, sigma=1.0, threshold=3.0, total_count=100, peak_count=10)
        assert evt.tail_probability(4.0, fit) == 0.0
        assert evt.tail_probability(5.0, fit) == 0.0

    def test_below_threshold_rejected(self):
        fit = evt.GpdFit(gamma=0.0, sigma=1.0, threshold=3.0, total_count=100, peak_count=10)
        with pytest.raises(ValueError):
            evt.tail_probability(2.9, fit)

    @given(
        st.floats(-0.9, 0.9),
        st.floats(0.1, 10.0),
        st.floats(0.0, 100.0),
        st.integers(50, 100000),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random_fits(self, gamma, sigma, threshold, total):
        peaks = max(1, total // 50)
        fit = evt.GpdFit(gamma=gamma, sigma=sigma, threshold=threshold,
                         total_count=total, peak_count=peaks)
        ratio = peaks / total
        q = ratio / 3.0
        t = evt.pot_threshold(fit, q)
        assert evt.tail_probability(t, fit) == pytest.approx(q, abs=1e-9)


class TestAndersonDarling:
    def test_null_gives_large_p_values(self):
        rng = np.random.default_rng(7)
        hits = 0
        trials = 10
        for trial in range(trials):
            sample = evt.sample_gpd(rng, 0.1, 1.0, 300)
            fit = evt.fit_gpd(sample)
            result = evt.anderson_darling(sample, fit, bootstrap_reps=59, seed=100 + trial)
            hits += result.p_value > 0.05
        assert hits >= trials - 1

    def test_bimodal_mixture_rejected(self):
        rng = np.random.default_rng(8)
        sample = np.concatenate([
            rng.normal(1.0, 0.05, 250),
            rng.normal(10.0, 0.05, 250),
        ])
        sample = np.abs(sample)
        fit = evt.fit_gpd(sample)
        result = evt.anderson_darling(sample, fit, bootstrap_reps=200, seed=9)
        assert result.p_value < 0.001

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("gamma, m, seed, reps", [
        (0.1, 200, 3, 1),
        (-0.2, 100, 5, 3),
        (0.4, 300, 7, 13),
        (0.0, 150, 9, 17),
    ])
    def test_pool_matches_serial_loop(self, monkeypatch, cpus, gamma, m, seed, reps):
        # The reference draws, refits and counts each rep in turn; statistic
        # and p-value must be equal, not close, whatever CPU count the
        # machine reports.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rng = np.random.default_rng(seed)
        x = gpd_inverse_cdf_samples(rng, gamma, 1.0, m)
        fit = evt.fit_gpd(x)
        observed = evt._ad_statistic(x, fit.gamma, fit.sigma)
        draws = np.random.default_rng(seed)
        exceed = 0
        for _ in range(reps):
            resample = evt.sample_gpd(draws, fit.gamma, fit.sigma, m)
            refit = evt.fit_gpd(resample)
            if evt._ad_statistic(resample, refit.gamma, refit.sigma) >= observed:
                exceed += 1
        result = evt.anderson_darling(x, fit, bootstrap_reps=reps, seed=seed)
        assert (result.statistic, result.p_value) == (observed, exceed / reps)
        assert result.bootstrap_reps == reps

    def test_starts_no_thread(self, monkeypatch):
        # Every refit runs on the calling thread, and no thread is started.
        x = gpd_inverse_cdf_samples(np.random.default_rng(11), 0.2, 1.0, 150)
        fit = evt.fit_gpd(x)
        threads, started = set(), []
        fit_gpd, start = evt.fit_gpd, threading.Thread.start

        def recording_fit_gpd(sample):
            threads.add(threading.get_ident())
            return fit_gpd(sample)

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(evt, "fit_gpd", recording_fit_gpd)
        monkeypatch.setattr(threading.Thread, "start", recording_start)
        evt.anderson_darling(x, fit, bootstrap_reps=7, seed=3)
        assert threads == {threading.get_ident()}
        assert started == []

    def test_failing_refit_surfaces(self, monkeypatch):
        # A refit's exception reaches the caller.
        x = evt.sample_gpd(np.random.default_rng(4), 0.1, 1.0, 100)
        fit = evt.fit_gpd(x)

        def refuse(sample):
            raise evt.SupportViolation("injected")

        monkeypatch.setattr(evt, "fit_gpd", refuse)
        with pytest.raises(evt.SupportViolation, match="injected"):
            evt.anderson_darling(x, fit, bootstrap_reps=9, seed=0)

    def test_non_positive_reps_rejected(self):
        x = evt.sample_gpd(np.random.default_rng(4), 0.1, 1.0, 100)
        with pytest.raises(ValueError, match="bootstrap_reps"):
            evt.anderson_darling(x, evt.fit_gpd(x), bootstrap_reps=0)

    def test_too_few_excesses(self):
        fit = evt.GpdFit(gamma=0.0, sigma=1.0, threshold=0.0, total_count=2, peak_count=2)
        with pytest.raises(evt.TooFewExcesses):
            evt.anderson_darling(np.array([1.0, 2.0]), fit, bootstrap_reps=10)

    def test_cdf_values_clamped_at_support_end(self):
        # Excesses beyond a short tail's endpoint drive the CDF to 1 exactly;
        # the statistic must stay finite through the clamp.
        x = np.array([0.2, 0.5, 0.9, 1.5, 2.0])
        stat = evt._ad_statistic(x, gamma=-1.0, sigma=1.0)
        assert np.isfinite(stat)

    def test_statistic_matches_direct_formula(self):
        # Independent evaluation of the tail-weighted EDF statistic.
        rng = np.random.default_rng(10)
        x = evt.sample_gpd(rng, 0.2, 1.0, 64)
        gamma, sigma = 0.2, 1.0
        z = np.sort(np.clip(evt.gpd_cdf(np.sort(x), gamma, sigma), 1e-12, 1 - 1e-12))
        m = len(z)
        direct = -m - sum(
            (2 * (i + 1) - 1) * (math.log(z[i]) + math.log(1 - z[m - 1 - i])) for i in range(m)
        ) / m
        assert evt._ad_statistic(x, gamma, sigma) == pytest.approx(direct, rel=1e-12)


class TestGpdFitType:
    def test_tail_class_labels(self):
        base = dict(sigma=1.0, threshold=0.0, total_count=10, peak_count=5)
        assert evt.GpdFit(gamma=0.2, **base).tail_class == "frechet"
        assert evt.GpdFit(gamma=0.0, **base).tail_class == "gumbel"
        assert evt.GpdFit(gamma=-0.2, **base).tail_class == "weibull"

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            evt.GpdFit(gamma=0.1, sigma=0.0, threshold=0.0, total_count=10, peak_count=5)

    @pytest.mark.parametrize("total_count, peak_count, message", [
        (10, 11, "peak_count cannot exceed total_count"),
        (10, 0, "peak_count must be at least 1"),
    ])
    def test_invalid_counts(self, total_count, peak_count, message):
        with pytest.raises(ValueError, match=message):
            evt.GpdFit(gamma=0.1, sigma=1.0, threshold=0.0, total_count=total_count, peak_count=peak_count)

    def test_fit_tail_pipeline(self):
        rng = np.random.default_rng(11)
        errors = rng.exponential(0.05, 4000)
        fit = evt.fit_tail(errors, level=0.98)
        assert fit.total_count == 4000
        assert fit.peak_count == (errors > fit.threshold).sum()
        assert fit.threshold == pytest.approx(evt.initial_threshold(errors, 0.98))
