"""Gates on the Grimshaw root search behind ``evt.fit_gpd``.

* A golden corpus: (gamma_hat, sigma_hat) recorded for seeded samples, which
  every later fit must reproduce to 1e-9.
* A brute-force likelihood grid: the fit must reach the grid's best
  log-likelihood, which catches a missed root.
* A work count: rows of ``evt._u_v`` and refined brackets per fit.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from evtdetect import evt

GOLDEN = json.loads((Path(__file__).parent / "data" / "gpd_golden.json").read_text())


def golden_sample(gamma: float, m: int, seed: int) -> np.ndarray:
    """Inverse-CDF draws from GPD(gamma, 1), independent of ``evt.sample_gpd``."""
    u = np.random.default_rng(seed).uniform(size=m)
    if gamma == 0.0:
        return -np.log1p(-u)
    return np.expm1(-gamma * np.log1p(-u)) / gamma


def mixture_sample() -> np.ndarray:
    """Acceptance criterion 8's bimodal sample."""
    rng = np.random.default_rng(3)
    return np.abs(np.concatenate([rng.normal(1.0, 0.05, 250), rng.normal(10.0, 0.05, 250)]))


def _groups():
    groups: dict[tuple[float, int], list[dict]] = {}
    for case in GOLDEN["fits"]:
        groups.setdefault((case["gamma"], case["m"]), []).append(case)
    return groups


def band_position(x: np.ndarray, case: dict) -> float:
    """|theta * mean(x)| of a recorded estimate, theta = gamma / sigma."""
    return abs(case["gamma_hat"] / case["sigma_hat"] * x.mean())


class TestGoldenCorpus:
    def test_corpus_covers_the_grid(self):
        assert sorted(_groups()) == [
            (g, m) for g in (-0.4, -0.1, 0.0, 0.1, 0.3, 0.8) for m in (50, 200, 1000)
        ]
        assert all(len(cases) == 8 for cases in _groups().values())

    @pytest.mark.parametrize("gamma,m", sorted(_groups()))
    def test_seeded_fits_reproduce(self, gamma, m):
        for case in _groups()[(gamma, m)]:
            x = golden_sample(gamma, m, case["seed"])
            assert band_position(x, case) > evt._ZERO_BAND
            fit = evt.fit_gpd(x)
            assert fit.gamma == pytest.approx(case["gamma_hat"], rel=0, abs=1e-9)
            assert fit.sigma == pytest.approx(case["sigma_hat"], rel=1e-9, abs=0)

    def test_mixture_noise_root_gives_way_to_exponential(self):
        """The recorded estimate for criterion 8's mixture is a sign change of
        u*v - 1 inside the band next to theta = 0, i.e. rounding noise; the
        exponential candidate stands for the band."""
        x, case = mixture_sample(), GOLDEN["mixture"]
        assert band_position(x, case) <= evt._ZERO_BAND
        fit = evt.fit_gpd(x)
        assert (fit.gamma, fit.sigma) == (0.0, float(x.mean()))
        assert fit.sigma == pytest.approx(case["sigma_hat"], rel=evt._ZERO_BAND)


def brute_force_best_log_likelihood(x: np.ndarray) -> float:
    """Best GPD log-likelihood over a (gamma, sigma) grid inside the support.

    gamma stays above -1, where the likelihood is bounded, and steps past 0
    (the exponential case is a candidate of the fit anyway); sigma spans two
    decades either side of the sample mean.
    """
    best = -np.inf
    sigmas = np.geomspace(x.mean() / 100, x.mean() * 100, 401)
    for gamma in np.linspace(-0.995, 1.5, 250):
        z = 1.0 + gamma * x[None, :] / sigmas[:, None]
        inside = np.all(z > 0, axis=1)
        if not inside.any():
            continue
        ll = -x.size * np.log(sigmas[inside]) - (1.0 + 1.0 / gamma) * np.log(z[inside]).sum(axis=1)
        best = max(best, float(ll.max()))
    return best


# The grid can only under-estimate the supremum, and the fit's own
# log-likelihood is exact to rounding, so the margin covers rounding alone.
BRUTE_FORCE_TOL = 1e-6


@pytest.mark.parametrize("gamma", [-0.6, -0.4, -0.1, 0.0, 0.3, 0.8])
@pytest.mark.parametrize("m", [50, 200])
def test_fit_reaches_brute_force_grid(gamma, m):
    for seed in range(4):
        x = golden_sample(gamma, m, 100 + seed)
        fit = evt.fit_gpd(x)
        ll = evt.gpd_log_likelihood(x, fit.gamma, fit.sigma)
        grid = brute_force_best_log_likelihood(x)
        assert ll >= grid - BRUTE_FORCE_TOL, f"seed {100 + seed}: fit {ll} < grid {grid}"


def test_u_v_matches_direct_means():
    # Many rows, so the cache-sized chunks and their remainder are exercised.
    x = golden_sample(0.3, 1000, 5)
    theta = np.geomspace(1e-4, 1e3, 301) / x.mean()
    u, v = evt._u_v(theta, x)
    s = 1.0 + theta[:, None] * x[None, :]
    np.testing.assert_array_equal(u, np.mean(1.0 / s, axis=1))
    np.testing.assert_array_equal(v, 1.0 + np.mean(np.log(s), axis=1))


def test_search_work_per_fit(monkeypatch):
    """Rows of u, v evaluated and brackets refined per m = 1000 fit, on the
    three samples of the gpd-compliance benchmark workload at seed 1. Noise
    brackets near theta = 0 would each add a bisection of about 40 rows."""
    rows, brackets = [0], [0]
    u_v, bisect = evt._u_v, evt._bisect

    def counting_u_v(theta, x):
        rows[0] += np.atleast_1d(theta).size
        return u_v(theta, x)

    def counting_bisect(*args):
        brackets[0] += 1
        return bisect(*args)

    monkeypatch.setattr(evt, "_u_v", counting_u_v)
    monkeypatch.setattr(evt, "_bisect", counting_bisect)
    for k, gamma in enumerate((-0.1, 0.1, 0.3)):
        u = np.random.default_rng([1, k]).uniform(size=1000)
        rows[0] = brackets[0] = 0
        evt.fit_gpd(np.expm1(-gamma * np.log1p(-u)) / gamma)
        assert rows[0] < 1600, f"gamma={gamma}: {rows[0]} rows of u, v"
        assert brackets[0] <= 2, f"gamma={gamma}: {brackets[0]} brackets refined"
