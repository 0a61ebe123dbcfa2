"""Gates on the Grimshaw root search behind ``evt.fit_gpd``.

* A golden corpus: (gamma_hat, sigma_hat) recorded for seeded samples, which
  every later fit must reproduce to 1e-9.
* A brute-force likelihood grid: the fit must reach the grid's best
  log-likelihood, which catches a missed root.
* A work count: rows of ``evt._u_v`` and refined brackets per fit.
* The sign certificates, the series next to theta = 0 and the monotone
  brackets on the positive side: the signs they decide are those
  ``evt._u_v`` computes, and their intervals hold the exact u*v - 1.
"""
import json
import warnings
from decimal import Decimal, localcontext
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


@pytest.mark.parametrize("gamma, m", [(-0.4, 50), (0.0, 1000), (0.3, 1000), (0.8, 37)])
def test_bisection_step_matches_one_row_u_v(gamma, m):
    # The bisection's in-place step must give a one-row _u_v's w bit for bit,
    # over both sides of the search and at odd sample sizes.
    x = golden_sample(gamma, m, 6)
    theta = np.concatenate([
        -np.geomspace(1.0 - 1e-8, 1e-6, 200) / x.max(),
        np.geomspace(1e-6, 1e4, 200) / x.mean(),
    ])
    s, r = np.empty_like(x), np.empty_like(x)
    for t in theta:
        u, v = evt._u_v(np.array([t]), x)
        assert evt._w_at(float(t), x, s, r) == float(u[0] * v[0] - 1.0), t

    # And the roots _bisect returns are those of bisecting on one-row _u_v calls.
    def reference_bisect(lo, hi, w_lo):
        while hi - lo > evt._BISECT_TOL:
            mid = 0.5 * (lo + hi)
            u, v = evt._u_v(np.array([mid]), x)
            w_mid = float(u[0] * v[0] - 1.0)
            if (w_mid < 0) == (w_lo < 0):
                lo, w_lo = mid, w_mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    u, v = evt._u_v(theta, x)
    w = u * v - 1.0
    brackets = np.nonzero(np.signbit(w[:-1]) != np.signbit(w[1:]))[0]
    for i in brackets:
        args = float(theta[i]), float(theta[i + 1]), float(w[i])
        assert evt._bisect(x, *args) == reference_bisect(*args)


def test_search_work_per_fit(monkeypatch):
    """Rows of u, v evaluated and brackets refined per m = 1000 fit, on the
    three samples of the gpd-compliance benchmark workload at seed 1. Noise
    brackets near theta = 0 would each add a bisection of about 40 rows.
    Without the sign certificates every grid row, 1,310 to 1,343, is one;
    with the series alone, 445 to 493 are; with the monotone brackets too,
    104 to 174."""
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
        assert rows[0] < 250, f"gamma={gamma}: {rows[0]} rows of u, v"
        assert brackets[0] <= 2, f"gamma={gamma}: {brackets[0]} brackets refined"


def certificate_corpus():
    """gamma x m x 6 seeds, plus criterion 8's mixture."""
    for gamma in (-0.8, -0.4, -0.1, 1e-4, 0.1, 0.3, 0.8):
        for m in (30, 50, 200, 1000):
            for seed in range(6):
                yield golden_sample(gamma, m, 200 + seed)
    yield mixture_sample()


def search_grid(monkeypatch, x: np.ndarray) -> np.ndarray:
    """Both sides of the grid fit_gpd searches for x, as one array."""
    grids = []
    grid_w = evt._grid_w

    def recording(x, grid):
        grids.append(grid)
        return grid_w(x, grid)

    with monkeypatch.context() as patched:
        patched.setattr(evt, "_grid_w", recording)
        evt.fit_gpd(x)
    (grid,) = grids
    return grid


def computed_rows(monkeypatch, x: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``evt._grid_w``'s w, and a mask of the rows it computed with ``_u_v``."""
    thetas = [np.empty(0)]
    u_v = evt._u_v

    def recording(theta, x):
        thetas.append(theta)
        return u_v(theta, x)

    with monkeypatch.context() as patched:
        patched.setattr(evt, "_u_v", recording)
        w = evt._grid_w(x, grid)
    return w, np.isin(grid, np.concatenate(thetas))


def test_certified_signs_are_those_of_u_v(monkeypatch):
    """Every row a certificate decides, the series next to theta = 0 or a
    monotone bracket on the positive side, has the sign u*v - 1 has as _u_v
    computes it, and is not 0; the rows left are _u_v's bit for bit."""
    rows = decided = bracketed = 0
    for x in certificate_corpus():
        grid = search_grid(monkeypatch, x)
        u, v = evt._u_v(grid, x)
        computed = u * v - 1.0
        y = grid * x.max()
        near = np.abs(y) <= evt._SERIES_RADIUS
        w, half = evt._series_w(y[near], evt._moments(x), x.size)
        sure = np.abs(w) - half > evt._SIGN_MARGIN
        np.testing.assert_array_equal(np.signbit(w[sure]), np.signbit(computed[near][sure]))
        assert np.all(computed[near][sure] != 0.0)

        w, done = computed_rows(monkeypatch, x, grid)
        np.testing.assert_array_equal(np.signbit(w), np.signbit(computed))
        np.testing.assert_array_equal(w[done], computed[done])
        assert np.all(w[~done] != 0.0)
        by_series = np.zeros(grid.size, dtype=bool)
        by_series[np.flatnonzero(near)[sure]] = True
        assert not np.any(done & by_series)
        by_bracket = ~done & ~by_series
        assert np.all(grid[by_bracket] > 0.0)
        rows += grid.size
        decided += int(sure.sum())
        bracketed += int(by_bracket.sum())
    assert decided > 0.6 * rows, f"{decided} of {rows} rows decided"
    assert bracketed > 0.2 * rows, f"{bracketed} of {rows} rows bracketed"


def exact_w(theta: float, x: np.ndarray) -> Decimal:
    """u*v - 1 at theta to 40 digits, for the float theta and samples given."""
    with localcontext() as ctx:
        ctx.prec = 40
        t = Decimal(theta)
        s = [1 + t * Decimal(xi) for xi in x.tolist()]
        u = sum(1 / si for si in s) / len(s)
        v = 1 + sum(si.ln() for si in s) / len(s)
        return u * v - 1


def test_certified_interval_holds_exact_w():
    """At m <= 50 the interval the certificate gives holds u*v - 1 computed
    in decimal at 40 digits, over every seventh row of |theta| x_max <= 0.6
    on both sides; and _u_v's computed row is within a few eps of it, far
    inside the margin."""
    eps = np.finfo(float).eps
    for gamma in (-0.8, -0.4, -0.1, 1e-4, 0.1, 0.3, 0.8):
        for m in (30, 50):
            for seed in (200, 201):
                x = golden_sample(gamma, m, seed)
                theta = np.concatenate([
                    -np.geomspace(1.0 - 1e-8, 1e-5, 300) / x.max(),
                    np.geomspace(1e-5, 1e4, 300) / x.mean(),
                ])
                theta = theta[np.abs(theta * x.max()) <= evt._SERIES_RADIUS][::7]
                w, half = evt._series_w(theta * x.max(), evt._moments(x), x.size)
                u, v = evt._u_v(theta, x)
                for t, center, h, computed in zip(theta, w, half, u * v - 1.0):
                    exact = exact_w(float(t), x)
                    assert Decimal(center) - Decimal(h) <= exact <= Decimal(center) + Decimal(h), t
                    assert abs(Decimal(computed) - exact) <= Decimal(8 * eps), t


def test_bracket_interval_holds_exact_w(monkeypatch):
    """At m <= 50 the bounds of every bracket that decides its rows hold
    u*v - 1 computed in decimal at 40 digits, at every fifth of those rows,
    and lie beyond the margin on one side; and _u_v's computed row has the
    decided sign."""
    checked = 0
    for gamma in (-0.4, 1e-4, 0.3, 0.8):
        for m in (30, 50):
            x = golden_sample(gamma, m, 200)
            grid = search_grid(monkeypatch, x)
            brackets = []
            bracket_w = evt._bracket_w

            def recording(u, v, a, b, m):
                low, high = bracket_w(u, v, a, b, m)
                brackets.append((a, b, low, high))
                return low, high

            with monkeypatch.context() as patched:
                patched.setattr(evt, "_bracket_w", recording)
                evt._grid_w(x, grid)
            decided = [
                (row, lo, hi)
                for a, b, low, high in brackets
                for i, j, lo, hi in zip(a, b, low, high)
                if lo > evt._SIGN_MARGIN or hi < -evt._SIGN_MARGIN
                for row in range(i + 1, j)
            ]
            assert decided, (gamma, m)
            for row, lo, hi in decided[::5]:
                t = float(grid[row])
                assert t > 0.0
                exact = exact_w(t, x)
                assert Decimal(lo) <= exact <= Decimal(hi), t
                u, v = evt._u_v(np.array([t]), x)
                assert (u[0] * v[0] - 1.0 > 0.0) == (lo > 0.0), t
                checked += 1
    assert checked > 400


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_fit_at_extreme_scales(scale):
    """Scaling the excesses scales sigma and leaves gamma: powers of the
    sample near 1e150 would overflow without the moments' x / x_max, and
    the bisection's absolute tolerance in theta would stop short (or never)
    without the power-of-two scaling to unit mean."""
    x = golden_sample(0.1, 1000, 7)
    unscaled = evt.fit_gpd(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = evt.fit_gpd(x * scale)
    assert fit.gamma == pytest.approx(unscaled.gamma, rel=1e-9, abs=0)
    assert fit.sigma / scale == pytest.approx(unscaled.sigma, rel=1e-9, abs=0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_fit_when_the_mean_overflows():
    """200 draws from U(1e306, 1e307) sum past the largest float, so the
    sample takes its power-of-two scale from its largest excess instead."""
    x = np.random.default_rng(1).uniform(1e306, 1e307, 200)
    fit = evt.fit_gpd(x)
    exponent = int(np.frexp(x.max())[1])
    scaled = evt.fit_gpd(np.ldexp(x, -exponent))
    assert (fit.gamma, fit.sigma) == (scaled.gamma, float(np.ldexp(scaled.sigma, exponent)))
    assert fit.gamma == pytest.approx(-1.18, abs=0.01)
    assert fit.sigma == pytest.approx(1.18e307, rel=0.01)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sigma_that_overflows_is_degenerate():
    """At level 0.9 the fitted sigma is about 1.05 times the largest of
    these 110 excesses."""
    rng = np.random.default_rng(0)
    errors = np.concatenate([rng.uniform(0, 1, 1000), rng.uniform(1e307, 1.79e308, 100)])
    with pytest.raises(evt.DegenerateErrors, match="^the fitted sigma overflows: excesses reach "):
        evt.fit_tail(errors, level=0.9)


def test_bisection_stops_at_theta_resolution():
    """A root at theta near 1e4 lies where one ulp of theta exceeds the
    bisection's absolute tolerance, so it ends at adjacent floats; this
    GPD(2, 1e-4) sample of mean 0.38 used to loop for ever."""
    u = np.random.default_rng(5).uniform(size=200)
    x = np.expm1(-2.0 * np.log1p(-u)) / 2.0
    fit = evt.fit_gpd(x * 1e-4)
    reference = evt.fit_gpd(x * 1e-2)
    assert fit.gamma == pytest.approx(reference.gamma, rel=1e-9, abs=0)
    assert fit.sigma * 1e2 == pytest.approx(reference.sigma, rel=1e-9, abs=0)
