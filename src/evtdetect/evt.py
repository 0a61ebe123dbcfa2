"""Extreme-value machinery for peaks-over-threshold anomaly thresholds.

The pipeline is: pick an initial threshold ``T`` as a high empirical quantile
of the observations, collect the excesses above ``T``, fit a generalized
Pareto distribution (GPD) to the excesses by maximum likelihood, and convert a
target risk level ``q`` into a detection threshold lying beyond ``T``.

The GPD maximum likelihood problem is reduced to one-dimensional root finding
following Grimshaw: with theta = gamma / sigma, every stationary point of the
profile likelihood solves u(theta) * v(theta) = 1 where

    u(theta) = mean(1 / (1 + theta * x_i))
    v(theta) = 1 + mean(log(1 + theta * x_i))

and each root theta* yields gamma = v(theta*) - 1, sigma = gamma / theta*.
theta = 0 corresponds to the exponential special case (gamma = 0,
sigma = mean). Candidates are ranked by GPD log-likelihood.

Next to theta = 0, u * v - 1 shrinks like theta^2 (theta^3 for
exponential-like samples) until it is pure rounding noise, whose sign changes
are not roots. The search leaves out the band |theta * mean| <= (4 eps)^(1/3),
about 1e-5, where that noise can outweigh the function; the exponential
candidate stands for the band (derivation in :func:`fit_gpd`).

Most grid rows lie where |theta| * x_max <= 0.6. There u and v are power
series in theta * x_max whose coefficients are the moments of x / x_max; a
row whose series value, widened by bounds on its truncation and rounding
errors, lies beyond +-1e-12 takes its sign from it without the O(m) work of
``_u_v``. For theta > 0, u falls and v rises in theta, so two computed rows
bound u*v - 1 on every row between them; the positive rows the series leaves
are searched with such brackets, and only their knots and the midpoints of
undecided brackets are computed. The signs, and so every bracket and fit,
are those of computing every row (derivations in :func:`fit_gpd`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_EXCESSES = 30
GAMMA_ZERO_TOL = 1e-8

# Below gamma = -1 the GPD likelihood diverges at the support endpoint and the
# MLE does not exist; estimates much below -1 are always artifacts of the
# endpoint offset, so candidates under this floor are discarded. The floor
# leaves room for genuine short tails such as uniform samples (gamma = -1).
GAMMA_FLOOR = -1.25

_GRID_SUBINTERVALS = 1000
# Half-width of the band next to theta = 0, in units of theta * mean(x), that
# the root search leaves out: u * v - 1 is rounding noise inside it (fit_gpd).
_ZERO_BAND = float(np.cbrt(4.0 * np.finfo(float).eps))
# The sign certificate next to theta = 0 (module docstring): series terms
# summed, and the largest |theta| * x_max at which it is tried. At 0.6 the
# remainder after 24 terms is at most 0.6^25 / 0.4 < 1e-5 times mu_25, which
# is about 1/m for a sample with one largest value, so nearly every row the
# certificate tries is decided; beyond it the remainder and the terms grow
# quickly while the rows left are only those next to -1/x_max and far out.
_SERIES_TERMS = 24
_SERIES_RADIUS = 0.6
# Rows are decided only where the certified interval of u*v - 1 lies beyond
# +-_SIGN_MARGIN. A computed row is off the exact value by about 4 eps and by
# under 1e-13 at worst, so the margin, over 4,000 eps, makes the computed
# row's sign the interval's and never 0; it also absorbs the few roundings of
# forming the interval itself.
_SIGN_MARGIN = 1e-12
# The bracket search on the positive rows the series leaves (fit_gpd) puts a
# knot on every _KNOT_STRIDE-th row of each run of such rows and on its last
# row, then halves each bracket it cannot decide: at most five more rounds.
_KNOT_STRIDE = 32
_CHUNK_ELEMENTS = 1 << 16
_BISECT_TOL = 1e-12
# The bisection's tolerance is absolute in theta, whose scale is 1 / mean(x):
# in units of theta * mean(x) it is at most 2.6e-10 while the mean is below
# 2**8. A sample whose mean lies outside [2**-9, 2**8), a binary exponent
# beyond +-_SCALE_EXPONENT, is scaled by a power of two to a mean in [0.5, 1)
# before the search, which scales every product and quotient of the search
# exactly. Samples inside are searched as they are.
_SCALE_EXPONENT = 8
_CDF_CLAMP = 1e-12


class TooFewExcesses(ValueError):
    """Not enough excesses above the initial threshold to fit a GPD."""


class SupportViolation(ValueError):
    """An observation lies outside the support of the candidate GPD."""


class RiskTooHigh(ValueError):
    """Risk level q does not push the threshold beyond the initial one."""


@dataclass(frozen=True)
class GpdFit:
    """Estimated GPD parameters plus peaks-over-threshold bookkeeping.

    ``gamma`` is the extreme value index, ``sigma`` the scale. ``threshold``
    is the initial threshold the excesses were taken above, ``total_count``
    the number of observations it was derived from, and ``peak_count`` the
    number of observations strictly above it.
    """

    gamma: float
    sigma: float
    threshold: float
    total_count: int
    peak_count: int

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.peak_count > self.total_count:
            raise ValueError("peak_count cannot exceed total_count")
        if self.peak_count < 1:
            raise ValueError("peak_count must be at least 1")

    @property
    def tail_class(self) -> str:
        """Descriptive tail family: frechet, gumbel, or weibull."""
        if self.gamma > GAMMA_ZERO_TOL:
            return "frechet"
        if self.gamma < -GAMMA_ZERO_TOL:
            return "weibull"
        return "gumbel"


@dataclass(frozen=True)
class AdResult:
    """Anderson-Darling statistic with a parametric-bootstrap p-value."""

    statistic: float
    p_value: float
    bootstrap_reps: int

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value must lie in [0, 1]")


def initial_threshold(errors: np.ndarray, level: float) -> float:
    """Empirical quantile by linear interpolation between order statistics."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    if not np.all(np.isfinite(errors)):
        raise ValueError("errors must be finite")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    return float(np.quantile(errors, level))


def excesses_over(errors: np.ndarray, threshold: float) -> np.ndarray:
    """Strictly positive exceedances ``x - threshold`` for ``x > threshold``."""
    errors = np.asarray(errors, dtype=float)
    return errors[errors > threshold] - threshold


def gpd_log_likelihood(excesses: np.ndarray, gamma: float, sigma: float) -> float:
    """GPD log-likelihood of positive excesses under (gamma, sigma)."""
    x = np.asarray(excesses, dtype=float)
    if not sigma > 0:
        raise SupportViolation("sigma must be positive")
    m = x.size
    if abs(gamma) < GAMMA_ZERO_TOL:
        return float(-m * np.log(sigma) - x.sum() / sigma)
    z = 1.0 + gamma * x / sigma
    if np.any(z <= 0):
        raise SupportViolation(
            f"excess outside GPD support for gamma={gamma}, sigma={sigma}"
        )
    return float(-m * np.log(sigma) - (1.0 + 1.0 / gamma) * np.log(z).sum())


def _u_v(theta: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Chunks of about _CHUNK_ELEMENTS keep the two (rows, sample) work arrays
    # in cache; each row's means are the same whatever the chunking.
    theta = np.atleast_1d(theta)
    u = np.empty_like(theta)
    v = np.empty_like(theta)
    rows = max(1, min(theta.size, _CHUNK_ELEMENTS // max(x.size, 1)))
    s = np.empty((rows, x.size))
    r = np.empty_like(s)
    for lo in range(0, theta.size, rows):
        n = min(rows, theta.size - lo)
        np.multiply(theta[lo : lo + n, None], x, out=s[:n])
        s[:n] += 1.0
        u[lo : lo + n] = np.divide(1.0, s[:n], out=r[:n]).mean(axis=1)
        v[lo : lo + n] = 1.0 + np.log(s[:n], out=s[:n]).mean(axis=1)
    return u, v


def _w_at(theta: float, x: np.ndarray, s: np.ndarray, r: np.ndarray) -> float:
    # u * v - 1 at one theta, bit for bit as a one-row _u_v gives it: the same
    # multiply, add, divide and log, done in place in the length-m buffers s
    # and r, and the same pairwise sums divided by the count, as mean() does.
    # It costs about a third of a one-row _u_v call, whose time is overhead.
    np.multiply(x, theta, out=s)
    s += 1.0
    u = np.add.reduce(np.divide(1.0, s, out=r)) / x.size
    v = 1.0 + np.add.reduce(np.log(s, out=s)) / x.size
    return float(u * v - 1.0)


def _bisect(x: np.ndarray, lo: float, hi: float, w_lo: float) -> float:
    # w changes sign on [lo, hi]; plain bisection to an interval <= _BISECT_TOL,
    # or to adjacent floats where the tolerance is below theta's resolution.
    s = np.empty_like(x)
    r = np.empty_like(x)
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        w_mid = _w_at(mid, x, s, r)
        if (w_mid < 0) == (w_lo < 0):
            lo, w_lo = mid, w_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _powers(b: np.ndarray, n: int) -> np.ndarray:
    # Rows b^1 .. b^n of a vector b, by doubling: the rows already made times
    # the highest of them. Power k goes through k - 1 roundings, as in a
    # running product, in a handful of whole-array multiplies.
    p = np.empty((n, b.size))
    p[0] = b
    have = 1
    while have < n:
        step = min(have, n - have)
        np.multiply(p[:step], p[have - 1], out=p[have : have + step])
        have += step
    return p


def _moments(x: np.ndarray) -> np.ndarray:
    # mu[k] = mean((x / x_max)^k) for k = 0 .. _SERIES_TERMS + 1; the
    # normalisation keeps every power within [0, 1]. Blocks of samples keep
    # the powers at about _CHUNK_ELEMENTS, as in _u_v.
    z = x / x.max()
    cols = _CHUNK_ELEMENTS // (_SERIES_TERMS + 1)
    sums = np.zeros(_SERIES_TERMS + 1)
    for lo in range(0, z.size, cols):
        sums += _powers(z[lo : lo + cols], _SERIES_TERMS + 1).sum(axis=1)
    mu = np.ones(_SERIES_TERMS + 2)
    mu[1:] = sums / z.size
    return mu


def _series_w(y: np.ndarray, mu: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    # u*v - 1 at y = theta * x_max, |y| <= _SERIES_RADIUS, from the series of
    # the module docstring, and the half-width of an interval around it that
    # holds the exact value: truncation remainder plus rounding. u and v
    # exceed 0.6 and 0.08 there, so no absolute values are needed for them.
    k = np.arange(1.0, _SERIES_TERMS + 2)
    powers = _powers(-y, _SERIES_TERMS + 1)
    coef = np.stack([mu[1:-1], mu[1:-1] / k[:-1]])
    sums = coef @ powers[:-1]
    sizes = coef @ np.abs(powers[:-1])
    tail = np.abs(powers[-1]) * (mu[-1] / (1.0 - np.abs(y)))
    tails = np.stack([tail, tail / k[-1]])  # remainders of u and of v
    rounding = (m + 5 * _SERIES_TERMS + 8) * np.finfo(float).eps
    half_u, half_v = tails + rounding * (1.0 + sizes + tails)
    u = 1.0 + sums[0]
    v = 1.0 - sums[1]
    return u * v - 1.0, u * half_v + v * half_u + half_u * half_v


def _bracket_w(
    u: np.ndarray, v: np.ndarray, a: np.ndarray, b: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    # Bounds (low, high) on u*v - 1 at every row strictly between computed
    # positive rows a < b, from u falling and v rising in theta, each widened
    # by the rounding of the knots and of the rows between (fit_gpd): the
    # exact value lies inside, and the one _u_v computes to a few eps.
    upper = u[a] * v[b]
    slack = (5 * m + 40) * np.finfo(float).eps * upper
    return u[b] * v[a] - 1.0 - slack, upper - 1.0 + slack


def _knots(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The bracket search's knots over ascending grid rows: every
    # _KNOT_STRIDE-th row of each run of consecutive rows, and its last row;
    # and the brackets (a, b) between consecutive knots of a run with rows
    # between them.
    first = np.ones(rows.size, dtype=bool)
    first[1:] = np.diff(rows) != 1
    last = np.ones(rows.size, dtype=bool)
    last[:-1] = first[1:]
    place = np.arange(rows.size)
    place -= np.maximum.accumulate(np.where(first, place, 0))
    knot = (place % _KNOT_STRIDE == 0) | last
    knots = rows[knot]
    inside = ~last[knot][:-1] & (np.diff(knots) > 1)
    return knots, knots[:-1][inside], knots[1:][inside]


def _grid_w(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    # w = u*v - 1 on the grid, with the sign of a one-call _u_v at every row:
    # rows a certificate decides hold a value of that sign (the series value,
    # or a bracket bound), the rest come from _u_v.
    y = grid * x.max()
    near = np.flatnonzero(np.abs(y) <= _SERIES_RADIUS)
    w_near, half = _series_w(y[near], _moments(x), x.size)
    sure = np.abs(w_near) - half > _SIGN_MARGIN
    w = np.empty_like(grid)
    w[near[sure]] = w_near[sure]
    rest = np.ones(grid.size, dtype=bool)
    rest[near[sure]] = False
    rest = np.flatnonzero(rest)
    knots, a, b = _knots(rest[grid[rest] > 0.0])
    u = np.empty_like(grid)
    v = np.empty_like(grid)
    todo = np.concatenate([rest[grid[rest] < 0.0], knots])
    while todo.size:
        u[todo], v[todo] = _u_v(grid[todo], x)
        w[todo] = u[todo] * v[todo] - 1.0
        low, high = _bracket_w(u, v, a, b, x.size)
        decided = (low > _SIGN_MARGIN) | (high < -_SIGN_MARGIN)
        starts = a[decided] + 1
        sizes = b[decided] - starts
        rows = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        w[rows] = np.repeat(np.where(low > 0.0, low, high)[decided], sizes)
        a, b = a[~decided], b[~decided]
        todo = (a + b) // 2
        a, b = np.concatenate([a, todo]), np.concatenate([todo, b])
        keep = b - a > 1
        a, b = a[keep], b[keep]
    return w


def _roots_on_grid(x: np.ndarray, grid: np.ndarray, w: np.ndarray) -> list[float]:
    # w holds u*v - 1 at the grid's rows, with the signs _u_v gives them.
    roots = []
    sign_change = np.nonzero(np.signbit(w[:-1]) != np.signbit(w[1:]))[0]
    for i in sign_change:
        roots.append(_bisect(x, float(grid[i]), float(grid[i + 1]), float(w[i])))
    # A grid point may land on a root exactly.
    for i in np.nonzero(w == 0.0)[0]:
        roots.append(float(grid[i]))
    return roots


def fit_gpd(
    excesses: np.ndarray,
    threshold: float = 0.0,
    total_count: int | None = None,
) -> GpdFit:
    """Maximum-likelihood GPD fit to positive excesses via Grimshaw's reduction.

    Root search covers (-1/x_max + eps, 0) and (0, theta_max) on log-spaced
    grids of ``_GRID_SUBINTERVALS`` subintervals per side, leaving out the
    band |theta * mean(x)| <= b next to zero; theta = 0 enters as the
    exponential candidate. The best candidate by log-likelihood wins, with
    ties broken toward smaller ``|gamma|``.

    The band is where w = u*v - 1 cannot be told from its rounding error.
    With t = theta * mean(x) and the normalised moments
    m_k = mean(x^k) / mean(x)^k, expanding u and v in t gives

        w = (m2/2 - 1) t^2 + (3 m2/2 - 2 m3/3) t^3 + O(t^4).

    An exponential sample (m2 = 2, m3 = 6) cancels the t^2 term and leaves
    w = -t^3, and samples near it come arbitrarily close, so |t|^3 is the
    smallest size w can be relied on to have. The computed w goes through
    four roundings on values near 1, each of about eps = 2**-52: of
    s = 1 + theta*x, of 1/s or log(s), of the means, and of the product, so
    its noise stays near 4 eps or below (at most 2.1 eps measured at
    |t| <= 1e-3 over the golden-fit corpus of the tests). Hence
    b = (4 eps)^(1/3), about 9.6e-6: inside the band the sign of w is noise,
    which used to yield tens of spurious brackets per fit, each refined by
    bisection. A root inside the band would give |gamma| of about b at most
    (gamma = mean(log(1 + theta*x)) is close to t), which the exponential
    candidate (gamma = 0) stands for. Outside the band the grid points are those of
    the full grids, so the search density per decade is unchanged.

    Grid rows with |theta| * x_max <= 0.6 take their sign from a
    certificate when it can decide it; the positive rows it leaves take
    theirs from brackets (below); only the others are computed. With
    y = theta * x_max and mu_k = mean((x / x_max)^k) <= 1,

        u = sum_{k>=0} (-y)^k mu_k,    v = 1 - sum_{k>=1} (-y)^k mu_k / k.

    ``_series_w`` sums the terms up to k = K = 24 from moments computed once
    per fit, O(K) work per row. Since x / x_max <= 1, mu_k never grows with
    k, so the terms left out sum to at most |y|^(K+1) mu_(K+1) / (1 - |y|)
    for u, and that divided by K + 1 for v. Each computed term goes through
    at most m + 5K + 8 roundings: the m - 1 additions and one division of a
    moment's mean, 2k - 1 for the k-th power of the rounded x / x_max and
    as many for the rounded y, and the divisions, products and K - 1
    additions of the series, in whatever order they are done. So
    (m + 5K + 8) eps times the sum of the terms' magnitudes (plus 1 and the
    remainder) bounds the rounding for any summation order, BLAS's
    included; powers that underflow add less than 1e-300. With half-widths
    h_u and h_v, |u v - u^ v^| <= u^ h_v + v^ h_u + h_u h_v (u > 0.6 and
    v > 0.08 at |y| <= 0.6), an interval that holds the exact u*v - 1. A
    row is decided when the interval lies beyond +-1e-12
    (``_SIGN_MARGIN``), over 4,000 eps. The row ``_u_v`` computes is off the
    exact value by the few roundings derived above, about 4 eps; even at
    worst, with numpy's pairwise sums of at most about 60 roundings each,
    on u <= 2.5 and |v - 1| <= 0.92, it is off by a few hundred eps, under
    1e-13. So the decided sign is the one ``_u_v`` gives, and never 0.

    The rows with theta > 0 that the series leaves, nearly all of them
    beyond its radius, are searched with monotone brackets. There every
    s = 1 + theta*x exceeds 1, so u = mean(1/s) falls strictly in theta
    (u' = -mean(x/s^2)) and v = 1 + mean(log s) rises strictly
    (v' = mean(x/s)), and both are positive. Between computed rows
    theta_a < theta_b every row therefore has
    u(theta_b) v(theta_a) - 1 < w < u(theta_a) v(theta_b) - 1. Every term of
    both means is positive, so each computed mean is within c = (m + 8) eps
    of the exact one, relatively: the m - 1 additions in any order and the
    division, two roundings of s, one of 1/s, a log within a few ulp, and
    for v the 2 eps that s's rounding moves log(s) by, against v >= 1. A
    product of two means is then within 2.01c, and with the roundings of
    the product and of subtracting 1, a computed bound and the row ``_u_v``
    would compute are each within (2.02 m + 18) eps P of their exact values,
    P = u(theta_a) v(theta_b) being the largest product involved, plus a few
    eps absolute. ``_bracket_w`` widens the bounds by (5m + 40) eps P, more
    than the two together, and a bracket
    decides its rows when the widened bounds lie beyond +-1e-12
    (``_SIGN_MARGIN``, which covers the absolute roundings); the decided
    sign is the one ``_u_v`` gives, and never 0. Knots sit on every 32nd row
    of each run of such rows and on the run's last row; an undecided
    bracket is split at its middle row, and each round's rows go through one
    ``_u_v`` call. On m = 1000 samples this computes about 100-180 rows
    where computing every row the series leaves took about 450. The grid,
    the bisection midpoints and the candidates are unchanged, and so is
    every fit.

    A sample whose mean lies outside [2**-9, 2**8) is first scaled by a power
    of two to a mean in [0.5, 1), which changes no rounding of the search,
    and sigma is scaled back, because the bisection's tolerance is absolute
    in theta. Where that tolerance is below theta's resolution, the
    bisection stops at adjacent floats.
    """
    x = np.asarray(excesses, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("excesses must be finite")
    if x.size < MIN_EXCESSES:
        raise TooFewExcesses(f"need at least {MIN_EXCESSES} excesses, got {x.size}")
    if np.any(x <= 0):
        raise ValueError("excesses must be strictly positive")

    exponent = int(np.frexp(x.mean())[1])
    if abs(exponent) <= _SCALE_EXPONENT:
        exponent = 0
    gamma, sigma = _mle(np.ldexp(x, -exponent) if exponent else x)
    return GpdFit(
        gamma=gamma,
        sigma=float(np.ldexp(sigma, exponent)),
        threshold=threshold,
        total_count=int(total_count) if total_count is not None else x.size,
        peak_count=x.size,
    )


def _mle(x: np.ndarray) -> tuple[float, float]:
    # (gamma, sigma) of the best candidate for a validated sample (fit_gpd).
    x_max = float(x.max())
    x_mean = float(x.mean())

    eps = 1e-8 / x_max
    theta_min = -1.0 / x_max + eps
    theta_max = 1e4 / x_mean
    grid_start = 1e-8 / x_mean
    band = _ZERO_BAND / x_mean

    mags = np.geomspace(-theta_min, grid_start, _GRID_SUBINTERVALS + 1)
    negative = -mags[mags > band]  # ascending from theta_min
    positive = np.geomspace(grid_start, theta_max, _GRID_SUBINTERVALS + 1)
    positive = positive[positive > band]
    w = _grid_w(x, np.concatenate([negative, positive]))
    # The left endpoint enters as a candidate of its own: for short-tailed
    # samples (true gamma <= -1) the profile likelihood increases monotonically
    # toward the singular point -1/x_max and u*v = 1 has no interior root, so
    # the constrained maximum sits at the endpoint offset.
    roots = [theta_min]
    roots += _roots_on_grid(x, negative, w[: negative.size])
    roots += _roots_on_grid(x, positive, w[negative.size :])

    # theta = 0 solves u*v = 1 identically; it enters as the exponential candidate.
    candidates: list[tuple[float, float]] = [(0.0, x_mean)]
    for theta in roots:
        _, v = _u_v(np.array([theta]), x)
        gamma = float(v[0] - 1.0)
        sigma = gamma / theta
        if sigma > 0 and gamma >= GAMMA_FLOOR:
            candidates.append((gamma, sigma))

    best = candidates[0]
    best_ll = gpd_log_likelihood(x, *best)
    for gamma, sigma in candidates[1:]:
        try:
            ll = gpd_log_likelihood(x, gamma, sigma)
        except SupportViolation:
            continue
        if ll > best_ll + 1e-12 or (abs(ll - best_ll) <= 1e-12 and abs(gamma) < abs(best[0])):
            best, best_ll = (gamma, sigma), max(ll, best_ll)
    return best


def fit_tail(errors: np.ndarray, level: float = 0.98) -> GpdFit:
    """Full peaks-over-threshold fit: quantile threshold, excesses, GPD MLE."""
    errors = np.asarray(errors, dtype=float)
    t = initial_threshold(errors, level)
    return fit_gpd(excesses_over(errors, t), threshold=t, total_count=errors.size)


def pot_threshold(fit: GpdFit, risk: float) -> float:
    """Detection threshold with exceedance probability ``risk``.

    Inverts the fitted tail: the returned value t satisfies
    ``tail_probability(t, fit) == risk`` and always exceeds ``fit.threshold``
    under the precondition ``0 < risk < peak_count / total_count``.
    """
    ratio = fit.peak_count / fit.total_count
    if not 0.0 < risk < ratio:
        raise RiskTooHigh(
            f"risk must lie in (0, {ratio:.6g}) so the threshold exceeds the initial one"
        )
    log_a = np.log(risk * fit.total_count / fit.peak_count)
    if abs(fit.gamma) < GAMMA_ZERO_TOL:
        return float(fit.threshold - fit.sigma * log_a)
    return float(fit.threshold + fit.sigma / fit.gamma * np.expm1(-fit.gamma * log_a))


def tail_probability(x: float, fit: GpdFit) -> float:
    """P(X > x) under the fitted tail, for x at or beyond the initial threshold."""
    if x < fit.threshold:
        raise ValueError("tail probability is only defined at or beyond the threshold")
    scale = fit.peak_count / fit.total_count
    z = fit.gamma * (x - fit.threshold) / fit.sigma
    if abs(fit.gamma) < GAMMA_ZERO_TOL:
        return float(scale * np.exp(-(x - fit.threshold) / fit.sigma))
    if z <= -1.0:
        # At or beyond the finite endpoint of a short (gamma < 0) tail.
        return 0.0
    return float(scale * np.exp(-np.log1p(z) / fit.gamma))


def gpd_cdf(x: np.ndarray, gamma: float, sigma: float) -> np.ndarray:
    """CDF of the GPD at excesses ``x >= 0``."""
    x = np.asarray(x, dtype=float)
    if abs(gamma) < GAMMA_ZERO_TOL:
        return -np.expm1(-x / sigma)
    z = np.maximum(1.0 + gamma * x / sigma, 0.0)
    with np.errstate(divide="ignore"):
        return np.where(z > 0.0, -np.expm1(-np.log(z) / gamma), 1.0)


def sample_gpd(
    rng: np.random.Generator, gamma: float, sigma: float, size: int
) -> np.ndarray:
    """Inverse-CDF samples: x = (sigma/gamma) * ((1-u)^(-gamma) - 1)."""
    u = rng.uniform(size=size)
    if abs(gamma) < GAMMA_ZERO_TOL:
        return -sigma * np.log1p(-u)
    return sigma / gamma * np.expm1(-gamma * np.log1p(-u))


def _ad_statistic(excesses: np.ndarray, gamma: float, sigma: float) -> float:
    z = np.sort(gpd_cdf(np.sort(excesses), gamma, sigma))
    z = np.clip(z, _CDF_CLAMP, 1.0 - _CDF_CLAMP)
    m = z.size
    i = np.arange(1, m + 1)
    return float(-m - np.mean((2 * i - 1) * (np.log(z) + np.log(1.0 - z[::-1]))))


def anderson_darling(
    excesses: np.ndarray,
    fit: GpdFit,
    bootstrap_reps: int = 500,
    seed: int | np.random.Generator | None = 0,
) -> AdResult:
    """Anderson-Darling compliance test of excesses against a fitted GPD.

    Because the GPD parameters are estimated from the same sample, the
    p-value comes from a parametric bootstrap: draw from the fitted GPD,
    refit, recompute the statistic, and report the fraction of bootstrap
    statistics at least as large as the observed one. Each rep is drawn,
    refitted and counted on the calling thread, in rep order.
    """
    x = np.asarray(excesses, dtype=float)
    if x.size < MIN_EXCESSES:
        raise TooFewExcesses(
            f"need at least {MIN_EXCESSES} excesses for the compliance test, got {x.size}"
        )
    if bootstrap_reps < 1:
        raise ValueError("bootstrap_reps must be positive")
    observed = _ad_statistic(x, fit.gamma, fit.sigma)
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(bootstrap_reps):
        resample = sample_gpd(rng, fit.gamma, fit.sigma, x.size)
        refit = fit_gpd(resample)
        exceed += _ad_statistic(resample, refit.gamma, refit.sigma) >= observed
    return AdResult(
        statistic=observed,
        p_value=exceed / bootstrap_reps,
        bootstrap_reps=bootstrap_reps,
    )
