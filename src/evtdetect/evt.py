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
``_u_v``. For theta > 0, u is convex and falling in theta and v concave and
rising, so between computed rows u lies under their chord and above the
secants of the computed rows beside them, and v the other way round; a
positive row the series leaves takes its sign from these bounds where they
decide it, and only the rows left undecided are computed, a few per round.
The signs, and so every bracket and fit, are those of computing every row
(derivations in :func:`fit_gpd`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import EvtdetectError

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
# The convexity search on the positive rows the series leaves (fit_gpd) puts
# a knot on every _KNOT_STRIDE-th of those rows and on the last; each later
# round computes the undecided rows among every 8th, then every 2nd, then all
# of them: at most three more rounds.
_KNOT_STRIDE = 32
_EPS = np.finfo(float).eps
# A fit's scratch arrays hold at most _CHUNK_ELEMENTS floats, 125 KiB, below
# glibc's default 128 KiB mmap threshold: they come from the heap, so a fit of
# up to that many excesses maps no memory, whatever the process freed before.
_CHUNK_ELEMENTS = 16000
_BISECT_TOL = 1e-12
# The bisection's tolerance is absolute in theta, whose scale is 1 / mean(x):
# in units of theta * mean(x) it is at most 2.6e-10 while the mean is below
# 2**8. A sample whose mean lies outside [2**-9, 2**8), a binary exponent
# beyond +-_SCALE_EXPONENT, is scaled by a power of two to a mean in [0.5, 1)
# before the search, which scales every product and quotient of the search
# exactly. Samples inside are searched as they are.
_SCALE_EXPONENT = 8
_CDF_CLAMP = 1e-12


class DegenerateErrors(EvtdetectError):
    """Errors no rule can be fitted to: none, no spread, or not finite."""


class TooFewExcesses(EvtdetectError):
    """Not enough excesses above the initial threshold to fit a GPD."""


class SupportViolation(EvtdetectError):
    """An observation lies outside the support of the candidate GPD."""


class RiskTooHigh(EvtdetectError):
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
    """Empirical quantile by linear interpolation between order statistics.
    Raises DegenerateErrors for a sample that is empty or not finite, as a
    diverged network's errors are, so that it does not read as a thin tail."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise DegenerateErrors("cannot take a quantile of an empty sample")
    if not np.all(np.isfinite(errors)):
        raise DegenerateErrors("errors must be finite")
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
    # Chunks of at most _CHUNK_ELEMENTS keep the two (rows, sample) work
    # arrays in cache; each row's means are the same whatever the chunking.
    theta = np.atleast_1d(theta)
    u = np.empty_like(theta)
    v = np.empty_like(theta)
    rows = max(1, min(theta.size, _CHUNK_ELEMENTS // max(x.size, 1)))
    s = np.empty((rows, x.size))
    r = np.empty_like(s)
    for lo in range(0, theta.size, rows):
        n = min(rows, theta.size - lo)
        # x, then times theta: theta * x without the buffers of an outer product
        s[:n] = x
        s[:n] *= theta[lo : lo + n, None]
        s[:n] += 1.0
        u[lo : lo + n] = np.divide(1.0, s[:n], out=r[:n]).mean(axis=1)
        v[lo : lo + n] = 1.0 + np.log(s[:n], out=s[:n]).mean(axis=1)
    return u, v


def _u_v_at(theta: float, x: np.ndarray, s: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    # u and v at one theta, bit for bit as a one-row _u_v gives them: the same
    # multiply, add, divide and log, done in place in the length-m buffers s
    # and r, and the same pairwise sums divided by the count, as mean() does.
    # It costs about a third of a one-row _u_v call, whose time is overhead.
    np.multiply(x, theta, out=s)
    s += 1.0
    u = np.add.reduce(np.divide(1.0, s, out=r)) / x.size
    v = 1.0 + np.add.reduce(np.log(s, out=s)) / x.size
    return u, v


def _w_at(theta: float, x: np.ndarray, s: np.ndarray, r: np.ndarray) -> float:
    u, v = _u_v_at(theta, x, s, r)
    return float(u * v - 1.0)


def _geomspace(lo: float, hi: float, num: int) -> np.ndarray:
    # np.geomspace(lo, hi, num) for 0 < lo, hi and num > 1, bit for bit: its
    # arithmetic (log10 of the bounds, numpy's linspace between them, 10**y
    # and the bounds put back at the ends) without its dtype and sign
    # handling, which costs more than the arithmetic at num = 1001.
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    y = np.arange(num, dtype=float)
    y *= (log_hi - log_lo) / (num - 1)
    y += log_lo
    out = np.power(10.0, y)
    out[0], out[-1] = lo, hi
    return out


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
    # Blocks of rows keep the powers to at most _CHUNK_ELEMENTS, as in _u_v.
    k = np.arange(1.0, _SERIES_TERMS + 2)
    coef = np.stack([mu[1:-1], mu[1:-1] / k[:-1]])
    sums = np.empty((2, y.size))
    sizes = np.empty((2, y.size))
    tail = np.empty_like(y)
    rows = _CHUNK_ELEMENTS // (_SERIES_TERMS + 1)
    for lo in range(0, y.size, rows):
        block = slice(lo, lo + rows)
        powers = _powers(-y[block], _SERIES_TERMS + 1)
        sums[:, block] = coef @ powers[:-1]
        powers = np.abs(powers, out=powers)
        sizes[:, block] = coef @ powers[:-1]
        tail[block] = powers[-1]
    tail *= mu[-1] / (1.0 - np.abs(y))
    tails = np.stack([tail, tail / k[-1]])  # remainders of u and of v
    rounding = (m + 5 * _SERIES_TERMS + 8) * _EPS
    half_u, half_v = tails + rounding * (1.0 + sizes + tails)
    u = 1.0 + sums[0]
    v = 1.0 - sums[1]
    return u * v - 1.0, u * half_v + v * half_u + half_u * half_v


def _convex_w(
    theta: np.ndarray, f: np.ndarray, knots: np.ndarray, rows: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    # u*v - 1 at positive rows strictly between computed rows (knots,
    # ascending), as the middle and half-width of an interval that holds the
    # exact value and the one _u_v computes (fit_gpd). f = (u, -v) is convex
    # and falling, so on each bracket it lies under its own chord line and
    # above those of the brackets beside it. The first bracket has no left
    # neighbour and takes its right one twice; the last one's right line is
    # f's value at the last knot.
    t = theta[knots]
    fk = f[:, knots]
    gap = t[1:] - t[:-1]
    slope = (fk[:, 1:] - fk[:, :-1]) / gap
    # lines[i + 1]: (intercept, slope) of (u, -v) on bracket i's chord, so
    # bracket i reads lines i to i + 2.
    lines = np.empty((gap.size + 2, 2, 2))
    lines[1:-1, 0] = (fk[:, :-1] - slope * t[:-1]).T
    lines[1:-1, 1] = slope.T
    lines[-1, 0] = fk[:, -1]
    lines[-1, 1] = 0.0
    lines[0] = lines[2]
    # kappa, how far a line is carried past its knots in units of their
    # distance, is at most a bracket's width over its neighbour's.
    reach = np.zeros(gap.size + 2)
    np.divide(1.0, gap, out=reach[1:-1])
    kappa = gap * np.maximum(reach[:-2], reach[2:])
    slack = (1.0 + 2.0 * kappa) * (5 * (m + 8) * _EPS * -fk[1, -1])
    j = np.searchsorted(knots, rows) - 1
    near = lines[j[:, None] + np.arange(3)]
    at = near[:, :, 0] + near[:, :, 1] * theta[rows, None, None]
    low = np.maximum(at[:, 0], at[:, 2])
    neg_uv = low * at[:, 1, ::-1]  # -u_lo v_lo, -u_hi v_hi
    mid = (neg_uv[:, 0] + neg_uv[:, 1]) * -0.5 - 1.0
    half = (neg_uv[:, 0] - neg_uv[:, 1]) * 0.5 + slack[j]
    return mid, half


def _grid_w(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    # w = u*v - 1 on the grid, with the sign of a one-call _u_v at every row:
    # rows a certificate decides hold a value of that sign (the series value,
    # or the middle of a convexity interval), the rest come from _u_v.
    y = grid * x.max()
    near = np.flatnonzero(np.abs(y) <= _SERIES_RADIUS)
    w_near, half = _series_w(y[near], _moments(x), x.size)
    sure = np.abs(w_near) - half > _SIGN_MARGIN
    w = np.empty_like(grid)
    w[near[sure]] = w_near[sure]
    rest = np.ones(grid.size, dtype=bool)
    rest[near[sure]] = False
    rest = np.flatnonzero(rest)
    cut = np.searchsorted(grid[rest], 0.0)
    negative, positive = rest[:cut], rest[cut:]
    theta = grid[positive]
    todo = np.append(np.arange(0, theta.size - 1, _KNOT_STRIDE), theta.size - 1)
    u, v = _u_v(np.concatenate([grid[negative], theta[todo]]), x)
    w[negative] = u[:cut] * v[:cut] - 1.0
    u, v = u[cut:], v[cut:]
    f = np.empty((2, theta.size))
    known = np.zeros(theta.size, dtype=bool)
    open_ = np.arange(theta.size)
    stride = _KNOT_STRIDE
    while True:
        f[0, todo] = u
        f[1, todo] = -v
        w[positive[todo]] = u * v - 1.0
        known[todo] = True
        open_ = open_[~known[open_]]
        if open_.size:
            mid, half = _convex_w(theta, f, np.flatnonzero(known), open_, x.size)
            w[positive[open_]] = mid
            open_ = open_[np.abs(mid) - half <= _SIGN_MARGIN]
        if not open_.size:
            return w
        stride = max(stride // 4, 1)
        todo = open_[open_ % stride == 0]
        u, v = _u_v(theta[todo], x)


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
    theirs from convexity bounds (below); only the others are computed. With
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
    beyond its radius, are decided by convexity. There every
    s = 1 + theta*x exceeds 1, so u = mean(1/s) is convex and falling
    (u'' = 2 mean(x^2/s^3)) and v = 1 + mean(log s) concave and rising
    (v'' = -mean(x^2/s^2)), with 0 < u < 1 <= v. Between computed rows
    theta_a < theta_b, u lies under their chord and above the secants
    through the computed rows beside them extended into (theta_a, theta_b),
    or in the last bracket above its value at theta_b; v lies the other way
    round. Neither bound is looser than the values at theta_a and theta_b,
    and their products bound u*v - 1. Every term of both means is
    positive, so each computed mean is within c = (m + 8) eps of the exact
    one, relatively: the m - 1 additions in any order and the division, two
    roundings of s, one of 1/s, a log within a few ulp, and for v the 2 eps
    that s's rounding moves log(s) by, against v >= 1. A line through two
    computed values, carried past them by kappa times their distance, is
    then within (1 + 2 kappa) c of the exact line, times v_max (the v of
    the last computed row) for v; the row ``_u_v`` would compute is within
    about 2c u v of the exact one. ``_convex_w`` widens the bounds by
    5 c (1 + 2 kappa) v_max, more than these together, with kappa at most a
    bracket's width over its neighbour's, and a row is decided when the
    widened bounds lie beyond +-1e-12 (``_SIGN_MARGIN``, which covers the
    roundings of forming the lines); the decided sign is the one ``_u_v``
    gives, and never 0. Knots sit on every 32nd of these rows and on the
    last; each later round computes, in one ``_u_v`` call, the undecided
    rows on every 8th, then 2nd, then every row. On m = 1000 samples a fit
    computes 54-75 rows, some 35 of them next to -1/x_max, where
    computing every row the series leaves took about 480. The grid, the
    bisection midpoints and the candidates are unchanged, and so is every
    fit.

    A sample whose mean lies outside [2**-9, 2**8) is first scaled by a power
    of two to a mean in [0.5, 1), which changes no rounding of the search,
    and sigma is scaled back, because the bisection's tolerance is absolute
    in theta. Where that tolerance is below theta's resolution, the
    bisection stops at adjacent floats. A sample whose mean overflows is
    scaled to a maximum in [0.5, 1) instead.

    Raises DegenerateErrors for excesses that are not finite or whose fitted
    sigma overflows, TooFewExcesses for fewer than ``MIN_EXCESSES``, and
    ValueError for one not positive.
    """
    x = np.asarray(excesses, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DegenerateErrors("excesses must be finite")
    if x.size < MIN_EXCESSES:
        raise TooFewExcesses(f"need at least {MIN_EXCESSES} excesses, got {x.size}")
    if np.any(x <= 0):
        raise ValueError("excesses must be strictly positive")

    mean = x.mean()
    exponent = int(np.frexp(mean if math.isfinite(mean) else x.max())[1])
    if abs(exponent) <= _SCALE_EXPONENT:
        exponent = 0
    gamma, sigma = _mle(np.ldexp(x, -exponent) if exponent else x)
    sigma = float(np.ldexp(sigma, exponent))
    if not math.isfinite(sigma):
        raise DegenerateErrors(f"the fitted sigma overflows: excesses reach {float(x.max())!r}")
    return GpdFit(
        gamma=gamma,
        sigma=sigma,
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

    mags = _geomspace(-theta_min, grid_start, _GRID_SUBINTERVALS + 1)
    negative = -mags[mags > band]  # ascending from theta_min
    positive = _geomspace(grid_start, theta_max, _GRID_SUBINTERVALS + 1)
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
    s, r = np.empty_like(x), np.empty_like(x)
    for theta in roots:
        gamma = float(_u_v_at(theta, x, s, r)[1] - 1.0)
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
    under the precondition ``0 < risk < peak_count / total_count``. Raises
    DegenerateErrors when that threshold overflows.
    """
    ratio = fit.peak_count / fit.total_count
    if not 0.0 < risk < ratio:
        raise RiskTooHigh(
            f"risk must lie in (0, {ratio:.6g}) so the threshold exceeds the initial one"
        )
    log_a = np.log(risk * fit.total_count / fit.peak_count)
    if abs(fit.gamma) < GAMMA_ZERO_TOL:
        threshold = float(fit.threshold - fit.sigma * log_a)
    else:
        threshold = float(fit.threshold + fit.sigma / fit.gamma * np.expm1(-fit.gamma * log_a))
    if not math.isfinite(threshold):
        raise DegenerateErrors(f"the detection threshold at risk {risk!r} overflows")
    return threshold


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
