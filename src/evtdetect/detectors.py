"""Detection rules over forecaster prediction errors.

Three rules share the same inputs (absolute one-step-ahead prediction errors)
and differ in how the flagging threshold is derived:

* Gaussian: fit mean/variance to training errors by MLE, score points by
  Gaussian log probability density, flag scores below a threshold calibrated
  on validation data.
* Tukey fences: flag errors above Q3 + 3 * (Q3 - Q1) of the pooled errors.
* Extreme-value: flag errors at or above the peaks-over-threshold detection
  threshold for a risk level chosen on an initialization stream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evt
from .checks import EvtdetectError
from .data import WindowedDataset
from .evt import DegenerateErrors
from .network import Network, predict


class NoAnomaliesInValidation(EvtdetectError):
    """Threshold calibration needs at least one labeled anomaly."""


class RuleNotCalibrated(EvtdetectError):
    """The rule is missing its calibrated false-positive regulator."""


@dataclass(frozen=True)
class GaussianFit:
    """MLE mean/variance of errors plus the calibrated log-density threshold."""

    mu: float
    sigma2: float
    logpd_threshold: float | None = None

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise DegenerateErrors("sigma2 must be positive")


@dataclass(frozen=True)
class TukeyFit:
    """Quartiles and the fence threshold Q3 + 3 * (Q3 - Q1)."""

    q1: float
    q3: float
    fence: float

    def __post_init__(self):
        if self.q3 < self.q1:
            raise ValueError("q3 must be >= q1")
        if abs(self.fence - (self.q3 + 3.0 * (self.q3 - self.q1))) > 1e-9:
            raise ValueError("fence must equal q3 + 3 * (q3 - q1)")


@dataclass(frozen=True)
class EvtRule:
    """Fitted tail, risk level, and the induced detection threshold."""

    fit: evt.GpdFit
    risk: float
    threshold: float


@dataclass(frozen=True)
class DetectionResult:
    """Per-window anomaly flags and rule-specific scores."""

    scores: np.ndarray
    flags: np.ndarray

    def __post_init__(self):
        if len(self.scores) != len(self.flags):
            raise ValueError("scores and flags must align")

    def __len__(self) -> int:
        return len(self.flags)


def first_horizon_errors(preds: np.ndarray, data: WindowedDataset) -> np.ndarray:
    """Absolute one-step-ahead errors |prediction - target|, one per window
    of ``data``, from predictions (n, look_ahead) already made for it.

    For look-ahead > 1 only the first horizon component is used: it is the
    forecast made from the most recent window for that timestamp.
    """
    return np.abs(preds[:, 0] - data.targets[:, 0])


def prediction_errors(network: Network, data: WindowedDataset) -> np.ndarray:
    """:func:`first_horizon_errors` of the network's predictions for ``data``.
    Inference runs with dropout disabled and is deterministic."""
    return first_horizon_errors(predict(network, data.inputs), data)


def fit_gaussian(train_errors: np.ndarray) -> GaussianFit:
    """MLE Gaussian fit: sample mean and biased (divide by N) variance."""
    if len(train_errors) < 2:
        raise DegenerateErrors("need at least two errors to fit")
    mu = float(train_errors.mean())
    sigma2 = float(np.mean((train_errors - mu) ** 2))
    if sigma2 == 0.0:
        raise DegenerateErrors("all errors are equal; variance is zero")
    return GaussianFit(mu=mu, sigma2=sigma2)


def gaussian_logpd(e, fit: GaussianFit) -> np.ndarray:
    """Gaussian log probability density of errors; low values mean anomalous."""
    e = np.asarray(e, dtype=float)
    return -0.5 * np.log(2.0 * np.pi * fit.sigma2) - (e - fit.mu) ** 2 / (2.0 * fit.sigma2)


def calibrate_gaussian_threshold(val_scores, val_labels) -> float:
    """Pick the log-density threshold maximizing F1 on validation scores.

    Candidates are midpoints between adjacent sorted unique scores; a point is
    flagged when its score falls below the threshold. Ties in F1 break toward
    the lower threshold (fewer false positives).
    """
    scores = np.asarray(val_scores, dtype=float)
    labels = np.asarray(val_labels, dtype=bool)
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must align")
    if not labels.any():
        raise NoAnomaliesInValidation("validation stream has no labeled anomalies")
    if labels.all():
        raise NoAnomaliesInValidation("validation stream has no normal points")

    unique, rank = np.unique(scores, return_inverse=True)
    candidates = (unique[:-1] + unique[1:]) / 2.0
    if candidates.size == 0:
        raise DegenerateErrors("all validation scores are identical")

    # Candidate j flags every score up to unique[j]; 2tp + fp + fn is then
    # the flagged count plus the anomaly count.
    flagged = np.cumsum(np.bincount(rank, minlength=unique.size))[:-1]
    tp = np.cumsum(np.bincount(rank[labels], minlength=unique.size))[:-1]
    f1 = np.where(tp > 0, 2.0 * tp / (flagged + labels.sum()), 0.0)
    return float(candidates[np.argmax(f1)])  # the first maximum: ties go to the lowest threshold


def tukey_threshold(all_errors: np.ndarray) -> TukeyFit:
    """Quartile fence over the pooled train, validation, and test errors."""
    if len(all_errors) == 0:
        raise ValueError("cannot compute quartiles of an empty sample")
    q1 = float(np.quantile(all_errors, 0.25))
    q3 = float(np.quantile(all_errors, 0.75))
    return TukeyFit(q1=q1, q3=q3, fence=q3 + 3.0 * (q3 - q1))


DEFAULT_RISK_GRID = (1e-3, 1e-4, 1e-5)


def calibrate_risk(
    init_errors: np.ndarray,
    init_labels: np.ndarray,
    grid: tuple[float, ...] = DEFAULT_RISK_GRID,
    level: float = 0.98,
) -> EvtRule:
    """Choose the extreme-value risk level on the initialization stream.

    The stream (training plus validation errors) supplies both the tail fit
    and the labels. Among grid values whose threshold catches every labeled
    anomaly, the smallest wins (fewest false positives); if none reaches full
    recall, the value with the best F1 wins.
    """
    labels = np.asarray(init_labels, dtype=bool)
    if labels.shape != init_errors.shape:
        raise ValueError("labels must align with errors")
    fit = evt.fit_tail(init_errors, level=level)

    # no early return: a grid risk the tail cannot reach must still raise RiskTooHigh
    full_recall = best = None
    best_f1 = -1.0
    for risk in sorted(grid):
        rule = EvtRule(fit=fit, risk=risk, threshold=evt.pot_threshold(fit, risk))
        flagged = threshold_decisions(init_errors, rule.threshold).flags
        tp = int(np.sum(flagged & labels))
        fp = int(np.sum(flagged & ~labels))
        fn = int(np.sum(~flagged & labels))
        f1 = 2.0 * tp / (2.0 * tp + fp + fn) if tp else 0.0
        if fn == 0 and full_recall is None:
            full_recall = rule
        if f1 > best_f1:  # ties keep the smaller risk
            best, best_f1 = rule, f1
    return best if full_recall is None else full_recall


def detect(errors: np.ndarray, rule) -> DetectionResult:
    """Apply a calibrated rule to errors, yielding flags and scores.

    Gaussian rules flag log densities below the calibrated threshold, Tukey
    rules flag errors strictly above the fence, and extreme-value rules flag
    errors at or above their threshold (:func:`threshold_decisions`). Scores
    are the log densities, the raw errors, and the threshold-relative decision
    scores respectively.
    """
    if isinstance(rule, GaussianFit):
        if rule.logpd_threshold is None:
            raise RuleNotCalibrated("gaussian rule has no calibrated threshold")
        scores = gaussian_logpd(errors, rule)
        flags = scores < rule.logpd_threshold
    elif isinstance(rule, TukeyFit):
        scores = errors.copy()
        flags = scores > rule.fence
    elif isinstance(rule, EvtRule):
        return threshold_decisions(errors, rule.threshold)
    else:
        raise TypeError(f"unknown rule type {type(rule).__name__}")
    return DetectionResult(scores=scores, flags=flags)


def threshold_decisions(errors: np.ndarray, threshold: float) -> DetectionResult:
    """Decision scores ``s = error - threshold``; points with ``s >= 0`` are
    flagged. This is the tie rule of the evt and evt-lstm rules."""
    scores = errors - threshold
    return DetectionResult(scores=scores, flags=scores >= 0.0)
