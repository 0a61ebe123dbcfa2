"""Confusion counting, precision/recall/F1, and the rule-comparison benchmark."""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import detectors, evt
from .data import LabeledSeries, SplitSpec, finite_number, prepare
from .detectors import (
    DEFAULT_RISK_GRID,
    calibrate_gaussian_threshold,
    calibrate_risk,
    detect,
    fit_gaussian,
    gaussian_logpd,
    prediction_errors,
    tukey_threshold,
)
from .training import (
    NoThresholdEstimate,
    TrainConfig,
    decision_scores,
    require_threshold_estimate,
    train_evt_lstm,
    train_forecaster,
    whole,
)


class LabelsRequired(ValueError):
    """The operation needs a labeled series."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    """Precision, recall, and F1 with explicit undefined-ratio flags.

    An undefined ratio (zero denominator) is reported as 0.0 with its
    ``*_defined`` flag false, so reports never divide by zero.
    """

    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    precision_defined: bool = True
    recall_defined: bool = True
    f1_defined: bool = True


def confusion(flags, labels) -> ConfusionCounts:
    """Pointwise exact-index confusion counts."""
    flags = np.asarray(flags, dtype=bool)
    labels = np.asarray(labels, dtype=bool)
    if flags.shape != labels.shape:
        raise ValueError(f"length mismatch: {flags.shape} vs {labels.shape}")
    return ConfusionCounts(
        tp=int(np.sum(flags & labels)),
        fp=int(np.sum(flags & ~labels)),
        fn=int(np.sum(~flags & labels)),
        tn=int(np.sum(~flags & ~labels)),
    )


def compute_metrics(counts: ConfusionCounts) -> Metrics:
    """Precision, recall, and their harmonic mean from confusion counts."""
    p_def = counts.tp + counts.fp > 0
    r_def = counts.tp + counts.fn > 0
    precision = counts.tp / (counts.tp + counts.fp) if p_def else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if r_def else 0.0
    f_def = precision + recall > 0
    f1 = 2.0 * precision * recall / (precision + recall) if f_def else 0.0
    return Metrics(
        tp=counts.tp, fp=counts.fp, fn=counts.fn, tn=counts.tn,
        precision=precision, recall=recall, f1=f1,
        precision_defined=p_def, recall_defined=r_def, f1_defined=f_def,
    )


@dataclass(frozen=True)
class BenchmarkConfig:
    """Shared pipeline settings for the rule comparison."""

    split: SplitSpec = SplitSpec(0.8, 0.1, 0.1)
    look_back: int = 20
    look_ahead: int = 1
    train: TrainConfig = TrainConfig()
    risk_grid: tuple[float, ...] = DEFAULT_RISK_GRID

    def __post_init__(self):
        for name in ("look_back", "look_ahead"):
            value = whole(name, getattr(self, name))
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        grid = self.risk_grid
        if not (isinstance(grid, Sequence) and grid and all(
                finite_number(r) and 0 < r < 1 for r in grid)):
            raise ValueError(f"risk_grid must be a non-empty list of numbers in (0, 1), got {grid!r}")
        object.__setattr__(self, "risk_grid", tuple(grid))


def calibrate(rule: str, errs, labels, risk_grid: tuple[float, ...], level: float):
    """Fit one error rule from the train, validation and test errors ``errs``
    and detect with it on the test errors ``errs[2]``.

    ``labels`` holds each split's labels aligned with its errors, or is None
    for an unlabeled series. Returns the :class:`DetectionResult` on the test
    errors and the fitted rule's parameters as a JSON-ready dict:

    * gaussian: fit on the training errors, log-density threshold calibrated
      on the validation scores;
    * tukey: fence from the pooled train, validation and test errors;
    * evt: risk chosen on the initialization stream (training plus validation
      errors and their labels), ``level`` being the initial quantile.

    Raises LabelsRequired when gaussian or evt has no labels, and the rule's
    typed calibration errors when the data cannot support it.
    """
    if rule == "gaussian":
        if labels is None:
            raise LabelsRequired("gaussian calibration needs a labeled validation split")
        gfit = fit_gaussian(errs[0])
        threshold = calibrate_gaussian_threshold(gaussian_logpd(errs[1], gfit), labels[1])
        fitted = replace(gfit, logpd_threshold=threshold)
        params = asdict(fitted)
    elif rule == "tukey":
        fitted = tukey_threshold(np.concatenate(errs))
        params = asdict(fitted)
    elif rule == "evt":
        if labels is None:
            raise LabelsRequired("evt risk calibration needs a labeled series")
        fitted = calibrate_risk(
            np.concatenate(errs[:2]), np.concatenate(labels[:2]), grid=risk_grid, level=level
        )
        params = {
            "risk": fitted.risk,
            "threshold": fitted.threshold,
            "gamma": fitted.fit.gamma,
            "sigma": fitted.fit.sigma,
            "initial_threshold": fitted.fit.threshold,
        }
    else:
        raise ValueError(f"unknown error rule {rule!r}")
    return detect(errs[2], fitted), params


# The typed failures by which each rule's calibration rejects the data; the
# benchmark reports them as error rows, and anything else is a bug and raises.
_CALIBRATION_FAILURES = {
    "gaussian": (detectors.NoAnomaliesInValidation, detectors.DegenerateErrors),
    "tukey": (),
    "evt": (evt.TooFewExcesses, evt.RiskTooHigh),
}


def _metrics_row(det, labels) -> dict:
    metrics = compute_metrics(confusion(det.flags, labels))
    return {"metrics": asdict(metrics), "flagged": int(np.sum(det.flags))}


def benchmark(series: LabeledSeries, config: BenchmarkConfig) -> dict:
    """Run every rule end to end on one labeled series, from a single split
    and seed, and report one metrics row per rule.

    The error rules share one forecaster and are calibrated by
    :func:`calibrate`. Rules whose calibration preconditions fail on the given
    data (for example a validation split without labeled anomalies for the
    Gaussian rule) are reported with an ``error`` entry instead of metrics.
    The end-to-end model starts from the forecaster's weights and reuses the
    risk chosen for the evt rule, so the hybrid rules and the end-to-end model
    share all settings; when none of its threshold re-estimates succeeded, its
    row is an ``error`` entry too. The report keeps no training history, so
    the forecaster is trained without its per-epoch training-set loss.
    """
    if series.labels is None:
        raise LabelsRequired("benchmark needs a labeled series")

    windows, labels, _ = prepare(series, config.split, config.look_back, config.look_ahead)
    forecaster = train_forecaster(config.train, windows[0], windows[1], record_train_loss=False)
    errs = tuple(prediction_errors(forecaster.network, w) for w in windows)

    report: dict = {
        "look_back": config.look_back,
        "look_ahead": config.look_ahead,
        "seed": config.train.seed,
        "scored_points": int(len(errs[2])),
        "rules": {},
    }
    for name, failures in _CALIBRATION_FAILURES.items():
        try:
            det, params = calibrate(name, errs, labels, config.risk_grid, config.train.init_quantile)
        except failures as exc:
            report["rules"][name] = {"error": str(exc)}
            continue
        report["rules"][name] = {"params": params, **_metrics_row(det, labels[2])}

    evt_risk = report["rules"]["evt"].get("params", {}).get("risk", config.train.risk)
    # Trains the forecaster's own network in place: nothing reads it after its errors.
    end_to_end = train_evt_lstm(
        replace(config.train, risk=evt_risk), windows[0], windows[1], network=forecaster.network
    )
    try:
        require_threshold_estimate(end_to_end, config.train, len(windows[0]))
    except NoThresholdEstimate as exc:
        report["rules"]["evt_lstm"] = {"error": str(exc)}
        return report
    report["rules"]["evt_lstm"] = {
        "params": {"risk": evt_risk, "threshold": end_to_end.spec.threshold},
        **_metrics_row(decision_scores(end_to_end, windows[2]), labels[2]),
    }
    return report


def format_report(report: dict) -> str:
    """Human-readable table of a benchmark report."""
    lines = [
        f"{'rule':<10} {'precision':>9} {'recall':>7} {'f1':>6} {'tp':>4} {'fp':>4} {'fn':>4} {'flagged':>8}"
    ]
    for name, row in report["rules"].items():
        if "error" in row:
            lines.append(f"{name:<10} calibration failed: {row['error']}")
            continue
        m = row["metrics"]
        lines.append(
            f"{name:<10} {m['precision']:>9.3f} {m['recall']:>7.3f} {m['f1']:>6.3f} "
            f"{m['tp']:>4d} {m['fp']:>4d} {m['fn']:>4d} {row['flagged']:>8d}"
        )
    return "\n".join(lines)
