"""Training objectives: plain MSE, hypersphere (SVDD), and threshold-distance.

The threshold-distance objective drives every absolute prediction error toward
a detection threshold: mean((|pred - target| - threshold)^2) plus a Frobenius
weight-decay term over weight matrices (biases excluded). With threshold 0 and
no decay it reduces exactly to the MSE of the batch.

The hypersphere objective penalizes mean squared distance of predictions to a
fixed center, plus the same decay term; it is kept as a reference objective
that degrades into magnitude shrinking on forecasting data.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

KINDS = ("mse", "svdd", "evt")


@dataclass(frozen=True)
class LossSpec:
    """Objective selector with its kind-specific fields.

    ``center`` must be set exactly for the svdd kind. ``threshold`` is
    required for the evt kind, optional for svdd (its closing detection
    threshold) and absent for mse. ``weight_decay`` is the lambda of the
    decay term and applies to svdd and evt.
    """

    kind: str
    weight_decay: float = 0.0
    center: np.ndarray | None = None
    threshold: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if (self.center is not None) != (self.kind == "svdd"):
            raise ValueError("center is required exactly for the svdd kind")
        if self.kind == "evt" and self.threshold is None:
            raise ValueError("threshold is required for the evt kind")
        if self.kind == "mse" and self.threshold is not None:
            raise ValueError("the mse kind takes no threshold")
        if self.center is not None:
            object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    def with_threshold(self, threshold: float) -> "LossSpec":
        return replace(self, threshold=float(threshold))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "weight_decay": self.weight_decay,
            "center": None if self.center is None else list(map(float, self.center)),
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LossSpec":
        return cls(
            kind=d["kind"],
            weight_decay=d.get("weight_decay", 0.0),
            center=None if d.get("center") is None else np.asarray(d["center"]),
            threshold=d.get("threshold"),
        )


def decay_term(weights, weight_decay: float) -> float:
    """(lambda/2) * sum of squared Frobenius norms over weight matrices."""
    if weight_decay == 0.0:
        return 0.0
    return 0.5 * weight_decay * sum(float(np.sum(w * w)) for w in weights)


def mse_loss(preds: np.ndarray, targets: np.ndarray) -> float:
    """Mean of squared component differences."""
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.shape != targets.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {targets.shape}")
    return float(np.mean((preds - targets) ** 2))


def evt_loss(preds, targets, spec: LossSpec, weights=()) -> float:
    """mean((|pred - target| - threshold)^2) plus the weight-decay term."""
    if spec.kind != "evt":
        raise ValueError("spec.kind must be 'evt'")
    preds = np.asarray(preds, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if preds.shape != targets.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {targets.shape}")
    err = np.abs(preds - targets) - spec.threshold
    return float(np.mean(err**2)) + decay_term(weights, spec.weight_decay)


def svdd_loss(preds, spec: LossSpec, weights=()) -> float:
    """Mean squared distance of predictions to the center, plus decay."""
    if spec.kind != "svdd":
        raise ValueError("spec.kind must be 'svdd'")
    preds = np.atleast_2d(np.asarray(preds, dtype=float))
    if preds.shape[1] != spec.center.shape[0]:
        raise ValueError(
            f"center dimension {spec.center.shape[0]} does not match predictions {preds.shape[1]}"
        )
    sq = np.sum((preds - spec.center) ** 2, axis=1)
    return float(np.mean(sq)) + decay_term(weights, spec.weight_decay)


def batch_loss(preds, targets, spec: LossSpec, weights=()) -> float:
    """Dispatch to the objective selected by ``spec.kind``."""
    if spec.kind == "mse":
        return mse_loss(preds, targets)
    if spec.kind == "evt":
        return evt_loss(preds, targets, spec, weights)
    return svdd_loss(preds, spec, weights)


def loss_grad_wrt_preds(preds, targets, spec: LossSpec) -> np.ndarray:
    """Analytic d(loss)/d(preds) for the data term of each objective.

    At the nondifferentiable point |pred - target| = 0 of the evt kind the
    subgradient sign(0) = 0 is used.
    """
    preds = np.asarray(preds, dtype=float)
    if spec.kind == "mse":
        return 2.0 * (preds - targets) / preds.size
    if spec.kind == "evt":
        diff = preds - targets
        return 2.0 * (np.abs(diff) - spec.threshold) * np.sign(diff) / preds.size
    batch = np.atleast_2d(preds).shape[0]
    return 2.0 * (preds - spec.center) / batch
