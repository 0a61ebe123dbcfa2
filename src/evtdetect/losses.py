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

from dataclasses import dataclass

import numpy as np

from .data import finite_number

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
        if not (finite_number(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight_decay must be a finite number >= 0, got {self.weight_decay!r}")
        if not (self.threshold is None or finite_number(self.threshold)):
            raise ValueError(f"threshold must be None or a finite number, got {self.threshold!r}")
        if (self.center is not None) != (self.kind == "svdd"):
            raise ValueError("center is required exactly for the svdd kind")
        if self.kind == "evt" and self.threshold is None:
            raise ValueError("threshold is required for the evt kind")
        if self.kind == "mse" and self.threshold is not None:
            raise ValueError("the mse kind takes no threshold")
        if self.center is not None:
            center = np.asarray(self.center)
            if center.ndim != 1 or center.dtype.kind not in "iuf" or not np.isfinite(center).all():
                raise ValueError(f"center must be a 1-D array of finite numbers, got {self.center!r}")
            object.__setattr__(self, "center", np.asarray(center, dtype=float))

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
            center=d.get("center"),
            threshold=d.get("threshold"),
        )


def batch_loss(preds, targets, spec: LossSpec, weights=()) -> float:
    """The objective selected by ``spec.kind`` on one batch: the mean squared
    error (mse), mean((|pred - target| - threshold)^2) (evt), or the mean
    squared distance of the predictions to the center (svdd, which ignores
    ``targets``); plus the decay term (lambda/2) * sum of squared Frobenius
    norms over ``weights``."""
    preds = np.asarray(preds, dtype=float)
    if spec.kind == "svdd":
        preds = np.atleast_2d(preds)
        if preds.shape[1] != spec.center.shape[0]:
            raise ValueError(
                f"center dimension {spec.center.shape[0]} does not match predictions {preds.shape[1]}"
            )
        data = np.mean(np.sum((preds - spec.center) ** 2, axis=1))
    else:
        targets = np.asarray(targets, dtype=float)
        if preds.shape != targets.shape:
            raise ValueError(f"shape mismatch: {preds.shape} vs {targets.shape}")
        err = preds - targets if spec.kind == "mse" else np.abs(preds - targets) - spec.threshold
        data = np.mean(err**2)
    if spec.weight_decay == 0.0:
        return float(data)
    return float(data) + 0.5 * spec.weight_decay * sum(float(np.sum(w * w)) for w in weights)


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
