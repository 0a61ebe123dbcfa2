"""Adam updates with bias correction, plus global-norm gradient clipping."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First and second moment accumulators mirroring the parameter shapes."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


def init_adam_state(params: list[np.ndarray]) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
    )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    learning_rate: float,
) -> AdamState:
    """One bias-corrected Adam update, applied to the parameters in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params, grads, and state must have matching structure")
    if not learning_rate > 0:
        raise ValueError("learning_rate must be positive")
    state.step += 1
    t = state.step
    correction1 = 1.0 - BETA1**t
    correction2 = 1.0 - BETA2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= learning_rate * (m / correction1) / (np.sqrt(v / correction2) + EPS)
    return state


def clip_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is <= max_norm."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total
