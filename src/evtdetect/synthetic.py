"""Synthetic benchmark series: noisy sine wave with injected point spikes."""
from __future__ import annotations

import numpy as np

from .data import LabeledSeries, atomic_write_bytes


def make_spike_series(
    length: int = 2000,
    period: float = 50.0,
    amplitude: float = 1.0,
    noise_sigma: float = 0.05,
    val_region: tuple[float, float] = (0.8, 0.9),
    test_region: tuple[float, float] = (0.9, 1.0),
    val_spikes: int = 3,
    test_spikes: int = 10,
    spike_magnitude_range: tuple[float, float] = (10.0, 16.0),
    margin: int = 30,
    min_separation: int = 12,
    seed: int = 0,
) -> LabeledSeries:
    """Sine wave plus Gaussian noise with labeled point spikes.

    Spikes are added (with random sign) inside the validation and test
    fractions of the series, with magnitudes drawn uniformly from
    ``spike_magnitude_range`` in units of the noise sigma. ``margin`` keeps
    spikes away from region starts so a look-back window always precedes
    them, and ``min_separation`` keeps them isolated from one another.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    values = amplitude * np.sin(2.0 * np.pi * t / period) + rng.normal(0.0, noise_sigma, length)
    labels = np.zeros(length, dtype=bool)

    def inject(region: tuple[float, float], count: int) -> None:
        lo = int(region[0] * length) + margin
        hi = int(region[1] * length) - 1
        if hi - lo < (count - 1) * min_separation:
            raise ValueError(
                f"cannot place {count} spikes {min_separation} apart in a region of {hi - lo} points"
            )
        positions: list[int] = []
        attempts = 0
        while len(positions) < count:
            attempts += 1
            if attempts > 100_000:
                raise ValueError("spike placement did not converge; loosen min_separation")
            cand = int(rng.integers(lo, hi))
            if all(abs(cand - p) >= min_separation for p in positions):
                positions.append(cand)
        for pos in positions:
            magnitude = rng.uniform(*spike_magnitude_range) * noise_sigma
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            values[pos] += sign * magnitude
            labels[pos] = True

    inject(val_region, val_spikes)
    inject(test_region, test_spikes)
    return LabeledSeries(timestamps=t.astype(float), values=values, labels=labels)


def write_csv(series: LabeledSeries, path) -> None:
    """Persist a labeled series in the loader's CSV format."""
    labels = series.labels if series.labels is not None else np.zeros(len(series), dtype=bool)
    rows = "".join(f"{ts:.6f},{float(v)!r},{int(lab)}\n"
                   for ts, v, lab in zip(series.timestamps, series.values, labels))
    atomic_write_bytes(path, ("timestamp,value,label\n" + rows).encode("utf-8"))
