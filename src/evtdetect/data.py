"""Loading, normalization, splitting, and windowing of labeled univariate series.

All operations are pure functions over immutable inputs. A series enters as a
CSV file with a header row and configurable column names, becomes a
:class:`LabeledSeries`, and leaves as a :class:`WindowedDataset` ready for
supervised forecasting.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np


class NonMonotonicTimestamps(ValueError):
    """Timestamps are not strictly increasing."""


class DegenerateRange(ValueError):
    """Normalization range has max <= min."""


class SplitTooSmall(ValueError):
    """A split is too short to produce at least one window."""


class MissingSamples(ValueError):
    """A declared fixed sampling period has gaps."""


class AnomalyInTrainWarning(UserWarning):
    """The training split contains labeled anomalies."""


@dataclass(frozen=True)
class LabeledSeries:
    """Timestamped univariate values with optional binary anomaly labels."""

    timestamps: np.ndarray
    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values must have equal length")
        if len(self.timestamps) > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise NonMonotonicTimestamps("timestamps must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=bool)
            if len(labels) != len(self.values):
                raise ValueError("labels must match values in length")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class NormParams:
    """Min-max normalization parameters, fitted on the training split only."""

    min: float
    max: float

    def __post_init__(self):
        if not self.max > self.min:
            raise DegenerateRange(f"max ({self.max}) must exceed min ({self.min})")


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous-in-time train/val/test proportions."""

    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(not 0.0 < f < 1.0 for f in fracs):
            raise ValueError("split fractions must lie in (0, 1)")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")


@dataclass(frozen=True)
class WindowedDataset:
    """Supervised forecasting windows.

    ``inputs[i]`` holds ``look_back`` consecutive values, ``targets[i]`` the
    ``look_ahead`` values that immediately follow, and ``target_indices[i]``
    the index (into the source series) of the first target of window ``i``.
    """

    inputs: np.ndarray
    targets: np.ndarray
    target_indices: np.ndarray

    def __post_init__(self):
        if not (len(self.inputs) == len(self.targets) == len(self.target_indices)):
            raise ValueError("inputs, targets, and target_indices must align")

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def look_back(self) -> int:
        return self.inputs.shape[1]

    @property
    def look_ahead(self) -> int:
        return self.targets.shape[1]


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for the CSV loader.

    Timestamps may be numeric or ISO-8601 datetimes (stored as epoch seconds).
    Labels, when a column is declared, must be encoded as 0/1. If
    ``sampling_period`` is set, the loader rejects gaps in the timestamp grid;
    otherwise values are treated as an evenly spaced sequence.
    """

    timestamp_column: str = "timestamp"
    value_column: str = "value"
    label_column: str | None = None
    sampling_period: float | None = None


def _parse_timestamp(cell: str, row: int) -> float:
    try:
        return float(cell)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(cell).timestamp()
    except ValueError:
        raise ValueError(f"row {row}: cannot parse timestamp {cell!r}") from None


def load_series(path: str | Path, schema: CsvSchema = CsvSchema()) -> LabeledSeries:
    """Load a labeled series from a headered CSV file.

    Raises FileNotFoundError for a missing file, ValueError for cells that do
    not parse, NonMonotonicTimestamps for out-of-order timestamps, and
    MissingSamples when a declared sampling period has gaps.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")

    timestamps: list[float] = []
    values: list[float] = []
    labels: list[bool] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        for col in (schema.timestamp_column, schema.value_column):
            if col not in reader.fieldnames:
                raise ValueError(f"{path}: missing column {col!r}")
        if schema.label_column is not None and schema.label_column not in reader.fieldnames:
            raise ValueError(f"{path}: missing label column {schema.label_column!r}")

        for i, row in enumerate(reader, start=2):
            timestamps.append(_parse_timestamp(row[schema.timestamp_column], i))
            cell = row[schema.value_column]
            try:
                values.append(float(cell))
            except (TypeError, ValueError):
                raise ValueError(f"row {i}: non-numeric value cell {cell!r}") from None
            if schema.label_column is not None:
                raw = row[schema.label_column].strip()
                if raw not in ("0", "1"):
                    raise ValueError(f"row {i}: label must be 0 or 1, got {raw!r}")
                labels.append(raw == "1")

    ts = np.asarray(timestamps)
    if schema.sampling_period is not None and len(ts) > 1:
        gaps = np.diff(ts)
        bad = np.nonzero(np.abs(gaps - schema.sampling_period) > 1e-9 * schema.sampling_period)[0]
        if bad.size:
            raise MissingSamples(
                f"{path}: gap of {gaps[bad[0]]} at row {bad[0] + 2}, "
                f"expected sampling period {schema.sampling_period}"
            )

    return LabeledSeries(
        timestamps=ts,
        values=np.asarray(values),
        labels=np.asarray(labels, dtype=bool) if schema.label_column is not None else None,
    )


def fit_norm_params(series: LabeledSeries) -> NormParams:
    """Fit min-max parameters. Call on the training split to avoid leakage."""
    return NormParams(min=float(series.values.min()), max=float(series.values.max()))


def normalize(series: LabeledSeries, params: NormParams) -> LabeledSeries:
    """Map each value v to (v - min) / (max - min). Labels pass through."""
    scaled = (series.values - params.min) / (params.max - params.min)
    return LabeledSeries(series.timestamps, scaled, series.labels)


def denormalize(series: LabeledSeries, params: NormParams) -> LabeledSeries:
    """Inverse of :func:`normalize`."""
    raw = series.values * (params.max - params.min) + params.min
    return LabeledSeries(series.timestamps, raw, series.labels)


def split_series(
    series: LabeledSeries,
    spec: SplitSpec,
    look_back: int | None = None,
    look_ahead: int | None = None,
) -> tuple[LabeledSeries, LabeledSeries, LabeledSeries]:
    """Cut the series into contiguous train/val/test parts, in time order.

    When ``look_back`` and ``look_ahead`` are given, each part must be long
    enough to produce at least one window. Emits AnomalyInTrainWarning if the
    training part contains labeled anomalies.
    """
    n = len(series)
    n_train = int(np.floor(spec.train_frac * n))
    n_val = int(np.floor(spec.val_frac * n))
    bounds = (0, n_train, n_train + n_val, n)

    min_len = 1
    if look_back is not None and look_ahead is not None:
        min_len = look_back + look_ahead
    sizes = np.diff(bounds)
    if np.any(sizes < min_len):
        raise SplitTooSmall(
            f"splits of sizes {tuple(sizes)} cannot all hold look_back + look_ahead = {min_len} points"
        )

    def cut(lo: int, hi: int) -> LabeledSeries:
        return LabeledSeries(
            series.timestamps[lo:hi],
            series.values[lo:hi],
            None if series.labels is None else series.labels[lo:hi],
        )

    train, val, test = (cut(bounds[i], bounds[i + 1]) for i in range(3))
    if train.labels is not None and train.labels.any():
        count = int(train.labels.sum())
        warnings.warn(
            f"training split contains {count} labeled anomalies; the forecaster "
            "assumes anomaly-free training data",
            AnomalyInTrainWarning,
            stacklevel=2,
        )
    return train, val, test


def make_windows(series: LabeledSeries, look_back: int, look_ahead: int) -> WindowedDataset:
    """Slide a supervised forecasting window over the series.

    Produces ``len(series) - look_back - look_ahead + 1`` windows.
    """
    if look_back < 1 or look_ahead < 1:
        raise ValueError("look_back and look_ahead must be positive")
    n = len(series)
    count = n - look_back - look_ahead + 1
    if count < 1:
        raise SplitTooSmall(
            f"series of length {n} is too short for look_back={look_back}, look_ahead={look_ahead}"
        )
    values = series.values
    inputs = np.lib.stride_tricks.sliding_window_view(values[: n - look_ahead], look_back).copy()
    targets = np.lib.stride_tricks.sliding_window_view(values[look_back:], look_ahead).copy()
    target_indices = np.arange(look_back, look_back + count)
    return WindowedDataset(inputs=inputs, targets=targets, target_indices=target_indices)


def prepare(
    series: LabeledSeries, spec: SplitSpec, look_back: int, look_ahead: int
) -> tuple[tuple[LabeledSeries, ...], tuple[WindowedDataset, ...], tuple[int, int, int]]:
    """Split ``series``, min-max normalize every part with the training
    part's range, and window each part.

    Returns the normalized (train, val, test) parts, their windows, and the
    offset of each part's first point in ``series``.
    """
    parts = split_series(series, spec, look_back, look_ahead)
    norm = fit_norm_params(parts[0])
    splits = tuple(normalize(s, norm) for s in parts)
    windows = tuple(make_windows(s, look_back, look_ahead) for s in splits)
    offsets = (0, len(parts[0]), len(parts[0]) + len(parts[1]))
    return splits, windows, offsets
