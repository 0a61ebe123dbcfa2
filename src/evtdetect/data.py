"""Loading, normalization, splitting, and windowing of labeled univariate series.

All operations are pure functions over immutable inputs. A series enters as a
CSV file with a header row and configurable column names, becomes a
:class:`LabeledSeries`, and leaves as a :class:`WindowedDataset` ready for
supervised forecasting. :func:`atomic_write_bytes` is the one way the
package writes a file.
"""
from __future__ import annotations

import csv
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .checks import OPEN_UNIT, POSITIVE, EvtdetectError, MalformedInput, check, number, string


class NonMonotonicTimestamps(EvtdetectError):
    """Timestamps are not strictly increasing."""


class DegenerateRange(EvtdetectError):
    """Normalization range has max <= min, or scaling by it overflows."""


class SplitTooSmall(EvtdetectError):
    """A split is too short to produce at least one window."""


class MissingSamples(EvtdetectError):
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
        for name, f in zip(("train_frac", "val_frac", "test_frac"), fracs):
            number(name, f, OPEN_UNIT)
        check(abs(sum(fracs) - 1.0) <= 1e-9, "split fractions", "sum to 1", fracs)


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

    def __post_init__(self):
        string("timestamp_column", self.timestamp_column)
        string("value_column", self.value_column)
        string("label_column", self.label_column, null=True)
        if self.sampling_period is not None:
            number("sampling_period", self.sampling_period, POSITIVE, "be a finite number > 0")


def atomic_write_bytes(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a temp file in the same directory
    and a rename, so ``path`` holds either its previous bytes or all of the
    new ones, and a failed write leaves no temp file behind. The file gets
    the mode ``open(path, "w")`` would give it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)  # the umask applies
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_timestamp(cell: str, row: int) -> float:
    try:
        return float(cell)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(cell).timestamp()
    except ValueError:
        raise MalformedInput(f"row {row}: cannot parse timestamp {cell!r}") from None


@contextmanager
def open_text(path, error: type[EvtdetectError] = MalformedInput):
    """``path`` opened to read as UTF-8 text with its line ends kept; an
    ``error`` naming the file when its bytes are not UTF-8."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise error(f"{path} is not UTF-8 text") from None


def _first_gap(timestamps: np.ndarray, period: float | None) -> int | None:
    """Index of the first step of ``timestamps`` that is not ``period``, or None."""
    if period is None:
        return None
    bad = np.nonzero(np.abs(np.diff(timestamps) - period) > 1e-9 * period)[0]
    return int(bad[0]) if bad.size else None


def _read_columns(path: Path, skip: int, width: int, ts_at: int, value_at: int, label_at: int | None):
    """The timestamp, value and label columns past ``skip`` lines, parsed by one
    ``np.loadtxt`` call; None where the row loop must read the file instead: a
    cell loadtxt rejects or not finite, a label not "0" or "1", a NUL, two
    columns on one cell."""
    fields = {ts_at: ("t", "f8"), value_at: ("v", "f8")}
    if label_at is not None:
        fields[label_at] = ("l", "U2")  # as "i8", "+1" and "00" would pass
    # A string cell drops trailing NULs, so "1\0" would read as "1".
    if len(fields) < 2 + (label_at is not None) or b"\0" in path.read_bytes():
        return None
    fields.setdefault(width - 1, ("w", "U1"))  # usecols alone lets a short row through
    cols = sorted(fields)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, delimiter=",", quotechar='"', comments=None, ndmin=1,
                               encoding="utf-8", skiprows=skip, usecols=cols,
                               dtype=[fields[k] for k in cols])
    except ValueError:
        return None
    labels = None if label_at is None else table["l"] == "1"
    if not np.all(np.isfinite(table["v"])) or labels is not None and not np.all(labels | (table["l"] == "0")):
        return None
    return np.ascontiguousarray(table["t"]), np.ascontiguousarray(table["v"]), labels


def load_series(path: str | Path, schema: CsvSchema = CsvSchema()) -> LabeledSeries:
    """Load a labeled series from a headered CSV file.

    Well-formed numeric files are parsed in one ``np.loadtxt`` call; others go
    through a row loop that gives the same result or names the file's line.

    Raises FileNotFoundError for a missing file; MalformedInput for a file
    that is not UTF-8 or lacks a column, or naming the row of a cell that does
    not parse or is not finite; NonMonotonicTimestamps for out-of-order
    timestamps; and MissingSamples when a declared sampling period has gaps.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")

    timestamps: list[float] = []
    values: list[float] = []
    labels: list[bool] = []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedInput(f"{path}: empty file, expected a header row")
        column = {name: k for k, name in enumerate(header)}  # a repeated name maps to its last cell
        for col in (schema.timestamp_column, schema.value_column):
            if col not in column:
                raise MalformedInput(f"{path}: missing column {col!r}")
        if schema.label_column is not None and schema.label_column not in column:
            raise MalformedInput(f"{path}: missing label column {schema.label_column!r}")
        ts_at, value_at = column[schema.timestamp_column], column[schema.value_column]
        label_at = None if schema.label_column is None else column[schema.label_column]
        width = len(header)

        # line_num: a quoted header cell may span lines
        fast = _read_columns(path, reader.line_num, width, ts_at, value_at, label_at)
        if fast is not None and _first_gap(fast[0], schema.sampling_period) is None:
            return LabeledSeries(*fast)

        # Blank lines are skipped; rows are numbered by the file's lines (the
        # last line of a record with quoted line breaks), blank ones included.
        lines: list[int] = []  # each sample's row, for the gap check
        for row in filter(None, reader):
            i = reader.line_num
            lines.append(i)
            if len(row) < width:
                raise MalformedInput(f"row {i}: {len(row)} of {width} cells")
            timestamps.append(_parse_timestamp(row[ts_at], i))
            cell = row[value_at]
            try:
                value = float(cell)
            except ValueError:
                raise MalformedInput(f"row {i}: non-numeric value cell {cell!r}") from None
            if not math.isfinite(value):
                raise MalformedInput(f"row {i}: non-finite value cell {cell!r}")
            values.append(value)
            if label_at is not None:
                raw = row[label_at].strip()
                if raw not in ("0", "1"):
                    raise MalformedInput(f"row {i}: label must be 0 or 1, got {raw!r}")
                labels.append(raw == "1")

    ts = np.asarray(timestamps)
    bad = _first_gap(ts, schema.sampling_period)
    if bad is not None:
        raise MissingSamples(
            f"{path}: gap of {ts[bad + 1] - ts[bad]} at row {lines[bad]}, "
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
    if not np.all(np.isfinite(scaled)):
        raise DegenerateRange(f"scaling by the range [{params.min}, {params.max}] overflows")
    return LabeledSeries(series.timestamps, scaled, series.labels)


def split_series(
    series: LabeledSeries,
    spec: SplitSpec,
    look_back: int,
    look_ahead: int,
) -> tuple[LabeledSeries, LabeledSeries, LabeledSeries]:
    """Cut the series into contiguous train/val/test parts, in time order.

    Each part must be long enough to produce at least one window. Emits
    AnomalyInTrainWarning if the training part contains labeled anomalies.
    """
    n = len(series)
    n_train = int(np.floor(spec.train_frac * n))
    n_val = int(np.floor(spec.val_frac * n))
    bounds = (0, n_train, n_train + n_val, n)

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
) -> tuple[tuple[WindowedDataset, ...], tuple[np.ndarray, ...] | None, tuple[int, int, int]]:
    """Split ``series``, min-max normalize every part with the training
    part's range, and window each part.

    Returns the (train, val, test) windows, each part's labels of its
    windows' first targets (None for an unlabeled series), and the offset of
    each part's first point in ``series``: window ``i`` of part ``k``
    forecasts point ``offsets[k] + windows[k].target_indices[i]``.
    """
    parts = split_series(series, spec, look_back, look_ahead)
    norm = fit_norm_params(parts[0])
    windows = tuple(make_windows(normalize(s, norm), look_back, look_ahead) for s in parts)
    labels = None
    if series.labels is not None:
        labels = tuple(s.labels[w.target_indices] for s, w in zip(parts, windows))
    offsets = (0, len(parts[0]), len(parts[0]) + len(parts[1]))
    return windows, labels, offsets
