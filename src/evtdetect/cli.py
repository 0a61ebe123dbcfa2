"""Batch command-line entry point.

Subcommands: ``train``, ``detect``, ``evaluate``, ``fit-gpd``, ``benchmark``.
Settings come from a single JSON config document; every setting can be
overridden on the command line with ``--set section.key=value``. Output files
are written atomically (temp file plus rename). Exit codes: 0 success,
1 runtime failure, 2 config or validation error.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
import zipfile
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import evt
from .data import CsvSchema, WindowedDataset, atomic_write_bytes, load_series, prepare
from .detectors import (
    PredictionErrors,
    detect,
    first_horizon_errors,
    prediction_errors,
    threshold_decisions,
)
from .evaluation import (
    BenchmarkConfig,
    LabelsRequired,
    benchmark,
    calibrate,
    compute_metrics,
    confusion,
    format_report,
)
from .losses import LossSpec
from .network import load_network, save_network
from .presets import preset
from .training import (
    TrainConfig,
    require_threshold_estimate,
    run_manifest,
    train_evt_lstm,
    train_forecaster,
    train_svdd,
)

OUTPUT_DIR_ENV = "EVTDETECT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

RULES = ("gaussian", "tukey", "evt", "evt-lstm")

# Written by ``train`` next to model.npz: the model's errors on the training
# and validation windows, so that ``detect`` predicts only the test split.
ERRORS_FILE = "errors.npz"


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass
class RunConfig:
    """Validated settings for one CLI invocation."""

    dataset_path: str | None = None
    schema: CsvSchema = field(default_factory=CsvSchema)
    pipeline: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    rule: str = "evt"
    objective: str = "mse"
    output_dir: str = "."

    def require_dataset(self) -> Path:
        if not self.dataset_path:
            raise ConfigError("config is missing dataset.path")
        return Path(self.dataset_path)


def _apply_overrides(doc: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot override {key!r}: {part!r} is not a section")
        node[parts[-1]] = value
    return doc


def parse_config(doc: dict) -> RunConfig:
    """Build a validated RunConfig from a JSON document.

    A ``preset`` name fills the network geometry fields; explicit settings in
    the document win over the preset. Settings left out take the defaults of
    :class:`CsvSchema` and :class:`BenchmarkConfig`.
    """
    try:
        doc = dict(doc)
        dataset = dict(doc.pop("dataset", {}) or {})
        dataset_path = dataset.pop("path", None)
        schema = CsvSchema(**dataset)
        defaults = BenchmarkConfig()
        split = replace(defaults.split, **(doc.pop("split", {}) or {}))

        geometry: dict = {}
        preset_name = doc.pop("preset", None)
        if preset_name is not None:
            geometry = preset(preset_name)

        train_doc = dict(doc.pop("training", {}) or {})
        sizes = train_doc.get("hidden_sizes", [])
        if not isinstance(sizes, list):
            raise ConfigError(f"training.hidden_sizes must be a list of whole numbers, got {sizes!r}")
        for key in ("hidden_sizes", "dropout_rate", "learning_rate"):
            if key in geometry and key not in train_doc:
                train_doc[key] = geometry[key]
        train = TrainConfig(**train_doc)

        look_back = doc.pop("look_back", geometry.get("look_back", defaults.look_back))
        look_ahead = doc.pop("look_ahead", geometry.get("look_ahead", defaults.look_ahead))

        rule = doc.pop("rule", "evt")
        if rule not in RULES:
            raise ConfigError(f"rule must be one of {RULES}, got {rule!r}")
        objective = doc.pop("objective", "mse")
        if objective not in ("mse", "evt", "svdd"):
            raise ConfigError(f"objective must be mse, evt, or svdd, got {objective!r}")

        risk_grid = tuple(doc.pop("risk_grid", defaults.risk_grid))
        output_dir = doc.pop("output_dir", None) or os.environ.get(OUTPUT_DIR_ENV, ".")
        config = RunConfig(
            dataset_path=dataset_path,
            schema=schema,
            pipeline=BenchmarkConfig(split, look_back, look_ahead, train, risk_grid),
            rule=rule,
            objective=objective,
            output_dir=str(output_dir),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
    unknown = set(doc) - {"comment"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return config


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    doc: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
    return parse_config(_apply_overrides(doc, overrides))


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _prepared_splits(config: RunConfig):
    series = load_series(config.require_dataset(), config.schema)
    p = config.pipeline
    return (series, *prepare(series, p.split, p.look_back, p.look_ahead))


def _errors_key(model_bytes: bytes, train: WindowedDataset, val: WindowedDataset) -> str:
    """sha256 over a model file's bytes and the shape and bytes of each
    training and validation window's inputs and targets."""
    import hashlib  # here, not at module import, where it adds about 4 ms to every command

    digest = hashlib.sha256(model_bytes)
    for array in (train.inputs, train.targets, val.inputs, val.targets):
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


def _write_errors(path: Path, model_bytes: bytes, train: WindowedDataset, val: WindowedDataset,
                  predictions: tuple[np.ndarray, np.ndarray]) -> None:
    """Save the first-horizon errors of the training and validation windows
    under the key that ties them to one model file and those windows."""
    buf = io.BytesIO()
    np.savez(
        buf,
        key=np.array(_errors_key(model_bytes, train, val)),
        train=first_horizon_errors(predictions[0], train).errors,
        val=first_horizon_errors(predictions[1], val).errors,
    )
    atomic_write_bytes(path, buf.getvalue())


def _calibration_errors(network, model_bytes: bytes, errors_path: Path,
                        train: WindowedDataset, val: WindowedDataset) -> tuple[PredictionErrors, ...]:
    """The network's errors on the training and validation windows: read
    from ``errors_path`` when its key matches, otherwise predicted. A missing,
    unreadable or stale file only costs the prediction."""
    key = _errors_key(model_bytes, train, val)
    try:
        # NpzFile, not np.load, which returns a bare array for .npy content
        with open(errors_path, "rb") as fh, np.lib.npyio.NpzFile(fh) as saved:
            cached = (saved["train"], saved["val"]) if str(saved["key"]) == key else None
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        cached = None
    if cached is None:
        return tuple(prediction_errors(network, w) for w in (train, val))
    return tuple(PredictionErrors(e, w.target_indices) for e, w in zip(cached, (train, val)))


def cmd_train(config: RunConfig) -> int:
    _, _, (train_w, val_w, _), _ = _prepared_splits(config)
    trainers = {"mse": train_forecaster, "evt": train_evt_lstm, "svdd": train_svdd}
    train = config.pipeline.train
    start = time.perf_counter()
    model = trainers[config.objective](train, train_w, val_w)
    seconds = time.perf_counter() - start
    require_threshold_estimate(model, train, len(train_w))  # before anything is written

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = None
    if model.loss_kind != "mse":
        spec = LossSpec(model.loss_kind, weight_decay=train.weight_decay,
                        center=model.center, threshold=model.threshold)
    save_network(out / "model.npz", model.network, spec, config.pipeline.look_back)
    if model.predictions is not None:
        model_bytes = (out / "model.npz").read_bytes()
        _write_errors(out / ERRORS_FILE, model_bytes, train_w, val_w, model.predictions)
    manifest = run_manifest(model, train, wall_clock_seconds=round(seconds, 3))
    manifest["objective"] = config.objective
    atomic_write_json(out / "manifest.json", manifest)
    print(f"trained {config.objective} model for {len(model.history)} epochs -> {out / 'model.npz'}")
    if model.threshold is not None:
        print(f"detection threshold: {model.threshold:.6g}")
    return EXIT_OK


def _require_geometry(p: BenchmarkConfig, look_back: int | None, look_ahead: int) -> None:
    """Refuse windows other than those the model was trained on. A model
    file that does not record its look_back is checked on look_ahead, its
    output size, alone."""
    if look_ahead != p.look_ahead or look_back not in (None, p.look_back):
        trained = f"look_back {look_back}, " if look_back is not None else ""
        raise ConfigError(
            f"the model was trained on windows of {trained}look_ahead {look_ahead}; "
            f"the config has look_back {p.look_back}, look_ahead {p.look_ahead}"
        )


def _calibrated_detection(config: RunConfig, model_path: str):
    """Calibrate the selected rule and run detection on the test split."""
    series, splits, windows, offsets = _prepared_splits(config)
    model_bytes = Path(model_path).read_bytes()
    network, loss_spec, look_back = load_network(io.BytesIO(model_bytes))
    _require_geometry(config.pipeline, look_back, network.output_size)
    if config.rule == "evt-lstm":  # the model file carries its own detection threshold
        if loss_spec is None or loss_spec.get("threshold") is None:
            raise ConfigError("model file has no detection threshold (evt or svdd objective)")
        test_errs = prediction_errors(network, windows[2])
        det = threshold_decisions(test_errs, loss_spec["threshold"])
        return series, test_errs, det, {"threshold": loss_spec["threshold"]}, offsets[2]

    errors_path = Path(model_path).with_name(ERRORS_FILE)
    errs = (*_calibration_errors(network, model_bytes, errors_path, windows[0], windows[1]),
            prediction_errors(network, windows[2]))
    labels = None if series.labels is None else tuple(s.labels[e.indices] for s, e in zip(splits, errs))
    p = config.pipeline
    try:
        rule, params = calibrate(config.rule, errs, labels, p.risk_grid, p.train.init_quantile)
    except LabelsRequired as exc:
        raise ConfigError(str(exc)) from exc
    return series, errs[2], detect(errs[2], rule), params, offsets[2]


def cmd_detect(config: RunConfig, model_path: str) -> int:
    series, test_errs, det, params, test_offset = _calibrated_detection(config, model_path)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = ["index,timestamp,error,score,flag"]
    for i, score, flag, err in zip(det.indices, det.scores, det.flags, test_errs.errors):
        absolute = test_offset + int(i)
        ts = series.timestamps[absolute]
        lines.append(f"{absolute},{float(ts)!r},{float(err)!r},{float(score)!r},{int(flag)}")
    atomic_write_text(out / "detections.csv", "\n".join(lines) + "\n")

    summary = {
        "rule": config.rule,
        "params": params,
        "points_scored": int(len(det)),
        "flagged": int(np.sum(det.flags)),
    }
    atomic_write_json(out / "detection_summary.json", summary)
    print(f"{summary['flagged']} of {summary['points_scored']} points flagged -> {out / 'detections.csv'}")
    return EXIT_OK


def _read_detections(path: str, series_length: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``index`` and ``flag`` columns of a detections.csv. Raises
    ValueError naming the line for a missing column, a short row, an index
    that is not a point of the series or that an earlier row listed, or a
    flag other than 0 or 1."""
    indices: list[int] = []
    flags: list[bool] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        for name in ("index", "flag"):
            if name not in header:
                raise ValueError(f"{path}, line 1: no {name!r} column in the header")
        index_col, flag_col = header.index("index"), header.index("flag")
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            if len(cells) < len(header):
                raise ValueError(f"{path}, line {lineno}: {len(cells)} of {len(header)} cells")
            try:
                index = int(cells[index_col])
            except ValueError:
                index = -1
            if not 0 <= index < series_length:
                raise ValueError(f"{path}, line {lineno}: index {cells[index_col]!r} is not a point "
                                 f"of the {series_length}-point series")
            if cells[flag_col] not in ("0", "1"):
                raise ValueError(f"{path}, line {lineno}: flag {cells[flag_col]!r} is not 0 or 1")
            indices.append(index)
            flags.append(cells[flag_col] == "1")
    idx = np.asarray(indices, dtype=int)
    _, first = np.unique(idx, return_index=True)
    if first.size < idx.size:  # find the line only now, off the common path
        row = np.setdiff1d(np.arange(idx.size), first)[0]
        with open(path, encoding="utf-8") as fh:
            lines = [n for n, line in enumerate(fh, start=1) if n > 1 and line.strip()]
        raise ValueError(f"{path}, line {lines[row]}: index {idx[row]} repeats an earlier row's")
    return idx, np.asarray(flags, dtype=bool)


def cmd_evaluate(config: RunConfig, detections_path: str) -> int:
    series = load_series(config.require_dataset(), config.schema)
    if series.labels is None:
        raise ConfigError("evaluate needs a dataset with a label column")
    indices, flags = _read_detections(detections_path, len(series))
    metrics = compute_metrics(confusion(flags, series.labels[indices]))

    out = Path(config.output_dir)
    report = {"rule": config.rule, "points_scored": len(indices), "metrics": asdict(metrics)}
    atomic_write_json(out / "metrics.json", report)
    print(
        f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} f1={metrics.f1:.4f} "
        f"(tp={metrics.tp} fp={metrics.fp} fn={metrics.fn} tn={metrics.tn})"
    )
    return EXIT_OK


def cmd_fit_gpd(input_path: str, level: float, risk: float) -> int:
    values = []
    with open(input_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{input_path}, line {lineno}: {line!r} is not a number") from None
    fit = evt.fit_tail(np.asarray(values), level=level)
    result = {
        "gamma": fit.gamma,
        "sigma": fit.sigma,
        "initial_threshold": fit.threshold,
        "peak_count": fit.peak_count,
        "total_count": fit.total_count,
        "tail_class": fit.tail_class,
        "risk": risk,
        "detection_threshold": evt.pot_threshold(fit, risk),
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_benchmark(config: RunConfig) -> int:
    series = load_series(config.require_dataset(), config.schema)
    report = benchmark(series, config.pipeline)
    out = Path(config.output_dir)
    atomic_write_json(out / "benchmark.json", report)
    print(format_report(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evtdetect",
        description="Univariate time-series anomaly detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override a config entry, e.g. training.seed=3",
        )
        p.add_argument("--dataset", help="dataset CSV path (shorthand for dataset.path)")
        p.add_argument("--output-dir", help="output directory")
        p.add_argument("--seed", type=int, help="training seed override")

    p = sub.add_parser("train", help="train a forecaster or end-to-end detector")
    common(p)
    p.add_argument("--objective", choices=("mse", "evt", "svdd"), help="training objective")

    p = sub.add_parser("detect", help="calibrate a rule and flag the test split")
    common(p)
    p.add_argument("--model", required=True, help="model file from `train`")
    p.add_argument("--rule", choices=RULES, help="detection rule")

    p = sub.add_parser("evaluate", help="score detections against labels")
    common(p)
    p.add_argument("--detections", required=True, help="detections.csv from `detect`")

    p = sub.add_parser("fit-gpd", help="fit a GPD tail to a one-column numeric file")
    p.add_argument("--input", required=True)
    p.add_argument("--level", type=float, default=0.98, help="initial threshold quantile")
    p.add_argument("--risk", type=float, default=1e-3, help="target exceedance probability")

    p = sub.add_parser("benchmark", help="compare all rules on one labeled dataset")
    common(p)
    return parser


def _config_from_args(args) -> RunConfig:
    # Flag values go in JSON-encoded, so that parsing them as JSON, as every
    # --set value is, gives each back as typed: --output-dir 1e3 stays "1e3".
    overrides = list(args.overrides)
    if args.dataset:
        overrides.append(f"dataset.path={json.dumps(args.dataset)}")
    if args.output_dir:
        overrides.append(f"output_dir={json.dumps(args.output_dir)}")
    if args.seed is not None:
        overrides.append(f"training.seed={args.seed}")
    if getattr(args, "objective", None):
        overrides.append(f"objective={args.objective}")
    if getattr(args, "rule", None):
        overrides.append(f"rule={args.rule}")
    return load_config(args.config, overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit-gpd":
            return cmd_fit_gpd(args.input, args.level, args.risk)
        config = _config_from_args(args)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "detect":
            return cmd_detect(config, args.model)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.detections)
        if args.command == "benchmark":
            return cmd_benchmark(config)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        _fail(exc, "config")
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        _fail(exc, "runtime")
        return EXIT_RUNTIME


def _fail(exc: Exception, kind: str) -> None:
    message = {"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(message), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
