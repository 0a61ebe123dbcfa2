"""Batch command-line entry point.

Subcommands: ``train``, ``detect``, ``evaluate``, ``fit-gpd``, ``benchmark``.
Settings come from a single JSON config document; every setting can be
overridden on the command line with ``--set section.key=value``. Output files
are written atomically (temp file plus rename). Exit codes: 0 success,
1 runtime failure, 2 config or validation error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import evt
from .data import CsvSchema, load_series, prepare
from .detectors import detect, prediction_errors, threshold_decisions
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
from .training import TrainConfig, run_manifest, train_evt_lstm, train_forecaster, train_svdd

OUTPUT_DIR_ENV = "EVTDETECT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

RULES = ("gaussian", "tukey", "evt", "evt-lstm")


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
        for key in ("hidden_sizes", "dropout_rate", "learning_rate"):
            if key in geometry and key not in train_doc:
                train_doc[key] = geometry[key]
        if "hidden_sizes" in train_doc:
            train_doc["hidden_sizes"] = tuple(train_doc["hidden_sizes"])
        train = TrainConfig(**train_doc)

        look_back = int(doc.pop("look_back", geometry.get("look_back", defaults.look_back)))
        look_ahead = int(doc.pop("look_ahead", geometry.get("look_ahead", defaults.look_ahead)))

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
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _prepared_splits(config: RunConfig):
    series = load_series(config.require_dataset(), config.schema)
    p = config.pipeline
    return (series, *prepare(series, p.split, p.look_back, p.look_ahead))


def cmd_train(config: RunConfig) -> int:
    _, _, (train_w, val_w, _), _ = _prepared_splits(config)
    trainers = {"mse": train_forecaster, "evt": train_evt_lstm, "svdd": train_svdd}
    train = config.pipeline.train
    start = time.perf_counter()
    model = trainers[config.objective](train, train_w, val_w)
    seconds = time.perf_counter() - start

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = None
    if model.loss_kind != "mse":
        spec = LossSpec(model.loss_kind, weight_decay=train.weight_decay,
                        center=model.center, threshold=model.threshold)
    save_network(out / "model.npz", model.network, spec)
    manifest = run_manifest(model, train, wall_clock_seconds=round(seconds, 3))
    manifest["objective"] = config.objective
    atomic_write_json(out / "manifest.json", manifest)
    print(f"trained {config.objective} model for {len(model.history)} epochs -> {out / 'model.npz'}")
    if model.threshold is not None:
        print(f"detection threshold: {model.threshold:.6g}")
    return EXIT_OK


def _calibrated_detection(config: RunConfig, model_path: str):
    """Calibrate the selected rule and run detection on the test split."""
    series, splits, windows, offsets = _prepared_splits(config)
    network, loss_spec = load_network(model_path)
    if config.rule == "evt-lstm":  # the model file carries its own detection threshold
        if loss_spec is None or loss_spec.get("threshold") is None:
            raise ConfigError("model file has no detection threshold (evt or svdd objective)")
        test_errs = prediction_errors(network, windows[2])
        det = threshold_decisions(test_errs, loss_spec["threshold"])
        return series, test_errs, det, {"threshold": loss_spec["threshold"]}, offsets[2]

    errs = tuple(prediction_errors(network, w) for w in windows)
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


def cmd_evaluate(config: RunConfig, detections_path: str) -> int:
    series = load_series(config.require_dataset(), config.schema)
    if series.labels is None:
        raise ConfigError("evaluate needs a dataset with a label column")
    indices: list[int] = []
    flags: list[bool] = []
    with open(detections_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        col = {name: pos for pos, name in enumerate(header)}
        for line in fh:
            cells = line.strip().split(",")
            if not cells or cells == [""]:
                continue
            indices.append(int(cells[col["index"]]))
            flags.append(cells[col["flag"]] == "1")
    labels = series.labels[np.asarray(indices, dtype=int)]
    metrics = compute_metrics(confusion(np.asarray(flags), labels))

    out = Path(config.output_dir)
    report = {
        "rule": config.rule,
        "points_scored": len(indices),
        "metrics": {
            "tp": metrics.tp, "fp": metrics.fp, "fn": metrics.fn, "tn": metrics.tn,
            "precision": metrics.precision, "recall": metrics.recall, "f1": metrics.f1,
            "precision_defined": metrics.precision_defined,
            "recall_defined": metrics.recall_defined,
            "f1_defined": metrics.f1_defined,
        },
    }
    atomic_write_json(out / "metrics.json", report)
    print(
        f"precision={metrics.precision:.4f} recall={metrics.recall:.4f} f1={metrics.f1:.4f} "
        f"(tp={metrics.tp} fp={metrics.fp} fn={metrics.fn} tn={metrics.tn})"
    )
    return EXIT_OK


def cmd_fit_gpd(input_path: str, level: float, risk: float) -> int:
    values = []
    with open(input_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                values.append(float(line))
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
    overrides = list(args.overrides)
    if args.dataset:
        overrides.append(f"dataset.path={args.dataset}")
    if args.output_dir:
        overrides.append(f"output_dir={args.output_dir}")
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
