"""Batch command-line entry point.

Subcommands: ``train``, ``detect``, ``evaluate``, ``fit-gpd``, ``benchmark``.
Settings come from a single JSON config document; every setting can be
overridden on the command line with ``--set section.key=value``. Output files
are written atomically (temp file plus rename). Exit codes: 0 success, 2 a
ConfigError, 1 any other EvtdetectError (such as a data or model file that
cannot be read) or an OSError, each reported as one JSON line on stderr. Any
other exception is a bug and leaves as a traceback.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import evt
from .checks import ConfigError, EvtdetectError, MalformedInput, check, one_of, section, string
from .data import CsvSchema, SplitSpec, WindowedDataset, atomic_write_bytes, load_series, open_text, prepare
from .detectors import prediction_errors, threshold_decisions
from .evaluation import (
    BenchmarkConfig,
    LabelsRequired,
    benchmark,
    calibrate,
    compute_metrics,
    confusion,
    format_report,
)
from .network import UnsupportedModelFormat, load_network, save_network
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
OBJECTIVES = ("mse", "evt", "svdd")

SECTIONS = {"dataset": CsvSchema, "split": SplitSpec, "training": TrainConfig}
KEYS = {*SECTIONS, "comment", "preset", "look_back", "look_ahead", "risk_grid", "rule", "objective",
        "output_dir"}


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
    """Build a validated RunConfig from a JSON document; ConfigError names
    unknown keys, or else the first value it rejects.

    A ``preset`` name fills the network geometry fields; explicit settings in
    the document win over the preset. Settings left out take the defaults of
    :class:`CsvSchema` and :class:`BenchmarkConfig`.
    """
    sections = {name: section(name, doc.get(name)) for name in SECTIONS}
    dataset_path = sections["dataset"].pop("path", None)
    unknown = [key for key in doc if key not in KEYS] + [
        f"{name}.{key}" for name, kind in SECTIONS.items()
        for key in sections[name].keys() - {f.name for f in fields(kind)}]
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name, value in (("dataset.path", dataset_path), ("preset", doc.get("preset")),
                        ("output_dir", doc.get("output_dir"))):
        if value is not None:  # null stands for absent
            string(name, value)

    geometry = {} if doc.get("preset") is None else preset(doc["preset"])
    train_doc = sections["training"]
    sizes = train_doc.get("hidden_sizes", [])
    check(isinstance(sizes, list), "training.hidden_sizes", "be a list of whole numbers", sizes)
    from_preset = {k: geometry[k] for k in ("hidden_sizes", "dropout_rate", "learning_rate") if k in geometry}
    defaults = BenchmarkConfig()
    pipeline = BenchmarkConfig(
        replace(defaults.split, **sections["split"]),
        doc.get("look_back", geometry.get("look_back", defaults.look_back)),
        doc.get("look_ahead", geometry.get("look_ahead", defaults.look_ahead)),
        TrainConfig(**{**from_preset, **train_doc}),
        doc.get("risk_grid", defaults.risk_grid),
    )
    return RunConfig(
        dataset_path=dataset_path,
        schema=CsvSchema(**sections["dataset"]),
        pipeline=pipeline,
        rule=one_of("rule", doc.get("rule", "evt"), RULES),
        objective=one_of("objective", doc.get("objective", "mse"), OBJECTIVES),
        output_dir=doc.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV, "."),
    )


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    doc: dict = {}
    if path is not None:
        try:
            with open_text(path, ConfigError) as fh:
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


def _errors_key(train: WindowedDataset, val: WindowedDataset) -> str:
    """sha256 over the shape and bytes of each training and validation
    window's inputs and targets."""
    import hashlib  # here, not at module import, where it adds about 4 ms to every command

    digest = hashlib.sha256()
    for array in (train.inputs, train.targets, val.inputs, val.targets):
        digest.update(repr(array.shape).encode())
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


def _calibration_errors(network, saved, train: WindowedDataset,
                        val: WindowedDataset) -> tuple[np.ndarray, ...]:
    """The network's errors on the training and validation windows: those
    ``saved`` in its model file when their key matches these windows,
    otherwise predicted. Raises UnsupportedModelFormat for a saved array
    that is not one non-negative float64 per window."""
    if saved is None or saved[0] != _errors_key(train, val):
        return tuple(prediction_errors(network, w) for w in (train, val))
    for name, e, w in zip(("train_errors", "val_errors"), saved[1:], (train, val)):
        if e.dtype != np.float64 or e.shape != (len(w),) or not np.all(e >= 0):  # NaN fails
            raise UnsupportedModelFormat(
                f"model file's {name!r} is not one non-negative float64 per window")
    return saved[1:]


def cmd_train(config: RunConfig) -> int:
    _, (train_w, val_w, _), _, _ = _prepared_splits(config)
    trainers = {"mse": train_forecaster, "evt": train_evt_lstm, "svdd": train_svdd}
    train = config.pipeline.train
    start = time.perf_counter()
    model = trainers[config.objective](train, train_w, val_w)
    seconds = time.perf_counter() - start
    require_threshold_estimate(model, train, len(train_w))  # before anything is written

    out = Path(config.output_dir)
    errors = None
    if model.errors is not None:  # so that ``detect`` predicts only the test split
        errors = (_errors_key(train_w, val_w), *model.errors)
    save_network(out / "model.npz", model.network, model.spec.threshold, config.pipeline.look_back, errors)
    manifest = run_manifest(model, train, wall_clock_seconds=round(seconds, 3))
    manifest["objective"] = config.objective
    atomic_write_json(out / "manifest.json", manifest)
    print(f"trained {config.objective} model for {len(model.history)} epochs -> {out / 'model.npz'}")
    if model.spec.threshold is not None:
        print(f"detection threshold: {model.spec.threshold:.6g}")
    return EXIT_OK


def _require_geometry(p: BenchmarkConfig, look_back: int, look_ahead: int) -> None:
    """Refuse windows other than those the model was trained on."""
    if (look_back, look_ahead) != (p.look_back, p.look_ahead):
        raise ConfigError(
            f"the model was trained on windows of look_back {look_back}, look_ahead {look_ahead}; "
            f"the config has look_back {p.look_back}, look_ahead {p.look_ahead}"
        )


def cmd_detect(config: RunConfig, model_path: str) -> int:
    series, windows, labels, offsets = _prepared_splits(config)
    network, threshold, look_back, saved = load_network(model_path)
    _require_geometry(config.pipeline, look_back, network.output_size)
    if config.rule == "evt-lstm" and threshold is None:
        raise ConfigError("model file has no detection threshold (evt or svdd objective)")
    test_errs = prediction_errors(network, windows[2])
    if config.rule == "evt-lstm":  # the model file carries its own detection threshold
        det = threshold_decisions(test_errs, threshold)
        params = {"threshold": threshold}
    else:
        errs = (*_calibration_errors(network, saved, windows[0], windows[1]), test_errs)
        p = config.pipeline
        try:
            det, params = calibrate(config.rule, errs, labels, p.risk_grid, p.train.init_quantile)
        except LabelsRequired as exc:
            raise ConfigError(str(exc)) from exc

    out = Path(config.output_dir)
    lines = ["index,timestamp,error,score,flag"]
    indices = offsets[2] + windows[2].target_indices
    columns = (  # Python ints and floats: formatting them is faster than numpy scalars
        indices.tolist(),
        series.timestamps[indices].tolist(),
        np.asarray(test_errs, dtype=float).tolist(),
        np.asarray(det.scores, dtype=float).tolist(),
        np.asarray(det.flags, dtype=int).tolist(),
    )
    for i, timestamp, err, score, flag in zip(*columns):
        lines.append(f"{i},{timestamp!r},{err!r},{score!r},{flag}")
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
    """The ``index`` and ``flag`` columns of a detections.csv, read in one
    pass. Raises MalformedInput naming a file that is not UTF-8 or its first
    faulty line: a missing column, a short row, an index that is not a point
    of the series or that an earlier row listed, or a flag not 0 or 1."""
    rows: dict[int, bool] = {}  # each index's flag, in file order
    with open_text(path) as fh:
        header = fh.readline().strip().split(",")
        for name in ("index", "flag"):
            if name not in header:
                raise MalformedInput(f"{path}, line 1: no {name!r} column in the header")
        index_col, flag_col = header.index("index"), header.index("flag")
        for lineno, line in enumerate(fh, start=2):
            cells = line.strip().split(",")
            if cells == [""]:
                continue
            if len(cells) < len(header):
                raise MalformedInput(f"{path}, line {lineno}: {len(cells)} of {len(header)} cells")
            try:
                index = int(cells[index_col])
            except ValueError:
                index = -1
            if not 0 <= index < series_length:
                raise MalformedInput(f"{path}, line {lineno}: index {cells[index_col]!r} is not a "
                                     f"point of the {series_length}-point series")
            if cells[flag_col] not in ("0", "1"):
                raise MalformedInput(f"{path}, line {lineno}: flag {cells[flag_col]!r} is not 0 or 1")
            if index in rows:
                raise MalformedInput(f"{path}, line {lineno}: index {index} repeats an earlier row's")
            rows[index] = cells[flag_col] == "1"
    return np.asarray(list(rows), dtype=int), np.asarray(list(rows.values()), dtype=bool)


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
    for flag, value in (("--level", level), ("--risk", risk)):
        check(0 < value < 1, flag, "lie in (0, 1)", value)  # NaN fails too
    values = []
    with open_text(input_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError:
                raise MalformedInput(f"{input_path}, line {lineno}: {line!r} is not a number") from None
            if not math.isfinite(value):
                raise MalformedInput(f"{input_path}, line {lineno}: {line!r} is not a finite number")
            values.append(value)
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
    p.add_argument("--objective", choices=OBJECTIVES, help="training objective")

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
    # numpy's floating-point warnings stay silent: typed checks refuse every
    # non-finite result, and a failure's stderr is its one JSON line.
    with np.errstate(all="ignore"):
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
        except (EvtdetectError, OSError) as exc:
            _fail(exc, "runtime")
            return EXIT_RUNTIME


def _fail(exc: Exception, kind: str) -> None:
    message = {"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(message), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
