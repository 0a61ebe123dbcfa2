import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evtdetect
from evtdetect import cli
from evtdetect.cli import load_config, main, parse_config
from evtdetect.data import SplitSpec, load_series, prepare
from evtdetect.detectors import prediction_errors
from evtdetect.network import SERIAL_FORMAT_VERSION, init_network, load_network, save_network
from evtdetect.synthetic import make_spike_series, write_csv
from infer_counting import count_infer_windows


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "series.csv"
    series = make_spike_series(length=1800, period=30.0, val_spikes=3, test_spikes=5,
                               margin=15, min_separation=8, seed=2)
    write_csv(series, path)
    return path


@pytest.fixture(scope="module")
def config_doc(dataset):
    return {
        "dataset": {"path": str(dataset), "label_column": "label"},
        "split": {"train_frac": 0.8, "val_frac": 0.1, "test_frac": 0.1},
        "look_back": 10,
        "look_ahead": 1,
        "training": {
            "hidden_sizes": [8], "epochs": 10, "threshold_update_period": 5,
            "learning_rate": 5e-3, "dropout_rate": 0.0, "weight_decay": 1e-4,
            "patience": 10, "seed": 0,
        },
    }


def write_config(tmp_path, doc, **extra):
    doc = {**doc, **extra}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_overflowing_values(path) -> Path:
    """1,000 draws from U(0, 1) and 100 from U(1e307, 1.79e308): at level
    0.9 the sum of the 110 excesses overflows, and so does the fitted sigma,
    about 1.05 times the largest."""
    rng = np.random.default_rng(0)
    values = np.concatenate([rng.uniform(0, 1, 1000), rng.uniform(1e307, 1.79e308, 100)])
    path.write_text("\n".join(repr(float(v)) for v in values))
    return path


class TestFitGpd:
    def test_exponential_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        p = tmp_path / "values.txt"
        p.write_text("\n".join(repr(float(v)) for v in rng.exponential(1.0, 10000)))
        assert main(["fit-gpd", "--input", str(p), "--risk", "1e-3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["gamma"]) <= 0.05
        assert abs(out["sigma"] - 1.0) <= 0.05
        # exponential closed form: T + sigma * log(peaks / (risk * total))
        expected = out["initial_threshold"] + out["sigma"] * np.log(
            out["peak_count"] / (1e-3 * out["total_count"])
        )
        assert out["detection_threshold"] == pytest.approx(expected, rel=0.05)

    def test_non_numeric_line_is_named(self, tmp_path, capsys):
        values = tmp_path / "values.txt"
        values.write_text("1.5\n\n2.5\nabc\n")
        assert main(["fit-gpd", "--input", str(values)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == f"{values}, line 4: 'abc' is not a number"

    def test_non_finite_line_is_named(self, tmp_path, capsys):
        values = tmp_path / "values.txt"
        values.write_text("1.5\n\n-inf\nnan\n")
        assert main(["fit-gpd", "--input", str(values)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": "runtime", "type": "MalformedInput",
                       "message": f"{values}, line 3: '-inf' is not a finite number"}

    def test_empty_input_exits_1(self, tmp_path, capsys):
        values = tmp_path / "values.txt"
        values.write_text("\n")
        assert main(["fit-gpd", "--input", str(values)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": "runtime", "type": "DegenerateErrors",
                       "message": "cannot take a quantile of an empty sample"}

    @pytest.mark.parametrize("flag, value", [
        ("--level", "2"), ("--level", "0"), ("--level", "nan"),
        ("--risk", "1"), ("--risk", "-1e-3"), ("--risk", "nan"),
    ])
    def test_argument_outside_the_unit_interval_exits_2(self, tmp_path, capsys, flag, value):
        never_read = tmp_path / "missing.txt"  # the flags are checked before the input is read
        assert main(["fit-gpd", "--input", str(never_read), f"{flag}={value}"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": "config", "type": "ConfigError",
                       "message": f"{flag} must lie in (0, 1), got {float(value)!r}"}

    def test_overflowing_tail_exits_1(self, tmp_path, capsys):
        values = write_overflowing_values(tmp_path / "values.txt")
        assert main(["fit-gpd", "--input", str(values), "--level", "0.9"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == {
            "kind": "runtime", "type": "DegenerateErrors",
            "message": "the fitted sigma overflows: excesses reach 1.7404459185729725e+308"}

    def test_risk_the_tail_cannot_reach_exits_1(self, tmp_path, capsys):
        values = tmp_path / "values.txt"
        values.write_text("\n".join(repr(float(v)) for v in np.random.default_rng(0).exponential(1.0, 3000)))
        # inside (0, 1), but above the 2% of points over the initial threshold
        assert main(["fit-gpd", "--input", str(values), "--risk", "0.5"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["type"]) == ("runtime", "RiskTooHigh")


class TestConfigHandling:
    def test_malformed_config_exits_2_without_outputs(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out_dir = tmp_path / "out"
        code = main(["train", "--config", str(bad), "--output-dir", str(out_dir)])
        assert code == 2
        assert not out_dir.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "config"

    def test_unknown_rule_exits_2(self, tmp_path, config_doc):
        cfg = write_config(tmp_path, config_doc, rule="zscore")
        assert main(["detect", "--config", cfg, "--model", "missing.npz"]) == 2

    def test_unknown_key_exits_2(self, tmp_path, config_doc):
        cfg = write_config(tmp_path, config_doc, bogus_key=1)
        assert main(["benchmark", "--config", cfg]) == 2

    @pytest.mark.parametrize("section, key", [("dataset", "label_colum"), ("split", "train_fraction")])
    def test_unknown_section_key_exits_2(self, tmp_path, config_doc, capsys, section, key):
        doc = {**config_doc, section: {**config_doc[section], key: 0.5}}
        cfg = write_config(tmp_path, doc)
        assert main(["detect", "--config", cfg, "--model", "missing.npz"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["type"]) == ("config", "ConfigError")
        assert key in err["message"]

    def test_unknown_preset_exits_2_with_its_message(self, tmp_path, config_doc, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out))
        assert main(["train", "--config", cfg, "--set", 'preset="nope"']) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": "config", "type": "ConfigError",
                       "message": "unknown preset 'nope'; available: bengaluru-taxi, bitcoin, ecg, "
                                  "nyc-taxi, travel-time, vehicle-occupancy, vehicular-speed"}
        assert not out.exists()

    def test_split_defaults(self):
        assert parse_config({}).pipeline.split == SplitSpec(0.8, 0.1, 0.1)
        partial = parse_config({"split": {"train_frac": 0.7, "val_frac": 0.2}})
        assert partial.pipeline.split == SplitSpec(0.7, 0.2, 0.1)

    def test_missing_dataset_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"look_back": 4})
        assert main(["benchmark", "--config", cfg]) == 2

    @pytest.mark.parametrize("data_name, out_name", [("1e3", "null"), ("null", "1e3")])
    def test_shorthand_flags_keep_their_values_as_typed(self, tmp_path, config_doc, monkeypatch,
                                                        data_name, out_name):
        # only --set values are parsed as JSON: 1e3 is not 1000.0, null not a missing value
        monkeypatch.chdir(tmp_path)
        shutil.copy(config_doc["dataset"]["path"], data_name)
        doc = {**config_doc, "dataset": {"label_column": "label"}}
        cfg = write_config(tmp_path, doc, training={**doc["training"], "epochs": 1,
                                                    "threshold_update_period": 1})
        assert main(["train", "--config", cfg, "--dataset", data_name, "--output-dir", out_name,
                     "--objective", "mse"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["config.json", data_name, out_name])
        assert (tmp_path / out_name / "model.npz").exists()

    @pytest.mark.parametrize("key, value", [
        ("training.epochs", "2.5"), ("training.batch_size", "16.5"),
        ("training.threshold_update_period", "1.5"), ("training.patience", "2.5"),
        ("training.convergence_patience", "1.5"), ("training.seed", "0.5"),
        ("training.hidden_sizes", "[8.5]"), ("look_back", "10.7"), ("look_ahead", "1.5"),
    ])
    def test_non_integral_count_exits_2(self, tmp_path, config_doc, capsys, key, value):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out))
        assert main(["train", "--config", cfg, "--set", f"{key}={value}"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["type"]) == ("config", "ConfigError")
        assert err["message"].startswith(f"{key.split('.')[-1]} must be a whole number, got ")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("look_back", "true"), ("training.epochs", "true"), ("training.hidden_sizes", "[true]"),
    ])
    def test_boolean_count_exits_2(self, tmp_path, config_doc, capsys, key, value):
        # JSON true is not the count 1
        out = tmp_path / "out"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out))
        assert main(["train", "--config", cfg, "--set", f"{key}={value}"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == f"{key.split('.')[-1]} must be a whole number, got True"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["8", '"16"', "16x", '{"a": 8}'])
    def test_hidden_sizes_must_be_a_list(self, tmp_path, config_doc, capsys, value):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out))
        assert main(["train", "--config", cfg, "--set", f"training.hidden_sizes={value}"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["type"]) == ("config", "ConfigError")
        assert err["message"].startswith("training.hidden_sizes must be a list of whole numbers, got ")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("training.hidden_sizes", "[]", "hidden_sizes must be a non-empty list of sizes >= 1, got []"),
        ("training.hidden_sizes", "[0]", "hidden_sizes must be a non-empty list of sizes >= 1, got [0]"),
        # a size numpy cannot allocate, and one whose arrays would not fit in memory
        ("training.hidden_sizes", "[100000000000000000000]",
         "hidden_sizes must hold sizes <= 1024, got [100000000000000000000]"),
        ("training.hidden_sizes", "[100000000]", "hidden_sizes must hold sizes <= 1024, got [100000000]"),
        ("training.dropout_rate", "1.5", "dropout_rate must lie in [0, 1), got 1.5"),
        ("training.weight_decay", "-1", "weight_decay must be non-negative, got -1"),
        ("look_back", "0", "look_back must be positive, got 0"),
        ("look_ahead", "-1", "look_ahead must be positive, got -1"),
        # a float setting's type is checked before any range test compares it
        ("training.learning_rate", "x", "learning_rate must be a finite number, got 'x'"),
        ("training.learning_rate", "true", "learning_rate must be a finite number, got True"),
        ("training.learning_rate", "1e400", "learning_rate must be a finite number, got inf"),
        ("training.dropout_rate", "x", "dropout_rate must be a finite number, got 'x'"),
        ("training.weight_decay", "x", "weight_decay must be a finite number, got 'x'"),
        ("training.risk", "x", "risk must be a finite number, got 'x'"),
        ("training.init_quantile", "x", "init_quantile must be a finite number, got 'x'"),
        ("training.convergence_tol", "x", "convergence_tol must be a finite number, got 'x'"),
        ("training.convergence_tol", "-1", "convergence_tol must be non-negative, got -1"),
        ("split.train_frac", "x", "train_frac must be a finite number, got 'x'"),
        ("dataset.sampling_period", "x", "sampling_period must be a finite number > 0, got 'x'"),
        ("dataset.sampling_period", "-1", "sampling_period must be a finite number > 0, got -1"),
        ("training.seed", "-1", "seed must be non-negative, got -1"),
        # each section is null or an object, and each name and path a string
        ("dataset", "x", "dataset must be a JSON object, got 'x'"),
        ("split", "x", "split must be a JSON object, got 'x'"),
        ("training", "x", "training must be a JSON object, got 'x'"),
        ("preset", '["a"]', "preset must be a string, got ['a']"),
        ("dataset.path", "5", "dataset.path must be a string, got 5"),
        ("dataset.label_column", '["a"]', "label_column must be a string or null, got ['a']"),
        ("dataset.timestamp_column", "5", "timestamp_column must be a string, got 5"),
        ("dataset.value_column", "null", "value_column must be a string, got None"),
        ("output_dir", "[1]", "output_dir must be a string, got [1]"),
    ], ids=["no-hidden-size", "zero-hidden-size", "huge-hidden-size", "large-hidden-size",
            "dropout-past-1", "negative-weight-decay", "zero-look-back", "negative-look-ahead",
            "learning-rate-string", "learning-rate-bool",
            "learning-rate-inf", "dropout-rate-string", "weight-decay-string", "risk-string",
            "init-quantile-string", "convergence-tol-string", "negative-convergence-tol",
            "train-frac-string", "sampling-period-string", "negative-sampling-period",
            "negative-seed", "dataset-string", "split-string", "training-string", "preset-list",
            "dataset-path-number", "label-column-list", "timestamp-column-number",
            "value-column-null", "output-dir-list"])
    def test_value_out_of_range_exits_2(self, tmp_path, config_doc, capsys, monkeypatch, key, value,
                                        message):
        monkeypatch.chdir(tmp_path)  # so that no output directory is made outside it
        out = tmp_path / "out"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out))
        assert main(["train", "--config", cfg, "--set", f"{key}={value}"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": "config", "type": "ConfigError", "message": message}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("value", ["[]", '["a"]', "[0]", "[2]", "[-1e-3]", "0.001", "[true]"],
                             ids=["empty", "string", "zero", "two", "negative", "scalar", "bool"])
    def test_bad_risk_grid_exits_2(self, tmp_path, capsys, evt_models, value):
        cfg, dirs = evt_models
        out = tmp_path / "out"
        assert main(["detect", "--config", cfg, "--model", str(dirs[0] / "model.npz"), "--rule", "evt",
                     "--output-dir", str(out), "--set", f"risk_grid={value}"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["type"]) == ("config", "ConfigError")
        assert err["message"] == ("risk_grid must be a non-empty list of numbers in (0, 1), "
                                  f"got {json.loads(value)!r}")
        assert not out.exists()

    def test_integral_float_counts_work(self, tmp_path, config_doc):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out))
        assert main(["train", "--config", cfg, "--set", "training.epochs=2.0",
                     "--set", "training.threshold_update_period=1.0", "--set", "look_back=10.0",
                     "--set", "training.hidden_sizes=[8.0]"]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["epochs"], config["threshold_update_period"]) == (2, 1)
        assert config["hidden_sizes"] == [8] and isinstance(config["epochs"], int)

    def test_env_var_output_dir(self, tmp_path, config_doc, monkeypatch):
        rng_dir = tmp_path / "from_env"
        monkeypatch.setenv("EVTDETECT_OUTPUT_DIR", str(rng_dir))
        cfg = write_config(tmp_path, config_doc)
        assert main(["train", "--config", cfg, "--objective", "mse"]) == 0
        assert (rng_dir / "model.npz").exists()


class TestPipeline:
    def test_train_detect_evaluate(self, tmp_path, config_doc, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out), rule="evt")
        assert main(["train", "--config", cfg, "--objective", "mse"]) == 0
        assert (out / "model.npz").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["objective"] == "mse"
        assert len(manifest["history"]) >= 1
        assert all(isinstance(r["train_loss"], float) for r in manifest["history"])

        assert main(["detect", "--config", cfg, "--model", str(out / "model.npz")]) == 0
        detections = (out / "detections.csv").read_text().strip().splitlines()
        assert detections[0] == "index,timestamp,error,score,flag"
        assert len(detections) > 1

        assert main(["evaluate", "--config", cfg, "--detections", str(out / "detections.csv")]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["metrics"]) >= {"precision", "recall", "f1", "tp", "fp", "fn", "tn"}
        total = sum(metrics["metrics"][k] for k in ("tp", "fp", "fn", "tn"))
        assert total == metrics["points_scored"]
        assert metrics["metrics"]["f1"] >= 0.8

    def test_evt_lstm_train_and_detect(self, tmp_path, config_doc):
        out = tmp_path / "run2"
        # quantile 0.95 leaves the re-estimates enough excesses
        doc = {**config_doc, "training": {**config_doc["training"], "init_quantile": 0.95}}
        cfg = write_config(tmp_path, doc, output_dir=str(out), rule="evt-lstm")
        assert main(["train", "--config", cfg, "--objective", "evt"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threshold"] > 0
        assert main(["detect", "--config", cfg, "--model", str(out / "model.npz")]) == 0
        summary = json.loads((out / "detection_summary.json").read_text())
        assert summary["rule"] == "evt-lstm"
        assert summary["params"]["threshold"] == manifest["threshold"]

    def test_evt_training_without_a_threshold_estimate_fails(self, tmp_path, config_doc, capsys):
        # About 1,430 training windows leave under 30 excesses above the 0.98
        # quantile, so every re-estimate falls back and the threshold stays 0.0.
        out = tmp_path / "run_no_tau"
        training = {"epochs": 6, "threshold_update_period": 2}
        doc = {**config_doc, "training": {**config_doc["training"], **training}}
        cfg = write_config(tmp_path, doc, output_dir=str(out), rule="evt-lstm")
        assert main(["train", "--config", cfg, "--objective", "evt"]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["type"]) == ("runtime", "NoThresholdEstimate")
        assert "none of 3 threshold re-estimates" in err["message"]
        assert not (out / "model.npz").exists()
        assert not (out / "errors.npz").exists()
        assert not (out / "manifest.json").exists()

    def test_detect_with_mse_model_under_evt_lstm_rule_fails(self, tmp_path, config_doc):
        out = tmp_path / "run3"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out), rule="evt-lstm")
        assert main(["train", "--config", cfg, "--objective", "mse"]) == 0
        assert main(["detect", "--config", cfg, "--model", str(out / "model.npz")]) == 2

    def test_svdd_model_detects_under_evt_lstm_rule(self, tmp_path, config_doc):
        out = tmp_path / "run5"
        # quantile 0.95 leaves the closing tail fit enough excesses
        training = {"epochs": 3, "threshold_update_period": 3, "init_quantile": 0.95}
        doc = {**config_doc, "training": {**config_doc["training"], **training}}
        cfg = write_config(tmp_path, doc, output_dir=str(out), rule="evt-lstm")
        assert main(["train", "--config", cfg, "--objective", "svdd"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threshold"] is not None
        assert main(["detect", "--config", cfg, "--model", str(out / "model.npz")]) == 0
        summary = json.loads((out / "detection_summary.json").read_text())
        assert summary["params"]["threshold"] == manifest["threshold"]

    def test_svdd_objective_trains(self, tmp_path, config_doc):
        out = tmp_path / "run4"
        doc = dict(config_doc)
        doc["training"] = {**doc["training"], "epochs": 3, "threshold_update_period": 3}
        cfg = write_config(tmp_path, doc, output_dir=str(out))
        assert main(["train", "--config", cfg, "--objective", "svdd"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["objective"] == "svdd"
        assert "initial_mean_abs_prediction" in manifest

    def test_unknown_model_format_is_runtime_error(self, tmp_path, config_doc, capsys):
        cfg = write_config(tmp_path, config_doc, output_dir=str(tmp_path / "out"))
        for version in (1, 99):  # 1 stored per-gate arrays and is no longer read
            model = tmp_path / "model.npz"
            meta = json.dumps({"format_version": version}).encode()
            np.savez(model, meta=np.frombuffer(meta, dtype=np.uint8))
            assert main(["detect", "--config", cfg, "--model", str(model)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == {"kind": "runtime", "type": "UnsupportedModelFormat",
                                    "message": f"unsupported model format version {version}"}

    def test_short_csv_row_is_runtime_error(self, tmp_path, config_doc, capsys):
        data = tmp_path / "short.csv"
        data.write_text("timestamp,value,label\n0,1.0,0\n1,2.0\n")
        doc = {**config_doc, "dataset": {**config_doc["dataset"], "path": str(data)}}
        cfg = write_config(tmp_path, doc, output_dir=str(tmp_path / "out"))
        assert main(["train", "--config", cfg]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"kind": "runtime", "type": "MalformedInput",
                                "message": "row 3: 2 of 3 cells"}

    def test_missing_detections_file_is_runtime_error(self, tmp_path, config_doc, capsys):
        cfg = write_config(tmp_path, config_doc)
        assert main(["evaluate", "--config", cfg, "--detections", "/nonexistent.csv"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "runtime"


    def test_missing_label_column_exits_2(self, tmp_path, config_doc, capsys):
        data = tmp_path / "unlabeled.csv"
        data.write_text("timestamp,value\n" + "".join(
            f"{t},{float(np.sin(t / 5.0))!r}\n" for t in range(400)))
        out = tmp_path / "run5"
        doc = {**config_doc, "dataset": {"path": str(data)},
               "training": {**config_doc["training"], "epochs": 2, "threshold_update_period": 1}}
        cfg = write_config(tmp_path, doc, output_dir=str(out))
        assert main(["train", "--config", cfg, "--objective", "mse"]) == 0
        model = str(out / "model.npz")
        capsys.readouterr()
        for rule in ("gaussian", "evt"):
            assert main(["detect", "--config", cfg, "--model", model, "--rule", rule]) == 2
            err = json.loads(capsys.readouterr().err)["error"]
            assert (err["kind"], err["type"]) == ("config", "ConfigError")
        assert main(["detect", "--config", cfg, "--model", model, "--rule", "tukey"]) == 0

    def test_detect_matches_benchmark_rows(self, tmp_path, config_doc):
        # One calibration path: the CLI's detect + evaluate and benchmark()
        # train the same forecaster from the same seed and agree exactly.
        out = tmp_path / "parity"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out))
        assert main(["train", "--config", cfg, "--objective", "mse"]) == 0
        assert main(["benchmark", "--config", cfg]) == 0
        rows = json.loads((out / "benchmark.json").read_text())["rules"]
        for rule in ("gaussian", "tukey", "evt"):
            rule_out = str(out / rule)
            assert main(["detect", "--config", cfg, "--model", str(out / "model.npz"),
                         "--rule", rule, "--output-dir", rule_out]) == 0
            assert main(["evaluate", "--config", cfg, "--output-dir", rule_out,
                         "--detections", str(out / rule / "detections.csv")]) == 0
            summary = json.loads((out / rule / "detection_summary.json").read_text())
            metrics = json.loads((out / rule / "metrics.json").read_text())["metrics"]
            assert summary["params"] == rows[rule]["params"]
            for key in ("tp", "fp", "fn", "tn"):
                assert metrics[key] == rows[rule]["metrics"][key], (rule, key)


class TestTypedFailures:
    """Inputs that once reached ``main`` as a plain ValueError fail with a
    type of the package's error family; anything else leaves ``main``."""

    @pytest.mark.parametrize("reader", ["config", "dataset", "detections", "fit-gpd"])
    def test_file_that_is_not_utf8_is_named(self, tmp_path, config_doc, capsys, reader):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"timestamp,value\n0,1\n1,\xff\n")
        cfg = write_config(tmp_path, config_doc, output_dir=str(tmp_path / "out"))
        argv = {
            "config": ["train", "--config", str(bad)],
            "dataset": ["train", "--config", cfg, "--dataset", str(bad)],
            "detections": ["evaluate", "--config", cfg, "--detections", str(bad)],
            "fit-gpd": ["fit-gpd", "--input", str(bad)],
        }[reader]
        code, kind, name = (2, "config", "ConfigError") if reader == "config" else (1, "runtime", "MalformedInput")
        assert main(argv) == code
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": kind, "type": name, "message": f"{bad} is not UTF-8 text"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("command", [["train", "--objective", "evt"], ["train", "--objective", "svdd"],
                                         ["benchmark"]], ids=["evt", "svdd", "benchmark"])
    def test_diverged_training_exits_1(self, tmp_path, config_doc, capsys, command):
        training = {**config_doc["training"], "epochs": 2, "threshold_update_period": 1,
                    "learning_rate": 1e300}
        cfg = write_config(tmp_path, config_doc, training=training, output_dir=str(tmp_path / "out"))
        assert main([*command, "--config", cfg]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": "runtime", "type": "DegenerateErrors", "message": "errors must be finite"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "fit-gpd"])
    def test_failure_prints_one_json_line_on_stderr(self, tmp_path, config_doc, command):
        """In a process of its own, where numpy's floating-point warnings
        would reach stderr ahead of the error line."""
        training = {**config_doc["training"], "epochs": 2, "threshold_update_period": 1}
        argv = {
            "train": ["train", "--config", write_config(tmp_path, config_doc, training=training),
                      "--objective", "evt", "--set", "training.learning_rate=1e300",
                      "--output-dir", str(tmp_path / "out")],
            "fit-gpd": ["fit-gpd", "--input", str(write_overflowing_values(tmp_path / "values.txt")),
                        "--level", "0.9"],
        }[command]
        src = str(Path(evtdetect.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "evtdetect.cli", *argv], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 1
        assert result.stdout == ""
        line, = result.stderr.splitlines()
        assert json.loads(line)["error"]["type"] == "DegenerateErrors"

    def test_untyped_error_leaves_main(self, tmp_path, config_doc, monkeypatch):
        # a bare ValueError is a bug, not bad input, so main does not report it
        model = tmp_path / "model.npz"
        save_network(model, init_network((2,), 1, seed=0), None, config_doc["look_back"])

        def broken(network, data):
            raise ValueError("injected bug")

        monkeypatch.setattr(cli, "prediction_errors", broken)
        with pytest.raises(ValueError, match="^injected bug$"):
            main(["detect", "--config", write_config(tmp_path, config_doc), "--model", str(model),
                  "--rule", "tukey", "--output-dir", str(tmp_path / "out")])


class TestEvaluateInput:
    @pytest.mark.parametrize("text, message", [
        ("timestamp,error,flag\n0,0.1,0\n", "line 1: no 'index' column in the header"),
        ("index,timestamp,error,score,flag\n1795,1.0,0.1,0.1,0\n1800,1.0,0.1,0.1,1\n",
         "line 3: index '1800' is not a point of the 1800-point series"),
        ("index,timestamp,error,score,flag\n-5,1.0,0.1,0.1,1\n",
         "line 2: index '-5' is not a point of the 1800-point series"),
        ("index,timestamp,error,score,flag\n\n1795,1.0,0.1,0.1,yes\n",
         "line 3: flag 'yes' is not 0 or 1"),
        ("index,timestamp,error,score,flag\n1795,1.0,0.1\n", "line 2: 3 of 5 cells"),
        ("index,timestamp,error,score,flag\n1795,1.0,0.1,0.1,0\n1796,1.0,0.1,0.1,1\n\n"
         "1795,1.0,0.1,0.1,0\n", "line 5: index 1795 repeats an earlier row's"),
        ("index,timestamp,error,score,flag\n1795,1.0,0.1,0.1,0\n1795,1.0,0.1,0.1,0\n"
         "1796,1.0,0.1,0.1,yes\n", "line 3: index 1795 repeats an earlier row's"),
    ], ids=["no-index-column", "index-past-the-series", "negative-index", "bad-flag", "short-row",
            "repeated-index", "first-fault-in-file-order"])
    def test_bad_detections_exit_1_without_metrics(self, tmp_path, config_doc, capsys, text, message):
        detections = tmp_path / "detections.csv"
        detections.write_text(text)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out))
        assert main(["evaluate", "--config", cfg, "--detections", str(detections)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["type"]) == ("runtime", "MalformedInput")
        assert err["message"] == f"{detections}, {message}"
        assert not (out / "metrics.json").exists()


def _detect_outputs(cfg, model, rule, out):
    assert main(["detect", "--config", cfg, "--model", str(model), "--rule", rule,
                 "--output-dir", str(out)]) == 0
    return (out / "detections.csv").read_bytes(), (out / "detection_summary.json").read_bytes()


@pytest.fixture(scope="module")
def evt_models(tmp_path_factory, config_doc):
    """Two evt models (seeds 0 and 1), each trained into its own directory."""
    root = tmp_path_factory.mktemp("evt_models")
    # quantile 0.95 leaves the re-estimates enough excesses
    doc = {**config_doc, "training": {**config_doc["training"], "init_quantile": 0.95}}
    cfg = write_config(root, doc)
    dirs = []
    for seed in (0, 1):
        out = root / f"seed{seed}"
        assert main(["train", "--config", cfg, "--objective", "evt", "--seed", str(seed),
                     "--output-dir", str(out)]) == 0
        dirs.append(out)
    return cfg, dirs


def _copy_without(model: Path, path: Path, meta_keys, arrays=()) -> Path:
    """A copy of a model file without the given meta fields and arrays, as in
    files written before those were recorded."""
    with np.load(model) as saved:
        kept = {name: saved[name] for name in saved.files if name not in arrays}
    meta = json.loads(bytes(kept["meta"]).decode())
    for key in meta_keys:
        del meta[key]
    kept["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **kept)
    return path


def _without_errors(model: Path, path: Path) -> Path:
    """A copy of a model file in the format of files written before it held
    its calibration errors."""
    return _copy_without(model, path, ["errors_key"], ["train_errors", "val_errors"])


def _sidecar(model: Path, cfg: str) -> bytes:
    """A valid errors.npz as ``train`` once wrote it next to ``model``: the
    model's errors on the training and validation windows under a sha256 key
    over the model file's bytes and those windows."""
    config = load_config(cfg, [])
    p = config.pipeline
    windows, _, _ = prepare(load_series(config.dataset_path, config.schema),
                            p.split, p.look_back, p.look_ahead)
    digest = hashlib.sha256(model.read_bytes())
    for w in windows[:2]:
        for array in (w.inputs, w.targets):
            digest.update(repr(array.shape).encode())
            digest.update(np.ascontiguousarray(array))
    network = load_network(model)[0]
    buf = io.BytesIO()
    np.savez(buf, key=np.array(digest.hexdigest()),
             **{name: prediction_errors(network, w) for name, w in zip(("train", "val"), windows)})
    return buf.getvalue()


def _as_trained(tmp_path, cfg, dirs):
    return cfg, dirs[0] / "model.npz", None


def _dataset_byte(tmp_path, cfg, dirs):
    doc = json.loads(Path(cfg).read_text())
    lines = Path(doc["dataset"]["path"]).read_text().splitlines()
    ts, value, label = lines[100].split(",")  # a training point
    d = value.index(".") + 1  # its first decimal, so that the float changes
    lines[100] = ",".join([ts, value[:d] + str((int(value[d]) + 1) % 10) + value[d + 1:], label])
    changed = tmp_path / "changed.csv"
    changed.write_text("\n".join(lines) + "\n")
    doc["dataset"]["path"] = str(changed)
    return write_config(tmp_path, doc), dirs[0] / "model.npz", None


def _saved_without_errors(tmp_path, cfg, dirs):
    model = tmp_path / "saved" / "model.npz"
    save_network(model, *load_network(dirs[0] / "model.npz")[:3])
    return cfg, model, None


def _beside_an_older_model(tmp_path, cfg, dirs):
    model = _without_errors(dirs[0] / "model.npz", tmp_path / "older" / "model.npz")
    return cfg, model, _sidecar(model, cfg)


def _stray(make_bytes):
    """A case whose errors.npz, made by ``make_bytes(tmp_path, cfg, dirs)``,
    lies next to the model as trained."""
    return lambda tmp_path, cfg, dirs: (cfg, dirs[0] / "model.npz", make_bytes(tmp_path, cfg, dirs))


def _other_seed(tmp_path, cfg, dirs):
    return _sidecar(_without_errors(dirs[1] / "model.npz", tmp_path / "seed1" / "model.npz"), cfg)


def _truncated(tmp_path, cfg, dirs):
    saved = _other_seed(tmp_path, cfg, dirs)
    return saved[: len(saved) // 2]


def _npy(tmp_path, cfg, dirs):
    np.save(tmp_path / "errors.npy", np.zeros(3))
    return (tmp_path / "errors.npy").read_bytes()


def _missing_array(tmp_path, cfg, dirs):
    with np.load(io.BytesIO(_other_seed(tmp_path, cfg, dirs))) as saved:
        np.savez(tmp_path / "partial.npz", key=saved["key"], train=saved["train"])
    return (tmp_path / "partial.npz").read_bytes()


class TestErrorsFile:
    """``train`` stores the model's errors on the training and validation
    windows in model.npz, keyed to those windows. ``detect`` uses them when
    the key matches the windows it built, and predicts them otherwise; either
    way its outputs are the same bytes. An errors.npz next to the model, as
    ``train`` once wrote, is never read."""

    @pytest.mark.parametrize("rule", ["gaussian", "tukey", "evt", "evt-lstm"])
    @pytest.mark.parametrize("case, hit", [
        (_as_trained, True),
        (_dataset_byte, False),
        (_saved_without_errors, False),
        (_beside_an_older_model, False),
        (_stray(_other_seed), True),
        (_stray(_truncated), True),
        (_stray(lambda tmp_path, cfg, dirs: b""), True),
        (_stray(lambda tmp_path, cfg, dirs: b"not an npz file"), True),
        (_stray(_npy), True),
        (_stray(_missing_array), True),
    ], ids=["present", "dataset-byte", "without-errors", "beside-an-older-model", "other-seed",
            "truncated", "empty", "garbage", "npy", "missing-array"])
    def test_outputs_do_not_depend_on_the_file(self, tmp_path, monkeypatch, evt_models, rule, case, hit):
        cfg, dirs = evt_models
        cfg, model, errors_bytes = case(tmp_path, cfg, dirs)
        reference = _without_errors(dirs[0] / "model.npz", tmp_path / "reference" / "model.npz")
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(model, run / "model.npz")
        if errors_bytes is not None:
            (run / "errors.npz").write_bytes(errors_bytes)

        counted = count_infer_windows(monkeypatch)
        expected = _detect_outputs(cfg, reference, rule, tmp_path / "reference" / "out")
        forwarded_on_miss = sum(counted)
        counted.clear()
        assert _detect_outputs(cfg, run / "model.npz", rule, run / "out") == expected

        scored = json.loads(expected[1])["points_scored"]
        if hit or rule == "evt-lstm":
            assert sum(counted) == scored  # only the test windows
        else:
            assert sum(counted) == forwarded_on_miss > scored
        if errors_bytes is not None:
            assert (run / "errors.npz").read_bytes() == errors_bytes

    @pytest.mark.parametrize("rule", ["gaussian", "tukey", "evt", "evt-lstm"])
    @pytest.mark.parametrize("setting", ["look_back=12", "look_ahead=2"], ids=["look-back", "look-ahead"])
    def test_other_window_geometry_exits_2(self, tmp_path, capsys, evt_models, rule, setting):
        """``detect`` refuses windows other than the model's, and writes
        nothing."""
        cfg, dirs = evt_models
        out = tmp_path / "out"
        assert main(["detect", "--config", cfg, "--model", str(dirs[0] / "model.npz"), "--rule", rule,
                     "--output-dir", str(out), "--set", setting]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        wanted = "look_back 12, look_ahead 1" if setting == "look_back=12" else "look_back 10, look_ahead 2"
        assert err["message"] == ("the model was trained on windows of look_back 10, look_ahead 1; "
                                  f"the config has {wanted}")
        assert not out.exists()

    @pytest.mark.parametrize("damage", [lambda e: e[:-1], lambda e: np.concatenate([[-1.0], e[1:]]),
                                        lambda e: np.concatenate([[np.nan], e[1:]])],
                             ids=["one-short", "negative", "nan"])
    def test_damaged_saved_errors_exit_1_without_output(self, tmp_path, capsys, evt_models, damage):
        """Saved errors whose key matches the windows but that are not one
        absolute error per window stop ``detect``."""
        cfg, dirs = evt_models
        with np.load(dirs[0] / "model.npz") as saved:
            arrays = {name: saved[name] for name in saved.files}
        arrays["val_errors"] = damage(arrays["val_errors"])
        np.savez(tmp_path / "model.npz", **arrays)
        out = tmp_path / "out"
        assert main(["detect", "--config", cfg, "--model", str(tmp_path / "model.npz"), "--rule", "tukey",
                     "--output-dir", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "runtime"
        assert not out.exists()

    @pytest.mark.parametrize("objective, training", [
        # at lr 0.3 the best validation epoch comes before the last, so the
        # kept predictions are the restored epoch's, not the last one's
        ("mse", {"learning_rate": 0.3, "patience": 3}),
        ("evt", {"init_quantile": 0.95}),
        ("svdd", {"epochs": 3, "threshold_update_period": 3, "init_quantile": 0.95}),
    ])
    def test_saved_errors_are_the_reloaded_models(self, tmp_path, config_doc, objective, training):
        out = tmp_path / objective
        doc = {**config_doc, "training": {**config_doc["training"], **training}}
        cfg = write_config(tmp_path, doc, output_dir=str(out))
        assert main(["train", "--config", cfg, "--objective", objective]) == 0
        history = json.loads((out / "manifest.json").read_text())["history"]
        if objective == "mse":
            val_losses = [r["val_loss"] for r in history]
            assert val_losses.index(min(val_losses)) + 1 < len(history)

        config = load_config(cfg, [])
        p = config.pipeline
        windows, _, _ = prepare(load_series(config.dataset_path, config.schema),
                                p.split, p.look_back, p.look_ahead)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "model.npz"]
        network, _, _, saved = load_network(out / "model.npz")
        for errors, w in zip(saved[1:], windows):
            assert errors.tobytes() == prediction_errors(network, w).tobytes()


def _meta_only(tmp_path, model):
    path = tmp_path / "meta-only.npz"
    meta = {"format_version": SERIAL_FORMAT_VERSION}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    return path


def _no_meta(tmp_path, model):
    path = tmp_path / "no-meta.npz"
    with np.load(model) as saved:
        np.savez(path, **{name: saved[name] for name in saved.files if name != "meta"})
    return path


def _bytes_of(name, make_bytes):
    """A case whose model file, named ``name``, holds ``make_bytes(model)``."""
    def case(tmp_path, model):
        path = tmp_path / name
        path.write_bytes(make_bytes(model))
        return path
    return case


def _edited_meta(edit):
    """A case whose model file is the trained one with its meta replaced by
    ``edit(meta)``."""
    def case(tmp_path, model):
        with np.load(model) as saved:
            arrays = {name: saved[name] for name in saved.files}
        meta = edit(json.loads(bytes(arrays["meta"]).decode()))
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(tmp_path / "m.npz", **arrays)
        return tmp_path / "m.npz"
    return case


def _as_format_2(meta):
    """The meta of a model file as format 2 wrote it: the training loss spec
    where format 3 has the threshold, and an input size."""
    spec = {"center": None, "kind": "evt", "threshold": meta.pop("threshold"), "weight_decay": 1e-4}
    return {**meta, "format_version": 2, "input_size": 1, "loss_spec": spec}


def _edited_array(name, edit):
    """A case whose model file is the trained one with the array ``name``
    replaced by ``edit(array)``."""
    def case(tmp_path, model):
        with np.load(model) as saved:
            arrays = {key: saved[key] for key in saved.files}
        arrays[name] = edit(arrays[name])
        np.savez(tmp_path / "m.npz", **arrays)
        return tmp_path / "m.npz"
    return case


def _npy_model(tmp_path, model):
    np.save(tmp_path / "model.npy", np.zeros(3))
    return tmp_path / "model.npy"


_NOT_AN_ARCHIVE = "{path} is not an .npz archive of arrays"


class TestUnreadableModelFile:
    """``detect`` refuses a model file it cannot read with exit 1, one JSON
    error naming what is wrong, and no output; it never unpickles the file."""

    @pytest.mark.parametrize("case, message", [
        (_meta_only, "model file has no 'hidden_sizes'"),
        (_no_meta, "model file has no 'meta'"),
        (lambda tmp_path, model: _copy_without(model, tmp_path / "m.npz", ["dropout_rate"]),
         "model file has no 'dropout_rate'"),
        (lambda tmp_path, model: _copy_without(model, tmp_path / "m.npz", [], ["dense_biases"]),
         "model file has no 'dense_biases'"),
        (lambda tmp_path, model: _copy_without(model, tmp_path / "m.npz", [], ["train_errors"]),
         "model file has no 'train_errors'"),
        (_bytes_of("model.npz", lambda model: model.read_bytes()[: model.stat().st_size // 2]), _NOT_AN_ARCHIVE),
        (_npy_model, _NOT_AN_ARCHIVE),
        (_bytes_of("model.npz", lambda model: b"not a model file\n"), _NOT_AN_ARCHIVE),
        (_bytes_of("model.npz", lambda model: b""), _NOT_AN_ARCHIVE),
        (_edited_meta(lambda meta: [2]), "model file's meta is not a JSON object"),
        (_edited_meta(lambda meta: {**meta, "hidden_sizes": 3}),
         "model file's 'hidden_sizes' is not a non-empty list of whole numbers >= 1: 3"),
        (_edited_meta(lambda meta: {**meta, "hidden_sizes": []}),
         "model file's 'hidden_sizes' is not a non-empty list of whole numbers >= 1: []"),
        (_edited_meta(lambda meta: {**meta, "dropout_rate": "x"}),
         "model file's 'dropout_rate' is not a number: 'x'"),
        (_edited_meta(lambda meta: {**meta, "look_back": "12"}),
         "model file's 'look_back' is not a whole number >= 1: '12'"),
        (_edited_meta(lambda meta: {**meta, "errors_key": 5}),
         "model file's 'errors_key' is not null or a string: 5"),
        (_edited_meta(lambda meta: {**meta, "look_back": None}),
         "model file's 'look_back' is not a whole number >= 1: None"),
        (_edited_meta(lambda meta: {**meta, "threshold": "x"}),
         "model file's 'threshold' is not null or a finite number: 'x'"),
        (_edited_meta(lambda meta: {**meta, "threshold": float("nan")}),
         "model file's 'threshold' is not null or a finite number: nan"),
        (_edited_meta(lambda meta: {**meta, "threshold": True}),
         "model file's 'threshold' is not null or a finite number: True"),
        (_edited_meta(lambda meta: {**meta, "threshold": {"kind": "evt"}}),
         "model file's 'threshold' is not null or a finite number: {{'kind': 'evt'}}"),
        (_edited_meta(_as_format_2), "unsupported model format version 2"),
        # hidden size 8: each layer0 array stacks 4 * 8 gate rows
        (_edited_array("layer0_W", np.ravel),
         "model file's 'layer0_W' is not a float64 array of shape (32, 1): float64 (32,)"),
        (_edited_array("dense_weights", np.ravel),
         "model file's 'dense_weights' is not a float64 array of shape (1, 8): float64 (8,)"),
        (_edited_array("layer0_W", lambda a: a.astype(str)),
         "model file's 'layer0_W' is not a float64 array of shape (32, 1): <U32 (32, 1)"),
        (_edited_array("layer0_U", lambda a: a[:8]),
         "model file's 'layer0_U' is not a float64 array of shape (32, 8): float64 (8, 8)"),
        (_edited_array("layer0_W", lambda a: np.hstack([a, a])),
         "model file's 'layer0_W' is not a float64 array of shape (32, 1): float64 (32, 2)"),
        (_edited_array("meta", lambda a: a.astype(float)), "model file's meta is not UTF-8 JSON bytes"),
        (_edited_array("meta", lambda a: np.append(a, np.uint8(0xFF))),
         "model file's meta is not UTF-8 JSON bytes"),
        (_edited_meta(lambda meta: {**meta, "output_size": "1"}),
         "model file's 'output_size' is not a whole number >= 1: '1'"),
        (_edited_meta(lambda meta: {**meta, "dropout_rate": 1.5}),
         "model file's network is not valid: dropout_rate must lie in [0, 1)"),
    ], ids=["meta-only-version", "no-meta", "no-meta-field", "no-array", "no-errors-array",
            "truncated", "npy", "text", "empty", "meta-not-an-object", "hidden-sizes-type",
            "no-hidden-sizes", "dropout-rate-type", "look-back-type", "errors-key-type",
            "look-back-null", "threshold-string", "threshold-nan", "threshold-bool", "threshold-object",
            "format-2", "vector-w", "vector-dense-weights", "string-w", "eight-row-u",
            "two-feature-w", "float-meta", "non-utf8-meta", "output-size-type", "dropout-rate-range"])
    def test_exits_1_without_output(self, tmp_path, capsys, evt_models, case, message):
        cfg, dirs = evt_models
        model = case(tmp_path, dirs[0] / "model.npz")
        out = tmp_path / "out"
        assert main(["detect", "--config", cfg, "--model", str(model), "--rule", "tukey",
                     "--output-dir", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"kind": "runtime", "type": "UnsupportedModelFormat",
                       "message": message.format(path=model)}
        assert not out.exists()


# sha256 of each rule's detections.csv, detection_summary.json and
# metrics.json from the model below.
DETECT_SHA256 = {
    "gaussian": (
        "23aae5d1b2752bcb8f8e52fdf995ada418e504af87c22aca6fc62dd46204c15d",
        "ef04f408698538e1be5550c72e2165f9a06b9143658d5569f96e3ac73dde860c",
        "529ae334c75425d3abce507aa0bc33b5c692a8fd3fda2719874584c0636c8881",
    ),
    "tukey": (
        "b3bf24af09289cfe65f73096dcb47691570b56d21942b4a088e2030d04dbd7df",
        "5a2bc4a4ee39f7b03683444cf2bc1aac08fb51fd9e45ba61388ae5f2aaf3c8d5",
        "646f8ad7d04ee673461dbe27127d1504262fea20f199dd9691a3ccf6b5d6cd42",
    ),
    "evt": (
        "9a9f5b4fcfcfad9abfaf7cc1bbba83cc132d61ec9cd841a7d18e4eca940e84dc",
        "b4824cfad385074b4cc1be6d97f1a11261c2ab06eac0837b872a2269094b898b",
        "646f8ad7d04ee673461dbe27127d1504262fea20f199dd9691a3ccf6b5d6cd42",
    ),
    "evt-lstm": (
        "172689502d5fc151a81784a0270f11d06e96d894be0050317e75fa34a3853143",
        "184b6514f34e0312dfa8ab739b80547a7c86475c723296b45f7432de823463f4",
        "529ae334c75425d3abce507aa0bc33b5c692a8fd3fda2719874584c0636c8881",
    ),
}


def test_detect_and_evaluate_outputs_keep_their_bytes(tmp_path, config_doc):
    """The model is set by hand, not trained, so that its outputs do not
    depend on the BLAS thread count: one LSTM unit that forecasts about the
    last value of its window."""
    net = init_network((1,), 1)
    layer = net.lstm_layers[0]
    layer.W[:] = [[0.0], [0.0], [0.0], [0.1]]  # gates i, f, o, g: g = tanh(0.1 x)
    layer.U[:] = 0.0
    layer.b[:] = [10.0, -10.0, 10.0, 0.0]  # i and o open, f shut
    net.dense.weights[:] = 10.0
    model = tmp_path / "model.npz"
    save_network(model, net, 0.2, config_doc["look_back"])
    cfg = write_config(tmp_path, config_doc)
    for rule, digests in DETECT_SHA256.items():
        out = tmp_path / rule
        assert main(["detect", "--config", cfg, "--model", str(model), "--rule", rule,
                     "--output-dir", str(out)]) == 0
        assert main(["evaluate", "--config", cfg, "--detections", str(out / "detections.csv"),
                     "--output-dir", str(out)]) == 0
        files = ("detections.csv", "detection_summary.json", "metrics.json")
        assert tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files) == digests, rule


# sha256 of model.npz and of manifest.json (its wall_clock_seconds line left
# out) that ``train`` writes for each objective on the tiny run below.
TRAIN_SHA256 = {
    "mse": (
        "2ee798d081580af39aca9ce7dc5cf0bb156aae2cee65c4024d685cb173566b32",
        "2976e2ab4e6467ae57940b921188179eb4b00ce0fbff3b9806e4d1b7bd480ba4",
    ),
    "evt": (
        "59508df9f77e2128a53254483e49f1578acbe0e723698aba88b79c33c81adb8e",
        "7a843e78943dadd00c51b656f220b549ca426aa34faa65195b5382de078366e7",
    ),
    "svdd": (
        "e4f9698b79472bc4013cc95416d1cc4facb2d605381ebf315ce34181eab7b7cd",
        "6fcdbcd6ce2667e96f7731451361e929dba1b910438800352d55d925b402daa8",
    ),
}


@pytest.fixture(scope="module")
def tiny_models(tmp_path_factory):
    """The config of a tiny run, and the output directory of ``train`` under
    each objective. Every matrix product of the run, and of ``detect`` on its
    models, stays below the size at which OpenBLAS starts threads, so their
    bytes do not depend on the thread count."""
    root = tmp_path_factory.mktemp("tiny")
    data = root / "series.csv"
    write_csv(make_spike_series(800, val_spikes=2, test_spikes=3, margin=10, min_separation=8, seed=4),
              data)
    cfg = write_config(root, {
        "dataset": {"path": str(data), "label_column": "label"},
        "split": {"train_frac": 0.7, "val_frac": 0.15, "test_frac": 0.15},
        "look_back": 5,
        "training": {"hidden_sizes": [4], "epochs": 4, "batch_size": 16, "threshold_update_period": 2,
                     "dropout_rate": 0.1, "init_quantile": 0.9, "seed": 2},
    })
    dirs = {}
    for objective in TRAIN_SHA256:
        dirs[objective] = root / objective
        assert main(["train", "--config", cfg, "--objective", objective,
                     "--output-dir", str(dirs[objective])]) == 0
    return cfg, dirs


def test_train_outputs_keep_their_bytes(tiny_models):
    _, dirs = tiny_models
    for objective, digests in TRAIN_SHA256.items():
        out = dirs[objective]
        manifest = (out / "manifest.json").read_bytes().splitlines(keepends=True)
        kept = b"".join(line for line in manifest if b'"wall_clock_seconds"' not in line)
        got = (hashlib.sha256((out / "model.npz").read_bytes()).hexdigest(),
               hashlib.sha256(kept).hexdigest())
        assert got == digests, objective


# For each trained model above and each rule: the exit code of ``detect``,
# then the sha256 of detections.csv, detection_summary.json and metrics.json
# when it succeeds. The gaussian, tukey and evt rules calibrate on the errors
# stored in the model file. This series' validation split holds no labeled
# anomaly, so the gaussian rule exits 1 for every model.
TRAINED_DETECT_SHA256 = {
    "mse": {
        "gaussian": (1,),
        "tukey": (
            0,
            "8c36891186ddcd96c19bbbc02f3330766a86cac51e42231e5d1fa2a9c9b9610e",
            "d378647295a80c805b94ee8d0f5dd0088328694d89c2245a05f939291400e883",
            "a5ebd8c4f6c84fe813d1ba21e9cf1d85ae142696512e9441cbf9040af8734f6f",
        ),
        "evt": (
            0,
            "babfbac74edb0cb3b4df06c775ef7b2deb4fad7b3b2f9960085011985407e4b3",
            "c1d73d3e82c45f1e256a25c355fb4793980eca511d09d59d30ae4b251c942e1b",
            "a5ebd8c4f6c84fe813d1ba21e9cf1d85ae142696512e9441cbf9040af8734f6f",
        ),
        "evt-lstm": (2,),
    },
    "evt": {
        "gaussian": (1,),
        "tukey": (
            0,
            "5d825961d286873f9be4dbf9c76b71bbadde05c8601210f6070a4e9060def0ef",
            "2d12236ac71119afa13986b04334dacf76bd20181754f17b583a91c9ba2176d5",
            "a5ebd8c4f6c84fe813d1ba21e9cf1d85ae142696512e9441cbf9040af8734f6f",
        ),
        "evt": (
            0,
            "452e2ad3143e68cd9fc66b8d43f337408ced9aa0c1ffe690dddaba7e6e54cf4e",
            "0d79879d3ea68a62f006d2ce8c68b0b244a7b614af69dcef2ced7e350046290c",
            "a5ebd8c4f6c84fe813d1ba21e9cf1d85ae142696512e9441cbf9040af8734f6f",
        ),
        "evt-lstm": (
            0,
            "cd1286c341794b03bf2d93403e04dc6eb309f37e46fd0e4610f42f58f2dff54e",
            "b28c05bb970921e3bfe3c24e0eb7b66327309e09329bd783baa5625af0b48feb",
            "a5ebd8c4f6c84fe813d1ba21e9cf1d85ae142696512e9441cbf9040af8734f6f",
        ),
    },
    "svdd": {
        "gaussian": (1,),
        "tukey": (
            0,
            "780c62162419684f4a41f4d152e4bf838026f82e435b6612a652e875e6996a69",
            "15157df34cb210ca0e0a52264a8cf41fed6c83207f517568f8ee8e05932f8b4f",
            "a5ebd8c4f6c84fe813d1ba21e9cf1d85ae142696512e9441cbf9040af8734f6f",
        ),
        "evt": (
            0,
            "0d8c5a426f1f17ab553b76789ae4c8b31af081ad1a1c8e7264258ed725333264",
            "2325db7d4dcf463e12696f757c4a7dce52a561f96a45ce1aae28669af5f6629d",
            "a5ebd8c4f6c84fe813d1ba21e9cf1d85ae142696512e9441cbf9040af8734f6f",
        ),
        "evt-lstm": (
            0,
            "bf9c3bc036d268ea8a3e65fac537150f282a5150e67d1013bee6f0e53fa470f1",
            "9762c0d28ddd822eae08313bf515ff839c17cbfcbfbf8365cb85a3fd38df2ac1",
            "a5ebd8c4f6c84fe813d1ba21e9cf1d85ae142696512e9441cbf9040af8734f6f",
        ),
    },
}


def test_detect_and_evaluate_outputs_of_trained_models_keep_their_bytes(tmp_path, tiny_models):
    cfg, dirs = tiny_models
    files = ("detections.csv", "detection_summary.json", "metrics.json")
    for objective, rules in TRAINED_DETECT_SHA256.items():
        for rule, want in rules.items():
            out = tmp_path / objective / rule
            code = main(["detect", "--config", cfg, "--model", str(dirs[objective] / "model.npz"),
                         "--rule", rule, "--output-dir", str(out)])
            got = (code,)
            if code == 0:
                assert main(["evaluate", "--config", cfg, "--detections", str(out / "detections.csv"),
                             "--output-dir", str(out)]) == 0
                got += tuple(hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files)
            assert got == want, (objective, rule)


class TestBenchmarkCommand:
    def test_byte_identical_reports(self, tmp_path, config_doc):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_config(tmp_path, config_doc, output_dir=str(out_a))
        assert main(["benchmark", "--config", cfg_a]) == 0
        cfg_b = write_config(tmp_path, config_doc, output_dir=str(out_b))
        assert main(["benchmark", "--config", cfg_b]) == 0
        assert (out_a / "benchmark.json").read_bytes() == (out_b / "benchmark.json").read_bytes()

    def test_seed_override_changes_report(self, tmp_path, config_doc):
        out_a = tmp_path / "c"
        out_b = tmp_path / "d"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out_a))
        assert main(["benchmark", "--config", cfg]) == 0
        cfg2 = write_config(tmp_path, config_doc, output_dir=str(out_b))
        assert main(["benchmark", "--config", cfg2, "--set", "training.seed=9"]) == 0
        assert (out_a / "benchmark.json").read_bytes() != (out_b / "benchmark.json").read_bytes()
