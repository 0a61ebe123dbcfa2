import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from evtdetect.cli import load_config, main, parse_config
from evtdetect.data import SplitSpec, load_series, prepare
from evtdetect.detectors import prediction_errors
from evtdetect.network import load_network
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
        assert err["error"] == {"kind": "runtime", "type": "ValueError",
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
    ], ids=["no-index-column", "index-past-the-series", "negative-index", "bad-flag", "short-row",
            "repeated-index"])
    def test_bad_detections_exit_1_without_metrics(self, tmp_path, config_doc, capsys, text, message):
        detections = tmp_path / "detections.csv"
        detections.write_text(text)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, config_doc, output_dir=str(out))
        assert main(["evaluate", "--config", cfg, "--detections", str(detections)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["type"]) == ("runtime", "ValueError")
        assert err["message"] == f"{detections}, {message}"
        assert not (out / "metrics.json").exists()


def _detect_outputs(cfg, model, rule, out, extra=()):
    assert main(["detect", "--config", cfg, "--model", str(model), "--rule", rule,
                 "--output-dir", str(out), *extra]) == 0
    return (out / "detections.csv").read_bytes(), (out / "detection_summary.json").read_bytes()


@pytest.fixture(scope="module")
def evt_models(tmp_path_factory, config_doc):
    """Two evt models (seeds 0 and 1), each trained into its own directory
    next to its errors.npz."""
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


def _other_seed(tmp_path, cfg, dirs):
    return cfg, (dirs[1] / "errors.npz").read_bytes(), ()


def _truncated(tmp_path, cfg, dirs):
    saved = (dirs[0] / "errors.npz").read_bytes()
    return cfg, saved[: len(saved) // 2], ()


def _npy(tmp_path, cfg, dirs):
    np.save(tmp_path / "errors.npy", np.zeros(3))
    return cfg, (tmp_path / "errors.npy").read_bytes(), ()


def _missing_array(tmp_path, cfg, dirs):
    with np.load(dirs[0] / "errors.npz") as saved:
        np.savez(tmp_path / "partial.npz", key=saved["key"], train=saved["train"])
    return cfg, (tmp_path / "partial.npz").read_bytes(), ()


def _without_look_back(model: Path, path: Path) -> Path:
    """A copy of a model file whose meta has no look_back field, as in files
    written before it was recorded."""
    with np.load(model) as saved:
        arrays = {name: saved[name] for name in saved.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    del meta["look_back"]
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    return path


def _dataset_byte(tmp_path, cfg, dirs):
    doc = json.loads(Path(cfg).read_text())
    lines = Path(doc["dataset"]["path"]).read_text().splitlines()
    ts, value, label = lines[100].split(",")  # a training point
    d = value.index(".") + 1  # its first decimal, so that the float changes
    lines[100] = ",".join([ts, value[:d] + str((int(value[d]) + 1) % 10) + value[d + 1:], label])
    changed = tmp_path / "changed.csv"
    changed.write_text("\n".join(lines) + "\n")
    doc["dataset"]["path"] = str(changed)
    return write_config(tmp_path, doc), (dirs[0] / "errors.npz").read_bytes(), ()


class TestErrorsFile:
    """``detect`` reads the training and validation errors from the errors.npz
    that ``train`` wrote next to the model when its key matches, and predicts
    them otherwise. Either way its outputs are the same bytes."""

    @pytest.mark.parametrize("rule", ["gaussian", "tukey", "evt", "evt-lstm"])
    @pytest.mark.parametrize("case, hit", [
        (lambda tmp_path, cfg, dirs: (cfg, (dirs[0] / "errors.npz").read_bytes(), ()), True),
        (_other_seed, False),
        (_dataset_byte, False),
        (_truncated, False),
        (lambda tmp_path, cfg, dirs: (cfg, b"", ()), False),
        (lambda tmp_path, cfg, dirs: (cfg, b"not an npz file", ()), False),
        (_npy, False),
        (_missing_array, False),
    ], ids=["present", "other-seed", "dataset-byte", "truncated", "empty", "garbage", "npy",
            "missing-array"])
    def test_outputs_do_not_depend_on_the_file(self, tmp_path, monkeypatch, evt_models, rule, case, hit):
        cfg, dirs = evt_models
        cfg, errors_bytes, extra = case(tmp_path, cfg, dirs)
        without, with_file = tmp_path / "without", tmp_path / "with"
        for d in (without, with_file):
            d.mkdir()
            shutil.copy(dirs[0] / "model.npz", d / "model.npz")
        (with_file / "errors.npz").write_bytes(errors_bytes)

        counted = count_infer_windows(monkeypatch)
        expected = _detect_outputs(cfg, without / "model.npz", rule, without / "out", extra)
        forwarded_on_miss = sum(counted)
        counted.clear()
        assert _detect_outputs(cfg, with_file / "model.npz", rule, with_file / "out", extra) == expected

        scored = json.loads(expected[1])["points_scored"]
        if hit or rule == "evt-lstm":
            assert sum(counted) == scored  # only the test windows
        else:
            assert sum(counted) == forwarded_on_miss > scored

    @pytest.mark.parametrize("rule", ["gaussian", "tukey", "evt", "evt-lstm"])
    @pytest.mark.parametrize("setting, recorded", [
        ("look_back=12", True), ("look_ahead=2", True), ("look_ahead=2", False),
    ], ids=["look-back", "look-ahead", "look-ahead-unrecorded-look-back"])
    def test_other_window_geometry_exits_2(self, tmp_path, capsys, evt_models, rule, setting,
                                           recorded):
        """``detect`` refuses windows other than the model's, and writes
        nothing. A model file that does not record its look_back (as those
        written before it was recorded) is checked on look_ahead alone."""
        cfg, dirs = evt_models
        model = dirs[0] / "model.npz"
        if not recorded:
            model = _without_look_back(model, tmp_path / "model.npz")
        out = tmp_path / "out"
        assert main(["detect", "--config", cfg, "--model", str(model), "--rule", rule,
                     "--output-dir", str(out), "--set", setting]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "config"
        trained = "look_back 10, look_ahead 1" if recorded else "look_ahead 1"
        wanted = "look_back 12, look_ahead 1" if setting == "look_back=12" else "look_back 10, look_ahead 2"
        assert err["message"] == (f"the model was trained on windows of {trained}; "
                                  f"the config has {wanted}")
        assert not out.exists()

    @pytest.mark.parametrize("rule", ["gaussian", "evt-lstm"])
    def test_unrecorded_look_back_is_not_checked(self, tmp_path, evt_models, rule):
        cfg, dirs = evt_models
        model = _without_look_back(dirs[0] / "model.npz", tmp_path / "model.npz")
        assert main(["detect", "--config", cfg, "--model", str(model), "--rule", rule,
                     "--output-dir", str(tmp_path / "out"), "--set", "look_back=12"]) == 0

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
        _, windows, _ = prepare(load_series(config.dataset_path, config.schema),
                                p.split, p.look_back, p.look_ahead)
        network, _, _ = load_network(out / "model.npz")
        with np.load(out / "errors.npz") as saved:
            assert sorted(saved.files) == ["key", "train", "val"]
            for name, w in zip(("train", "val"), windows):
                assert saved[name].tobytes() == prediction_errors(network, w).errors.tobytes()


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
