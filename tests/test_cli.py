import json

import numpy as np
import pytest

from evtdetect.cli import main, parse_config
from evtdetect.data import SplitSpec
from evtdetect.synthetic import make_spike_series, write_csv


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
        model = tmp_path / "model.npz"
        np.savez(model, meta=np.frombuffer(json.dumps({"format_version": 99}).encode(), dtype=np.uint8))
        cfg = write_config(tmp_path, config_doc, output_dir=str(tmp_path / "out"))
        assert main(["detect", "--config", cfg, "--model", str(model)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"kind": "runtime", "type": "UnsupportedModelFormat",
                                "message": "unsupported model format version 99"}

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
