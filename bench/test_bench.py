"""Self-tests of the benchmark: run with ``python3 -m pytest bench -q``.

Tiny sizes keep each workload to a second or two.
"""
from __future__ import annotations

import json

import pytest

import run  # first: puts src/ on the import path

import evtdetect.cli  # noqa: E402
import evtdetect.detectors  # noqa: E402
import evtdetect.evaluation  # noqa: E402
import evtdetect.evt  # noqa: E402
import evtdetect.network  # noqa: E402
import evtdetect.training  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    result = run.run(name, seed=3, seconds=0, trace=trace, tiny=True)

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert evtdetect.training.forward is evtdetect.network.forward  # tracer removed


def test_traced_run_counts_layer_calls_per_operation():
    metrics = run.run("cli-detect", seed=3, seconds=0, trace=True, tiny=True)["metrics"]

    assert metrics["network.backward.calls"]["value"] == 0
    assert metrics["optim.adam_step.busy_s"]["value"] == 0
    assert metrics["data.load_series.calls"]["value"] == 8
    assert metrics["network.forward.infer.calls"]["value"] > 0
    assert metrics["network.save_network.busy_s"]["value"] > 0


def test_rule_error_row_is_counted_as_a_failed_operation(monkeypatch):
    def refuse(*args, **kwargs):
        raise evtdetect.detectors.NoAnomaliesInValidation("injected fault")

    monkeypatch.setattr(evtdetect.evaluation, "calibrate_gaussian_threshold", refuse)
    result = run.run("spike-benchmark", seed=3, seconds=0, trace=True, tiny=True)

    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["error_rate"]["value"] == 1.0


def test_corrupt_output_is_counted_as_a_failed_operation(monkeypatch):
    write = evtdetect.cli.atomic_write_text

    def drop_last_detection(path, text):
        if path.name == "detections.csv":
            text = text[: text.rstrip("\n").rfind("\n") + 1]
        write(path, text)

    monkeypatch.setattr(evtdetect.cli, "atomic_write_text", drop_last_detection)
    result = run.run("cli-detect", seed=3, seconds=0, trace=False, tiny=True)

    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2  # warm-up included
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_crashing_operation_is_counted_not_raised(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("injected crash")

    monkeypatch.setattr(evtdetect.evt, "anderson_darling", crash)
    result = run.run("gpd-compliance", seed=3, seconds=0, trace=False, tiny=True)

    assert result["failed"] == result["attempted"] >= 2  # warm-up included
