"""The benchmark's three workloads.

Each workload makes its inputs from the data seed in ``setup`` and then
repeats one operation, calling evtdetect only through public functions looked
up on their modules at call time, so a traced run sees every call. An
operation returns what it scored, or raises :class:`CheckFailed` when an
output is wrong.

Sizes are chosen so that one operation takes a few seconds on a 2-core
machine: a run repeats it several times and reports the median.
``tiny=True`` shrinks every size for the self-tests.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import evtdetect.cli
import evtdetect.evaluation
import evtdetect.evt
from evtdetect.data import SplitSpec
from evtdetect.evaluation import BenchmarkConfig
from evtdetect.synthetic import make_spike_series, write_csv
from evtdetect.training import TrainConfig

# Metric keys of the four rules, as the benchmark report names them.
RULES = ("gaussian", "tukey", "evt", "evt_lstm")


class CheckFailed(Exception):
    """An operation finished but one of its outputs is wrong."""


@dataclass
class Facts:
    """What one operation produced: test-split F1 per rule and the number of
    test points scored over all rules."""

    f1: dict[str, float] = field(default_factory=dict)
    scored_points: int = 0


def _same_as_first(workload, value, what: str) -> None:
    if workload.first is None:
        workload.first = value
    elif value != workload.first:
        raise CheckFailed(f"{what} differs from the first operation's")


class SpikeBenchmark:
    """One ``evaluation.benchmark()`` call: train the forecaster, calibrate
    and score the three error rules, train the end-to-end model.

    The criterion-5 configuration with 6 epochs instead of 40 and a τ
    re-estimate every 3 instead of every 20: the phases and batch shapes are
    the same, an operation takes seconds instead of half a minute, and
    patience 10 never stops training early, so every seed does the same work.
    """

    name = "spike-benchmark"

    def __init__(self, tiny: bool = False):
        self.train = TrainConfig(
            hidden_sizes=(8,) if tiny else (24,),
            epochs=2 if tiny else 6,
            threshold_update_period=1 if tiny else 3,
            dropout_rate=0.1,
            weight_decay=1e-4,
            risk=1e-4,
            patience=10,
            seed=1,
        )

    def setup(self, seed: int, workdir: Path) -> None:
        self.series = make_spike_series(
            length=2000, period=50, val_spikes=3, test_spikes=10,
            spike_magnitude_range=(10, 16), seed=seed,
        )
        self.config = BenchmarkConfig(split=SplitSpec(0.8, 0.1, 0.1), look_back=20, train=self.train)
        self.first = None

    def operation(self) -> Facts:
        report = evtdetect.evaluation.benchmark(self.series, self.config)
        for rule in RULES:
            row = report["rules"].get(rule, {})
            if "metrics" not in row:
                raise CheckFailed(f"rule {rule} returned no metrics: {row}")
        _same_as_first(self, json.dumps(report, sort_keys=True), "benchmark report")
        return Facts(
            f1={rule: report["rules"][rule]["metrics"]["f1"] for rule in RULES},
            scored_points=len(RULES) * report["scored_points"],
        )


class CliDetect:
    """One round of ``detect`` then ``evaluate`` through ``cli.main`` for each
    rule, from a model that set-up trained once with the evt objective.

    20k points split 0.5/0.25/0.25 (the Gaussian threshold is calibrated on
    5k validation scores), and 2 training epochs in set-up, so that set-up,
    which a run repeats, stays within seconds.
    """

    name = "cli-detect"
    cli_rules = ("gaussian", "tukey", "evt", "evt-lstm")
    look_back = 20

    def __init__(self, tiny: bool = False):
        self.length = 3000 if tiny else 20000
        self.spikes = 8 if tiny else 40
        self.hidden = 4 if tiny else 16

    def setup(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        series = make_spike_series(
            length=self.length, val_region=(0.5, 0.75), test_region=(0.75, 1.0),
            val_spikes=self.spikes, test_spikes=self.spikes, seed=seed,
        )
        write_csv(series, workdir / "series.csv")
        config = {
            "dataset": {"path": str(workdir / "series.csv"), "label_column": "label"},
            "split": {"train_frac": 0.5, "val_frac": 0.25, "test_frac": 0.25},
            "look_back": self.look_back,
            "training": {
                "hidden_sizes": [self.hidden], "epochs": 2, "threshold_update_period": 1,
                "dropout_rate": 0.1,
            },
            "output_dir": str(workdir / "model"),
        }
        (workdir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        self._cli("train", "--objective", "evt")
        # The test split holds the points after floor(0.5 n) + floor(0.25 n);
        # each of them past the first look_back is the target of one window.
        test_start = self.length // 2 + self.length // 4
        self.test_indices = list(range(test_start + self.look_back, self.length))
        self.first = None

    def _cli(self, *args: str) -> None:
        argv = [args[0], "--config", str(self.workdir / "config.json"), *args[1:]]
        with contextlib.redirect_stdout(io.StringIO()):
            code = evtdetect.cli.main(argv)
        if code != 0:
            raise CheckFailed(f"evtdetect {' '.join(argv)} exited with {code}")

    def operation(self) -> Facts:
        facts = Facts()
        model = str(self.workdir / "model" / "model.npz")
        for rule in self.cli_rules:
            out = self.workdir / rule
            self._cli("detect", "--model", model, "--rule", rule, "--output-dir", str(out))
            self._cli("evaluate", "--detections", str(out / "detections.csv"), "--output-dir", str(out))
            with open(out / "detections.csv", encoding="utf-8") as fh:
                indices = [int(line.split(",", 1)[0]) for line in fh.read().splitlines()[1:]]
            if indices != self.test_indices:
                raise CheckFailed(
                    f"{rule}: detections.csv has {len(indices)} rows, not one per test window "
                    f"({len(self.test_indices)})"
                )
            metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
            if metrics["points_scored"] != len(indices):
                raise CheckFailed(f"{rule}: metrics.json scored {metrics['points_scored']} points")
            facts.f1[rule.replace("-", "_")] = metrics["metrics"]["f1"]
            facts.scored_points += len(indices)
        _same_as_first(self, facts.f1, "F1 per rule")
        return facts


class GpdCompliance:
    """The shape of acceptance criterion 8: for each γ, fit a GPD to m=1000
    draws from GPD(γ, 1) and run the Anderson-Darling bootstrap test.

    19 bootstrap refits per test instead of 99 keep an operation at 60 fits;
    each refit is a full ``fit_gpd`` at m=1000, which is what the fit's speed
    depends on.
    """

    name = "gpd-compliance"
    gammas = (-0.1, 0.1, 0.3)

    def __init__(self, tiny: bool = False):
        self.size = 200 if tiny else 1000
        self.reps = 3 if tiny else 19

    def setup(self, seed: int, workdir: Path) -> None:
        self.samples = []
        self.ad_seeds = []
        for k, gamma in enumerate(self.gammas):
            # Inverse-CDF draws made here, not by the program under test.
            u = np.random.default_rng([seed, k]).uniform(size=self.size)
            self.samples.append(np.expm1(-gamma * np.log1p(-u)) / gamma)
            self.ad_seeds.append(int(np.random.SeedSequence([seed, k, 1]).generate_state(1)[0]))
        self.first = None

    def operation(self) -> Facts:
        p_values = []
        for gamma, x, ad_seed in zip(self.gammas, self.samples, self.ad_seeds):
            fit = evtdetect.evt.fit_gpd(x)
            if not (math.isfinite(fit.gamma) and fit.sigma > 0):
                raise CheckFailed(f"fit for γ={gamma} gave γ̂={fit.gamma}, σ̂={fit.sigma}")
            # The estimate's standard error at m=1000 is about 0.03.
            if abs(fit.gamma - gamma) > 0.25 * math.sqrt(1000 / self.size):
                raise CheckFailed(f"fit for γ={gamma} is far off: γ̂={fit.gamma}")
            ad = evtdetect.evt.anderson_darling(x, fit, bootstrap_reps=self.reps, seed=ad_seed)
            if not 0.0 <= ad.p_value <= 1.0:
                raise CheckFailed(f"p-value {ad.p_value} for γ={gamma} lies outside [0, 1]")
            p_values.append(ad.p_value)
        _same_as_first(self, p_values, "p-values")
        return Facts()


WORKLOADS = {w.name: w for w in (SpikeBenchmark, CliDetect, GpdCompliance)}
