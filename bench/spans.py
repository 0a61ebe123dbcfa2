"""Span recorder that times calls into evtdetect's layers from outside the package.

Each traced function is replaced, for the length of a traced phase, by a
wrapper in every module namespace that holds a reference to it. A module that
did ``from .network import forward`` looks ``forward`` up in its own globals,
so wrapping ``evtdetect.network.forward`` alone would record nothing for the
calls made by ``training`` and ``detectors``.

Spans stay in memory; :meth:`Tracer.write` saves them when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass

PACKAGE = "evtdetect"

# The layers are the package's modules; ``synthetic`` only makes inputs and
# ``presets`` holds constants, so neither is traced.
LAYERS = ("data", "network", "losses", "optim", "evt", "detectors", "training", "evaluation", "cli")


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _len_arg(position, name):
    return lambda tracer, args, kwargs, result: len(_arg(args, kwargs, position, name))


def _epochs_run(tracer, args, kwargs, result):
    return len(result.history)


def _evt_epochs_run(tracer, args, kwargs, result):
    updates = [r["threshold_update"] for r in result.history if "threshold_update" in r]
    tracer.count("training.threshold_updates", len(updates))
    tracer.count("training.threshold_updates_retained", sum(1 for u in updates if u.get("retained_previous")))
    return len(result.history)


def _forward_name(args, kwargs):
    return "network.forward.train" if _arg(args, kwargs, 2, "train", False) else "network.forward.infer"


# (module, function, items counter or None, span namer or None).
# ``items`` is the work one call did: windows for forward and
# prediction_errors, scores for the Gaussian calibration, rows loaded, bytes
# written, epochs trained.
TRACED = (
    ("data", "load_series", lambda t, a, k, r: len(r), None),
    ("data", "split_series", None, None),
    ("data", "make_windows", None, None),
    ("network", "forward", _len_arg(1, "windows"), _forward_name),
    ("network", "backward", None, None),
    ("network", "load_network", None, None),
    ("network", "save_network", None, None),
    ("losses", "batch_loss", None, None),
    ("losses", "loss_grad_wrt_preds", None, None),
    ("optim", "adam_step", None, None),
    ("optim", "clip_global_norm", None, None),
    ("evt", "fit_gpd", None, None),
    ("evt", "anderson_darling", None, None),
    ("evt", "sample_gpd", None, None),
    ("detectors", "prediction_errors", _len_arg(1, "data"), None),
    ("detectors", "calibrate_gaussian_threshold", _len_arg(0, "val_scores"), None),
    ("detectors", "calibrate_risk", None, None),
    ("detectors", "detect", None, None),
    ("training", "train_forecaster", _epochs_run, None),
    ("training", "train_evt_lstm", _evt_epochs_run, None),
    ("training", "decision_scores", None, None),
    ("evaluation", "benchmark", None, None),
    ("evaluation", "confusion", None, None),
    ("cli", "cmd_detect", None, None),
    ("cli", "cmd_evaluate", None, None),
    ("cli", "atomic_write_text", lambda t, a, k, r: len(_arg(a, k, 1, "text").encode("utf-8")), None),
)


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float
    parent: int  # index of the enclosing traced span, -1 at the top
    items: int = 0


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


class Tracer:
    """Records one span per traced call while installed.

    ``phase`` labels the spans, so set-up and operations can be summarised
    apart. Use as a context manager: the original functions are restored on
    exit even when an operation raises.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], int] = {}
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: int) -> None:
        key = (self.phase, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name: str, items_of, name_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                name_of(args, kwargs) if name_of else name,
                tracer.phase,
                0.0,
                0.0,
                tracer._stack[-1] if tracer._stack else -1,
            )
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if items_of is not None:
                span.items = int(items_of(tracer, args, kwargs, result))
            return result

        return traced

    def __enter__(self):
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for layer, func, items_of, name_of in TRACED:
            original = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), func)
            wrapper = self._wrap(original, f"{layer}.{func}", items_of, name_of)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def summary(self, phase: str) -> dict[str, Stat]:
        """Per-name totals over the spans of one phase; self time excludes
        the time of traced calls nested inside."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.end - span.start
        stats: dict[str, Stat] = {}
        for index, span in enumerate(self.spans):
            if span.phase != phase:
                continue
            stat = stats.setdefault(span.name, Stat())
            busy = span.end - span.start
            stat.calls += 1
            stat.busy_s += busy
            stat.self_s += busy - child_s[index]
            stat.items += span.items
        return stats

    def durations(self, name: str, phase: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name and s.phase == phase]

    def write(self, path) -> None:
        """Save every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
