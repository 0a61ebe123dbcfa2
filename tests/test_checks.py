import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import evtdetect
from evtdetect.checks import (
    OPEN_UNIT,
    POSITIVE,
    ConfigError,
    EvtdetectError,
    number,
    one_of,
    section,
    string,
    whole,
)

PACKAGE = Path(evtdetect.__file__).parent


@pytest.mark.parametrize("call, message", [
    (lambda: whole("epochs", 2.5), "epochs must be a whole number, got 2.5"),
    (lambda: whole("epochs", "3"), "epochs must be a whole number, got '3'"),
    (lambda: whole("epochs", 0.0, POSITIVE), "epochs must be positive, got 0"),
    (lambda: number("risk", float("nan"), OPEN_UNIT), "risk must be a finite number, got nan"),
    (lambda: number("risk", 10**400, OPEN_UNIT), f"risk must be a finite number, got {10**400}"),
    (lambda: number("risk", 1, OPEN_UNIT), "risk must lie in (0, 1), got 1"),
    (lambda: number("p", "x", POSITIVE, "be a finite number > 0"), "p must be a finite number > 0, got 'x'"),
    (lambda: number("p", -1, POSITIVE, "be a finite number > 0"), "p must be a finite number > 0, got -1"),
    (lambda: one_of("rule", "x", ("a", "b")), "rule must be one of ('a', 'b'), got 'x'"),
    (lambda: string("path", None), "path must be a string, got None"),
    (lambda: string("label", 5, null=True), "label must be a string or null, got 5"),
    (lambda: section("split", [1]), "split must be a JSON object, got [1]"),
], ids=["fraction", "string-count", "zero-count", "nan", "huge-int", "outside-range", "combined-type",
        "combined-range", "not-one-of", "null-string", "number-for-string", "list-section"])
def test_field_check_messages(call, message):
    with pytest.raises(ConfigError) as info:
        call()
    assert str(info.value) == message


def test_field_checks_return_what_they_accept():
    assert whole("n", 3.0, POSITIVE) == 3 and type(whole("n", 3.0)) is int
    assert number("risk", 0.5, OPEN_UNIT) == 0.5
    assert string("label", None, null=True) is None
    assert section("split", None) == {}


def _scoped(tree: ast.AST):
    """Each node of ``tree`` with the dotted name of the functions and
    classes it lies in."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield child, inner
            yield from walk(child, inner)
    return walk(tree, "")


def _value_error_raises(tree: ast.AST) -> list[str]:
    """The scope of each ``raise ValueError`` in ``tree``."""
    def is_value_error(exc):
        name = exc.func if isinstance(exc, ast.Call) else exc
        return isinstance(name, ast.Name) and name.id == "ValueError"
    return [scope for node, scope in _scoped(tree) if isinstance(node, ast.Raise) and is_value_error(node.exc)]


def _broad_handlers(tree: ast.AST) -> list[str]:
    """The scope of each ``except`` in ``tree`` that catches ValueError,
    Exception or BaseException, alone or in a tuple, or everything."""
    found = []
    for node, scope in _scoped(tree):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(t, ast.Name) and t.id in (
                    "ValueError", "Exception", "BaseException") for t in types):
                found.append(scope)
    return found


def test_finders():
    code = """
raise ValueError("a")
def f():
    raise ValueError
class C:
    def g(self):
        try:
            raise ConfigError("b")
        except (OSError, ValueError):
            raise KeyError("c")
        except Exception:
            pass
        except:
            pass
        except TypeError:
            pass
"""
    tree = ast.parse(code)
    assert _value_error_raises(tree) == ["", "f"]
    assert _broad_handlers(tree) == ["C.g", "C.g", "C.g"]


# Each function of the package that still raises a plain ValueError: how many
# times, and why no input of the CLI reaches it. Anything the CLI can reach
# raises a type of the EvtdetectError family instead, or it is a bug.
ALLOWED_VALUE_ERRORS = {
    "data.py:LabeledSeries.__post_init__": (
        3, "argument precondition: load_series rejects non-finite values by row, normalize "
           "an overflowing range, and every caller passes aligned arrays"),
    "data.py:WindowedDataset.__post_init__": (1, "argument precondition: make_windows aligns them"),
    "data.py:make_windows": (1, "argument precondition: BenchmarkConfig checks the window sizes"),
    "detectors.py:TukeyFit.__post_init__": (2, "argument precondition: tukey_threshold computes them"),
    "detectors.py:DetectionResult.__post_init__": (1, "argument precondition: the rules align them"),
    "detectors.py:calibrate_gaussian_threshold": (1, "argument precondition: prepare aligns labels"),
    "detectors.py:tukey_threshold": (1, "argument precondition: every split has a window"),
    "detectors.py:calibrate_risk": (1, "argument precondition: prepare aligns labels"),
    "evaluation.py:confusion": (1, "argument precondition: callers index labels by the flags"),
    "evaluation.py:calibrate": (1, "argument precondition: parse_config checks the rule name"),
    "evt.py:GpdFit.__post_init__": (3, "argument precondition: fit_gpd and fit_tail build it"),
    "evt.py:AdResult.__post_init__": (1, "argument precondition: anderson_darling builds it"),
    "evt.py:initial_threshold": (1, "argument precondition: --level and init_quantile are checked"),
    "evt.py:fit_gpd": (1, "argument precondition: excesses_over gives only positive excesses"),
    "evt.py:tail_probability": (1, "argument precondition: no CLI path calls it"),
    "evt.py:anderson_darling": (1, "argument precondition: no CLI path calls it"),
    "losses.py:batch_loss": (2, "argument precondition: training passes matching shapes"),
    "network.py:Network.__post_init__": (
        5, "argument precondition: init_network builds a valid network; load_network checks the "
           "arrays' shapes and reports the dropout rate's range as UnsupportedModelFormat"),
    "network.py:forward": (1, "argument precondition: windows are (batch, look_back) by construction"),
    "network.py:backward": (1, "argument precondition: training runs forward first"),
    "optim.py:adam_step": (3, "argument precondition: TrainConfig checks the learning rate"),
    "synthetic.py:make_spike_series.inject": (2, "argument precondition: no CLI path calls it"),
    "training.py:_start": (1, "argument precondition: split_series leaves every split a window"),
    "training.py:decision_scores": (1, "argument precondition: benchmark scores only evt models"),
}


def test_plain_value_errors_are_allow_listed():
    found = Counter(f"{path.name}:{scope}" for path in sorted(PACKAGE.glob("*.py"))
                    for scope in _value_error_raises(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == Counter({site: count for site, (count, _) in ALLOWED_VALUE_ERRORS.items()})


def test_cli_catches_value_errors_only_where_it_parses_a_cell():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _broad_handlers(tree) == ["_read_detections", "cmd_fit_gpd"]


def test_every_value_error_the_package_defines_is_in_the_family():
    defined = {cls for info in pkgutil.iter_modules(evtdetect.__path__)
               for _, cls in inspect.getmembers(importlib.import_module(f"evtdetect.{info.name}"),
                                                inspect.isclass)
               if issubclass(cls, ValueError) and cls.__module__.startswith("evtdetect.")}
    assert len(defined) >= 15
    assert [cls.__name__ for cls in defined if not issubclass(cls, EvtdetectError)] == []
