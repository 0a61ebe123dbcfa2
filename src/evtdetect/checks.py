"""The package's error family, a ValueError so that library callers'
``except ValueError`` keeps working, and the checks of its config fields, each
raising ConfigError ``"{name} must {requirement}, got {value!r}"``."""
from __future__ import annotations

import math
from numbers import Integral, Real


class EvtdetectError(ValueError):
    """A failure the package reports on purpose, naming what is wrong; any
    other exception is a bug."""


class ConfigError(EvtdetectError):
    """Invalid or incomplete run configuration."""


class MalformedInput(EvtdetectError):
    """A data file that is not UTF-8 text, or a row that does not parse."""


# Ranges a checked number must lie in: (the requirement in words, its test).
POSITIVE = ("be positive", lambda v: v > 0)
NON_NEGATIVE = ("be non-negative", lambda v: v >= 0)
OPEN_UNIT = ("lie in (0, 1)", lambda v: 0 < v < 1)
HALF_OPEN_UNIT = ("lie in [0, 1)", lambda v: 0 <= v < 1)


def check(ok, name: str, requirement: str, value) -> None:
    """ConfigError ``"{name} must {requirement}, got {value!r}"`` unless ``ok``."""
    if not ok:
        raise ConfigError(f"{name} must {requirement}, got {value!r}")


def finite_number(value) -> bool:
    """Whether ``value`` is a real number, not a bool, whose float is finite."""
    if not isinstance(value, Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def whole(name: str, value, within=None) -> int:
    """``value`` as an int: an integer other than a bool, or a float with no
    fractional part, lying ``within`` the range given."""
    check(isinstance(value, Integral) and not isinstance(value, bool)
          or isinstance(value, float) and value.is_integer(), name, "be a whole number", value)
    count = int(value)
    if within is not None:
        check(within[1](count), name, within[0], count)
    return count


def number(name: str, value, within=None, requirement: str | None = None):
    """``value``, a :func:`finite_number` lying ``within`` the range given; the
    message says ``requirement``, when given, for either fault."""
    check(finite_number(value), name, requirement or "be a finite number", value)
    if within is not None:
        check(within[1](value), name, requirement or within[0], value)
    return value


def one_of(name: str, value, choices: tuple):
    check(value in choices, name, f"be one of {choices}", value)
    return value


def string(name: str, value, null: bool = False) -> str | None:
    check(isinstance(value, str) or null and value is None, name,
          "be a string or null" if null else "be a string", value)
    return value


def section(name: str, value) -> dict:
    """A copy of ``value``, a JSON object, or {} for None."""
    check(value is None or isinstance(value, dict), name, "be a JSON object", value)
    return dict(value or {})
