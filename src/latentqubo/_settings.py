"""The rules every numeric or boolean setting passes: a count and a finite real, each
within bounds, and a flag; and a setting that holds several is iterable.

A setting that breaks its rule is a ConfigError naming it, which the command line reports
as a configuration error (exit 2).  A check that relates two settings stays with them.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


def count(name: str, value, low: int = 1, high: float = math.inf) -> int:
    """value as an int; a ConfigError naming it unless it is an integer in [low, high].

    An integer is an int or anything with __index__, such as numpy's integers, but not a bool.
    """
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or not low <= number <= high:
        _reject(name, "an integer", value, low, high, strict=False)
    return number


def real(name: str, value, low: float = -math.inf, high: float = math.inf, strict=False) -> float:
    """value as a float; a ConfigError naming it unless it is a finite real in [low, high].

    A real is an int or a float, numpy's included, but not a bool.  Where strict, low and high
    are refused too.
    """
    # int and float first: they skip the slower abstract-class check
    real_type = isinstance(value, (int, float, numbers.Real)) and not isinstance(value, bool)
    number = float(value) if real_type else math.nan
    inside = low < number < high if strict else low <= number <= high
    if not (inside and math.isfinite(number)):
        _reject(name, "a finite real", value, low, high, strict)
    return number


def flag(name: str, value) -> bool:
    """value as a bool; a ConfigError naming it unless it is a bool, numpy's included.

    A string such as "false" is refused rather than read by its truth, which would be True.
    """
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name} must be a bool, got {value!r}")
    return bool(value)


def items(name: str, value) -> tuple:
    """value's items; a ConfigError naming it unless it is iterable, such as a tuple or a list."""
    try:
        return tuple(value)
    except TypeError:
        raise ConfigError(f"{name} must be a sequence, got {value!r}") from None


def _reject(name: str, kind: str, value, low, high, strict: bool):
    ops, ends = ((">", "<"), "()") if strict else ((">=", "<="), "[]")
    bounds = [f"{op} {end}" for op, end in zip(ops, (low, high)) if math.isfinite(end)]
    if len(bounds) == 2:
        bounds = [f"in {ends[0]}{low}, {high}{ends[1]}"]
    raise ConfigError(f"{name} must be {' '.join([kind, *bounds])}, got {value!r}")
