"""Shared exception types and the one input-check layer.

Every public entry point checks the type of each numeric argument first,
with `_check_int` or `_check_real`, and only then its range: a value that
is not a real number (a bool or numpy bool included, which compare as 0
or 1; a string, complex number, array or None) is a ValidationError,
raised before any range test.
"""

import math
import numbers
import sys

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(ValueError):
    """A size parameter is outside the supported range."""


class ValidationError(ValueError):
    """A structured value violates one of its defining constraints."""


class EstimationError(RuntimeError):
    """A numerical estimate could not reach its accuracy target."""


def _check_int(name: str, value) -> None:
    """Raise ValidationError unless value is an int or numpy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_real(**values) -> None:
    """Raise ValidationError naming the first value that is not a real
    number: an int, float or numpy real, not a bool or numpy bool, string,
    complex number, array, other object or int past the float range.  A
    float (np.float64 too) passes at once."""
    for name, value in values.items():
        if isinstance(value, float):
            continue
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{name} must be real, got {value!r}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValidationError(f"{name} must be real, got an int past the float range")


def _real_sequence(name: str, value) -> tuple:
    """tuple(value), its entries unconverted; ValidationError where value is
    not a sequence or an entry is not a real number (`_check_real`, name[i])."""
    try:
        values = tuple(value)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence, got {value!r}") from None
    _check_real(**{f"{name}[{i}]": v for i, v in enumerate(values)})
    return values


def _real_array(value, what: str) -> np.ndarray:
    """value as a float array, or ValidationError, its message starting
    with what, where numpy cannot read it as an array or reads it with a
    dtype other than an integer or float one (a bool, string or object
    such as None)."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: {exc}") from None
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what}, got dtype {arr.dtype}")
    return arr.astype(float)


def _exp_or_inf(x: float) -> float:
    """exp(x), or inf where that exceeds the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _in_float_range(value: float, what: str) -> float:
    """value, or EstimationError where a closed form passes the float range."""
    if not math.isfinite(value):
        raise EstimationError(f"{what} exceeds the float range")
    return value
