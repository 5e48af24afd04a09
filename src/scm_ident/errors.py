"""Exception types shared across the package, the key check that every
JSON document reader applies, and the one reader per kind of outside value
(array, integer, finite real, name list) through which every public
function reads its input; each raises the caller's error class."""

import math
import numbers

import numpy as np


class ScmIdentError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(ScmIdentError, ValueError):
    """An array or matrix has the wrong dimensions."""


class DomainError(ScmIdentError, ValueError):
    """A numeric value lies outside its permitted domain."""


class LabelError(ScmIdentError, ValueError):
    """A name list is the wrong length or contains duplicates."""


class CapacityError(ScmIdentError):
    """The request exceeds a hard size limit of the implementation."""


class ConfigError(ScmIdentError):
    """A configuration value or reference is invalid."""


class DataError(ScmIdentError):
    """Input data does not match the expected schema."""


class SingularModelError(ScmIdentError):
    """Optimization produced a numerically singular mixing map."""


class DegenerateError(ScmIdentError):
    """Input data is degenerate, e.g. a zero-variance column."""


def check_keys(document, what: str, allowed, required=()) -> None:
    """Raise :class:`DataError` unless ``document`` is a JSON object whose keys
    lie in ``allowed`` and include every ``required`` key."""
    if not isinstance(document, dict):
        raise DataError(f"{what} must be a JSON object")
    unknown = set(document) - set(allowed)
    if unknown:
        raise DataError(f"unknown {what} keys: {sorted(unknown)}")
    for key in required:
        if key not in document:
            raise DataError(f"{what} missing key {key!r}")


_FLOAT64 = np.dtype(np.float64)


def read_array(value, error, what: str) -> np.ndarray:
    """``value`` as a float64 array, not copied when it is one; ragged
    nesting, or an entry that is not a number, raises ``error``."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise error(f"{what}: {exc}") from exc
    if array.dtype is _FLOAT64:
        return array
    if array.dtype.kind not in "biuf":  # strings, None and objects, such as ints beyond 64 bits
        raise error(f"{what} entries must be numbers, got dtype {array.dtype}")
    return array.astype(np.float64)


def read_int(value, error, what: str) -> int:
    """``value`` as an int; a bool or a non-integral value raises ``error``."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def read_real(value, error, what: str) -> float:
    """``value`` as a finite float; a bool, a non-number or a non-finite value raises ``error``."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            raise error(f"{what} is an integer beyond the float range") from None
    if not math.isfinite(number):
        raise error(f"{what} must be a finite real number, got {value!r}")
    return number


def read_names(value, error, what: str) -> tuple[str, ...]:
    """``value`` as a tuple; anything but a list or tuple of strings raises ``error``."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(name, str) for name in value):
        raise error(f"{what} must be an array of strings")
    return tuple(value)
