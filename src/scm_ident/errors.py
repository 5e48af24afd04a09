"""Exception types shared across the package, the key check that every
JSON document reader applies, and the one reader per kind of outside value
(array, model block, integer, finite real, name list, path) through which
every public function reads its input; each raises the caller's error class."""

import math
import numbers
import os

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


def _as_array(value, error, what: str) -> np.ndarray:
    try:
        return np.asarray(value)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise error(f"{what}: {exc}") from exc


def read_array(value, error, what: str) -> np.ndarray:
    """``value`` as a float64 array, not copied when it is one; ragged
    nesting, or an entry that is not a number, raises ``error``."""
    array = _as_array(value, error, what)
    if array.dtype is _FLOAT64:
        return array
    if array.dtype.kind not in "biuf":  # strings, None and objects, such as ints beyond 64 bits
        raise error(f"{what} entries must be numbers, got dtype {array.dtype}")
    return array.astype(np.float64)


def read_ints(value, error, what: str) -> np.ndarray:
    """``value`` as an int64 array, not copied when it is one; ragged
    nesting, or an entry that is not an integer of at most 64 bits (a
    float or a bool too), raises ``error``; an empty array of any dtype
    reads as an empty int64 one. An unsigned entry past the int64 range
    reads as a negative one."""
    array = _as_array(value, error, what)
    if array.size == 0:  # [] reads as float64
        return np.empty(array.shape, np.int64)
    if array.dtype.kind not in "iu":
        raise error(f"{what} must be integers, got dtype {array.dtype}")
    return array.astype(np.int64, copy=False)


def read_block(value, shape: tuple, error, what: str) -> np.ndarray:
    """``value`` as a read-only C-ordered float64 copy of ``shape``, ``[]``
    reading as the 0x0 block where ``shape`` is (0, 0); a wrong shape raises
    :class:`ShapeError`, a malformed or non-finite entry ``error``."""
    block = np.array(read_array(value, error, what), order="C")
    if block.shape == (0,) and shape == (0, 0):  # JSON writes a 0x0 matrix as []
        block = block.reshape(0, 0)
    if block.shape != shape:
        raise ShapeError(f"{what} must have shape {shape}, got {block.shape}")
    if not np.isfinite(block).all():
        raise error(f"{what} entries must be finite")
    block.setflags(write=False)
    return block


def read_task_blocks(values, shapes, error, what: str) -> tuple[np.ndarray, ...]:
    """One :func:`read_block` per task from a list or tuple, task ``k``'s
    named ``<what> t<k+1>``; anything else raises ``error``, a wrong count
    :class:`ShapeError`."""
    if not isinstance(values, (list, tuple)):
        raise error(f"{what} must be a list of blocks, one per task")
    if len(values) != len(shapes):
        raise ShapeError(f"{what} must have {len(shapes)} blocks, one per task, got {len(values)}")
    return tuple(
        read_block(value, shape, error, f"{what} t{k + 1}")
        for k, (value, shape) in enumerate(zip(values, shapes))
    )


def read_task_keyed(document, num_tasks: int, what: str, default=None) -> list:
    """The values of a JSON object keyed ``t1``..``t<num_tasks>``, in task
    order; an unknown key raises :class:`DataError`, and so does a missing
    one unless it takes ``default``."""
    keys = [f"t{k + 1}" for k in range(num_tasks)]
    check_keys(document, what, keys, keys if default is None else ())
    return [document.get(key, default) for key in keys]


def read_int(value, error, what: str) -> int:
    """``value`` as an int; a bool, a non-integral value or an int of more
    than 4096 bits (far beyond any count, seed or alpha) raises ``error``.
    Neither message prints the value, whose text may be unbounded."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{what} must be an integer, got {type(value).__name__}")
        value = int(value)
    if value.bit_length() > 4096:  # the message never prints the digits
        raise error(f"{what} is an integer of {value.bit_length()} bits, beyond 4096")
    return value


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


def read_path(value, error, what: str):
    """``value`` unchanged; anything but a str or os.PathLike raises ``error``."""
    if not isinstance(value, (str, os.PathLike)):
        raise error(f"{what} must be a path, got {type(value).__name__}")
    return value
