"""Exception types shared across the package, and the key check that
every JSON document reader applies before it reads a value."""


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
