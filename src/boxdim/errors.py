"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific type that applies rather than bare ValueError/RuntimeError.
"""
import operator


class BoxdimError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(BoxdimError, ValueError):
    """An element (or generator) does not conform to the group it was used with."""


class ConfigError(BoxdimError, ValueError):
    """Invalid run configuration: bad moduli, unknown task, malformed values."""


class ResourceCapError(BoxdimError, RuntimeError):
    """A vertex/state/memory cap was exceeded before the computation finished."""


class VerificationError(BoxdimError, RuntimeError):
    """A certified bound or verified-construction check failed.

    Raised when a property the construction is supposed to guarantee does not
    hold on the computed data; this always indicates a bug or tampered input,
    never a legitimate run outcome.
    """


class GrowthBoundError(BoxdimError, ValueError):
    """A claimed polynomial growth bound does not hold at some radius."""


class InsufficientInputError(BoxdimError, RuntimeError):
    """The diagonal-transfer machinery ran out of usable input radii."""


def check_int(name: str, value, low: int) -> int:
    """value as an int, refused with ConfigError unless operator.index
    reads it (so 2.5, 2.0, "3" and None are refused, numpy integers pass)
    and it is at least low."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if value < low:
        raise ConfigError(f"{name} must be >= {low}, got {value}")
    return value
