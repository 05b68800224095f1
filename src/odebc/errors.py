"""Exception types shared across the package, and the value checks that
raise them.

Everything user-facing derives from ValidationError so the CLI can map
bad inputs to exit code 1 and real I/O failures to exit code 2.
"""

from __future__ import annotations

import math


class ValidationError(ValueError):
    """Invalid argument, config value, or precondition violation."""


class ShapeMismatchError(ValidationError):
    """Tensor shapes are inconsistent with the world or each other."""


class PlanMismatchError(ValidationError):
    """Solver invoked with a config or plan it cannot honor."""


def require_integer(value, source: str, minimum: int | None = None,
                    maximum: int | None = None) -> int:
    """A JSON integer (not a bool) within [minimum, maximum]."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)):
        bound = "" if minimum is None else f" >= {minimum}"
        if maximum is not None:
            bound += f"{' and' if bound else ''} <= {maximum}"
        raise ValidationError(f"{source} must be an integer{bound}, got {value!r}")
    return value


def require_number(value, source: str) -> float:
    """A finite JSON number (not a bool), as a float."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValidationError(f"{source} must be a finite number, got {value!r}")
    return float(value)
