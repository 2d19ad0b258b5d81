"""Global numeric tolerance, overridable via the STEINER_TOL environment variable."""

import math
import os

DEFAULT_TOLERANCE = 1e-9

_override: float | None = None


def tolerance() -> float:
    """Resolve the relative tolerance used by geometric residual checks.

    Precedence: set_tolerance(), then STEINER_TOL, then the 1e-9 default.
    Residual comparisons scale this by the largest length of the
    configuration at hand. A STEINER_TOL that is not a finite number >= 0
    is a ValueError naming it.
    """
    if _override is not None:
        return _override
    env = os.environ.get("STEINER_TOL")
    if env:
        try:
            value = float(env)
        except ValueError:
            value = math.nan
        return _usable(value, "STEINER_TOL", env)
    return DEFAULT_TOLERANCE


def set_tolerance(value: float | None) -> None:
    """Set (or clear, with None) the process-wide tolerance override;
    ValueError unless it is a finite number >= 0."""
    global _override
    _override = None if value is None else _usable(value, "the tolerance", value)


def _usable(value: float, name: str, text: object) -> float:
    """value, or ValueError naming name and text when value is NaN, infinite
    or negative: a NaN or infinite limit passes or fails every check."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {text!r}")
    return value
