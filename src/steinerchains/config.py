"""Global numeric tolerance, overridable via the STEINER_TOL environment variable."""

import os

DEFAULT_TOLERANCE = 1e-9

_override: float | None = None


def tolerance() -> float:
    """Resolve the relative tolerance used by geometric residual checks.

    Precedence: set_tolerance(), then STEINER_TOL, then the 1e-9 default.
    Residual comparisons scale this by the largest length of the
    configuration at hand.
    """
    if _override is not None:
        return _override
    env = os.environ.get("STEINER_TOL")
    if env:
        return float(env)
    return DEFAULT_TOLERANCE


def set_tolerance(value: float | None) -> None:
    """Set (or clear, with None) the process-wide tolerance override."""
    global _override
    _override = value
