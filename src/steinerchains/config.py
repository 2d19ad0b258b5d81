"""Global numeric tolerance, overridable via the STEINER_TOL environment variable.

STEINER_TOL is read once, when this module is first imported (at the first
use of any geometric function), not at each check: setting it later in the
same process has no effect, and set_tolerance() is the one runtime control.
"""

import math
import os

DEFAULT_TOLERANCE = 1e-9


def _usable(value: float, name: str, text: object) -> float:
    """value, or ValueError naming name and text when value is NaN, infinite
    or negative: a NaN or infinite limit passes or fails every check."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {text!r}")
    return value


def _read_environment() -> tuple[float | None, str | None]:
    """(STEINER_TOL's value or the default, None), or (None, the refusal)
    when STEINER_TOL is not a finite number >= 0."""
    env = os.environ.get("STEINER_TOL")
    if not env:
        return DEFAULT_TOLERANCE, None
    try:
        value = float(env)
    except ValueError:
        value = math.nan
    try:
        return _usable(value, "STEINER_TOL", env), None
    except ValueError as exc:
        return None, str(exc)


_environment, _refusal = _read_environment()
_current = _environment  # set_tolerance()'s value while one is set


def tolerance() -> float:
    """Resolve the relative tolerance used by geometric residual checks.

    Precedence: set_tolerance(), then STEINER_TOL as it was at the library's
    first use, then the 1e-9 default. Residual comparisons scale this by the
    largest length of the configuration at hand. A STEINER_TOL that is not a
    finite number >= 0 is a ValueError naming it, raised at every read.
    """
    if _current is None:
        raise ValueError(_refusal)
    return _current


def set_tolerance(value: float | None) -> None:
    """Set (or clear, with None) the process-wide tolerance override, stored
    as a float; ValueError unless it is a finite real number >= 0 (an int or
    a float, not a bool)."""
    global _current
    if value is None:
        _current = _environment
        return
    if type(value) is bool or not isinstance(value, (int, float)):
        number = math.nan
    else:
        try:
            number = float(value)
        except OverflowError:  # an int past the float range
            number = math.inf
    _current = _usable(number, "the tolerance", value)
