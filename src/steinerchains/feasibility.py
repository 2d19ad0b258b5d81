"""Decision procedure for ordered radius quadruples of closed 4-chains.

Paper mode follows the published moment algorithm: recover candidate parent
curvatures from the first two bend moments, check the radii against the
candidate family's radius range, and test the cubic relation between the
first three moments, which holds when some pairing of opposite bends has
equal sums. A 4-chain's bends are b_k = s - u cos(theta + pi k/2), so
constructive mode additionally requires b0 + b2 = b1 + b3.
"""

from __future__ import annotations

import math
import sys

from .config import tolerance
from .geometry import _Record
from .porism import _radius_range, _window
from .porism import neighbor_bends  # noqa: F401  (a binding bench/tracing.py wraps)

Quadruple = tuple[float, float, float, float]

RELATION_TOLERANCE = 1e-6  # relative to I3 = sum b^3 > 0; inputs may be decimal-rounded
# The recovered R is good to about eps * R/r of itself, the recovery's condition
# a/|A| = R/r, as A = I1/2 - a cancels: the range check's window widens by
# RECOVERY_ERROR * R/r over the tolerance, in units of R (measured at most 2.1 eps)
RECOVERY_ERROR = 4.0 * sys.float_info.epsilon


def actual_moments(radii: Quadruple) -> tuple[float, float, float]:
    """First three power sums of the reciprocal radii, each added left to right.

    ValueError unless every radius is positive and finite, and when the third
    power sum overflows (a radius below about 1.8e-103) or is below the
    normal floats (every radius above about 3.6e102), where the relation
    test, judged against I3, decides nothing.
    """
    if len(radii) != 4:
        raise ValueError("expected exactly four radii")
    r0, r1, r2, r3 = radii
    # 0 < v < inf is false for NaN, zeros, negatives and infinities alike
    if not (0.0 < r0 < math.inf and 0.0 < r1 < math.inf and 0.0 < r2 < math.inf and 0.0 < r3 < math.inf):
        raise ValueError(f"radii must be positive finite numbers, got {radii}")
    b0, b1, b2, b3 = 1.0 / r0, 1.0 / r1, 1.0 / r2, 1.0 / r3
    I3 = b0 * b0 * b0 + b1 * b1 * b1 + b2 * b2 * b2 + b3 * b3 * b3  # inf once a cube overflows
    if I3 == math.inf:
        raise ValueError(f"third moment I3 = sum 1/radius^3 overflows for radii {radii}")
    if I3 < sys.float_info.min:
        raise ValueError(f"third moment I3 = sum 1/radius^3 underflows for radii {radii}")
    return (b0 + b1 + b2 + b3, b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3, I3)


def third_moment_relation_residual(I1: float, I2: float, I3: float) -> float:
    """I3 - (3/4 I1 I2 - 1/8 I1^3); vanishes for genuine 4-chain moments."""
    return I3 - (0.75 * I1 * I2 - 0.125 * (I1 * I1 * I1))


class VirtualGaugeResult(_Record):
    """Candidate parent data recovered from (I1, I2), or the failure reason.

    curvatures holds (a, A) with a = 1/r > 0 the inner candidate and
    A = -1/R < 0 the outer one; gauge holds (R, r, d). Each field is None
    when it does not apply.
    """

    _fields = __slots__ = ("curvatures", "gauge", "failure")

    @property
    def ok(self) -> bool:
        return self.gauge is not None


def virtual_gauge(I1: float, I2: float) -> VirtualGaugeResult:
    """Solve 16 a^2 - 8 I1 a + (8 I2 - 3 I1^2) = 0 for the parent curvatures.

    The two roots are I1/4 +- sqrt(I1^2 - 2 I2)/2 and must straddle zero.
    The candidate center distance comes from the order-4 closure relation
    d^2 = R^2 - 6 R r + r^2; a radicand within tolerance() * R^2 of zero
    clamps to zero so that concentric candidates survive at every scale.
    Where I1^2 or R^2 overflows the float range the result is a failure
    that says so, never a gauge.
    """
    return VirtualGaugeResult(*_candidate(I1, I2, tolerance()))


def _candidate(
    I1: float, I2: float, tol: float
) -> tuple[tuple[float, float] | None, tuple[float, float, float] | None, str | None]:
    """The (curvatures, gauge, failure) fields of virtual_gauge's result."""
    disc = I1 * I1 - 2.0 * I2
    if disc < 0.0:
        return None, None, "no real curvature pair (I1^2 < 2 I2)"
    a = I1 / 4.0 + math.sqrt(disc) / 2.0
    A = I1 / 2.0 - a
    if not (math.inf > a > 0.0 > A):  # a = inf: I1 * I1 overflowed
        why = "overflow the float range" if a == math.inf else "do not straddle zero"
        return (a, A), None, f"curvature roots ({a:.6g}, {A:.6g}) {why}"
    r = 1.0 / a
    R = -1.0 / A
    radicand = R * R - 6.0 * R * r + r * r
    if abs(radicand) <= tol * (R * R):
        radicand = 0.0  # concentric candidate up to roundoff
    if not 0.0 <= radicand < math.inf:  # inf or NaN: R * R overflowed
        why = "close no 4-chain" if radicand < 0.0 else "overflow the float range"
        return (a, A), None, f"candidate parents (R={R:.6g}, r={r:.6g}) {why}"
    return (a, A), (R, r, math.sqrt(radicand)), None


class FeasibilityReport(_Record):
    """adjacency_check is constructive mode's ordering verdict, set once the range
    check passes: at n = 4 it is one equation, b0 + b2 = b1 + b3, so all four agree.
    The virtual_* fields are VirtualGaugeResult's, and the checks are one bool
    per radius, or None where the check did not run."""

    _fields = __slots__ = (
        "radii", "mode", "actual_moments", "virtual_curvatures", "virtual_gauge",
        "range_check", "relation_residual", "adjacency_check", "feasible", "reasons",
    )


def feasibility_check(radii: Quadruple, mode: str = "paper") -> FeasibilityReport:
    """Decide whether an ordered quadruple occurs as the radii of a 4-chain.

    mode "paper" runs the moment algorithm only (order-blind); mode
    "constructive" additionally requires opposite bends to have equal sums,
    which distinguishes permutations of one multiset.
    """
    if mode not in ("paper", "constructive"):
        raise ValueError("mode must be 'paper' or 'constructive'")
    tol = tolerance()
    quad: Quadruple = tuple(map(float, radii))
    moments = actual_moments(quad)
    I1, I2, I3 = moments
    curvatures, gauge, failure = _candidate(I1, I2, tol)
    reasons = [] if gauge else [failure]

    relation_residual = third_moment_relation_residual(I1, I2, I3)
    if not math.isfinite(relation_residual):
        raise ValueError(f"third-moment relation overflows: I1^3 with I1 = {I1:.6g} for radii {quad}")
    if abs(relation_residual) > RELATION_TOLERANCE * abs(I3):
        reasons.append(
            f"third-moment relation violated (residual {relation_residual:.6g})"
        )

    range_check = None
    adjacency_check = None
    if gauge:
        # no Gauge: the window needs no q, and the recovered pair has R/r >= 3
        # up to rounding, so Gauge's R > r > 0 check cannot fail
        R, r, _ = gauge
        r_min, r_max = _radius_range(*gauge)
        lo, hi = _window(r_min, r_max, R, tol + RECOVERY_ERROR * (R / r))
        r0, r1, r2, r3 = quad
        range_check = (lo <= r0 <= hi, lo <= r1 <= hi, lo <= r2 <= hi, lo <= r3 <= hi)
        if False in range_check:
            bad = [v for v, ok in zip(quad, range_check) if not ok]
            reasons.append(f"radii {bad} outside the candidate range [{r_min!r}, {r_max!r}]")
        elif mode == "constructive":
            b0, b1, b2, b3 = 1.0 / r0, 1.0 / r1, 1.0 / r2, 1.0 / r3
            ordering_residual = (b0 + b2) - (b1 + b3)
            limit = RELATION_TOLERANCE * max(b0, b1, b2, b3)
            adjacency_check = (abs(ordering_residual) <= limit,) * 4
            if not adjacency_check[0]:
                reasons.append(
                    f"opposite bend sums differ by {ordering_residual:.6g}, beyond "
                    f"{limit:.6g} ({RELATION_TOLERANCE:g} x the largest bend): ordering is not realizable"
                )

    return FeasibilityReport(
        quad, mode, moments, curvatures, gauge, range_check, relation_residual, adjacency_check,
        not reasons, tuple(reasons),
    )
