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
from dataclasses import dataclass

from .config import tolerance
from .moments import third_moment_relation_residual
from .porism import Gauge, _radius_window
from .porism import neighbor_bends  # noqa: F401  (a binding bench/tracing.py wraps)

Quadruple = tuple[float, float, float, float]

RELATION_TOLERANCE = 1e-6  # relative to I3 = sum b^3 > 0; inputs may be decimal-rounded


def actual_moments(radii: Quadruple) -> tuple[float, float, float]:
    """First three power sums of the reciprocal radii."""
    if len(radii) != 4:
        raise ValueError("expected exactly four radii")
    if any(not (v > 0.0) or not math.isfinite(v) for v in radii):
        raise ValueError(f"radii must be positive finite numbers, got {radii}")
    bends = [1.0 / v for v in radii]
    return (
        sum(bends),
        sum(b * b for b in bends),
        sum(b**3 for b in bends),
    )


@dataclass(frozen=True, slots=True)
class VirtualGaugeResult:
    """Candidate parent data recovered from (I1, I2), or the failure reason.

    curvatures holds (a, A) with a = 1/r > 0 the inner candidate and
    A = -1/R < 0 the outer one; gauge holds (R, r, d).
    """

    curvatures: tuple[float, float] | None
    gauge: tuple[float, float, float] | None
    failure: str | None

    @property
    def ok(self) -> bool:
        return self.gauge is not None


def virtual_gauge(I1: float, I2: float) -> VirtualGaugeResult:
    """Solve 16 a^2 - 8 I1 a + (8 I2 - 3 I1^2) = 0 for the parent curvatures.

    The two roots are I1/4 +- sqrt(I1^2 - 2 I2)/2 and must straddle zero.
    The candidate center distance comes from the order-4 closure relation
    d^2 = R^2 - 6 R r + r^2; roundoff-sized negatives clamp to zero so that
    concentric candidates survive.
    """
    return _virtual_gauge(I1, I2, tolerance())


def _virtual_gauge(I1: float, I2: float, tol: float) -> VirtualGaugeResult:
    disc = I1 * I1 - 2.0 * I2
    if disc < 0.0:
        return VirtualGaugeResult(None, None, "no real curvature pair (I1^2 < 2 I2)")
    half = math.sqrt(disc) / 2.0
    a = I1 / 4.0 + half
    A = I1 / 2.0 - a
    if not (a > 0.0 > A):
        return VirtualGaugeResult(
            (a, A), None, f"curvature roots ({a:.6g}, {A:.6g}) do not straddle zero"
        )
    r = 1.0 / a
    R = -1.0 / A
    radicand = R * R - 6.0 * R * r + r * r
    if abs(radicand) <= tol * max(1.0, R * R):
        radicand = 0.0  # concentric candidate up to roundoff
    if radicand < 0.0:
        return VirtualGaugeResult(
            (a, A),
            None,
            f"candidate parents (R={R:.6g}, r={r:.6g}) close no 4-chain",
        )
    return VirtualGaugeResult((a, A), (R, r, math.sqrt(radicand)), None)


@dataclass(frozen=True, slots=True)
class FeasibilityReport:
    """adjacency_check is constructive mode's ordering verdict, set once the range
    check passes: at n = 4 it is one equation, b0 + b2 = b1 + b3, so all four agree."""

    radii: Quadruple
    mode: str
    actual_moments: tuple[float, float, float]
    virtual_curvatures: tuple[float, float] | None
    virtual_gauge: tuple[float, float, float] | None
    range_check: tuple[bool, bool, bool, bool] | None
    relation_residual: float
    adjacency_check: tuple[bool, bool, bool, bool] | None
    feasible: bool
    reasons: tuple[str, ...]


def feasibility_check(radii: Quadruple, mode: str = "paper") -> FeasibilityReport:
    """Decide whether an ordered quadruple occurs as the radii of a 4-chain.

    mode "paper" runs the moment algorithm only (order-blind); mode
    "constructive" additionally requires opposite bends to have equal sums,
    which distinguishes permutations of one multiset.
    """
    if mode not in ("paper", "constructive"):
        raise ValueError("mode must be 'paper' or 'constructive'")
    tol = tolerance()
    quad: Quadruple = tuple(float(v) for v in radii)
    I1, I2, I3 = actual_moments(quad)
    reasons: list[str] = []

    vg = _virtual_gauge(I1, I2, tol)
    if not vg.ok:
        reasons.append(vg.failure or "virtual gauge recovery failed")

    relation_residual = third_moment_relation_residual(I1, I2, I3)
    if abs(relation_residual) > RELATION_TOLERANCE * abs(I3):
        reasons.append(
            f"third-moment relation violated (residual {relation_residual:.6g})"
        )

    range_check = None
    adjacency_check = None
    if vg.ok:
        assert vg.gauge is not None
        gauge = Gauge(4, *vg.gauge)
        rng, range_check = _radius_window(gauge, quad, tol)
        if not all(range_check):
            bad = [v for v, ok in zip(quad, range_check) if not ok]
            reasons.append(
                f"radii {bad} outside the candidate range [{rng.r_min:.6g}, {rng.r_max:.6g}]"
            )
        elif mode == "constructive":
            b0, b1, b2, b3 = (1.0 / v for v in quad)
            ordering_residual = (b0 + b2) - (b1 + b3)
            limit = RELATION_TOLERANCE * max(b0, b1, b2, b3)
            adjacency_check = (abs(ordering_residual) <= limit,) * 4
            if not adjacency_check[0]:
                reasons.append(
                    f"opposite bend sums differ by {ordering_residual:.6g}, beyond "
                    f"{limit:.6g} ({RELATION_TOLERANCE:g} x the largest bend): ordering is not realizable"
                )

    return FeasibilityReport(
        radii=quad,
        mode=mode,
        actual_moments=(I1, I2, I3),
        virtual_curvatures=vg.curvatures,
        virtual_gauge=vg.gauge,
        range_check=range_check,
        relation_residual=relation_residual,
        adjacency_check=adjacency_check,
        feasible=not reasons,
        reasons=tuple(reasons),
    )
