"""Shared oracles and gauge strategies for the test suite.

The oracles here re-derive geometry from first principles (tangency
equations solved by the quadratic formula, exact rational arithmetic where
it matters) so that they stay independent of the library code paths they
check.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from pathlib import Path

import mpmath
from hypothesis import strategies as st

# The library reads STEINER_TOL once, at its first use: drop the developer's
# value before that, so that the suite runs at the default tolerance.
os.environ.pop("STEINER_TOL", None)

from steinerchains import (  # noqa: E402
    Gauge,
    Orientation,
    OrientedCircle,
    PlanePoint,
    concentric_model,
    invert_circle,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**overrides: str) -> dict[str, str]:
    """Environment of a fresh interpreter that imports this checkout's src/:
    this one's, without STEINER_TOL unless overrides sets it."""
    env = {k: v for k, v in os.environ.items() if k != "STEINER_TOL"}
    env["PYTHONPATH"] = str(SRC)
    env.update(overrides)
    return env


# Smallest outer radius (r = 1) admitting a closed chain, by chain length:
# R must exceed 1 + 2q + 2 sqrt(q + q^2) with q = tan^2(pi/n).
GAUGE_DOMAINS = {
    3: (14.5, 60.0),
    4: (6.5, 40.0),
    5: (4.2, 30.0),
    6: (3.4, 12.0),
}


def make_gauge(n: int, R: float) -> Gauge:
    return Gauge.from_radii(n, R, 1.0)


def gauge_strategy(n: int) -> st.SearchStrategy[Gauge]:
    lo, hi = GAUGE_DOMAINS[n]
    return st.floats(min_value=lo, max_value=hi, allow_nan=False).map(
        lambda R: make_gauge(n, R)
    )


def any_gauge_strategy() -> st.SearchStrategy[Gauge]:
    return st.sampled_from([3, 4, 5, 6]).flatmap(gauge_strategy)


def closure_ratio(n: int) -> float:
    """Smallest R/r admitting a closed n-chain: 1 + 2q + 2 sqrt(q + q^2)."""
    q = math.tan(math.pi / n) ** 2
    return 1.0 + 2.0 * q + 2.0 * math.sqrt(q + q * q)


def inversion_chain(g: Gauge, theta: float) -> list[OrientedCircle]:
    """Chain circles at phase theta by inversion: n equal circles on the
    mid-circle of the concentric model at angles theta + 2 pi k / n, carried
    back by the model's unit inversion (the identity when d = 0)."""
    model = concentric_model(g)
    ring_radius = (model.rho_out - model.rho_in) / 2.0
    mid_radius = (model.rho_in + model.rho_out) / 2.0
    circles = []
    for k in range(g.n):
        ang = theta + 2.0 * math.pi * k / g.n
        ring = OrientedCircle(
            PlanePoint(
                model.center.x + mid_radius * math.cos(ang),
                model.center.y + mid_radius * math.sin(ang),
            ),
            ring_radius,
            Orientation.CHAIN_OR_INNER,
        )
        circles.append(ring if model.identity else invert_circle(model.pole, ring))
    return circles


def mp_inversion_chain(g: Gauge, theta: float) -> list[tuple]:
    """(x, y, radius) of the chain circles at phase theta, as mpf.

    The same inversion as inversion_chain, carried out in 60 digits on the
    given floats (R, r, d) with d > 0: the limiting point inside the inner
    parent is the pole, both parents map to a concentric pair, and the ring
    circles at angles theta + 2 pi k / n map back.
    """
    with mpmath.workdps(60):
        R, r, d = mpmath.mpf(g.R), mpmath.mpf(g.r), mpmath.mpf(g.d)
        x_rad = (d * d - R * R + r * r) / (2 * d)
        far = x_rad - mpmath.sqrt(x_rad * x_rad - r * r)  # x_rad < 0 for nested parents
        pole = r * r / far

        def invert(cx, cy, rho):
            t = 1 / ((cx - pole) ** 2 + cy * cy - rho * rho)
            return pole + (cx - pole) * t, cy * t, rho * abs(t)

        inner_x, _, inner_rho = invert(mpmath.mpf(0), mpmath.mpf(0), r)
        outer_x, _, outer_rho = invert(d, mpmath.mpf(0), R)
        center = (inner_x + outer_x) / 2
        ring_radius = (inner_rho - outer_rho) / 2
        mid_radius = (inner_rho + outer_rho) / 2
        circles = []
        for k in range(g.n):
            ang = mpmath.mpf(theta) + 2 * mpmath.pi * k / g.n
            circles.append(
                invert(center + mid_radius * mpmath.cos(ang), mid_radius * mpmath.sin(ang), ring_radius)
            )
        return circles


def mirror_pair_radii(R: float, r: float, d: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Circles tangent to both parents whose center height equals the radius.

    Solves the tangency equations directly: a circle at (x, rho) of radius
    rho satisfies x^2 = r^2 + 2 r rho (inner contact) and
    2 d x = r^2 + d^2 - R^2 + 2 (R + r) rho (outer contact), which combine
    into one quadratic in rho. Returns ((rho_small, x), (rho_large, x)).
    """
    K = r * r + d * d - R * R
    M = 2.0 * (R + r)
    A2 = M * M
    B2 = 2.0 * K * M - 8.0 * d * d * r
    C2 = K * K - 4.0 * d * d * r * r
    s = math.sqrt(B2 * B2 - 4.0 * A2 * C2)
    lo, hi = sorted([(-B2 - s) / (2.0 * A2), (-B2 + s) / (2.0 * A2)])

    def x_of(rho: float) -> float:
        return (K + M * rho) / (2.0 * d)

    return (lo, x_of(lo)), (hi, x_of(hi))


def n4_axial_side_circle(R: float, r: float, d: float) -> tuple[float, float, float]:
    """Radius and center (x, y) of the off-axis circle of the 4-chain axial
    configuration, from three tangency equations (inner, outer, largest)."""
    K = r * r + d * d - R * R
    M = 2.0 * (R + r)
    Xs = (R + d + r) / 2.0
    rs = (R + d - r) / 2.0
    # 2 d x - M rho = K  and  2 Xs x - 2 (r - rs) rho = Xs^2 + r^2 - rs^2
    a1, b1, c1 = 2.0 * d, -M, K
    a2, b2, c2 = 2.0 * Xs, -2.0 * (r - rs), Xs * Xs + r * r - rs * rs
    det = a1 * b2 - a2 * b1
    x = (c1 * b2 - c2 * b1) / det
    rho = (a1 * c2 - a2 * c1) / det
    y = math.sqrt((r + rho) ** 2 - x * x)
    return rho, x, y


def yiu_quadratic_exact(n: int, R: float, r: float, u: float) -> tuple[Fraction, Fraction, Fraction]:
    """Yiu's neighbor quadratic (alpha, beta, gamma) in (q, R, r, u), the
    literal polynomial in exact rationals on q = tan(pi/n)^2 as a float."""
    q = Fraction(math.tan(math.pi / n)) ** 2
    Rf, rf, uf = Fraction(R), Fraction(r), Fraction(u)
    alpha = (q + 1) ** 2 * Rf * Rf * rf * rf * uf * uf
    beta = 2 * (q + 1) * Rf * rf * uf * ((q - 1) * Rf * rf - (Rf - rf) * uf)
    gamma = ((q + 1) * Rf * rf - (Rf - rf) * uf) ** 2 + 4 * Rf * rf * uf * uf
    return alpha, beta, gamma


def yiu_roots_oracle(n: int, R: float, r: float, u: float) -> tuple[float, float]:
    """Neighbor bends via the literal quadratic formula in exact rationals.

    Independent of the library's closed-form evaluation; the only rounding
    left is in tan(pi/n) and the final square root.
    """
    alpha, beta, gamma = yiu_quadratic_exact(n, R, r, u)
    disc = beta * beta - 4 * alpha * gamma
    s = math.sqrt(max(float(disc), 0.0))
    lo = (-float(beta) - s) / (2.0 * float(alpha))
    hi = (-float(beta) + s) / (2.0 * float(alpha))
    return (lo, hi) if lo <= hi else (hi, lo)


def mp_neighbor_bends(g: Gauge, u: float) -> tuple[float, float]:
    """Bends of the two ring neighbors of a circle of radius u, ascending,
    from 60 digits.

    A circle at model angle t has bend s - w cos t, with s and w the mean
    and half-span of the family's extreme bends, so u fixes cos t, and the
    neighbors at t -+ 2 pi / n have bends
    s - w (cos t cos(2 pi / n) -+ |sin t| sin(2 pi / n)). The family is the
    one chain_at_phase builds, from the float extremes g.extremes: at an
    endpoint the two neighbors are a double root, so one ulp of r_min or
    r_max moves them by about 1e-8.
    """
    with mpmath.workdps(60):
        b_min, b_max = 1 / mpmath.mpf(g.extremes.r_max), 1 / mpmath.mpf(g.extremes.r_min)
        s, w = (b_max + b_min) / 2, (b_max - b_min) / 2
        cos_t = max(min((s - 1 / mpmath.mpf(u)) / w, 1), -1)
        sin_t = mpmath.sqrt(1 - cos_t * cos_t)
        step = 2 * mpmath.pi / g.n
        mid = s - w * cos_t * mpmath.cos(step)
        half = w * sin_t * mpmath.sin(step)
        return float(mid - half), float(mid + half)


def _lateral_i4(a: Fraction, e2: Fraction) -> Fraction:
    """I_4 of the bends a + e, a + e, a - e, a - e, from e^2 alone.

    The odd powers of e cancel, so the value is exact even though e is
    irrational: 2((a + e)^4 + (a - e)^4) = 4(a^4 + 6 a^2 e^2 + e^4).
    """
    return 4 * (a**4 + 6 * a * a * e2 + e2 * e2)


def exact_negative_control_span(g: Gauge) -> Fraction:
    """Exact span of the non-invariant I_n over the family of a reference gauge.

    Along a family the bends are b_min + (b_max - b_min) sin^2(t_k / 2) with
    t_k = theta + 2 pi k / n, so I_n = c + A cos(n theta): its extremes are
    the two mirror-symmetric chains, at theta = 0 and theta = pi / n. The
    span is the difference of I_n between them, from their exact bends:

    - (4, 6, 1, 1): axial bends (1/2, 5/12, 1/3, 5/12), I_4 = 2802/20736;
      lateral bends 5/12 +- e, each twice, with e^2 = 1/288 (the value that
      keeps I_1 and I_2 equal to the axial chain's), I_4 = 2801/20736.
    - (3, 15, 1, 4): axial-max radii (9, 45/8, 45/8), I_3 = 1149/91125;
      axial-min radii (5, 15/2, 15/2), I_3 = 1161/91125.

    Only these two gauges are known; any other raises KeyError.
    """
    F = Fraction
    spans = {
        (4, 6.0, 1.0, 1.0): abs(
            sum(b**4 for b in (F(1, 2), F(5, 12), F(1, 3), F(5, 12)))
            - _lateral_i4(F(5, 12), F(1, 288))
        ),
        (3, 15.0, 1.0, 4.0): abs(
            sum((1 / rho) ** 3 for rho in (F(9), F(45, 8), F(45, 8)))
            - sum((1 / rho) ** 3 for rho in (F(5), F(15, 2), F(15, 2)))
        ),
    }
    return spans[(g.n, g.R, g.r, g.d)]


def radius_multisets_close(a, b, tol: float) -> bool:
    return len(a) == len(b) and all(
        abs(x - y) <= tol for x, y in zip(sorted(a), sorted(b))
    )


def circle_sets_close(chain_a, chain_b, tol: float) -> bool:
    """Match circles of two chains as unordered sets, greedily by distance.

    Lexicographic sorting would mispair mirror circles whose x coordinates
    tie only up to roundoff, so each circle grabs its nearest unused partner.
    """
    remaining = list(chain_b.circles)
    for a in chain_a.circles:
        def gap(b):
            return max(
                abs(a.center.x - b.center.x),
                abs(a.center.y - b.center.y),
                abs(a.radius - b.radius),
            )
        best = min(remaining, key=gap)
        if gap(best) > tol:
            return False
        remaining.remove(best)
    return True
