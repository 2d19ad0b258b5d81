"""Poristic families of tangent circle chains between two nested parents.

A gauge (n, R, r, d) fixes the outer parent (radius R), inner parent
(radius r) and their center distance d, subject to Pedoe's closure relation
d^2 = (R - r)^2 - 4 tan^2(pi/n) R r. The canonical frame puts the inner
parent at the origin and the outer parent at (+d, 0).

Chains are built in closed form: the bend and co-bends of each chain circle
are affine in (cos t, sin t) of its angle t in the concentric model (see
_circle_coordinates), and no circle is inverted. The concentric model, the
inversion at a limiting point that makes the parents concentric, is in the
inversion module, the oracle the tests check the closed form against.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from . import _lazy
from .config import tolerance
from .geometry import OrientedCircle, PlanePoint, _Record, checked_radius

# The oracle's names resolve on first use, from inversion; each is then a
# global of this module, a binding bench/tracing.py wraps.
__getattr__ = _lazy(globals(), {"inversion": ("concentric_model", "invert_circle", "limiting_points")})

TAU = 2.0 * math.pi
_SMALLEST_NORMAL = 2.0**-1022  # sys.float_info.min
MAX_CHAIN_LENGTH = 64
"""The largest chain length n a Gauge accepts: the domain the tests cover.
For R >> r the smallest circle has radius about tan^2(pi/n) r, which at
n = 64 and R/r = 1e12 is still some 20 float steps of R; a sweep costs
O(n^3) per phase."""
MAX_MOMENT_ORDER = 1024
"""The highest bend power k a moment of a single chain is computed to: the
power tables hold about k * n floats, and b^1024 overflows for every bend
b >= 2."""
MAX_SWEEP_SAMPLES = 10**6
"""The most phases a sweep takes: at n = 4 about 20 s of work. The sweep's
CSV text is still held whole, about 0.1 MB per sample at n = 64."""


class InfeasibleGaugeError(ValueError):
    """No closed chain of the requested length exists for the given radii."""


def _closure_q(n: int) -> float:
    """tan^2(pi/n), after checking that n is an int (not a bool) with
    3 <= n <= MAX_CHAIN_LENGTH."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"chain length n must be an integer, got {n!r}")
    if n < 3:
        raise ValueError("chain length n must be at least 3")
    if n > MAX_CHAIN_LENGTH:
        raise ValueError("chain length n is too large")
    return math.tan(math.pi / n) ** 2


def _square(name: str, x: float) -> float:
    """x * x, correctly rounded (libm's pow, behind x ** 2, can miss by an
    ulp), or ValueError naming x when the square overflows the float range
    or, for x != 0, falls below the smallest normal float, where it loses
    its bits or rounds to zero."""
    square = x * x
    if square == math.inf:
        raise ValueError(f"gauge overflows the float range: {name} = {x!r}, squared")
    if square < _SMALLEST_NORMAL and x:
        raise ValueError(f"gauge underflows the float range: {name} = {x!r}, squared")
    return square


def pedoe_distance(n: int, R: float, r: float) -> float:
    """Center distance d making (R, r, d) a closed-chain gauge of order n.

    Solves d = sqrt((R - r)^2 - 4 tan^2(pi/n) R r). Tiny negative radicands
    (roundoff at the concentric boundary) clamp to zero; genuinely negative
    ones raise InfeasibleGaugeError.
    """
    q = _closure_q(n)
    if not (R > r > 0.0):
        raise ValueError("radii must satisfy R > r > 0")
    gap2 = _square("R - r", R - r)
    radicand = gap2 - 4.0 * q * R * r
    if radicand < 0.0:
        if radicand >= -tolerance() * gap2:
            return 0.0
        raise InfeasibleGaugeError(
            f"no closed {n}-chain exists for radii R={R}, r={r} (radicand {radicand})"
        )
    return math.sqrt(radicand)


class PoristicRange(_Record):
    """Extreme chain-circle radii of a family and their reciprocal bends:
    b_min = 2/(R + d - r) is the bend of the largest circle and
    b_max = 2/(R - d - r) that of the smallest.

    Names follow the radius extremes: r_min pairs with the *largest* bend.
    Parents that touch (d = R - r) give r_min = 0 and b_max = inf.
    """

    _fields = __slots__ = ("r_min", "r_max", "b_min", "b_max")


def _radius_range(R: float, r: float, d: float) -> tuple[float, float]:
    """(r_min, r_max) of the parents (R, r, d); ValueError unless d >= 0."""
    if not d >= 0.0:
        raise ValueError("center distance d must be non-negative")
    return (R - d - r) / 2.0, (R + d - r) / 2.0


class Gauge(_Record):
    """Parent-circle datum of a poristic family. q = tan^2(pi/n) and the
    radius range, a PoristicRange, are computed once and left out of ==,
    hash and repr."""

    _fields = ("n", "R", "r", "d")
    __slots__ = (*_fields, "q", "extremes")

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _closure_q(self.n))
        if not (self.R > self.r > 0.0):
            raise ValueError("radii must satisfy R > r > 0")
        r_min, r_max = _radius_range(self.R, self.r, self.d)
        b_min = 1.0 / r_max if r_max else math.inf
        b_max = 1.0 / r_min if r_min else math.inf
        object.__setattr__(self, "extremes", PoristicRange(r_min, r_max, b_min, b_max))

    @classmethod
    def from_radii(cls, n: int, R: float, r: float) -> "Gauge":
        return cls(n, R, r, pedoe_distance(n, R, r))

    def pedoe_residual(self) -> float:
        """|d^2 - ((R - r)^2 - 4 q R r)|; ValueError if a square overflows."""
        gap2 = _square("R - r", self.R - self.r)
        return abs(_square("d", self.d) - (gap2 - 4.0 * self.q * self.R * self.r))


class GaugeValidation(_Record):
    _fields = __slots__ = ("ok", "pedoe_residual", "message")


def validate_gauge(g: Gauge) -> GaugeValidation:
    """Check the closure relation; d^2 residuals scale with R^2."""
    residual = g.pedoe_residual()
    limit = tolerance() * _square("R", g.R)
    if residual <= limit:
        return GaugeValidation(True, residual, "ok")
    return GaugeValidation(
        False,
        residual,
        f"d^2 residual {residual:.6g} exceeds {limit:.2g}: "
        f"(R, r, d) = ({g.R}, {g.r}, {g.d}) closes no {g.n}-chain",
    )


def poristic_range(g: Gauge) -> PoristicRange:
    return g.extremes


def _window(r_min: float, r_max: float, R: float, tol: float) -> tuple[float, float]:
    """The radius range [r_min, r_max] widened at both ends by tol * R."""
    margin = tol * R
    return r_min - margin, r_max + margin


class SteinerChain(_Record):
    """Closed ring of n circles at one phase of a poristic family.

    Circles are listed counterclockwise in the concentric model, starting at
    the image of the phase angle, each as an (x, y, radius) row. Phase is
    normalized to [0, 2 pi / n). The circles as OrientedCircle objects are
    built when first read and kept, left out of ==, hash and repr.
    """

    _fields = ("gauge", "phase", "rows")
    __slots__ = (*_fields, "_circles")

    @property
    def circles(self) -> tuple[OrientedCircle, ...]:
        circles = getattr(self, "_circles", None)
        if circles is None:
            circles = tuple([OrientedCircle(PlanePoint(x, y), rho) for x, y, rho in self.rows])
            object.__setattr__(self, "_circles", circles)
        return circles

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple([rho for _, _, rho in self.rows])

    @property
    def bends(self) -> tuple[float, ...]:
        return tuple([1.0 / rho for _, _, rho in self.rows])

    @property
    def centers(self) -> tuple[complex, ...]:
        return tuple([complex(x, y) for x, y, _ in self.rows])


def _circle_coordinates(
    g: Gauge, thetas: Iterable[float]
) -> Iterator[list[tuple[float, float, float]]]:
    """The (x, y, radius) of each chain circle at each phase angle in
    thetas, in closed form.

    The chain circle at model angle t = theta + 2 pi k / n is the image of
    the ring circle at angle t of the concentric model. Its bend b and
    co-bends b x, b y (the augmented curvature-center coordinates of
    Lagarias, Mallows and Wilks, on which Moebius maps act linearly) are
    affine in (cos t, sin t). With h = sin^2(t/2) and b_min, b_max from
    poristic_range:

        b   = b_min + (b_max - b_min) h
        b x = 1 + r b_min - (2 + r (b_min + b_max)) h
        b y = sqrt((1 + r b_min)(1 + r b_max)) sin t

    so (b x)^2 + (b y)^2 = (1 + r b)^2, tangency to the inner parent, for
    every t. Nothing cancels against the size of the outer parent: radii and
    centers match a 60-digit inversion of the same (R, r, d) to about 1e-13
    of each radius for R/r up to 1e12. theta = 0 gives the largest chain
    circle, on the +x side of the parents. ValueError unless r_min and r_max
    are positive and finite.
    """
    rng = g.extremes
    checked_radius(rng.r_min)
    checked_radius(rng.r_max)
    b_min, b_max, r = rng.b_min, rng.b_max, g.r
    b_span = b_max - b_min
    x_at_zero = 1.0 + r * b_min
    x_slope = 2.0 + r * (b_min + b_max)
    y_amp = math.sqrt(x_at_zero * (1.0 + r * b_max))
    n = g.n
    step = TAU / n
    sin = math.sin
    for theta in thetas:
        coords = []
        for k in range(n):
            t = theta + step * k
            h = sin(t / 2.0) ** 2
            b = b_min + b_span * h
            coords.append(((x_at_zero - x_slope * h) / b, y_amp * sin(t) / b, 1.0 / b))
        yield coords


def chain_at_phase(g: Gauge, theta: float) -> SteinerChain:
    """Construct the chain at phase angle theta of the concentric model."""
    if not math.isfinite(theta):
        raise ValueError(f"chain phase must be finite, got theta = {theta!r}")
    theta = math.fmod(theta, TAU)  # exact, and keeps the offsets 2*pi*k/n of a large phase
    (coords,) = _circle_coordinates(g, (theta,))
    phase = theta % (TAU / g.n)  # 2 pi / n itself where theta is a tiny negative
    return SteinerChain(g, phase if phase < TAU / g.n else 0.0, tuple(coords))


def _worst(values: Iterable[float]) -> float:
    """The largest of some non-negative values, or NaN if any is NaN: max()
    keeps a NaN only when it comes first, while their sum is NaN exactly
    when one of them is."""
    values = list(values)
    total = sum(values)
    return max(values) if total == total else math.nan


class ChainResiduals(_Record):
    """Worst-case violations of the defining tangencies of a chain, the
    limit they are judged against, tolerance() * R, and the verdict ok.
    A residual that is NaN (a NaN coordinate) fails the verdict."""

    _fields = __slots__ = ("adjacent", "inner", "outer", "range_excess", "limit")

    def max(self) -> float:
        return _worst((self.adjacent, self.inner, self.outer, self.range_excess))

    @property
    def ok(self) -> bool:
        return self.max() <= self.limit


def chain_residuals(chain: SteinerChain) -> ChainResiduals:
    """The residuals of external_tangency_residual between neighbours and
    with the inner parent, and of internal_tangency_residual in the outer
    parent, bit for bit, computed over the rows column by column."""
    g = chain.gauge
    R, r, d = g.R, g.r, g.d
    r_min, r_max = g.extremes.r_min, g.extremes.r_max
    rows = chain.rows
    hypot = math.hypot
    if not all([R > rho for _, _, rho in rows]):
        raise ValueError("internal tangency needs outer.radius > inner.radius")
    pairs = zip(rows, rows[1:] + rows[:1])  # each circle and the next
    adjacent = _worst([abs(hypot(x - u, y - v) - (rho + s)) for (x, y, rho), (u, v, s) in pairs])
    inner = _worst([abs(hypot(x, y) - (rho + r)) for x, y, rho in rows])
    outer = _worst([abs(hypot(d - x, y) - (R - rho)) for x, y, rho in rows])
    range_excess = _worst([max(r_min - rho, rho - r_max, 0.0) for _, _, rho in rows])
    return ChainResiduals(adjacent, inner, outer, range_excess, tolerance() * R)


def is_valid_chain(chain: SteinerChain) -> bool:
    return chain_residuals(chain).ok


def conjugate_chain(chain: SteinerChain) -> SteinerChain:
    """Mirror a chain in the axis through the parent centers.

    Centers map (x, y) -> (x, -y) exactly and radii are unchanged, so the
    double application restores every circle bit for bit and every residual
    of chain_residuals. The stored phase is recomputed as the mirrored
    angle; twice mirrored it comes back to within half an ulp of 2 pi / n,
    as step - (step - phase) rounds.
    """
    step = TAU / chain.gauge.n
    phase = 0.0 if chain.phase == 0.0 else step - chain.phase
    if phase >= step:
        phase = 0.0
    return SteinerChain(chain.gauge, phase, tuple([(x, -y, rho) for x, y, rho in chain.rows]))


class YiuCoefficients(_Record):
    """Quadratic alpha x^2 + beta x + gamma whose roots are the bends of the
    two neighbors of a chain circle of radius u."""

    _fields = __slots__ = ("alpha", "beta", "gamma")


def _admissible(g: Gauge, u: float) -> float:
    """u, unless checked_radius refuses it or it lies outside the family's
    radius range widened at both ends by tolerance() * R (ValueError)."""
    rng = g.extremes
    lo, hi = _window(rng.r_min, rng.r_max, g.R, tolerance())
    if not lo <= checked_radius(u) <= hi:
        raise ValueError(f"radius u={u} outside the admissible range [{rng.r_min}, {rng.r_max}]")
    return u


def yiu_coefficients(g: Gauge, u: float) -> YiuCoefficients:
    """Yiu's neighbor quadratic at an admissible u, in (q, R, r, u) at the
    true scale; ValueError where a coefficient overflows the float range."""
    u = _admissible(g, u)
    q, R, r = g.q, g.R, g.r
    alpha = (q + 1.0) ** 2 * R * R * r * r * u * u
    beta = 2.0 * (q + 1.0) * R * r * u * ((q - 1.0) * R * r - (R - r) * u)
    gap = (q + 1.0) * R * r - (R - r) * u
    gamma = gap * gap + 4.0 * R * r * u * u  # not gap ** 2: libm's pow can miss by an ulp
    if not all([math.isfinite(c) for c in (alpha, beta, gamma)]):
        raise ValueError(f"neighbor quadratic overflows the float range at u={u}")
    return YiuCoefficients(alpha, beta, gamma)


def _half_angle(g: Gauge, u: float) -> tuple[float, float, float]:
    """(sin(t/2), cos(t/2), span) of the circle of radius u at model angle t
    in [0, pi], whose bend is b_min + span sin^2(t/2) (_circle_coordinates).
    The squares are the shares of b - b_min and b_max - b in span, each taken
    as a difference of radii, exact near its own endpoint; roundoff past an
    endpoint clamps to zero. ValueError unless u is admissible and r_min,
    r_max are positive and finite."""
    rng = g.extremes
    u, r_min, r_max = _admissible(g, u), checked_radius(rng.r_min), checked_radius(rng.r_max)
    above = max(r_max - u, 0.0) / u / r_max
    below = max(u - r_min, 0.0) / u / r_min
    span = above + below
    sin_half, cos_half = (math.sqrt(above / span), math.sqrt(below / span)) if span else (0.0, 0.0)
    return sin_half, cos_half, span


def neighbor_bends(g: Gauge, u: float) -> tuple[float, float]:
    """Bends of the two chain neighbors of a circle of radius u, ascending:
    with t its angle (_half_angle), b_min + span sin^2(t/2 -+ pi/n). The one
    cancellation, in sin(t/2 -+ pi/n), is absolute, so even a bend next to
    b_min keeps its relative accuracy; every factor but span and b_min is
    free of scale, so scaling by a power of two is exact."""
    sin_half, cos_half, span = _half_angle(g, u)
    c, s = math.cos(math.pi / g.n), math.sin(math.pi / g.n)
    sin_lo, sin_hi = c * sin_half - s * cos_half, c * sin_half + s * cos_half  # sin(t/2 -+ pi/n)
    b_min = g.extremes.b_min
    return b_min + span * (sin_lo * sin_lo), b_min + span * (sin_hi * sin_hi)


def neighbor_bend_sum(g: Gauge, u: float) -> float:
    lo, hi = neighbor_bends(g, u)
    return lo + hi


def neighbor_radius_sum(g: Gauge, u: float) -> float:
    lo, hi = neighbor_bends(g, u)
    return 1.0 / lo + 1.0 / hi


def chain_by_yiu(g: Gauge, u0: float, branch_rule: str = "low") -> tuple[tuple[float, ...], float]:
    """The ring through a circle of radius u0, by Steiner's porism the chain
    of chain_at_phase at its angle t in [0, pi] (_half_angle): its n radii
    from u0, returned as given, and the mismatch |rho(t) - u0| of the
    family's circle there. branch_rule "high" first takes the neighbor of
    larger bend, "low" the other; at a range endpoint they are equal."""
    if branch_rule not in ("low", "high"):
        raise ValueError("branch_rule must be 'low' or 'high'")
    sin_half, cos_half, _ = _half_angle(g, u0)
    rho, *rest = chain_at_phase(g, 2.0 * math.atan2(sin_half, cos_half)).radii
    if branch_rule == "low":
        rest.reverse()
    return (u0, *rest), abs(rho - u0)
