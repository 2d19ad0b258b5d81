"""Poristic families of tangent circle chains between two nested parents.

A gauge (n, R, r, d) fixes the outer parent (radius R), inner parent
(radius r) and their center distance d, subject to Pedoe's closure relation
d^2 = (R - r)^2 - 4 tan^2(pi/n) R r. The canonical frame puts the inner
parent at the origin and the outer parent at (+d, 0).

Chains are built in closed form: the bend and co-bends of each chain circle
are affine in (cos t, sin t) of its angle t in the concentric model (see
_circle_coordinates). The concentric model itself, the inversion at a limiting
point that makes the parents concentric, serves as the test oracle.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .config import tolerance
from .geometry import (
    Orientation,
    OrientedCircle,
    PlanePoint,
    center_distance,
    checked_radius,
    external_tangency_residual,
    internal_tangency_residual,
    invert_circle,
    limiting_points,
)

TAU = 2.0 * math.pi


class InfeasibleGaugeError(ValueError):
    """No closed chain of the requested length exists for the given radii."""


class ChainPropagationError(ValueError):
    """Neighbor-bend propagation could not select a root."""


def pedoe_distance(n: int, R: float, r: float) -> float:
    """Center distance d making (R, r, d) a closed-chain gauge of order n.

    Solves d = sqrt((R - r)^2 - 4 tan^2(pi/n) R r). Tiny negative radicands
    (roundoff at the concentric boundary) clamp to zero; genuinely negative
    ones raise InfeasibleGaugeError.
    """
    if n < 3:
        raise ValueError("chain length n must be at least 3")
    if not (R > r > 0.0):
        raise ValueError("radii must satisfy R > r > 0")
    q = math.tan(math.pi / n) ** 2
    radicand = (R - r) ** 2 - 4.0 * q * R * r
    if radicand < 0.0:
        if radicand >= -tolerance() * (R - r) ** 2:
            return 0.0
        raise InfeasibleGaugeError(
            f"no closed {n}-chain exists for radii R={R}, r={r} (radicand {radicand})"
        )
    return math.sqrt(radicand)


@dataclass(frozen=True, slots=True)
class PoristicRange:
    """Extreme chain-circle radii of a family and their reciprocal bends.

    Names follow the radius extremes: r_min pairs with the *largest* bend.
    Parents that touch (d = R - r) give r_min = 0 and b_max = inf.
    """

    r_min: float
    r_max: float
    b_min: float  # bend of the largest circle, 2/(R + d - r)
    b_max: float  # bend of the smallest circle, 2/(R - d - r)


@dataclass(frozen=True, slots=True)
class Gauge:
    """Parent-circle datum of a poristic family. q = tan^2(pi/n) and the
    radius range are computed once and left out of ==, hash and repr."""

    n: int
    R: float
    r: float
    d: float
    q: float = field(init=False, repr=False, compare=False)
    extremes: PoristicRange = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("chain length n must be at least 3")
        if not (self.R > self.r > 0.0):
            raise ValueError("radii must satisfy R > r > 0")
        if not self.d >= 0.0:
            raise ValueError("center distance d must be non-negative")
        object.__setattr__(self, "q", math.tan(math.pi / self.n) ** 2)
        r_min = (self.R - self.d - self.r) / 2.0
        r_max = (self.R + self.d - self.r) / 2.0
        b_min = 1.0 / r_max if r_max else math.inf
        b_max = 1.0 / r_min if r_min else math.inf
        object.__setattr__(self, "extremes", PoristicRange(r_min, r_max, b_min, b_max))

    @property
    def inner_bend(self) -> float:
        return 1.0 / self.r

    @property
    def outer_bend(self) -> float:
        return -1.0 / self.R

    @classmethod
    def from_radii(cls, n: int, R: float, r: float) -> "Gauge":
        return cls(n, R, r, pedoe_distance(n, R, r))

    def pedoe_residual(self) -> float:
        return abs(self.d**2 - ((self.R - self.r) ** 2 - 4.0 * self.q * self.R * self.r))


def parent_circles(g: Gauge) -> tuple[OrientedCircle, OrientedCircle]:
    """(inner, outer) parent circles in the canonical frame."""
    inner = OrientedCircle(PlanePoint(0.0, 0.0), g.r, Orientation.CHAIN_OR_INNER)
    outer = OrientedCircle(PlanePoint(g.d, 0.0), g.R, Orientation.OUTER_PARENT)
    return inner, outer


@dataclass(frozen=True, slots=True)
class GaugeValidation:
    ok: bool
    pedoe_residual: float
    message: str


def validate_gauge(g: Gauge) -> GaugeValidation:
    """Check the closure relation; d^2 residuals scale with R^2."""
    residual = g.pedoe_residual()
    limit = tolerance() * max(1.0, g.R**2)
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


def _window(g: Gauge) -> tuple[PoristicRange, float, float]:
    """The family's radius range and its ends widened by tolerance() * R."""
    rng = g.extremes
    margin = tolerance() * g.R
    return rng, rng.r_min - margin, rng.r_max + margin


def radius_window(g: Gauge, radii: Iterable[float]) -> tuple[PoristicRange, tuple[bool, ...]]:
    """The family's radius range and, for each radius, whether it lies in
    [r_min, r_max] widened at both ends by tolerance() * R."""
    rng, lo, hi = _window(g)
    return rng, tuple([lo <= u <= hi for u in radii])  # a list builds faster than a generator


@dataclass(frozen=True, slots=True)
class SteinerChain:
    """Closed ring of n circles at one phase of a poristic family.

    Circles are listed counterclockwise in the concentric model, starting at
    the image of the phase angle. Phase is normalized to [0, 2 pi / n).
    """

    gauge: Gauge
    phase: float
    circles: tuple[OrientedCircle, ...]

    @property
    def radii(self) -> tuple[float, ...]:
        return tuple(c.radius for c in self.circles)

    @property
    def bends(self) -> tuple[float, ...]:
        return tuple(c.bend for c in self.circles)

    @property
    def centers(self) -> tuple[complex, ...]:
        return tuple(c.center.as_complex() for c in self.circles)


@dataclass(frozen=True, slots=True)
class ConcentricModel:
    """Annulus obtained by moving the parent pair to concentric position.

    Chain construction does not use it: it is the independent oracle that
    the closed form of chains_at_phases is tested against.

    For d > 0 this is the unit inversion centered at the limiting point
    inside the inner parent; that map sends the outer parent to the annulus
    *inner* boundary (radius rho_in) and the inner parent to the *outer*
    boundary (radius rho_out). For d = 0 the identity is used.
    """

    pole: PlanePoint
    center: PlanePoint
    rho_in: float
    rho_out: float
    identity: bool
    center_mismatch: float

    @property
    def ratio(self) -> float:
        return self.rho_out / self.rho_in


def concentric_model(g: Gauge) -> ConcentricModel:
    if g.d == 0.0:
        origin = PlanePoint(0.0, 0.0)
        return ConcentricModel(origin, origin, g.r, g.R, True, 0.0)
    inner, outer = parent_circles(g)
    pole, _ = limiting_points(inner, outer)
    inner_img = invert_circle(pole, inner)
    outer_img = invert_circle(pole, outer)
    mismatch = center_distance(inner_img, outer_img)
    center = PlanePoint(
        (inner_img.center.x + outer_img.center.x) / 2.0,
        (inner_img.center.y + outer_img.center.y) / 2.0,
    )
    return ConcentricModel(pole, center, outer_img.radius, inner_img.radius, False, mismatch)


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


def chains_at_phases(g: Gauge, thetas: Iterable[float]) -> Iterator[SteinerChain]:
    """Chains at each phase angle in thetas, built from the closed-form
    coordinates of _circle_coordinates."""
    thetas = tuple(thetas)
    step = TAU / g.n
    for theta, coords in zip(thetas, _circle_coordinates(g, thetas)):
        circles = [
            OrientedCircle(PlanePoint(x, y), rho, Orientation.CHAIN_OR_INNER)
            for x, y, rho in coords
        ]
        yield SteinerChain(g, theta % step, tuple(circles))


def chain_at_phase(g: Gauge, theta: float) -> SteinerChain:
    """Construct the chain at phase angle theta of the concentric model."""
    return next(chains_at_phases(g, (theta,)))


def _worst(values: Iterable[float]) -> float:
    """The largest of some non-negative values, or NaN if any is NaN: max()
    keeps a NaN only when it comes first, while their sum is NaN exactly
    when one of them is."""
    values = list(values)
    total = sum(values)
    return max(values) if total == total else math.nan


@dataclass(frozen=True, slots=True)
class ChainResiduals:
    """Worst-case violations of the defining tangencies of a chain, the
    limit they are judged against, tolerance() * R, and the verdict ok.
    A residual that is NaN (a NaN coordinate) fails the verdict."""

    adjacent: float
    inner: float
    outer: float
    range_excess: float
    limit: float

    def max(self) -> float:
        return _worst((self.adjacent, self.inner, self.outer, self.range_excess))

    @property
    def ok(self) -> bool:
        return self.max() <= self.limit


def chain_residuals(chain: SteinerChain) -> ChainResiduals:
    inner, outer = parent_circles(chain.gauge)
    rng = chain.gauge.extremes
    n = len(chain.circles)
    adjacent = _worst(
        external_tangency_residual(chain.circles[i], chain.circles[(i + 1) % n])
        for i in range(n)
    )
    inner_res = _worst(external_tangency_residual(c, inner) for c in chain.circles)
    outer_res = _worst(internal_tangency_residual(outer, c) for c in chain.circles)
    range_excess = _worst(
        max(rng.r_min - c.radius, c.radius - rng.r_max, 0.0) for c in chain.circles
    )
    return ChainResiduals(adjacent, inner_res, outer_res, range_excess, tolerance() * chain.gauge.R)


def is_valid_chain(chain: SteinerChain) -> bool:
    return chain_residuals(chain).ok


def conjugate_chain(chain: SteinerChain) -> SteinerChain:
    """Mirror a chain in the axis through the parent centers.

    Centers map (x, y) -> (x, -y) exactly and radii are unchanged, so the
    double application restores every circle bit for bit. The stored phase
    is recomputed as the mirrored angle.
    """
    step = TAU / chain.gauge.n
    phase = 0.0 if chain.phase == 0.0 else step - chain.phase
    if phase >= step:
        phase = 0.0
    return SteinerChain(chain.gauge, phase, tuple(c.conjugate() for c in chain.circles))


@dataclass(frozen=True, slots=True)
class YiuCoefficients:
    """Quadratic alpha x^2 + beta x + gamma whose roots are the bends of the
    two neighbors of a chain circle of radius u."""

    alpha: float
    beta: float
    gamma: float


def _neighbor_quadratic(g: Gauge, u: float) -> tuple[PoristicRange, float, float, float]:
    """The range u was checked against and (alpha, beta, gamma) of the
    neighbor quadratic at u; ValueError if u lies outside radius_window."""
    rng, lo, hi = _window(g)
    if not lo <= u <= hi:
        raise ValueError(
            f"radius u={u} outside the admissible range [{rng.r_min}, {rng.r_max}]"
        )
    q = g.q
    R, r = g.R, g.r
    alpha = (q + 1.0) ** 2 * R * R * r * r * u * u
    beta = 2.0 * (q + 1.0) * R * r * u * ((q - 1.0) * R * r - (R - r) * u)
    gamma = ((q + 1.0) * R * r - (R - r) * u) ** 2 + 4.0 * R * r * u * u
    return rng, alpha, beta, gamma


def yiu_coefficients(g: Gauge, u: float) -> YiuCoefficients:
    _, alpha, beta, gamma = _neighbor_quadratic(g, u)
    return YiuCoefficients(alpha, beta, gamma)


def neighbor_bends(g: Gauge, u: float) -> tuple[float, float]:
    """Bends of the two chain neighbors of a circle of radius u, ascending.

    The raw discriminant beta^2 - 4 alpha gamma cancels catastrophically near
    the range endpoints (where the two neighbors coincide); it factors as
    16 (q+1)^2 R^3 r^3 u^2 (r_max - u)(u - r_min), which is evaluated
    directly. Roundoff excursions past an endpoint clamp the vanishing
    factor to zero; anything worse is a domain error.
    """
    rng, alpha, beta, _ = _neighbor_quadratic(g, u)
    f_hi = max(rng.r_max - u, 0.0)
    f_lo = max(u - rng.r_min, 0.0)
    disc = 16.0 * (g.q + 1.0) ** 2 * g.R**3 * g.r**3 * u * u * f_hi * f_lo
    half_split = math.sqrt(disc) / (2.0 * alpha)
    mid = -beta / (2.0 * alpha)
    return (mid - half_split, mid + half_split)


def neighbor_bend_sum(g: Gauge, u: float) -> float:
    _, alpha, beta, _ = _neighbor_quadratic(g, u)
    return -beta / alpha


def neighbor_radius_sum(g: Gauge, u: float) -> float:
    _, _, beta, gamma = _neighbor_quadratic(g, u)
    return -beta / gamma


def chain_by_yiu(g: Gauge, u0: float, branch_rule: str = "low") -> tuple[tuple[float, ...], float]:
    """Propagate radii around the chain from a seed radius u0.

    At each circle the neighbor quadratic has two roots; the one that is not
    the bend we arrived from is the next circle. branch_rule ("low" or
    "high") picks the first step, where both directions are open; legitimate
    double roots (u0 at a range endpoint) make the choice moot. Returns the
    n propagated radii and the closure mismatch |u_n - u0|.
    """
    if branch_rule not in ("low", "high"):
        raise ValueError("branch_rule must be 'low' or 'high'")
    radii = [u0]
    prev_bend: float | None = None
    u = u0
    for _ in range(g.n):
        lo, hi = neighbor_bends(g, u)
        if prev_bend is None:
            nxt = lo if branch_rule == "low" else hi
        else:
            match_tol = 1e-6 * max(abs(lo), abs(hi))
            d_lo, d_hi = abs(lo - prev_bend), abs(hi - prev_bend)
            if d_lo <= d_hi and d_lo <= match_tol:
                nxt = hi
            elif d_hi < d_lo and d_hi <= match_tol:
                nxt = lo
            else:
                raise ChainPropagationError(
                    f"neither neighbor bend ({lo}, {hi}) matches the previous bend "
                    f"{prev_bend} at u={u}"
                )
        prev_bend = 1.0 / u
        u = 1.0 / nxt
        radii.append(u)
    return tuple(radii[:-1]), abs(radii[-1] - radii[0])
