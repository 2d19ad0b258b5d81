"""Primitive circle geometry: tangency residuals, unit inversion, limiting points.

Everything works in a fixed Cartesian frame whose x-axis carries the centers
of the nested parent circles. All functions are pure and value-semantic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .config import tolerance


class Orientation(enum.Enum):
    """Sign convention for a circle's bend: chain circles and the inner
    parent count positive, the enclosing outer parent counts negative."""

    CHAIN_OR_INNER = "chain_or_inner"
    OUTER_PARENT = "outer_parent"


@dataclass(frozen=True, slots=True)
class PlanePoint:
    x: float
    y: float

    def as_complex(self) -> complex:
        return complex(self.x, self.y)

    def conjugate(self) -> "PlanePoint":
        return PlanePoint(self.x, -self.y)


def checked_radius(radius: float) -> float:
    """radius itself when it is positive and finite, else ValueError."""
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    return radius


@dataclass(frozen=True, slots=True)
class OrientedCircle:
    """Circle with a signed curvature convention attached.

    bend * radius == +1 for CHAIN_OR_INNER, -1 for OUTER_PARENT.
    """

    center: PlanePoint
    radius: float
    orientation: Orientation = Orientation.CHAIN_OR_INNER

    def __post_init__(self) -> None:
        checked_radius(self.radius)

    @property
    def bend(self) -> float:
        sign = 1.0 if self.orientation is Orientation.CHAIN_OR_INNER else -1.0
        return sign / self.radius

    def conjugate(self) -> "OrientedCircle":
        return OrientedCircle(self.center.conjugate(), self.radius, self.orientation)


def center_distance(c1: OrientedCircle, c2: OrientedCircle) -> float:
    return math.hypot(c1.center.x - c2.center.x, c1.center.y - c2.center.y)


def external_tangency_residual(c1: OrientedCircle, c2: OrientedCircle) -> float:
    """|center distance - (r1 + r2)|; zero iff the circles touch externally."""
    return abs(center_distance(c1, c2) - (c1.radius + c2.radius))


def internal_tangency_residual(outer: OrientedCircle, inner: OrientedCircle) -> float:
    """|center distance - (R - rho)| for a circle nested inside another."""
    if not outer.radius > inner.radius:
        raise ValueError("internal tangency needs outer.radius > inner.radius")
    return abs(center_distance(outer, inner) - (outer.radius - inner.radius))


def invert_point(pole: PlanePoint, z: PlanePoint) -> PlanePoint:
    """Unit-radius inversion centered at pole: z -> pole + (z - pole)/|z - pole|^2."""
    dx = z.x - pole.x
    dy = z.y - pole.y
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        raise ValueError("cannot invert the pole itself")
    return PlanePoint(pole.x + dx / d2, pole.y + dy / d2)


def invert_circle(pole: PlanePoint, c: OrientedCircle) -> OrientedCircle:
    """Image of a circle under unit inversion at pole.

    A circle through the pole would map to a line; such inputs are rejected.
    The orientation flag flips when the pole lies inside the circle, because
    the inversion then exchanges the circle's inside and outside. Applying
    the map twice returns the original circle (up to roundoff).
    """
    dx = c.center.x - pole.x
    dy = c.center.y - pole.y
    s2 = dx * dx + dy * dy
    s = math.sqrt(s2)
    if abs(s - c.radius) <= tolerance() * c.radius:
        raise ValueError("pole lies on the circle; the image would be a line")
    t = 1.0 / (s2 - c.radius * c.radius)
    center = PlanePoint(pole.x + dx * t, pole.y + dy * t)
    orientation = c.orientation
    if s < c.radius:  # pole inside: inside/outside swap
        orientation = (
            Orientation.OUTER_PARENT
            if c.orientation is Orientation.CHAIN_OR_INNER
            else Orientation.CHAIN_OR_INNER
        )
    return OrientedCircle(center, c.radius * abs(t), orientation)


def limiting_points(
    inner: OrientedCircle, outer: OrientedCircle
) -> tuple[PlanePoint, PlanePoint]:
    """Point circles of the coaxal pencil spanned by a nested pair.

    Both centers must lie on the x-axis with `inner` strictly inside `outer`.
    Returns (p_near, p_far): p_near sits inside the inner circle, p_far
    outside the outer one. Unit inversion centered at either point maps both
    circles to a concentric pair. Concentric input degenerates: the common
    center is returned twice.
    """
    if inner.center.y != 0.0 or outer.center.y != 0.0:
        raise ValueError("limiting_points expects both centers on the x-axis")
    gap = center_distance(outer, inner) + inner.radius - outer.radius
    if gap >= 0.0:
        raise ValueError("inner circle must lie strictly inside the outer circle")
    ci, co = inner.center.x, outer.center.x
    r, big = inner.radius, outer.radius
    if ci == co:
        return inner.center, inner.center
    dx = co - ci
    # radical-axis abscissa relative to the inner center
    x_rad = (dx * dx - big * big + r * r) / (2.0 * dx)
    power = x_rad * x_rad - r * r
    s = math.sqrt(max(power, 0.0))
    # The two limiting abscissae are x_rad +- s, and their product is r^2
    # (they are inverse points of the inner circle). Computing the small one
    # as r^2 / far avoids the cancellation in x_rad - sign(x_rad) * s.
    far = x_rad + s if x_rad >= 0.0 else x_rad - s
    near = (r * r) / far
    return PlanePoint(ci + near, 0.0), PlanePoint(ci + far, 0.0)
