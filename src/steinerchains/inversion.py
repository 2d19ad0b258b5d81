"""The inversion oracle: tangency residuals, unit inversion, limiting points
and the concentric model of a gauge.

Chains are built in closed form (porism._circle_coordinates), so no
construction, moment, feasibility or command path imports this module. It
is the independent oracle the tests check the closed form against.
"""

from __future__ import annotations

import math

from .config import tolerance
from .geometry import Orientation, OrientedCircle, PlanePoint, _Record
from .porism import Gauge


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


def parent_circles(g: Gauge) -> tuple[OrientedCircle, OrientedCircle]:
    """(inner, outer) parent circles in the canonical frame."""
    inner = OrientedCircle(PlanePoint(0.0, 0.0), g.r, Orientation.CHAIN_OR_INNER)
    outer = OrientedCircle(PlanePoint(g.d, 0.0), g.R, Orientation.OUTER_PARENT)
    return inner, outer


class ConcentricModel(_Record):
    """Annulus obtained by moving the parent pair to concentric position.

    For d > 0 this is the unit inversion centered at the limiting point
    inside the inner parent; that map sends the outer parent to the annulus
    *inner* boundary (radius rho_in) and the inner parent to the *outer*
    boundary (radius rho_out). For d = 0 the identity is used.
    """

    _fields = __slots__ = ("pole", "center", "rho_in", "rho_out", "identity", "center_mismatch")

    @property
    def ratio(self) -> float:
        return self.rho_out / self.rho_in


def concentric_model(g: Gauge) -> ConcentricModel:
    """The concentric model of g, or ValueError where invert_circle refuses
    the outer parent because the pole lies within tolerance() * R of it.

    The oracle's working domain is therefore narrower than a Gauge's. For
    R >> r the pole sits about 2 r tan(pi/n) / cos(pi/n) from the outer
    circle, so the model works for R/r below about that factor over
    tolerance(): at the default 1e-9, up to about 1e8 at n = 64 and 7e9 at
    n = 3; at (64, 1e12) it raises. The guard stays: near the pole the
    image radius keeps only about eps * R/r of its accuracy.
    """
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
