"""Primitive circle geometry: tangency residuals, unit inversion, limiting points.

Everything works in a fixed Cartesian frame whose x-axis carries the centers
of the nested parent circles. All functions are pure and value-semantic.
"""

from __future__ import annotations

import enum
import math

from .config import tolerance


class _Record:
    """Frozen value record. A subclass names its public fields, in order, in
    _fields, and lists them in __slots__ with any hidden slots it fills
    itself; a trailing run of fields may take defaults from _defaults.
    ==, hash, repr, pickling and replace read the public fields only. An
    optional __post_init__ runs after the fields are set."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "__init__" in cls.__dict__:
            return
        # One generated __init__ per class, as collections.namedtuple makes:
        # each field goes through its slot's own setter, the fastest way to
        # fill a frozen record.
        setters = {f"_set_{f}": getattr(cls, f).__set__ for f in cls._fields}
        body = [f"    _set_{f}(self, {f})" for f in cls._fields]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        exec(f"def __init__(self, {', '.join(cls._fields)}):\n" + "\n".join(body), setters)
        init = setters["__init__"]
        init.__defaults__ = getattr(cls, "_defaults", None)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def replace(self, **changes: object):
        """A copy with the given fields changed, built (and checked) anew."""
        return self.__class__(**{**{f: getattr(self, f) for f in self._fields}, **changes})


class Orientation(enum.Enum):
    """Sign convention for a circle's bend: chain circles and the inner
    parent count positive, the enclosing outer parent counts negative."""

    CHAIN_OR_INNER = "chain_or_inner"
    OUTER_PARENT = "outer_parent"


class PlanePoint(_Record):
    _fields = __slots__ = ("x", "y")

    def as_complex(self) -> complex:
        return complex(self.x, self.y)

    def conjugate(self) -> "PlanePoint":
        return PlanePoint(self.x, -self.y)


def checked_radius(radius: float) -> float:
    """radius itself when it is positive and finite, else ValueError."""
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius}")
    return radius


class OrientedCircle(_Record):
    """Circle (a PlanePoint center and a radius) with a signed curvature
    convention attached: bend * radius == +1 for CHAIN_OR_INNER, the
    default orientation, and -1 for OUTER_PARENT.
    """

    _fields = __slots__ = ("center", "radius", "orientation")
    _defaults = (Orientation.CHAIN_OR_INNER,)

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
