"""Value records and circles: the frozen-record base, plane points and
oriented circles, and the radius check.

Everything works in a fixed Cartesian frame whose x-axis carries the centers
of the nested parent circles. All functions are pure and value-semantic.
"""

from __future__ import annotations

import enum
import math


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
