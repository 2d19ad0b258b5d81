"""Mirror-symmetric chains of a poristic family and their printed formulas.

Every family contains chains fixed by reflection in the axis through the
parent centers: for odd n two axial chains (one holding the largest circle,
one the smallest), for even n a single axial chain holding both extremes
plus a lateral chain whose circles touch the axis. The geometric
construction is authoritative here; published closed forms are evaluated
alongside it and disagreements are reported, not silently corrected.
"""

from __future__ import annotations

import enum
import math

from .geometry import _Record
from .porism import Gauge, SteinerChain, chain_at_phase


class SymmetricChainKind(enum.Enum):
    AXIAL_MAX = "axial-max"  # odd n, contains the largest circle
    AXIAL_MIN = "axial-min"  # odd n, contains the smallest circle
    AXIAL_EVEN = "axial"  # even n, contains both extremes
    LATERAL = "lateral"  # even n, circles tangent to the axis


def symmetric_chain(g: Gauge, kind: SymmetricChainKind | str) -> SteinerChain:
    """Build the requested symmetric chain via the phase construction.

    kind is a SymmetricChainKind or its value; any other raises ValueError.
    Phase 0 is the axial chain through the largest circle (+x side); phase
    pi/n is the other axial chain for odd n and the lateral chain for even n.
    """
    kind = SymmetricChainKind(kind)
    odd = g.n % 2 == 1
    if kind in (SymmetricChainKind.AXIAL_MAX, SymmetricChainKind.AXIAL_MIN) and not odd:
        raise ValueError(f"{kind.value} requires odd chain length, got n={g.n}")
    if kind in (SymmetricChainKind.AXIAL_EVEN, SymmetricChainKind.LATERAL) and odd:
        raise ValueError(f"{kind.value} requires even chain length, got n={g.n}")
    if kind in (SymmetricChainKind.AXIAL_MAX, SymmetricChainKind.AXIAL_EVEN):
        theta = 0.0
    else:
        theta = math.pi / g.n
    return chain_at_phase(g, theta)


def axial_closed_form_n4(g: Gauge) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
    """Radii and bends of the 4-chain axial quadruple, in cyclic order
    (smallest, side, largest, side)."""
    if g.n != 4:
        raise ValueError("axial_closed_form_n4 requires n = 4")
    R, r, d = g.R, g.r, g.d
    side = 2.0 * R * r / (R - r)
    radii = ((R - d - r) / 2.0, side, (R + d - r) / 2.0, side)
    bends = (2.0 / (R - d - r), (R - r) / (2.0 * R * r), 2.0 / (R + d - r), (R - r) / (2.0 * R * r))
    return radii, bends


def lateral_chain_n4(g: Gauge) -> tuple[tuple[float, float], SteinerChain]:
    """Closed-form lateral bend pair b_-, b_+ and the constructed chain.

    The two bends solve x^2 - (A + a) x + (A - a)^2 / 8 = 0, which reduces to
    (R - r)/(2 R r) +- d/(2 sqrt(2) R r); each occurs twice in the chain.
    """
    if g.n != 4:
        raise ValueError("lateral_chain_n4 requires n = 4")
    R, r, d = g.R, g.r, g.d
    mid = (R - r) / (2.0 * R * r)
    half = d / (2.0 * math.sqrt(2.0) * R * r)
    return (mid - half, mid + half), symmetric_chain(g, SymmetricChainKind.LATERAL)


def _axis_first_triple(chain: SteinerChain) -> tuple[float, float, float]:
    """Radii of a 3-chain ordered (axis circle, companion, companion)."""
    rows = chain.rows
    axis = min(range(len(rows)), key=lambda i: abs(rows[i][1]))
    companions = sorted(rho for i, (_, _, rho) in enumerate(rows) if i != axis)
    return (rows[axis][2], companions[0], companions[1])


class AxialTriplesN3Report(_Record):
    """Published 3-chain axial formulas next to the constructed chains.

    printed_* evaluate the literature formulas verbatim; solver_* come from
    the phase construction. Discrepancies are reported for both ways of
    pairing the printed triples with the two solver chains. Each triple
    field holds two triples, one per chain.
    """

    _fields = __slots__ = (
        "printed_radii", "printed_bends", "solver_radii", "max_relative_discrepancy",
        "swapped_pairing_discrepancy",
    )

    @property
    def discrepant(self) -> bool:
        return self.max_relative_discrepancy > 1e-6


def axial_triples_n3_printed(g: Gauge) -> AxialTriplesN3Report:
    if g.n != 3:
        raise ValueError("axial_triples_n3_printed requires n = 3")
    R, r, d = g.R, g.r, g.d
    comp1 = 4.0 * R * r * (R - r + d) / (R * R - r * r - 4.0 * R * r + d * (R - r))
    comp2 = 4.0 * R * r * (R - r - d) / (R * R - r * r - 4.0 * R * r - d * (R - r))
    printed_radii = (
        ((R - r + d) / 2.0, comp1, comp1),
        ((R - r - d) / 2.0, comp2, comp2),
    )
    printed_bends = tuple(tuple(1.0 / v for v in triple) for triple in printed_radii)
    solver_max = _axis_first_triple(symmetric_chain(g, SymmetricChainKind.AXIAL_MAX))
    solver_min = _axis_first_triple(symmetric_chain(g, SymmetricChainKind.AXIAL_MIN))
    solver_radii = (solver_max, solver_min)

    def pair_disc(printed, solver):
        return max(
            abs(p - s) / abs(s) for p, s in zip(printed, solver)
        )

    direct = max(pair_disc(printed_radii[0], solver_max), pair_disc(printed_radii[1], solver_min))
    swapped = max(pair_disc(printed_radii[0], solver_min), pair_disc(printed_radii[1], solver_max))
    return AxialTriplesN3Report(printed_radii, printed_bends, solver_radii, direct, swapped)


class AxialBendsN6Report(_Record):
    """Published axial 6-chain bends next to the constructed chain's bends,
    both in cyclic order starting at the largest circle."""

    _fields = __slots__ = ("printed", "solver", "max_relative_discrepancy")


def axial_bends_n6(g: Gauge) -> AxialBendsN6Report:
    if g.n != 6:
        raise ValueError("axial_bends_n6 requires n = 6")
    R, r, d = g.R, g.r, g.d
    plus_mid = (3.0 * R * R + 3.0 * R * d - 2.0 * R * r - 3.0 * d * r + 3.0 * r * r) / (
        4.0 * R * r * (R - r + d)
    )
    minus_mid = (3.0 * R * R - 3.0 * R * d - 2.0 * R * r + 3.0 * d * r + 3.0 * r * r) / (
        4.0 * R * r * (R - r - d)
    )
    printed = (
        2.0 / (R + d - r),
        plus_mid,
        minus_mid,
        2.0 / (R - r - d),
        minus_mid,
        plus_mid,
    )
    solver = symmetric_chain(g, SymmetricChainKind.AXIAL_EVEN).bends
    disc = max(abs(p - s) / max(abs(s), 1e-300) for p, s in zip(printed, solver))
    return AxialBendsN6Report(printed, solver, disc)
