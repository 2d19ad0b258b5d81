"""Whole-domain contract tests: exact relations that need no oracle, and
every input answered with a result or a ValueError.

Scaling every length by a power of two is exact in floats, so a family and
its radii scaled by 2^k give bends exactly 2^-k and radii exactly 2^k times
those at scale 1, as long as the floats carry them. Hypothesis runs
derandomized on a fixed budget, so the suite stays deterministic.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import closure_ratio
from steinerchains import (
    Gauge,
    chain_at_phase,
    chain_by_yiu,
    feasibility_check,
    neighbor_bend_sum,
    neighbor_bends,
    neighbor_radius_sum,
    virtual_gauge,
    yiu_coefficients,
)

LENGTHS = (3, 4, 5, 8, 16, 33, 64)
SCALES = st.integers(-400, 300)
EDGE_SCALES = (-400, -300, -200, -170, -150, -100, 100, 150, 170, 200, 300)
DOMAIN = settings(max_examples=150, deadline=None, derandomize=True)
BAD = (0.0, -0.0, -1.0, -1e-12, math.inf, -math.inf, math.nan)  # no radius
SPECIAL = BAD + (5e-324, 2.2e-308, 1.7e308)  # and the ends of the float range
NEIGHBOR_FUNCTIONS = (neighbor_bends, neighbor_bend_sum, neighbor_radius_sum, yiu_coefficients)


@st.composite
def families(draw, lengths=LENGTHS) -> tuple[Gauge, float]:
    """A gauge (n, R, 1) with R/r log-uniform from just above the closure
    boundary to 1e12, and the radius of one circle of one of its chains."""
    n = draw(st.sampled_from(lengths))
    lo = math.log(closure_ratio(n) * (1.0 + 1e-6))
    g = Gauge.from_radii(n, math.exp(draw(st.floats(lo, math.log(1e12)))), 1.0)
    chain = chain_at_phase(g, draw(st.floats(0.0, 2.0 * math.pi)))
    return g, chain.radii[draw(st.integers(0, n - 1))]


def scaled(g: Gauge, k: int, d: float | None = None) -> Gauge:
    s = math.ldexp(1.0, k)
    return Gauge(g.n, g.R * s, g.r * s, g.d * s if d is None else d)


def returns_or_refuses(f, *args) -> None:
    """Call f; any exception but ValueError fails the test."""
    try:
        f(*args)
    except ValueError:
        pass


def assert_scales_exactly(g: Gauge, u: float, k: int) -> None:
    s = math.ldexp(1.0, k)
    h, v = scaled(g, k), u * s
    lo, hi = neighbor_bends(g, u)
    assert math.isfinite(lo) and math.isfinite(hi)
    assert neighbor_bends(h, v) == (lo / s, hi / s)
    assert neighbor_bend_sum(h, v) == neighbor_bend_sum(g, u) / s
    assert neighbor_radius_sum(h, v) == neighbor_radius_sum(g, u) * s
    for branch in ("low", "high"):
        try:
            radii, mismatch = chain_by_yiu(g, u, branch)
        except ValueError:  # propagation left the radius range: at every scale
            with pytest.raises(ValueError):
                chain_by_yiu(h, v, branch)
        else:
            assert chain_by_yiu(h, v, branch) == (tuple([x * s for x in radii]), mismatch * s)


class TestPowerOfTwoScaling:
    @DOMAIN
    @given(families(), SCALES)
    def test_neighbor_functions_scale_exactly(self, family, k):
        assert_scales_exactly(*family, k)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_at_the_scales_where_the_true_scale_quadratic_fails(self, n):
        # at the true scale the coefficients (degree 4 to 6 in lengths) and the
        # discriminant (degree 10) underflow or overflow at these scales
        g = Gauge.from_radii(n, 6.0 * closure_ratio(n) / closure_ratio(4), 1.0)
        u = chain_at_phase(g, 0.3).radii[0]
        for k in EDGE_SCALES:
            assert_scales_exactly(g, u, k)


class TestEveryInputAnswered:
    @DOMAIN
    @given(
        families(),
        SCALES,
        st.sampled_from([None, 0.0, math.inf]),
        st.one_of(st.sampled_from(SPECIAL), st.floats(-0.5, 1.5)),
    )
    def test_neighbor_functions(self, family, k, d, where):
        """Radii inside, near and outside the range, and the special values,
        on scaled gauges, and on scaled parents at distance 0 or inf."""
        g, _ = family
        h = scaled(g, k, d)
        rng = h.extremes
        u = where if where in SPECIAL else rng.r_min + where * (rng.r_max - rng.r_min)
        for f in NEIGHBOR_FUNCTIONS:
            returns_or_refuses(f, h, u)
        for branch in ("low", "high"):
            returns_or_refuses(chain_by_yiu, h, u, branch)

    # touching parents (d = R - r) have r_min = 0, so the window, widened by
    # tolerance() * R, reaches below zero
    @pytest.mark.parametrize("g", [Gauge.from_radii(4, 6.0, 1.0), Gauge(4, 6.0, 1.0, 5.0)])
    @pytest.mark.parametrize("u", BAD)
    def test_what_is_no_radius_is_refused(self, g, u):
        for f in (*NEIGHBOR_FUNCTIONS, chain_by_yiu):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                f(g, u)

    def test_underflowing_quadratic_is_refused(self):
        with pytest.raises(ValueError, match="underflows"):
            neighbor_bends(Gauge(4, 1.0, 1e-200, 0.5), 0.5)

    @DOMAIN
    @given(
        families((4,)),
        SCALES,
        st.lists(st.one_of(st.sampled_from(SPECIAL), st.floats(), st.none()), min_size=4, max_size=4),
        st.sampled_from(["paper", "constructive"]),
    )
    def test_feasibility_check(self, family, k, values, mode):
        """A chain's first four radii scaled by 2^k, with some replaced by
        special or arbitrary floats (None keeps the radius)."""
        g, _ = family
        radii = chain_at_phase(scaled(g, k), 0.0).radii[:4]
        returns_or_refuses(feasibility_check, [r if v is None else v for r, v in zip(radii, values)], mode)

    @DOMAIN
    @given(st.floats(), st.floats())
    def test_virtual_gauge(self, I1, I2):
        result = virtual_gauge(I1, I2)
        if result.ok:
            R, r, d = result.gauge
            assert 0.0 < r < math.inf and 0.0 < R < math.inf and 0.0 <= d < math.inf

    @pytest.mark.parametrize("I1, I2", [(1e200, 1e200), (1.7e308, 0.0)])
    def test_overflowing_curvature_is_a_failure(self, I1, I2):
        result = virtual_gauge(I1, I2)
        assert not result.ok and result.gauge is None
        assert result.failure == "curvature roots (inf, -inf) overflow the float range"

    def test_overflowing_candidate_is_a_failure(self):
        # R = r = 1.4e160, so R * R overflows and the radicand is NaN
        result = virtual_gauge(1e-300, -1e-320)
        assert not result.ok and result.gauge is None
        assert result.failure.endswith("overflow the float range")
