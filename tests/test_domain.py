"""Whole-domain contract tests: exact relations that need no oracle, and
every input answered with a result or a ValueError.

Scaling every length by a power of two is exact in floats, so a family and
its radii scaled by 2^k give bends exactly 2^-k and radii exactly 2^k times
those at scale 1, as long as the floats carry them. Hypothesis runs
derandomized on a fixed budget, so the suite stays deterministic.
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import closure_ratio, mp_neighbor_bends, yiu_quadratic_exact
from steinerchains import (
    Gauge,
    chain_at_phase,
    chain_by_yiu,
    chain_residuals,
    conjugate_chain,
    feasibility_check,
    is_valid_chain,
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
# R/r up to 2 are multiples of the closure boundary
RATIOS = (1.0 + 1e-9, 2.0, 1e3, 1e6, 1e9, 1e10, 1e11, 1e12)


@st.composite
def families(draw, lengths=LENGTHS, bottom=0.0, top=1e12) -> tuple[Gauge, float]:
    """A gauge (n, R, 1) with R/r log-uniform from just above the closure
    boundary, or from bottom, to top, and the radius of one circle of one of
    its chains."""
    n = draw(st.sampled_from(lengths))
    lo = math.log(max(closure_ratio(n) * (1.0 + 1e-6), bottom))
    g = Gauge.from_radii(n, math.exp(draw(st.floats(lo, math.log(top)))), 1.0)
    chain = chain_at_phase(g, draw(st.floats(0.0, 2.0 * math.pi)))
    return g, chain.radii[draw(st.integers(0, n - 1))]


def scaled(g: Gauge, k: int, d: float | None = None) -> Gauge:
    s = math.ldexp(1.0, k)
    return Gauge(g.n, g.R * s, g.r * s, g.d * s if d is None else d)


def domain_gauge(n: int, ratio: float) -> Gauge:
    return Gauge.from_radii(n, ratio * closure_ratio(n) if ratio <= 2.0 else ratio, 1.0)


def relative_gap(got, want) -> float:
    return max([abs(x - y) / abs(y) for x, y in zip(got, want, strict=True)])


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
        radii, mismatch = chain_by_yiu(g, u, branch)
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


class TestChainScaling:
    @DOMAIN
    @given(families(), st.floats(0.0, 2.0 * math.pi), st.integers(-300, 200))
    def test_rows_and_residuals_scale_exactly(self, family, theta, k):
        g, _ = family
        s = math.ldexp(1.0, k)
        chain, big = chain_at_phase(g, theta), chain_at_phase(scaled(g, k), theta)
        assert big.rows == tuple([(x * s, y * s, rho * s) for x, y, rho in chain.rows])
        residuals, big_residuals = chain_residuals(chain), chain_residuals(big)
        assert big_residuals._values() == tuple([v * s for v in residuals._values()])
        assert big_residuals.ok == residuals.ok


class TestLargePhases:
    @DOMAIN
    @given(families(), st.floats(-1e15, 1e15))
    def test_build_valid_chains(self, family, theta):
        assert is_valid_chain(chain_at_phase(family[0], theta))


class TestMirror:
    @DOMAIN
    @given(families(), st.floats(-1e15, 1e15))
    def test_conjugate_chain_is_exact(self, family, theta):
        g, _ = family
        chain = chain_at_phase(g, theta)
        mirror = conjugate_chain(chain)
        back = conjugate_chain(mirror)
        assert back.rows == chain.rows
        assert chain_residuals(mirror)._values() == chain_residuals(chain)._values()
        assert abs(back.phase - chain.phase) <= math.ulp(2.0 * math.pi / g.n) / 2.0


class TestEveryRingCloses:
    """By Steiner's porism every circle of the family starts a closed ring:
    chain_by_yiu seeded with any radius of a chain returns that chain's
    radii from the seed, one branch each way round."""

    @DOMAIN
    @given(families(), st.floats(0.0, 2.0 * math.pi))
    def test_from_every_seed(self, family, theta):
        g, _ = family
        radii = chain_at_phase(g, theta).radii
        for i, u0 in enumerate(radii):
            ahead = radii[i:] + radii[:i]
            back = ahead[:1] + ahead[:0:-1]
            (high, high_mismatch), (low, low_mismatch) = [chain_by_yiu(g, u0, b) for b in ("high", "low")]
            assert max(high_mismatch, low_mismatch) <= 1e-14 * u0, i
            # the seed's angle is recovered from its radius, which near a
            # range endpoint fixes it only to about sqrt(eps): 2.7e-7 measured
            assert min(
                max(relative_gap(high, ahead), relative_gap(low, back)),
                max(relative_gap(high, back), relative_gap(low, ahead)),
            ) <= 1e-6, i


def relabellings(radii: tuple) -> list[tuple]:
    """The 8 labellings of a 4-ring: its rotations and their reversals."""
    rotations = [radii[i:] + radii[:i] for i in range(4)]
    return rotations + [ring[::-1] for ring in rotations]


def assert_one_verdict_per_mode(g: Gauge, theta: float, wobble: list[float], mode: str) -> None:
    """The radii of a 4-chain, and those radii each moved by up to 1e-4 of
    itself, get one verdict over all their labellings."""
    radii = chain_at_phase(g, theta).radii
    for quad in (radii, tuple([x * (1.0 + e) for x, e in zip(radii, wobble)])):
        assert len({feasibility_check(q, mode).feasible for q in relabellings(quad)}) == 1


RELABELLING = (
    st.floats(0.0, 2.0 * math.pi),
    st.lists(st.floats(-1e-4, 1e-4), min_size=4, max_size=4),
    st.sampled_from(["paper", "constructive"]),
)


class TestRelabelling:
    @DOMAIN
    @given(families((4,), top=1e6), *RELABELLING)
    def test_one_verdict_per_mode(self, family, theta, wobble, mode):
        assert_one_verdict_per_mode(family[0], theta, wobble, mode)

    # The candidate parents come from the moments, summed in label order, and
    # their R carries an error of about 1e-16 R/r of itself against a window
    # margin of tolerance() * R: from R/r near 1e6 up a true chain falls
    # outside the window in some labellings (ROADMAP item 3).
    @pytest.mark.xfail(strict=True, reason="labelling-dependent range check above R/r = 1e6")
    @DOMAIN
    @given(families((4,), bottom=1e6), *RELABELLING)
    def test_one_verdict_per_mode_above_1e6(self, family, theta, wobble, mode):
        assert_one_verdict_per_mode(family[0], theta, wobble, mode)


class TestNeighborBendsOnTheFamily:
    """The neighbor bends of every circle of a chain are the bends of the
    family at the angles one step either side of it."""

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_match_the_ring_neighbors_at_generic_phases(self, n, ratio):
        g = domain_gauge(n, ratio)
        for frac in (0.031, 0.411, 0.852):
            chain = chain_at_phase(g, frac * 2.0 * math.pi / n)
            b = chain.bends
            for i, u in enumerate(chain.radii):
                ring = sorted((b[i - 1], b[(i + 1) % n]))
                assert relative_gap(neighbor_bends(g, u), ring) <= 1e-10, (frac, i)

    # the symmetric chains put a circle at a range endpoint (at theta = 0 the
    # largest; at pi/n, for odd n, the smallest), where its two neighbors are
    # a double root, and at theta = 0 the circles next to the largest have
    # b_min as a neighbor, down to 2.5e-15 of b_max at n = 64, R/r = 1e12
    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("n", LENGTHS)
    def test_match_60_digits_at_the_symmetric_phases(self, n, ratio):
        g = domain_gauge(n, ratio)
        for theta in (0.0, math.pi / n):
            for i, u in enumerate(chain_at_phase(g, theta).radii):
                assert relative_gap(neighbor_bends(g, u), mp_neighbor_bends(g, u)) <= 1e-13, (theta, i)


class TestYiuQuadratic:
    @DOMAIN
    @given(families(range(3, 65), top=1e6))
    def test_matches_the_exact_polynomial(self, family):
        g, u = family
        got = yiu_coefficients(g, u)
        want = [float(c) for c in yiu_quadratic_exact(g.n, g.R, g.r, u)]
        assert relative_gap((got.alpha, got.beta, got.gamma), want) <= 1e-13


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

    def test_tiny_inner_parent_is_answered(self):
        # r u / R^2 = 5e-201, where Yiu's degree-6 quadratic leaves the floats
        g = Gauge(4, 1.0, 1e-200, 0.5)
        lo, hi = neighbor_bends(g, 0.5)
        assert math.isfinite(lo) and math.isfinite(hi)
        assert g.extremes.b_min <= lo <= hi <= g.extremes.b_max

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


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_runs_after():
    pass
"""


def test_failing_property_reports_its_example(tmp_path):
    """Under this project's warning filters a failing property prints its
    falsifying example and the session runs on to its summary."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
