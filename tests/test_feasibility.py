import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from steinerchains import (
    Gauge,
    actual_moments,
    chain_at_phase,
    closed_form_I,
    feasibility_check,
    virtual_gauge,
)
from steinerchains import config, feasibility, porism

from conftest import closure_ratio, gauge_strategy


class TestActualMoments:
    def test_arithmetic_radii(self):
        I1, I2, I3 = actual_moments((1.0, 2.0, 3.0, 4.0))
        assert I1 == pytest.approx(float(Fraction(25, 12)), rel=1e-15)
        assert I2 == pytest.approx(float(Fraction(205, 144)), rel=1e-15)
        assert I3 == pytest.approx(float(Fraction(2035, 1728)), rel=1e-15)

    def test_axial_quadruple(self):
        I1, I2, I3 = actual_moments((2.0, 2.4, 3.0, 2.4))
        assert (I1, I2, I3) == pytest.approx((5 / 3, 17 / 24, 265 / 864), rel=1e-12)

    def test_unit_radii(self):
        assert actual_moments((1.0, 1.0, 1.0, 1.0)) == (4.0, 4.0, 4.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            actual_moments((1.0, -2.0, 3.0, 4.0))
        with pytest.raises(ValueError):
            actual_moments((1.0, 0.0, 3.0, 4.0))


class TestVirtualGauge:
    def test_recovers_reference_gauge(self):
        # roots of 16 a^2 - (40/3) a - 8/3: a = 1, A = -1/6
        result = virtual_gauge(5 / 3, 17 / 24)
        assert result.ok
        a, A = result.curvatures
        assert a == pytest.approx(1.0, rel=1e-12)
        assert A == pytest.approx(-1 / 6, rel=1e-12)
        assert result.gauge == pytest.approx((6.0, 1.0, 1.0), rel=1e-9)

    def test_arithmetic_radii_candidate(self):
        # quadratic-formula oracle: a = I1/4 + sqrt(I1^2 - 2 I2)/2
        I1, I2, _ = actual_moments((1.0, 2.0, 3.0, 4.0))
        disc = I1 * I1 - 2 * I2
        a_expect = I1 / 4 + math.sqrt(disc) / 2
        result = virtual_gauge(I1, I2)
        assert result.ok
        assert result.curvatures[0] == pytest.approx(a_expect, rel=1e-14)
        R, r, d = result.gauge
        assert R == pytest.approx(11.096324751774715, rel=1e-12)
        assert r == pytest.approx(0.8835587943279035, rel=1e-12)
        assert d == pytest.approx(8.067438702896276, rel=1e-12)

    def test_unit_radii_concentric_candidate(self):
        # discriminant 16 - 8 > 0; roots 1 +- sqrt(2) straddle zero and the
        # candidate parents (1 + sqrt(2), sqrt(2) - 1) are exactly concentric
        result = virtual_gauge(4.0, 4.0)
        assert result.ok
        R, r, d = result.gauge
        assert R == pytest.approx(1 + math.sqrt(2), rel=1e-12)
        assert r == pytest.approx(math.sqrt(2) - 1, rel=1e-12)
        assert d == 0.0

    def test_complex_roots_rejected(self):
        result = virtual_gauge(1.0, 1.0)
        assert not result.ok
        assert "no real curvature pair" in result.failure

    def test_same_sign_roots_rejected(self):
        result = virtual_gauge(4.0, 7.9)
        assert not result.ok
        assert "straddle" in result.failure

    def test_parents_without_chain_rejected(self):
        # engineered so the curvature pair is (1, -1/2): R/r = 2 closes nothing
        result = virtual_gauge(1.0, -0.625)
        assert not result.ok
        assert "close no 4-chain" in result.failure

    @settings(max_examples=40, deadline=None)
    @given(gauge_strategy(4))
    def test_inverts_the_closed_forms(self, g):
        result = virtual_gauge(closed_form_I(4, 1, g), closed_form_I(4, 2, g))
        assert result.ok
        R, r, d = result.gauge
        assert R == pytest.approx(g.R, rel=1e-9)
        assert r == pytest.approx(g.r, rel=1e-9)
        assert d == pytest.approx(g.d, rel=1e-9)


class TestFeasibilityCheck:
    def test_arithmetic_radii_infeasible(self):
        report = feasibility_check((1.0, 2.0, 3.0, 4.0))
        assert not report.feasible
        assert report.relation_residual == pytest.approx(
            float(Fraction(1155, 13824)), abs=1e-12
        )
        assert report.range_check == (False, True, True, True)
        assert any("relation" in reason for reason in report.reasons)
        assert any("range" in reason for reason in report.reasons)

    def test_constructed_quadruple_feasible_both_modes(self):
        for mode in ("paper", "constructive"):
            report = feasibility_check((2.0, 2.4, 3.0, 2.4), mode=mode)
            assert report.feasible, report.reasons
            assert report.virtual_gauge == pytest.approx((6.0, 1.0, 1.0), abs=1e-6)
        assert report.adjacency_check == (True, True, True, True)

    def test_permuted_quadruple_splits_the_modes(self):
        paper = feasibility_check((2.0, 3.0, 2.4, 2.4), mode="paper")
        assert paper.feasible
        constructive = feasibility_check((2.0, 3.0, 2.4, 2.4), mode="constructive")
        assert not constructive.feasible
        # opposite bends sum to 1/2 + 5/12 and 1/3 + 5/12, which differ by 1/6
        assert constructive.adjacency_check is not None
        assert not constructive.adjacency_check[1]
        assert any("ordering" in reason for reason in constructive.reasons)
        assert "opposite bend sums differ by 0.166667, beyond 5e-07" in constructive.reasons[0]

    @pytest.mark.parametrize("mode", ["paper", "constructive"])
    def test_one_radius_range_per_check(self, mode, monkeypatch):
        """One (r_min, r_max) pair and no PoristicRange record per check."""
        built, ranges = [], []

        class CountingRange(porism.PoristicRange):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        def counting_range(*args):
            ranges.append(args)
            return porism._radius_range(*args)

        monkeypatch.setattr(porism, "PoristicRange", CountingRange)
        monkeypatch.setattr(feasibility, "_radius_range", counting_range)
        assert feasibility_check((2.0, 2.4, 3.0, 2.4), mode).feasible
        assert (len(built), len(ranges)) == (0, 1)

    @pytest.mark.parametrize("mode", ["paper", "constructive"])
    @pytest.mark.parametrize(
        "quad", [(2.0, 2.4, 3.0, 2.4), (2.0, 3.0, 2.4, 2.4), (1.0, 2.0, 3.0, 4.0), (1.0, 1.0, 1.0, 4.0)]
    )
    def test_one_tolerance_read_per_check(self, mode, quad, monkeypatch):
        reads = []

        def counting_tolerance():
            reads.append(None)
            return config.DEFAULT_TOLERANCE

        for module in (config, feasibility, porism):
            monkeypatch.setattr(module, "tolerance", counting_tolerance)
        feasibility_check(quad, mode)
        assert len(reads) == 1

    def test_unit_radii_feasible(self):
        # four unit circles close around the concentric candidate parents
        report = feasibility_check((1.0, 1.0, 1.0, 1.0), mode="constructive")
        assert report.feasible, report.reasons
        assert report.adjacency_check == (True, True, True, True)

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            feasibility_check((1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            feasibility_check((1.0, 2.0, 3.0, -4.0))
        with pytest.raises(ValueError):
            feasibility_check((1.0, 2.0, 3.0, 4.0), mode="unknown")

    def test_round_trip_over_random_gauges(self):
        rng = random.Random(20240817)
        for _ in range(50):
            R = rng.uniform(6.5, 40.0)
            g = Gauge.from_radii(4, R, 1.0)
            chain = chain_at_phase(g, rng.uniform(0.0, math.pi / 2))
            for mode in ("paper", "constructive"):
                report = feasibility_check(chain.radii, mode=mode)
                assert report.feasible, (g, report.reasons)
            Rv, rv, dv = report.virtual_gauge
            assert Rv == pytest.approx(g.R, rel=1e-6)
            assert rv == pytest.approx(g.r, rel=1e-6)
            assert dv == pytest.approx(g.d, rel=1e-6)

    def test_paper_mode_is_permutation_blind(self):
        rng = random.Random(7)
        base = [2.0, 2.4, 3.0, 2.4]
        for _ in range(10):
            perm = base[:]
            rng.shuffle(perm)
            assert feasibility_check(tuple(perm), mode="paper").feasible
        bad = [1.0, 2.0, 3.0, 4.0]
        for _ in range(10):
            rng.shuffle(bad)
            assert not feasibility_check(tuple(bad), mode="paper").feasible

    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(*[st.floats(0.5, 5.0, allow_nan=False)] * 4),
    )
    def test_relation_failure_sinks_both_modes(self, quad):
        I1, I2, I3 = actual_moments(quad)
        residual = I3 - (0.75 * I1 * I2 - 0.125 * I1**3)
        if abs(residual) <= 1e-5 * max(1.0, abs(I3)):
            return
        for mode in ("paper", "constructive"):
            assert not feasibility_check(quad, mode=mode).feasible

    @pytest.mark.parametrize("R", [6.5, 12.0, 40.0])
    def test_paper_verdict_is_scale_invariant(self, R):
        # scaling every radius by 2^k is exact in binary floating point and
        # scales I_j by exactly 2^(-jk), so a relative relation tolerance
        # gives one verdict at every scale
        g = Gauge.from_radii(4, R, 1.0)
        for frac in (0.13, 0.61):
            genuine = chain_at_phase(g, frac * math.pi / 2).radii
            cases = [(genuine, True)]
            for shift in (1e-3, -1e-2):
                cases.append(((genuine[0] * (1.0 + shift),) + genuine[1:], False))
            for quad, feasible in cases:
                verdicts = [
                    feasibility_check(tuple(v * 2.0**k for v in quad), mode="paper").feasible
                    for k in range(11)
                ]
                assert verdicts == [feasible] * 11, (quad, verdicts)

    def test_report_names_its_mode(self):
        assert feasibility_check((1.0, 2.0, 3.0, 4.0), mode="paper").mode == "paper"
        assert (
            feasibility_check((2.0, 2.4, 3.0, 2.4), mode="constructive").mode
            == "constructive"
        )


def _generic_chains(count: int, seed: int):
    """(gauge, radii) of chain_at_phase at random phases, R/r log-uniform from
    just above the n = 4 closure boundary 3 + 2 sqrt(2) up to 1e4; phases
    where two radii agree to 1e-4 are drawn again, so that no swap of two
    radii is a rotation or reflection of the chain."""
    rng = random.Random(seed)
    lo, hi = math.log(closure_ratio(4) * (1.0 + 1e-3)), math.log(1e4)
    chains = []
    while len(chains) < count:
        u = {0: 0.0, 1: 1.0}.get(len(chains), rng.random())  # both ends, then random
        g = Gauge.from_radii(4, math.exp(lo + u * (hi - lo)), 1.0)
        radii = chain_at_phase(g, rng.uniform(0.0, 2.0 * math.pi)).radii
        bends = sorted(1.0 / v for v in radii)
        if min(b - a for a, b in zip(bends, bends[1:])) > 1e-4 * bends[-1]:
            chains.append((g, radii))
    return chains


def _dihedral(quad):
    rotations = [quad[k:] + quad[:k] for k in range(4)]
    return rotations + [tuple(reversed(q)) for q in rotations]


class TestOrderingTest:
    """Constructive mode decides the ordering by b0 + b2 = b1 + b3."""

    CHAINS = _generic_chains(60, 20261019)

    def test_cubic_relation_factors_into_the_three_pairings(self):
        rng = random.Random(3)
        for _ in range(200):
            b0, b1, b2, b3 = (Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(4))
            I1 = b0 + b1 + b2 + b3
            I2 = b0**2 + b1**2 + b2**2 + b3**2
            I3 = b0**3 + b1**3 + b2**3 + b3**3
            pairings = (b0 + b1 - b2 - b3) * (b0 + b2 - b1 - b3) * (b0 + b3 - b1 - b2)
            assert I3 - (Fraction(3, 4) * I1 * I2 - Fraction(1, 8) * I1**3) == Fraction(3, 8) * pairings

    def test_every_dihedral_arrangement_passes(self):
        for g, radii in self.CHAINS:
            for quad in _dihedral(radii):
                report = feasibility_check(quad, mode="constructive")
                assert report.feasible, (g, quad, report.reasons)
                assert report.adjacency_check == (True, True, True, True)

    def test_every_adjacent_swap_fails(self):
        for g, radii in self.CHAINS:
            for i in range(4):
                quad = list(radii)
                quad[i], quad[(i + 1) % 4] = quad[(i + 1) % 4], quad[i]
                report = feasibility_check(tuple(quad), mode="constructive")
                assert not report.feasible, (g, quad)
                assert feasibility_check(tuple(quad), mode="paper").feasible, (g, quad)
                assert report.adjacency_check == (False, False, False, False)
                assert any("ordering" in reason for reason in report.reasons)

    def test_one_radius_moved_by_ten_thresholds_fails(self):
        # moving radius k by the factor (1 + e) moves its bend by about
        # e * b_k, so e = 10 * 1e-6 * b_max / b_k misses by ten thresholds
        tol = feasibility.RELATION_TOLERANCE
        for g, radii in self.CHAINS:
            b_max = max(1.0 / v for v in radii)
            for k in range(4):
                e = 10.0 * tol * b_max * radii[k]
                for sign in (1.0, -1.0):
                    quad = list(radii)
                    quad[k] *= 1.0 + sign * e
                    report = feasibility_check(tuple(quad), mode="constructive")
                    assert not report.feasible, (g, quad)
                    assert report.adjacency_check == (False,) * 4, (g, quad)

    def test_verdict_is_scale_invariant(self):
        # scaling by 2^k is exact and scales every bend by 2^-k; the concentric
        # clamp, tol * R^2, scales with the candidate's R^2, so the candidate
        # range of a chain scaled down to R ~ 1e-9 is still its own
        for g, radii in self.CHAINS[:20]:
            swapped = (radii[1], radii[0]) + radii[2:]
            nudged = (radii[0] * (1.0 + 3e-6),) + radii[1:]
            for quad in (radii, swapped, nudged):
                verdicts = {
                    feasibility_check(tuple(v * 2.0**k for v in quad), mode="constructive").feasible
                    for k in range(-30, 21)
                }
                assert len(verdicts) == 1, (g, quad)


class TestTinyRadii:
    """Radii so small that a moment overflows are invalid input (ValueError),
    not an OverflowError from deep inside the check."""

    @pytest.mark.parametrize("quad", [(1e-110, 2e-110, 3e-110, 4e-110), (1e-310, 1.0, 1.0, 1.0)])
    def test_overflowing_third_moment(self, quad):
        # b^3 overflows for radii below about 1.8e-103; a bend past the float
        # range (radius below about 5.6e-309) is inf and makes I3 inf
        with pytest.raises(ValueError, match=r"third moment I3 = sum 1/radius\^3 overflows"):
            actual_moments(quad)
        for mode in ("paper", "constructive"):
            with pytest.raises(ValueError, match=r"third moment I3 = sum 1/radius\^3 overflows"):
                feasibility_check(quad, mode)

    def test_overflowing_relation(self):
        # I3 is finite, but the relation's I1^3 = (8e102)^3 is not
        quad = (5e-103,) * 4
        assert math.isfinite(actual_moments(quad)[2])
        for mode in ("paper", "constructive"):
            with pytest.raises(ValueError, match=r"third-moment relation overflows: I1\^3 with I1 = 8e\+102"):
                feasibility_check(quad, mode)

    def test_smallest_decided_scale(self):
        # 2^-330 is about 4.6e-100: every moment and the relation stay finite
        for g, radii in TestOrderingTest.CHAINS[:5]:
            quad = tuple(v * 2.0**-330 for v in radii)
            for mode in ("paper", "constructive"):
                assert feasibility_check(quad, mode).feasible, (g, mode)


class TestHugeRadii:
    """Radii so large that I3 = sum 1/radius^3 is not a normal float are
    invalid input: there the relation test, judged against I3, decides nothing."""

    @pytest.mark.parametrize("quad", [(1e155, 2e155, 3e155, 4e155), (6e102,) * 4, (1e200,) * 4])
    def test_underflowing_third_moment(self, quad):
        # I3 is subnormal or 0, so the relation test would decide nothing
        with pytest.raises(ValueError, match=r"third moment I3 = sum 1/radius\^3 underflows"):
            actual_moments(quad)
        for mode in ("paper", "constructive"):
            with pytest.raises(ValueError, match=r"third moment I3 = sum 1/radius\^3 underflows"):
                feasibility_check(quad, mode)

    def test_far_from_chain_radii_are_refused_not_accepted(self):
        # without the refusal, paper mode accepts some of these at these scales
        rng = random.Random(5)
        for _ in range(200):
            quad = [math.exp(rng.uniform(-3.0, 3.0)) for _ in range(4)]
            for k in (400, 450, 500):
                with pytest.raises(ValueError, match="underflows"):
                    feasibility_check(tuple(v * 2.0**k for v in quad), "paper")

    def test_largest_decided_scale(self):
        # 2^330 is about 2.2e99: I3 stays a normal float
        for g, radii in TestOrderingTest.CHAINS[:5]:
            quad = tuple(v * 2.0**330 for v in radii)
            assert actual_moments(quad)[2] >= sys.float_info.min
            for mode in ("paper", "constructive"):
                assert feasibility_check(quad, mode).feasible, (g, mode)


def _in_order(terms):
    """Add left to right from 0, as sum() added floats before Python 3.12."""
    total = 0
    for t in terms:
        total += t
    return total


def _reference_check(radii, mode):
    """feasibility_check as it was written before its straight-line rewrite:
    moments as generator sums, a Gauge built per check for the radius window,
    and a report built by keyword. The concentric clamp is the scale-relative
    tol * R^2 of the current code, and the window margin and the refusal's
    repr-printed range are the current code's too."""
    if mode not in ("paper", "constructive"):
        raise ValueError("mode must be 'paper' or 'constructive'")
    quad = tuple(float(v) for v in radii)
    if len(quad) != 4:
        raise ValueError("expected exactly four radii")
    if any(not (v > 0.0) or not math.isfinite(v) for v in quad):
        raise ValueError(f"radii must be positive finite numbers, got {quad}")
    bends = [1.0 / v for v in quad]
    I1 = _in_order(bends)
    I2 = _in_order(b * b for b in bends)
    I3 = _in_order(b * b * b for b in bends)
    reasons = []
    curvatures = gauge = None
    disc = I1 * I1 - 2.0 * I2
    if disc < 0.0:
        reasons.append("no real curvature pair (I1^2 < 2 I2)")
    else:
        half = math.sqrt(disc) / 2.0
        a = I1 / 4.0 + half
        A = I1 / 2.0 - a
        curvatures = (a, A)
        if not (a > 0.0 > A):
            reasons.append(f"curvature roots ({a:.6g}, {A:.6g}) do not straddle zero")
        else:
            r = 1.0 / a
            R = -1.0 / A
            radicand = R * R - 6.0 * R * r + r * r
            if abs(radicand) <= config.tolerance() * (R * R):
                radicand = 0.0
            if radicand < 0.0:
                reasons.append(f"candidate parents (R={R:.6g}, r={r:.6g}) close no 4-chain")
            else:
                gauge = (R, r, math.sqrt(radicand))
    residual = I3 - (0.75 * I1 * I2 - 0.125 * (I1 * I1 * I1))
    if abs(residual) > feasibility.RELATION_TOLERANCE * abs(I3):
        reasons.append(f"third-moment relation violated (residual {residual:.6g})")
    range_check = adjacency_check = None
    if gauge is not None:
        rng = Gauge(4, *gauge).extremes
        margin = (config.tolerance() + 4.0 * sys.float_info.epsilon * (gauge[0] / gauge[1])) * gauge[0]
        lo, hi = rng.r_min - margin, rng.r_max + margin
        range_check = tuple(lo <= v <= hi for v in quad)
        if not all(range_check):
            bad = [v for v, ok in zip(quad, range_check) if not ok]
            reasons.append(f"radii {bad} outside the candidate range [{rng.r_min!r}, {rng.r_max!r}]")
        elif mode == "constructive":
            b0, b1, b2, b3 = bends
            ordering_residual = (b0 + b2) - (b1 + b3)
            limit = feasibility.RELATION_TOLERANCE * max(bends)
            adjacency_check = (abs(ordering_residual) <= limit,) * 4
            if not adjacency_check[0]:
                reasons.append(
                    f"opposite bend sums differ by {ordering_residual:.6g}, beyond "
                    f"{limit:.6g} (1e-06 x the largest bend): ordering is not realizable"
                )
    return feasibility.FeasibilityReport(
        radii=quad,
        mode=mode,
        actual_moments=(I1, I2, I3),
        virtual_curvatures=curvatures,
        virtual_gauge=gauge,
        range_check=range_check,
        relation_residual=residual,
        adjacency_check=adjacency_check,
        feasible=not reasons,
        reasons=tuple(reasons),
    )


def _reference_quadruples(count: int, seed: int):
    """Seeded quadruples of six kinds in turn: chain radii in a dihedral
    arrangement, an adjacent swap, 5-12-digit decimal roundings, one radius
    moved by 1e-8 to 1e-2 relative, random radii in [e^-3, e^3], and the
    first of these scaled by 2^k for k from -30 to 20."""
    rng = random.Random(seed)
    lo, hi = math.log(closure_ratio(4) * (1.0 + 1e-6)), math.log(1e4)

    def chain():
        g = Gauge.from_radii(4, math.exp(rng.uniform(lo, hi)), 1.0)
        return list(chain_at_phase(g, rng.uniform(0.0, 2.0 * math.pi)).radii)

    quads = []
    while len(quads) < count:
        kind = len(quads) % 6
        if kind == 0:
            quad = rng.choice(_dihedral(tuple(chain())))
        elif kind == 1:
            quad = chain()
            i = rng.randrange(4)
            quad[i], quad[(i + 1) % 4] = quad[(i + 1) % 4], quad[i]
        elif kind == 2:
            digits = rng.randint(5, 12)
            quad = [float(f"{v:.{digits}g}") for v in chain()]
        elif kind == 3:
            quad = chain()
            quad[rng.randrange(4)] *= 1.0 + rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(1e-8), math.log(1e-2)))
        elif kind == 4:
            quad = [math.exp(rng.uniform(-3.0, 3.0)) for _ in range(4)]
        else:
            quad = [v * 2.0 ** rng.randint(-30, 20) for v in quads[-5]]
        quads.append(tuple(quad))
    return quads


class TestReferenceEquality:
    """feasibility_check gives the reference's report, field for field and
    in its repr, and raises the reference's exception with its message."""

    QUADS = _reference_quadruples(2000, 20261019)

    @pytest.mark.parametrize("mode", ["paper", "constructive"])
    def test_reports_match(self, mode):
        kinds = set()
        for quad in self.QUADS:
            report = feasibility_check(quad, mode)
            expected = _reference_check(quad, mode)
            assert report == expected, quad
            assert repr(report) == repr(expected), quad
            kinds.update(reason.split(" ")[0] for reason in report.reasons)
            kinds.add(report.feasible)
        # both verdicts and every failure occur, except "candidate parents ...
        # close no 4-chain": I2 >= I1^2 / 4 for positive bends puts R/r at or
        # above the closure ratio 3 + 2 sqrt(2), so only virtual_gauge on
        # other (I1, I2) reaches it
        assert kinds >= {True, False, "no", "curvature", "third-moment", "radii"}
        if mode == "constructive":
            assert "opposite" in kinds

    @pytest.mark.parametrize("mode", ["paper", "constructive"])
    def test_power_of_two_scaling_is_exact(self, mode):
        # scaling every radius by 2^k scales each bend by exactly 2^-k; with
        # cubes taken by multiplication (pow rounds on its own), I_j and the
        # relation residual scale by exactly 2^-jk and 2^-3k at every k
        # for which I3 stays a normal float
        for quad in self.QUADS[:600]:
            base = feasibility_check(quad, mode)
            I1, I2, I3 = base.actual_moments
            for k in range(-300, 301, 7):
                s = 2.0**-k
                report = feasibility_check(tuple(v * 2.0**k for v in quad), mode)
                assert report.actual_moments == (I1 * s, I2 * s * s, I3 * s * s * s), (quad, k)
                assert report.relation_residual == base.relation_residual * s * s * s, (quad, k)
                verdict = (report.feasible, report.range_check, report.adjacency_check)
                assert verdict == (base.feasible, base.range_check, base.adjacency_check), (quad, k)

    @pytest.mark.parametrize("mode", ["paper", "constructive", "unknown"])
    @pytest.mark.parametrize(
        "radii",
        [
            (math.nan, 1.0, 2.0, 3.0),
            (1.0, math.inf, 2.0, 3.0),
            (1.0, 2.0, 0.0, 3.0),
            (1.0, 2.0, 3.0, -1.0),
            (1.0, 2.0, 3.0),
            (1.0, 2.0, 3.0, 4.0, 5.0),
        ],
    )
    def test_errors_match(self, radii, mode):
        with pytest.raises(ValueError) as raised:
            feasibility_check(radii, mode)
        with pytest.raises(ValueError) as expected:
            _reference_check(radii, mode)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)
