import math
import random
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

from conftest import gauge_strategy


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
        # the u = 3 position demands the double root 5/12 twice, but one of
        # its claimed neighbors has bend 1/2
        assert constructive.adjacency_check is not None
        assert not constructive.adjacency_check[1]
        assert any("ordering" in reason for reason in constructive.reasons)

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
