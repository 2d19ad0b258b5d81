import math
import re

import pytest
from hypothesis import given, settings

from steinerchains import (
    Gauge,
    SymmetricChainKind,
    axial_bends_n6,
    axial_closed_form_n4,
    axial_triples_n3_printed,
    bending_moment,
    complex_moment,
    conjugate_chain,
    first_two_moments_general,
    invariant_pairs,
    lateral_chain_n4,
    poristic_range,
    symmetric_chain,
)

from conftest import (
    circle_sets_close,
    gauge_strategy,
    mirror_pair_radii,
    n4_axial_side_circle,
    radius_multisets_close,
)

G3 = Gauge(3, 15.0, 1.0, 4.0)
G4 = Gauge(4, 6.0, 1.0, 1.0)
G6 = Gauge(6, 3.0, 1.0, 0.0)


class TestSymmetricChainSelection:
    def test_axial_max_order_three(self):
        chain = symmetric_chain(G3, SymmetricChainKind.AXIAL_MAX)
        assert radius_multisets_close(chain.radii, (9.0, 5.625, 5.625), 1e-9)
        axis = max(chain.circles, key=lambda c: c.radius)
        assert (axis.center.x, axis.center.y) == pytest.approx((10.0, 0.0), abs=1e-9)
        sides = sorted((c for c in chain.circles if c is not axis), key=lambda c: c.center.y)
        assert sides[0].center.x == pytest.approx(-3.5, abs=1e-9)
        assert sides[0].center.y == pytest.approx(-5.625, abs=1e-9)
        assert sides[1].center.y == pytest.approx(5.625, abs=1e-9)

    def test_axial_min_order_three(self):
        chain = symmetric_chain(G3, SymmetricChainKind.AXIAL_MIN)
        assert radius_multisets_close(chain.radii, (5.0, 7.5, 7.5), 1e-9)
        axis = min(chain.circles, key=lambda c: c.radius)
        assert (axis.center.x, axis.center.y) == pytest.approx((-6.0, 0.0), abs=1e-9)
        side = max(chain.circles, key=lambda c: c.center.y)
        assert (side.center.x, side.center.y) == pytest.approx((4.0, 7.5), abs=1e-9)
        assert bending_moment(chain, 1) == pytest.approx(7 / 15, abs=1e-12)

    def test_axial_even_contains_both_extremes(self):
        chain = symmetric_chain(G4, SymmetricChainKind.AXIAL_EVEN)
        rng = poristic_range(G4)
        assert radius_multisets_close(chain.radii, (2.0, 2.4, 3.0, 2.4), 1e-9)
        assert min(chain.radii) == pytest.approx(rng.r_min, abs=1e-9)
        assert max(chain.radii) == pytest.approx(rng.r_max, abs=1e-9)

    def test_parity_rules(self):
        with pytest.raises(ValueError):
            symmetric_chain(G4, SymmetricChainKind.AXIAL_MAX)
        with pytest.raises(ValueError):
            symmetric_chain(G3, SymmetricChainKind.LATERAL)
        with pytest.raises(ValueError):
            symmetric_chain(G3, SymmetricChainKind.AXIAL_EVEN)
        with pytest.raises(ValueError):
            symmetric_chain(G6, SymmetricChainKind.AXIAL_MIN)

    @pytest.mark.parametrize(
        "g,kind",
        [
            (G3, SymmetricChainKind.AXIAL_MAX),
            (G3, SymmetricChainKind.AXIAL_MIN),
            (G4, SymmetricChainKind.AXIAL_EVEN),
            (G4, SymmetricChainKind.LATERAL),
            (G6, SymmetricChainKind.AXIAL_EVEN),
        ],
    )
    def test_conjugation_invariance(self, g, kind):
        chain = symmetric_chain(g, kind)
        assert circle_sets_close(chain, conjugate_chain(chain), 1e-9 * g.R)

    @pytest.mark.parametrize(
        "g, kind",
        [(g, kind) for kind in SymmetricChainKind for g in (G3, G4)],
    )
    def test_kind_value_acts_as_its_member(self, g, kind):
        # each kind by member and by value, on an odd and an even gauge
        try:
            want = symmetric_chain(g, kind)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                symmetric_chain(g, kind.value)
            return
        assert symmetric_chain(g, kind.value) == want

    @pytest.mark.parametrize("kind", ["nonsense", "AXIAL_EVEN", "", None, 0])
    def test_unknown_kind_is_refused(self, kind):
        with pytest.raises(ValueError, match="is not a valid SymmetricChainKind"):
            symmetric_chain(G4, kind)

    def test_odd_n_axial_pair_shares_invariants(self):
        a = symmetric_chain(G3, SymmetricChainKind.AXIAL_MAX)
        b = symmetric_chain(G3, SymmetricChainKind.AXIAL_MIN)
        for k in (1, 2):
            assert bending_moment(a, k) == pytest.approx(bending_moment(b, k), abs=1e-9)
        for k, m in invariant_pairs(3):
            va, vb = complex_moment(a, k, m), complex_moment(b, k, m)
            assert abs(va - vb) < 1e-9


class TestAxialClosedFormN4:
    def test_reference_quadruple(self):
        radii, bends = axial_closed_form_n4(G4)
        assert radii == pytest.approx((2.0, 2.4, 3.0, 2.4), rel=1e-15)
        assert bends == pytest.approx((1 / 2, 5 / 12, 1 / 3, 5 / 12), rel=1e-15)

    def test_concentric_boundary_collapses(self):
        # d = 0 forces R = (3 + 2 sqrt(2)) r, where all four radii coincide
        R = 3.0 + 2.0 * math.sqrt(2.0)
        radii, _ = axial_closed_form_n4(Gauge(4, R, 1.0, 0.0))
        assert radii == pytest.approx(((R - 1) / 2,) * 4, rel=1e-12)

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            axial_closed_form_n4(G3)

    @settings(max_examples=50, deadline=None)
    @given(gauge_strategy(4))
    def test_matches_solver_and_tangency_oracle(self, g):
        radii, bends = axial_closed_form_n4(g)
        chain = symmetric_chain(g, SymmetricChainKind.AXIAL_EVEN)
        assert radius_multisets_close(chain.radii, radii, 1e-9 * g.R)
        side_rho, side_x, side_y = n4_axial_side_circle(g.R, g.r, g.d)
        assert radii[1] == pytest.approx(side_rho, rel=1e-9)
        side = max(chain.circles, key=lambda c: c.center.y)
        assert (side.center.x, side.center.y) == pytest.approx((side_x, side_y), abs=1e-9 * g.R)


class TestLateralChainN4:
    def test_reference_bends(self):
        (b_lo, b_hi), chain = lateral_chain_n4(G4)
        assert b_lo == pytest.approx(5 / 12 - 1 / (12 * math.sqrt(2)), rel=1e-12)
        assert b_hi == pytest.approx(5 / 12 + 1 / (12 * math.sqrt(2)), rel=1e-12)
        assert radius_multisets_close(
            sorted(chain.bends), sorted((b_lo, b_lo, b_hi, b_hi)), 1e-9
        )

    def test_tangent_to_axis(self):
        _, chain = lateral_chain_n4(G4)
        for c in chain.circles:
            assert abs(abs(c.center.y) - c.radius) < 1e-9

    def test_concentric_boundary_equal_bends(self):
        R = 3.0 + 2.0 * math.sqrt(2.0)
        (b_lo, b_hi), _ = lateral_chain_n4(Gauge(4, R, 1.0, 0.0))
        assert b_lo == pytest.approx(b_hi, rel=1e-12)
        assert b_lo == pytest.approx((R - 1) / (2 * R), rel=1e-12)

    def test_vieta_product(self):
        (b_lo, b_hi), _ = lateral_chain_n4(G4)
        A, a = -1 / 6, 1.0
        assert b_lo * b_hi == pytest.approx((A - a) ** 2 / 8, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(gauge_strategy(4))
    def test_matches_tangency_oracle(self, g):
        (b_lo, b_hi), chain = lateral_chain_n4(g)
        (rho_lo, _), (rho_hi, _) = mirror_pair_radii(g.R, g.r, g.d)
        assert 1 / b_hi == pytest.approx(rho_lo, rel=1e-9)
        assert 1 / b_lo == pytest.approx(rho_hi, rel=1e-9)
        assert radius_multisets_close(chain.radii, (rho_lo, rho_lo, rho_hi, rho_hi), 1e-9 * g.R)


class TestAxialTriplesN3Printed:
    def test_reference_gauge_discrepancy_flagged(self):
        report = axial_triples_n3_printed(G3)
        # first entries are the extreme radii and agree with the solver
        assert report.printed_radii[0][0] == pytest.approx(9.0, rel=1e-12)
        assert report.printed_radii[1][0] == pytest.approx(5.0, rel=1e-12)
        assert report.solver_radii[0][0] == pytest.approx(9.0, abs=1e-9)
        assert report.solver_radii[1][0] == pytest.approx(5.0, abs=1e-9)
        # companion radii printed in the literature conflict with the
        # tangency solution (5.625, 7.5); the report must flag this
        assert report.printed_radii[0][1] == pytest.approx(1080 / 220, rel=1e-12)
        assert report.printed_radii[1][1] == pytest.approx(600 / 108, rel=1e-12)
        assert report.solver_radii[0][1] == pytest.approx(5.625, abs=1e-9)
        assert report.solver_radii[1][1] == pytest.approx(7.5, abs=1e-9)
        assert report.discrepant
        assert report.max_relative_discrepancy > 0.1
        assert report.swapped_pairing_discrepancy > 0.1

    def test_printed_bends_are_reciprocals(self):
        report = axial_triples_n3_printed(G3)
        for radii, bends in zip(report.printed_radii, report.printed_bends):
            assert bends == pytest.approx(tuple(1 / v for v in radii), rel=1e-15)

    def test_solver_side_agrees_with_tangency_oracle(self):
        report = axial_triples_n3_printed(G3)
        (lo, _), (hi, _) = mirror_pair_radii(15.0, 1.0, 4.0)
        assert report.solver_radii[0][1] == pytest.approx(lo, abs=1e-9)
        assert report.solver_radii[1][1] == pytest.approx(hi, abs=1e-9)

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            axial_triples_n3_printed(G4)


class TestAxialBendsN6:
    def test_concentric_all_unit(self):
        report = axial_bends_n6(G6)
        assert report.printed == pytest.approx((1.0,) * 6, rel=1e-12)
        assert report.max_relative_discrepancy < 1e-9

    def test_concentric_moments_match_general_formula(self):
        I1, I2, _ = first_two_moments_general(G6)
        assert (I1, I2) == pytest.approx((6.0, 6.0), rel=1e-12)
        chain = symmetric_chain(G6, SymmetricChainKind.AXIAL_EVEN)
        assert bending_moment(chain, 1) == pytest.approx(6.0, rel=1e-12)
        assert bending_moment(chain, 2) == pytest.approx(6.0, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(gauge_strategy(6))
    def test_printed_matches_solver_generically(self, g):
        report = axial_bends_n6(g)
        assert report.max_relative_discrepancy < 1e-9
        I1, _, _ = first_two_moments_general(g)
        assert sum(report.printed) == pytest.approx(I1, rel=1e-12)

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError):
            axial_bends_n6(G4)
