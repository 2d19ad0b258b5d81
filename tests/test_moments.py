import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from steinerchains import (
    Gauge,
    InvarianceReport,
    bending_moment,
    chain_at_phase,
    closed_form_I,
    complex_moment,
    first_two_moments_general,
    invariance_sweep,
    invariant_pairs,
    moment_set,
    sweep_csv_text,
    third_moment_relation_residual,
    write_sweep_csv,
)
from steinerchains.moments import sweep_header, sweep_rows
from steinerchains.porism import MAX_MOMENT_ORDER

from conftest import closure_ratio, exact_negative_control_span, gauge_strategy

G3 = Gauge(3, 15.0, 1.0, 4.0)
G4 = Gauge(4, 6.0, 1.0, 1.0)
G6 = Gauge(6, 3.0, 1.0, 0.0)


class TestBendingMoment:
    def test_example_one_first_moment(self):
        # bends (1/9, 8/45, 8/45) sum to 7/15
        chain = chain_at_phase(G3, 0.0)
        assert bending_moment(chain, 1) == pytest.approx(7 / 15, abs=1e-12)

    def test_axial_second_moment_order_four(self):
        # bends (1/2, 5/12, 1/3, 5/12) by hand
        chain = chain_at_phase(G4, 0.0)
        assert bending_moment(chain, 2) == pytest.approx(17 / 24, abs=1e-12)

    def test_unit_circles_any_power(self):
        chain = chain_at_phase(G6, 0.0)
        assert bending_moment(chain, 5) == pytest.approx(6.0, rel=1e-12)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            bending_moment(chain_at_phase(G4, 0.0), -1)


class TestComplexMoment:
    def test_m_zero_equals_bending_exactly(self):
        for theta in (0.0, 0.3, 1.1):
            chain = chain_at_phase(G4, theta)
            for k in range(0, 5):
                val = complex_moment(chain, k, 0)
                assert val.real == bending_moment(chain, k)
                assert val.imag == 0.0

    def test_example_one_center_weighted(self):
        # oracle: centers (10, 0), (-3.5, +-5.625), bends (1/9, 8/45, 8/45)
        # give (1/9)*10 + 2*(8/45)*(-3.5) = -2/15; the second axial chain
        # (centers (-6,0), (4,+-7.5), bends (1/5, 2/15, 2/15)) agrees
        a = complex_moment(chain_at_phase(G3, 0.0), 1, 1)
        b = complex_moment(chain_at_phase(G3, math.pi / 3), 1, 1)
        assert a.real == pytest.approx(-2 / 15, abs=1e-9)
        assert abs(a.imag) < 1e-9
        assert b.real == pytest.approx(-2 / 15, abs=1e-9)

    def test_symmetric_ring_vanishes(self):
        assert abs(complex_moment(chain_at_phase(G6, 0.0), 1, 1)) < 1e-12

    def test_higher_pairs_generically_non_real(self):
        # k < m is outside the invariant wedge: no reality constraint
        chain = chain_at_phase(G4, 0.37)
        assert abs(complex_moment(chain, 1, 2).imag) > 1e-3


class TestKernelAccuracy:
    """Every I_k and J_{k,m} of moment_set against a 60-digit evaluation of
    the same sums over the chain's own float bends and centers, so only the
    kernel's float arithmetic is judged, relative to sum |b^k z^m|."""

    @pytest.mark.parametrize(
        "n, R", [(3, 15.0), (4, 6.0), (16, 1.6), (32, 1.3), (64, 1.2)]
    )
    def test_matches_60_digit_reference(self, n, R):
        g = Gauge.from_radii(n, R, 1.0)
        worst = 0.0
        for frac in (0.0, 0.37, 0.81):
            chain = chain_at_phase(g, frac * 2 * math.pi / n)
            ms = moment_set(chain)
            assert len(ms.bending) == n and len(ms.complex_map) == n * (n + 1) // 2
            with mpmath.workdps(60):
                b = [mpmath.mpf(v) for v in chain.bends]
                z = [mpmath.mpc(v.real, v.imag) for v in chain.centers]
                bpow = [[v**k for v in b] for k in range(n + 1)]
                zpow = [[v**m for v in z] for m in range(n)]
                for k in range(1, n + 1):
                    exact = mpmath.fsum(bpow[k])  # bends are positive
                    worst = max(worst, float(abs(ms.bending[k - 1] - exact) / exact))
                for (k, m), val in ms.complex_map.items():
                    exact = mpmath.fsum(u * w for u, w in zip(bpow[k], zpow[m]))
                    scale = math.fsum(
                        u**k * abs(w) ** m for u, w in zip(chain.bends, chain.centers)
                    )
                    worst = max(worst, float(abs(val - exact)) / scale)
        assert worst <= 1e-13


class TestClosedForms:
    def test_order_three_second_moment(self):
        # (R^2 - 6 R r + r^2) / (8 R^2 r^2) at (15, 1): 136/1800
        assert closed_form_I(3, 2, G3) == pytest.approx(17 / 225, abs=1e-15)

    def test_order_four_values(self):
        assert closed_form_I(4, 1, G4) == pytest.approx(5 / 3, rel=1e-15)
        assert closed_form_I(4, 2, G4) == pytest.approx(17 / 24, rel=1e-15)
        assert closed_form_I(4, 3, G4) == pytest.approx(265 / 864, rel=1e-15)

    def test_unsupported_pair_rejected(self):
        with pytest.raises(ValueError):
            closed_form_I(5, 1, G4)
        with pytest.raises(ValueError):
            closed_form_I(4, 4, G4)

    @settings(max_examples=30, deadline=None)
    @given(gauge_strategy(3), st.floats(0.0, 1.0))
    def test_matches_direct_sums_order_three(self, g, frac):
        chain = chain_at_phase(g, frac * 2 * math.pi / 3)
        for k in (1, 2):
            want = closed_form_I(3, k, g)
            assert bending_moment(chain, k) == pytest.approx(want, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(gauge_strategy(4), st.floats(0.0, 1.0))
    def test_matches_direct_sums_order_four(self, g, frac):
        chain = chain_at_phase(g, frac * math.pi / 2)
        for k in (1, 2, 3):
            want = closed_form_I(4, k, g)
            assert bending_moment(chain, k) == pytest.approx(want, rel=1e-9)


class TestFirstTwoMomentsGeneral:
    def test_concentric_six(self):
        I1, I2, params = first_two_moments_general(G6)
        assert (I1, I2) == pytest.approx((6.0, 6.0), rel=1e-12)
        assert (params.s, params.p) == pytest.approx((1.0, -1.0), rel=1e-12)

    def test_example_one(self):
        I1, _, _ = first_two_moments_general(G3)
        assert I1 == pytest.approx(7 / 15, abs=1e-12)

    def test_order_four(self):
        I1, I2, _ = first_two_moments_general(G4)
        assert I1 == pytest.approx(5 / 3, rel=1e-12)
        assert I2 == pytest.approx(17 / 24, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @settings(max_examples=15, deadline=None)
    @given(frac=st.floats(0.0, 1.0), data=st.data())
    def test_matches_direct_sums_all_orders(self, n, frac, data):
        g = data.draw(gauge_strategy(n))
        chain = chain_at_phase(g, frac * 2 * math.pi / n)
        I1, I2, _ = first_two_moments_general(g)
        assert bending_moment(chain, 1) == pytest.approx(I1, rel=1e-9)
        assert bending_moment(chain, 2) == pytest.approx(I2, rel=1e-9)


class TestThirdMomentRelation:
    def test_closed_form_moments_satisfy_it(self):
        assert third_moment_relation_residual(5 / 3, 17 / 24, 265 / 864) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_arithmetic_radii_fail_it(self):
        # moments of bends (1, 1/2, 1/3, 1/4); exact residual 1155/13824
        I1, I2, I3 = 25 / 12, 205 / 144, 2035 / 1728
        residual = third_moment_relation_residual(I1, I2, I3)
        assert residual == pytest.approx(float(Fraction(1155, 13824)), abs=1e-12)

    def test_zero_moments(self):
        assert third_moment_relation_residual(0.0, 0.0, 0.0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(gauge_strategy(4), st.floats(0.0, 1.0))
    def test_holds_on_generated_chains(self, g, frac):
        chain = chain_at_phase(g, frac * math.pi / 2)
        moments = [bending_moment(chain, k) for k in (1, 2, 3)]
        assert abs(third_moment_relation_residual(*moments)) < 1e-9


class TestInvarianceSweep:
    def test_order_four_reference_gauge(self):
        report = invariance_sweep(G4, 100)
        for k in (1, 2, 3):
            assert report.bending_deviation[k] < 1e-8
        assert all(v < 1e-8 for v in report.complex_deviation.values())
        assert report.max_imag < 1e-8
        # negative control: I_4 visibly moves; its exact span over the sweep
        # (axial minus lateral value) is 1/20736
        exact = exact_negative_control_span(G4)
        assert exact == Fraction(1, 20736)
        assert report.negative_control == pytest.approx(float(exact), rel=1e-9)

    def test_order_three_reference_gauge(self):
        report = invariance_sweep(G3, 100)
        for k in (1, 2):
            assert report.bending_deviation[k] < 1e-8
        assert all(v < 1e-8 for v in report.complex_deviation.values())
        assert report.max_imag < 1e-8
        # exact I_3 span between the two axial chains is 12/91125
        exact = exact_negative_control_span(G3)
        assert exact == Fraction(12, 91125)
        assert report.negative_control == pytest.approx(float(exact), rel=1e-9)

    def test_rotationally_symmetric_family_never_moves(self):
        report = invariance_sweep(G6, 36)
        assert all(v < 1e-12 for v in report.bending_deviation.values())
        assert all(v < 1e-12 for v in report.complex_deviation.values())

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            invariance_sweep(G4, 1)

    def test_memory_does_not_grow_with_the_sample_count(self):
        # the sweep holds one block of phases, never the whole table: eight
        # times the phases may not raise the traced peak by more than 20%
        g = Gauge.from_radii(32, 40.0, 1.0)
        peaks = []
        for samples in (50, 400):
            tracemalloc.start()
            try:
                invariance_sweep(g, samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_gauges_invariant_within_scale(self, n, data):
        g = data.draw(gauge_strategy(n))
        report = invariance_sweep(g, 12)
        # scale-aware bound: big gauges push |J| to ~1e6 where absolute
        # 1e-8 would just measure float granularity
        probe = chain_at_phase(g, 0.0)
        for k in range(1, n):
            scale = max(1.0, abs(bending_moment(probe, k)))
            assert report.bending_deviation[k] < 1e-8 * scale
        worst_scale = 1.0
        for (k, m), dev in report.complex_deviation.items():
            scale = max(1.0, abs(complex_moment(probe, k, m)))
            worst_scale = max(worst_scale, scale)
            assert dev < 1e-8 * scale
        assert report.max_imag < 1e-8 * worst_scale


class TestMomentSet:
    def test_contains_all_invariant_pairs(self):
        ms = moment_set(chain_at_phase(G4, 0.2))
        assert ms.n == 4
        assert len(ms.bending) == 4
        assert set(ms.complex_map) == {(k, m) for k in range(4) for m in range(k + 1)}

    def test_j_k0_column_is_bending_exactly(self):
        chain = chain_at_phase(G3, 0.51)
        ms = moment_set(chain)
        for k in range(1, 3):
            assert ms.complex_map[(k, 0)].real == ms.bending[k - 1]
            assert ms.complex_map[(k, 0)].imag == 0.0

    def test_max_k_below_one_rejected(self):
        chain = chain_at_phase(G4, 0.2)
        for max_k in (0, -2):
            with pytest.raises(ValueError, match=f"max_k must be at least 1, got {max_k}"):
                moment_set(chain, max_k)
        assert moment_set(chain, 1).bending == (bending_moment(chain, 1),)

    def test_orders_above_the_cap_rejected(self):
        chain = chain_at_phase(G4, 0.2)
        for order in (MAX_MOMENT_ORDER + 1, 10**20, -1):
            refused = f"moment orders must be from 0 to {MAX_MOMENT_ORDER}, got {order}"
            if order > 0:
                with pytest.raises(ValueError, match=refused):
                    moment_set(chain, order)
            with pytest.raises(ValueError, match=refused):
                bending_moment(chain, order)
            for k, m in ((order, 0), (0, order)):
                with pytest.raises(ValueError, match=refused):
                    complex_moment(chain, k, m)
        top = moment_set(chain, MAX_MOMENT_ORDER)
        assert top.bending[-1] == bending_moment(chain, MAX_MOMENT_ORDER)
        assert complex_moment(chain, MAX_MOMENT_ORDER, 0) == bending_moment(chain, MAX_MOMENT_ORDER)


# R/r just above the closure boundary, a moderate ratio, and 1e12; every
# sample count with n <= 16, the costlier orders with the short sweeps
SWEEP_CASES = [
    (n, ratio, samples)
    for n in (3, 4, 5, 16, 33, 64)
    for ratio in ("boundary", 30.0, 1e12)
    for samples in ((2, 3, 7, 100) if n <= 16 else (2, 3, 7))
]


class TestSweepRows:
    """sweep_rows against the one-chain path: each row must carry the bits
    of moment_set at the same phase, overflowed values (n = 33 and 64 at
    1e12) included. invariance_sweep, sweep_csv_text and write_sweep_csv
    must report and format that table, or, when a moment overflowed, all
    three must refuse it with one message."""

    @pytest.mark.parametrize("n, ratio, samples", SWEEP_CASES)
    def test_rows_are_moment_sets_bit_for_bit(self, n, ratio, samples, tmp_path):
        if ratio == "boundary":
            ratio = closure_ratio(n) * (1.0 + 1e-9)
        g = Gauge.from_radii(n, ratio, 1.0)
        rows = sweep_rows(g, samples)
        assert len(rows) == samples
        for j, row in enumerate(rows):
            theta = (2.0 * math.pi / n) * j / samples
            ms = moment_set(chain_at_phase(g, theta))
            want = [theta, *ms.bending]
            for pair in invariant_pairs(n):
                want += [ms.complex_map[pair].real, ms.complex_map[pair].imag]
            assert len(row) == len(sweep_header(n))
            assert repr(row) == repr(want)
        overflowed = not all(math.isfinite(v) for row in rows for v in row)
        assert overflowed == (n > 16 and ratio == 1e12)
        csv_path = tmp_path / "s.csv"
        if not overflowed:
            spans = [max(col) - min(col) for col in zip(*rows)]
            imag = [abs(v) for row in rows for v in row[n + 2 :: 2]]
            bending = dict(zip(range(1, n + 1), spans[1 : n + 1]))
            complex_dev = dict(zip(invariant_pairs(n), map(max, spans[n + 1 :: 2], spans[n + 2 :: 2])))
            reference = InvarianceReport(
                n, samples, bending, complex_dev, max([0.0, *imag]), bending[n]
            )
            assert repr(invariance_sweep(g, samples)) == repr(reference)
            text = "\n".join([",".join(sweep_header(n)), *(",".join(map(repr, row)) for row in rows)])
            assert sweep_csv_text(g, samples) == text + "\n"
            assert repr(write_sweep_csv(g, samples, csv_path)) == repr(reference)
            assert csv_path.read_text() == text + "\n"
            return
        with pytest.raises(ValueError, match="moment overflows the float range: ") as from_csv:
            sweep_csv_text(g, samples)
        with pytest.raises(ValueError) as from_sweep:
            invariance_sweep(g, samples)
        with pytest.raises(ValueError) as from_file:
            write_sweep_csv(g, samples, csv_path)
        assert str(from_sweep.value) == str(from_file.value) == str(from_csv.value)
        assert not csv_path.exists()

    def test_non_finite_radius_rejected_like_chain_at_phase(self):
        g = Gauge(4, math.inf, 1.0, math.inf)
        with pytest.raises(ValueError) as from_chain:
            chain_at_phase(g, 0.0)
        with pytest.raises(ValueError) as from_sweep:
            sweep_rows(g, 3)
        assert str(from_sweep.value) == str(from_chain.value)
        assert "radius must be positive and finite" in str(from_sweep.value)
