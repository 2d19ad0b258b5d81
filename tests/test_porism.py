import math
import pickle
import re
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from steinerchains import (
    Gauge,
    InfeasibleGaugeError,
    Orientation,
    PoristicRange,
    SteinerChain,
    chain_at_phase,
    chain_by_yiu,
    chain_residuals,
    concentric_model,
    conjugate_chain,
    external_tangency_residual,
    internal_tangency_residual,
    is_valid_chain,
    neighbor_bend_sum,
    neighbor_bends,
    neighbor_radius_sum,
    parent_circles,
    pedoe_distance,
    poristic_range,
    tolerance,
    validate_gauge,
    yiu_coefficients,
)
from steinerchains.moments import sweep_rows
from steinerchains.porism import MAX_CHAIN_LENGTH, _square

from conftest import (
    GAUGE_DOMAINS,
    any_gauge_strategy,
    circle_sets_close,
    closure_ratio,
    gauge_strategy,
    inversion_chain,
    mp_inversion_chain,
    radius_multisets_close,
    yiu_roots_oracle,
)

G3 = Gauge(3, 15.0, 1.0, 4.0)
G4 = Gauge(4, 6.0, 1.0, 1.0)
G6 = Gauge(6, 3.0, 1.0, 0.0)


class TestPedoe:
    def test_order_three(self):
        assert pedoe_distance(3, 15, 1) == pytest.approx(4.0, rel=1e-12)

    def test_order_four(self):
        # (R - r)^2 - 4 R r = 25 - 24
        assert pedoe_distance(4, 6, 1) == pytest.approx(1.0, rel=1e-12)

    def test_order_six_concentric(self):
        assert pedoe_distance(6, 3, 1) == pytest.approx(0.0, abs=1e-7)

    def test_infeasible_radii(self):
        with pytest.raises(InfeasibleGaugeError):
            pedoe_distance(4, 2, 1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            pedoe_distance(2, 6, 1)
        with pytest.raises(ValueError):
            pedoe_distance(4, 1, 6)

    def test_n_past_the_float_range(self):
        # invalid input, not the OverflowError of converting n to a float
        for build in (lambda n: pedoe_distance(n, 6, 1), lambda n: Gauge(n, 6.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match="chain length n is too large"):
                build(10**400)

    @pytest.mark.parametrize("n", [4.0, 4.5, "4", True])
    def test_n_that_is_not_an_int(self, n):
        # refused up front, not a TypeError from range(n) at construction
        for build in (lambda: pedoe_distance(n, 6, 1), lambda: Gauge(n, 6.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match=f"chain length n must be an integer, got {n!r}"):
                build()

    def test_n_above_the_largest_chain_length(self):
        assert MAX_CHAIN_LENGTH >= 64
        assert Gauge.from_radii(MAX_CHAIN_LENGTH, 1e3, 1.0).n == MAX_CHAIN_LENGTH
        for n in (MAX_CHAIN_LENGTH + 1, 10**8):
            for build in (lambda: pedoe_distance(n, 6, 1), lambda: Gauge(n, 6.0, 1.0, 1.0)):
                with pytest.raises(ValueError, match="chain length n is too large"):
                    build()

    def test_square_past_the_float_range(self):
        # invalid input, not the OverflowError of float ** at (R - r)^2
        for build in (lambda: pedoe_distance(4, 1e200, 1.0), lambda: Gauge.from_radii(4, 1e200, 1.0)):
            with pytest.raises(ValueError, match=r"gauge overflows the float range: R - r = 1e\+200, squared"):
                build()

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e-155])
    def test_smallest_scales_still_close(self, scale):
        # (R - r)^2 = (39 scale)^2 is still a normal float at 1e-155
        g = Gauge.from_radii(4, 40.0 * scale, scale)
        assert validate_gauge(g).ok
        assert is_valid_chain(chain_at_phase(g, 0.3))

    @pytest.mark.parametrize("scale", [1e-156, 1e-160, 1e-170, 1e-300])
    def test_square_below_the_float_range(self, scale):
        # a subnormal or zero (R - r)^2 would give d = 0, the concentric
        # family, and a chain that fails its own validation
        name = re.escape(repr(40.0 * scale - scale))
        with pytest.raises(ValueError, match=f"gauge underflows the float range: R - r = {name}, squared"):
            Gauge.from_radii(4, 40.0 * scale, scale)

    def test_square_at_the_smallest_normal_float(self):
        # 2^-511 squares to sys.float_info.min exactly; the next float down does not
        edge = math.sqrt(sys.float_info.min)
        assert edge * edge == sys.float_info.min
        assert _square("x", edge) == sys.float_info.min
        below = math.nextafter(edge, 0.0)
        with pytest.raises(ValueError, match=f"gauge underflows the float range: x = {below!r}, squared"):
            _square("x", below)
        assert _square("x", 0.0) == 0.0  # the concentric d = 0 is exact

    @pytest.mark.parametrize("r", [1.0, 3.0, 0.5, 7.25])
    @pytest.mark.parametrize("n", [3, 4, 8, 64])
    def test_distance_scales_exactly_by_powers_of_two(self, n, r):
        # every step of d is exact or correctly rounded, so scaling (R, r) by
        # 2^k scales d by 2^k exactly; libm's pow, behind x ** 2, squares
        # R - r = 133678894.91474725 one ulp off
        R = 133678894.91474725 + r
        d = pedoe_distance(n, R, r)
        for k in range(-300, 200, 7):
            assert pedoe_distance(n, 2.0**k * R, 2.0**k * r) == 2.0**k * d, k


class TestValidateGauge:
    def test_example_gauge_ok(self):
        check = validate_gauge(G3)
        assert check.ok and check.pedoe_residual < 1e-9

    def test_wrong_distance_reports_residual(self):
        check = validate_gauge(Gauge(4, 6.0, 1.0, 2.0))
        assert not check.ok
        assert check.pedoe_residual == pytest.approx(3.0, rel=1e-12)

    def test_residual_judged_at_the_scale_of_R_squared(self):
        # the true d is 1e-6, so d = 0 misses d^2 by 1e-12, far above 1e-9 R^2
        check = validate_gauge(Gauge(4, 6e-6, 1e-6, 0.0))
        assert not check.ok
        assert check.pedoe_residual == pytest.approx(1e-12, rel=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 33, 64])
    def test_genuine_gauges_pass_at_every_scale(self, n):
        ratios = [closure_ratio(n) * (1.0 + 1e-12), closure_ratio(n) * 1.001, 1e2, 1e5, 1e8]
        for ratio in ratios:
            for k in range(-60, 61, 5):
                g = Gauge.from_radii(n, ratio * 2.0**k, 2.0**k)
                assert validate_gauge(g).ok, (n, ratio, k)

    @pytest.mark.parametrize(
        "R, r, d, name",
        [
            (1e200, 1.0, 1.0, r"R - r = 1e\+200"),
            (6.0, 1.0, 1e200, r"d = 1e\+200"),
            (1.5e154, 1.4e154, 1.0, r"R = 1.5e\+154"),  # only the scale R^2 overflows
        ],
    )
    def test_square_past_the_float_range(self, R, r, d, name):
        # ValueError, not the OverflowError of float ** in the d^2 residual or its R^2 scale
        with pytest.raises(ValueError, match=f"gauge overflows the float range: {name}, squared"):
            validate_gauge(Gauge(4, R, r, d))

    @pytest.mark.parametrize(
        "R, r, d, name",
        [
            (4e-169, 1e-170, 0.0, r"R - r = 3.9000000000000004e-169"),
            (6.0, 1.0, 1e-160, r"d = 1e-160"),
        ],
    )
    def test_square_below_the_float_range(self, R, r, d, name):
        with pytest.raises(ValueError, match=f"gauge underflows the float range: {name}, squared"):
            validate_gauge(Gauge(4, R, r, d))

    def test_swapped_radii_invalid(self):
        with pytest.raises(ValueError):
            Gauge(4, 1.0, 6.0, 1.0)


class TestPoristicRange:
    def test_example_one(self):
        rng = poristic_range(G3)
        assert (rng.r_min, rng.r_max) == (5.0, 9.0)
        assert rng.b_min == pytest.approx(1 / 9, rel=1e-15)
        assert rng.b_max == pytest.approx(1 / 5, rel=1e-15)

    def test_order_four(self):
        rng = poristic_range(G4)
        assert (rng.r_min, rng.r_max) == (2.0, 3.0)

    def test_concentric(self):
        rng = poristic_range(G6)
        assert (rng.r_min, rng.r_max) == (1.0, 1.0)


class TestStoredConstants:
    """q and the radius range are computed once, when a Gauge is built."""

    @staticmethod
    def closed_form(g):
        r_min = (g.R - g.d - g.r) / 2.0
        r_max = (g.R + g.d - g.r) / 2.0
        return math.tan(math.pi / g.n) ** 2, PoristicRange(r_min, r_max, 1.0 / r_max, 1.0 / r_min)

    @pytest.mark.parametrize("n", range(3, 65))
    def test_bit_equal_to_closed_form(self, n):
        boundary = closure_ratio(n)
        ratios = [boundary, boundary * (1 + 1e-9), boundary * 1.5]
        ratios += [10.0**e for e in range(1, 13) if 10.0**e > boundary]
        for ratio in ratios:
            for g in (Gauge.from_radii(n, ratio, 1.0), Gauge(n, ratio, 1.0, ratio / 3)):
                q, rng = self.closed_form(g)
                assert (g.q, poristic_range(g)) == (q, rng), (n, ratio)

    def test_left_out_of_repr_eq_and_hash(self):
        g = Gauge(4, 6.0, 1.0, 1.0)
        assert repr(g) == "Gauge(n=4, R=6.0, r=1.0, d=1.0)"
        other = Gauge(4, 6.0, 1.0, 1.0)
        object.__setattr__(other, "q", 0.0)
        object.__setattr__(other, "extremes", PoristicRange(0.0, 0.0, 0.0, 0.0))
        assert other == g and hash(other) == hash(g)

    def test_replace_recomputes(self):
        g = G4.replace(R=15.0, d=4.0, n=3)
        assert (g.q, poristic_range(g)) == self.closed_form(g)
        assert (poristic_range(g).r_min, poristic_range(g).r_max) == (5.0, 9.0)

    def test_pickle_keeps(self):
        g = pickle.loads(pickle.dumps(G3))
        assert g == G3
        assert (g.q, poristic_range(g)) == (G3.q, poristic_range(G3))

    def test_touching_parents_construct(self):
        rng = poristic_range(Gauge(4, 6.0, 1.0, 5.0))
        assert (rng.r_min, rng.r_max, rng.b_max) == (0.0, 5.0, math.inf)
        assert not validate_gauge(Gauge(4, 6.0, 1.0, 5.0)).ok


class TestDegenerateGauges:
    def test_nan_distance_rejected(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            Gauge(4, 6.0, 1.0, math.nan)

    @pytest.mark.parametrize("R, d", [(math.inf, 1.0), (6.0, 5.0)])
    def test_chain_and_sweep_raise_value_error(self, R, d):
        g = Gauge(4, R, 1.0, d)
        with pytest.raises(ValueError) as from_chain:
            chain_at_phase(g, 0.0)
        with pytest.raises(ValueError) as from_sweep:
            sweep_rows(g, 3)
        assert str(from_sweep.value) == str(from_chain.value)
        assert "radius must be positive and finite" in str(from_chain.value)


class TestConcentricModel:
    def test_identity_when_concentric(self):
        model = concentric_model(G6)
        assert model.identity
        assert model.ratio == pytest.approx(3.0, rel=1e-12)

    def test_ratio_order_four(self):
        model = concentric_model(G4)
        s = math.sin(math.pi / 4)
        assert model.ratio == pytest.approx((1 + s) / (1 - s), abs=1e-9)
        assert model.center_mismatch < 1e-9

    def test_ratio_order_three(self):
        model = concentric_model(G3)
        s = math.sin(math.pi / 3)
        assert model.ratio == pytest.approx((1 + s) / (1 - s), abs=1e-9)

    def test_pole_inside_inner_parent(self):
        model = concentric_model(G3)
        assert abs(model.pole.x) < G3.r and model.pole.y == 0.0

    @settings(max_examples=40, deadline=None)
    @given(any_gauge_strategy())
    def test_ratio_matches_closure_relation(self, g):
        s = math.sin(math.pi / g.n)
        assert concentric_model(g).ratio == pytest.approx((1 + s) / (1 - s), rel=1e-9)

    # A known defect of the oracle, not of construction: at R/r = 1e12 the
    # pole lies within tolerance() * R of the outer parent, and invert_circle
    # refuses it (see concentric_model). chain_at_phase builds this chain.
    @pytest.mark.xfail(
        raises=ValueError, strict=True,
        reason="ROADMAP item 17: the float inversion oracle raises inside the domain",
    )
    def test_model_at_the_top_of_the_domain(self):
        g = Gauge.from_radii(64, 1e12, 1.0)
        assert is_valid_chain(chain_at_phase(g, 0.0))
        s = math.sin(math.pi / g.n)
        assert concentric_model(g).ratio == pytest.approx((1 + s) / (1 - s), rel=1e-9)


class TestChainAtPhase:
    def test_concentric_six_chain(self):
        chain = chain_at_phase(G6, 0.0)
        assert chain.radii == pytest.approx((1.0,) * 6, rel=1e-14)
        assert chain.circles[0].center.x == pytest.approx(2.0, rel=1e-14)
        assert chain.circles[0].center.y == 0.0
        for c in chain.circles:
            assert math.hypot(c.center.x, c.center.y) == pytest.approx(2.0, rel=1e-12)

    def test_axial_multiset_order_four(self):
        chain = chain_at_phase(G4, 0.0)
        assert radius_multisets_close(chain.radii, (2.0, 2.4, 3.0, 2.4), 1e-9)

    def test_axial_multisets_order_three(self):
        assert radius_multisets_close(
            chain_at_phase(G3, 0.0).radii, (9.0, 5.625, 5.625), 1e-9
        )
        assert radius_multisets_close(
            chain_at_phase(G3, math.pi / 3).radii, (5.0, 7.5, 7.5), 1e-9
        )

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_is_refused(self, theta):
        with pytest.raises(ValueError, match=f"chain phase must be finite, got theta = {theta!r}$"):
            chain_at_phase(G4, theta)

    @pytest.mark.parametrize("theta", [7.1, -1e-300])
    def test_phase_normalized(self, theta):
        step = 2 * math.pi / 4
        assert 0.0 <= chain_at_phase(G4, theta).phase < step

    @pytest.mark.parametrize("theta", [1e6, 1e12, 1e17, -1e12])
    @pytest.mark.parametrize("n", [3, 4, 16, 64])
    def test_large_phase_keeps_the_circle_offsets(self, n, theta):
        # the offsets 2*pi*k/n are added after theta is reduced modulo 2*pi;
        # added to 1e17 they would be lost to rounding
        assert is_valid_chain(chain_at_phase(Gauge.from_radii(n, 40.0, 1.0), theta))

    @pytest.mark.parametrize("theta", [-math.nextafter(2 * math.pi, 0.0), -4.0, -0.3, -0.0, 0.0, 2.5, 6.2831853])
    @pytest.mark.parametrize("g", [G3, G4, G6])
    def test_phase_below_a_turn_builds_the_unreduced_rows(self, g, theta):
        import steinerchains.porism as porism

        (rows,) = porism._circle_coordinates(g, (theta,))
        chain = chain_at_phase(g, theta)
        assert chain.rows == tuple(rows)
        assert chain.phase == theta % (2 * math.pi / g.n)

    @pytest.mark.parametrize("g", [G3, G4, G6, Gauge.from_radii(5, 8.0, 1.0)])
    def test_hundred_phase_residuals(self, g):
        rng = poristic_range(g)
        eps = 1e-9 * g.R
        step = 2 * math.pi / g.n
        for j in range(100):
            chain = chain_at_phase(g, step * j / 100)
            res = chain_residuals(chain)
            assert res.max() < 1e-7 * g.R
            for c in chain.circles:
                assert rng.r_min - eps <= c.radius <= rng.r_max + eps

    @pytest.mark.parametrize("g", [G3, G4, G6])
    def test_full_period_rotates_indices(self, g):
        step = 2 * math.pi / g.n
        a = chain_at_phase(g, 0.4)
        b = chain_at_phase(g, 0.4 + step)
        assert circle_sets_close(a, b, 1e-9 * g.R)

    @pytest.mark.parametrize("g", [G3, G4, G6])
    def test_many_phases_share_one_model(self, g, monkeypatch):
        import steinerchains.inversion as inversion

        built = []
        real = inversion.concentric_model
        monkeypatch.setattr(inversion, "concentric_model", lambda g: built.append(g) or real(g))
        for theta in [0.0, 0.2, 0.9, 1.4, 7.1]:
            chain_at_phase(g, theta)
        # the closed form needs no concentric model: it stays the test oracle
        assert built == []

    @settings(max_examples=25, deadline=None)
    @given(any_gauge_strategy(), st.floats(0.01, 1.0))
    def test_random_gauge_chains_close_up(self, g, frac):
        chain = chain_at_phase(g, frac * 2 * math.pi / g.n)
        assert chain_residuals(chain).max() < 1e-9 * g.R


class TestChainResiduals:
    @pytest.mark.parametrize("field", ["x", "y"])
    @pytest.mark.parametrize("index", range(4))
    def test_nan_coordinate_fails_the_verdict(self, index, field):
        # max() over residuals keeps a NaN only when it comes first; a NaN
        # at any circle and in either coordinate must still fail the chain
        chain = chain_at_phase(Gauge.from_radii(4, 6.0, 1.0), 0.3)
        rows = list(chain.rows)
        x, y, rho = rows[index]
        rows[index] = (math.nan, y, rho) if field == "x" else (x, math.nan, rho)
        bad = SteinerChain(chain.gauge, chain.phase, tuple(rows))
        res = chain_residuals(bad)
        assert math.isnan(res.max())
        assert not res.ok
        assert not is_valid_chain(bad)
        assert is_valid_chain(chain)


def per_pair_residuals(chain):
    """(adjacent, inner, outer, range_excess) from one geometry call per
    circle pair, each the largest residual of its kind or NaN if any is."""
    inner, outer = parent_circles(chain.gauge)
    rng = chain.gauge.extremes
    cs = chain.circles
    n = len(cs)
    columns = (
        [external_tangency_residual(cs[i], cs[(i + 1) % n]) for i in range(n)],
        [external_tangency_residual(c, inner) for c in cs],
        [internal_tangency_residual(outer, c) for c in cs],
        [max(rng.r_min - c.radius, c.radius - rng.r_max, 0.0) for c in cs],
    )
    return tuple(math.nan if any(map(math.isnan, col)) else max(col) for col in columns)


def same_bits(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


class TestColumnWiseResiduals:
    """chain_residuals against the per-pair geometry functions, bit for bit."""

    @staticmethod
    def chains():
        for n in range(3, 65):
            boundary = closure_ratio(n)
            ratios = [boundary * (1 + 1e-9), boundary * 1.5, 1e3, 1e6, 1e9, 1e12]
            for ratio in ratios:
                g = Gauge.from_radii(n, ratio, 1.0)
                for frac in (0.0, 0.37):
                    yield chain_at_phase(g, frac * 2 * math.pi / n)

    def test_matches_per_pair_reference(self):
        count = 0
        for chain in self.chains():
            res = chain_residuals(chain)
            assert (res.adjacent, res.inner, res.outer, res.range_excess) == per_pair_residuals(chain)
            assert res.limit == tolerance() * chain.gauge.R
            count += 1
        assert count == 62 * 6 * 2

    @pytest.mark.parametrize("n", [3, 16, 64])
    @pytest.mark.parametrize("coordinate", [0, 1])
    def test_nan_coordinate_matches_and_fails(self, n, coordinate):
        chain = chain_at_phase(Gauge.from_radii(n, 1e3, 1.0), 0.2)
        for index in (0, n // 2, n - 1):
            rows = [list(row) for row in chain.rows]
            rows[index][coordinate] = math.nan
            bad = SteinerChain(chain.gauge, chain.phase, tuple(map(tuple, rows)))
            res = chain_residuals(bad)
            got = (res.adjacent, res.inner, res.outer, res.range_excess)
            assert all(map(same_bits, got, per_pair_residuals(bad)))
            assert not res.ok

    @pytest.mark.parametrize("excess", [0.0, 0.5])
    def test_radius_not_below_R_raises(self, excess):
        chain = chain_at_phase(G4, 0.2)
        rows = list(chain.rows)
        x, y, _ = rows[1]
        rows[1] = (x, y, G4.R + excess)
        bad = SteinerChain(chain.gauge, chain.phase, tuple(rows))
        for residuals in (chain_residuals, per_pair_residuals):
            with pytest.raises(ValueError, match="outer.radius > inner.radius"):
                residuals(bad)


class TestChainRows:
    def test_circles_built_once_from_rows(self):
        chain = chain_at_phase(G3, 0.4)
        circles = chain.circles
        assert chain.circles is circles
        assert len(circles) == len(chain.rows) == 3
        for c, (x, y, rho) in zip(circles, chain.rows, strict=True):
            assert (c.center.x, c.center.y, c.radius) == (x, y, rho)
            assert c.orientation is Orientation.CHAIN_OR_INNER
        assert chain.radii == tuple(rho for _, _, rho in chain.rows)
        assert chain.bends == tuple(c.bend for c in circles)
        assert chain.centers == tuple(c.center.as_complex() for c in circles)

    def test_circles_left_out_of_eq_hash_and_repr(self):
        read, unread = chain_at_phase(G4, 0.3), chain_at_phase(G4, 0.3)
        read.circles
        assert read == unread and hash(read) == hash(unread)
        assert repr(read) == repr(unread)
        assert "circles" not in repr(read)

    def test_pickle_keeps_rows(self):
        chain = chain_at_phase(G4, 0.3)
        for _ in range(2):  # before and after circles is read
            back = pickle.loads(pickle.dumps(chain))
            assert back == chain and back.circles == chain.circles
            chain.circles


class TestClosedFormAccuracy:
    """chain_at_phase against the inversion through the concentric model."""

    @pytest.mark.parametrize("ratio", [20.0, 1e3, 1e5, 1e8, 1e12])
    @pytest.mark.parametrize("n", [3, 4, 16, 64])
    def test_matches_60_digit_inversion(self, n, ratio):
        # the reference inverts the given float (R, r, d), so only the
        # construction's own arithmetic is judged, relative to each radius
        g = Gauge.from_radii(n, ratio, 1.0)
        worst = 0.0
        for frac in (0.0, 0.37):
            theta = frac * 2 * math.pi / n
            chain = chain_at_phase(g, theta)
            with mpmath.workdps(60):
                for c, (x, y, rho) in zip(chain.circles, mp_inversion_chain(g, theta)):
                    err = max(abs(c.center.x - x), abs(c.center.y - y), abs(c.radius - rho))
                    worst = max(worst, float(err / rho))
        assert worst <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 64), st.floats(1e-9, 1.0), st.floats(0.0, 2 * math.pi))
    def test_matches_float_inversion_oracle(self, n, u, theta):
        # R/r log-uniform from just above the closure boundary to 1e2
        lo = closure_ratio(n) * (1.0 + 1e-9)
        R = lo * (1e2 / lo) ** u
        g = Gauge.from_radii(n, R, 1.0)
        chain = chain_at_phase(g, theta)
        for c, o in zip(chain.circles, inversion_chain(g, theta), strict=True):
            err = max(
                abs(c.center.x - o.center.x), abs(c.center.y - o.center.y), abs(c.radius - o.radius)
            )
            assert err <= 1e-9 * o.radius


class TestYiuCoefficients:
    def test_reference_coefficients(self):
        co = yiu_coefficients(G4, 3.0)
        assert co.alpha == pytest.approx(1296.0, rel=1e-12)
        assert co.beta == pytest.approx(-1080.0, rel=1e-12)
        assert co.gamma == pytest.approx(225.0, rel=1e-12)

    def test_concentric_unit_case(self):
        co = yiu_coefficients(G6, 1.0)
        assert co.alpha == pytest.approx(16.0, rel=1e-12)
        lo, hi = neighbor_bends(G6, 1.0)
        assert (lo, hi) == pytest.approx((1.0, 1.0), rel=1e-9)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            yiu_coefficients(G4, 3.5)
        with pytest.raises(ValueError):
            neighbor_bends(G4, 1.9)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_discriminant_nonnegative_with_endpoint_double_roots(self, n):
        # the discriminant factors through (r_max - u)(u - r_min): it is
        # positive strictly inside the radius range and vanishes at both
        # endpoints for every chain length, where the two neighbors coincide
        g = Gauge.from_radii(n, sum(GAUGE_DOMAINS[n]) / 2, 1.0)
        rng = poristic_range(g)
        for j in range(201):
            u = rng.r_min + (rng.r_max - rng.r_min) * j / 200
            co = yiu_coefficients(g, u)
            disc = co.beta**2 - 4 * co.alpha * co.gamma
            assert disc >= -1e-9 * co.beta**2
        for u_end in (rng.r_min, rng.r_max):
            lo, hi = neighbor_bends(g, u_end)
            assert hi - lo < 1e-9


class TestNeighborBends:
    def test_double_root_at_biggest_circle(self):
        lo, hi = neighbor_bends(G4, 3.0)
        assert lo == pytest.approx(5 / 12, rel=1e-12)
        assert hi == pytest.approx(5 / 12, rel=1e-12)

    def test_double_root_order_three(self):
        lo, hi = neighbor_bends(G3, 9.0)
        assert lo == pytest.approx(8 / 45, rel=1e-9)
        assert 1 / lo == pytest.approx(5.625, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(gauge_strategy(4), st.floats(0.05, 0.95))
    def test_matches_quadratic_formula_oracle(self, g, frac):
        rng = poristic_range(g)
        u = rng.r_min + frac * (rng.r_max - rng.r_min)
        got = neighbor_bends(g, u)
        want = yiu_roots_oracle(4, g.R, g.r, u)
        assert got == pytest.approx(want, abs=1e-10)

    def test_sums_reference_values(self):
        assert neighbor_bend_sum(G4, 3.0) == pytest.approx(5 / 6, rel=1e-12)
        assert neighbor_radius_sum(G4, 3.0) == pytest.approx(4.8, rel=1e-12)
        assert neighbor_bend_sum(G6, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert neighbor_radius_sum(G6, 1.0) == pytest.approx(2.0, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(any_gauge_strategy(), st.floats(0.0, 1.0))
    def test_bend_sum_is_root_sum(self, g, frac):
        rng = poristic_range(g)
        u = rng.r_min + frac * (rng.r_max - rng.r_min)
        lo, hi = neighbor_bends(g, u)
        assert lo + hi == pytest.approx(neighbor_bend_sum(g, u), rel=1e-12)
        assert rng.b_min - 1e-9 <= lo <= hi <= rng.b_max + 1e-9


class TestChainByYiu:
    def test_axial_seed_order_four(self):
        radii, residual = chain_by_yiu(G4, 3.0)
        assert radii == pytest.approx((3.0, 2.4, 2.0, 2.4), rel=1e-12)
        assert residual < 1e-9

    def test_axial_seed_order_three(self):
        radii, residual = chain_by_yiu(G3, 9.0)
        assert radii == pytest.approx((9.0, 5.625, 5.625), rel=1e-9)
        assert residual < 1e-9

    def test_concentric_six(self):
        radii, residual = chain_by_yiu(G6, 1.0)
        assert radii == pytest.approx((1.0,) * 6, rel=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_branches_are_reversals(self):
        low, _ = chain_by_yiu(G4, 2.2, "low")
        high, _ = chain_by_yiu(G4, 2.2, "high")
        assert low == pytest.approx((low[0],) + high[1:][::-1], rel=1e-9)

    def test_bad_branch_rule(self):
        with pytest.raises(ValueError):
            chain_by_yiu(G4, 2.5, "sideways")

    # Generic phases only: at the symmetric phases a generated radius sits a
    # few ulp inside a range endpoint, where the neighbor root split behaves
    # like sqrt(endpoint - u) and is ill-conditioned by ~1e-8. The exact
    # endpoints themselves are covered below.
    @pytest.mark.parametrize("g", [G3, G4, G6, Gauge.from_radii(5, 8.0, 1.0)])
    @pytest.mark.parametrize("theta_frac", [0.031, 0.237, 0.411, 0.637, 0.852])
    def test_agrees_with_phase_construction(self, g, theta_frac):
        chain = chain_at_phase(g, theta_frac * 2 * math.pi / g.n)
        seed = max(chain.radii)
        for branch in ("low", "high"):
            radii, residual = chain_by_yiu(g, seed, branch)
            assert residual < 1e-9
            assert radius_multisets_close(radii, chain.radii, 1e-9)

    @pytest.mark.parametrize("g", [G3, G4, Gauge.from_radii(5, 8.0, 1.0)])
    def test_exact_extreme_seed_reproduces_axial_chain(self, g):
        rng = poristic_range(g)
        chain = chain_at_phase(g, 0.0)
        radii, residual = chain_by_yiu(g, rng.r_max)
        assert residual < 1e-9
        assert radius_multisets_close(radii, chain.radii, 1e-9)

    @pytest.mark.parametrize("g", [G4, G3])
    def test_neighbor_bends_match_actual_neighbors(self, g):
        step = 2 * math.pi / g.n
        for j in range(20):
            chain = chain_at_phase(g, step * (j + 0.4) / 20)
            bends = chain.bends
            n = g.n
            for i, c in enumerate(chain.circles):
                got = sorted((bends[i - 1], bends[(i + 1) % n]))
                want = neighbor_bends(g, c.radius)
                assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("g", [G4, G3])
    def test_neighbor_bends_at_exact_extremes(self, g):
        rng = poristic_range(g)
        axial = chain_at_phase(g, 0.0)
        biggest = max(axial.circles, key=lambda c: c.radius)
        i = axial.circles.index(biggest)
        actual = sorted((axial.bends[i - 1], axial.bends[(i + 1) % g.n]))
        assert neighbor_bends(g, rng.r_max) == pytest.approx(actual, abs=1e-9)


class TestChainByYiuDomain:
    # R/r from the closure boundary to 1e12 at three generic phases, seeded
    # with the largest circle of the chain at that phase. Above R/r = 1e6 the
    # radii of chain_at_phase drift off the exact family, so only the
    # closure is judged there. Ratios up to 2 are multiples of the boundary.
    @pytest.mark.parametrize("ratio", [1.0 + 1e-9, 2.0, 1e3, 1e6, 1e9, 1e10, 1e11, 1e12])
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 33, 64])
    def test_propagation_closes_across_the_domain(self, n, ratio):
        if ratio <= 2.0:
            ratio *= closure_ratio(n)
        g = Gauge.from_radii(n, ratio, 1.0)
        for frac in (0.031, 0.411, 0.852):
            chain = chain_at_phase(g, frac * 2 * math.pi / n)
            seed = max(chain.radii)
            for branch in ("low", "high"):
                radii, residual = chain_by_yiu(g, seed, branch)
                assert residual <= 1e-7 * seed, (frac, branch)
                if ratio <= 1e6:
                    pairs = zip(sorted(radii), sorted(chain.radii))
                    assert all(abs(u - v) <= 1e-7 * v for u, v in pairs), (frac, branch)


class TestConjugateChain:
    def test_axial_chain_is_self_conjugate(self):
        chain = chain_at_phase(G4, 0.0)
        assert circle_sets_close(chain, conjugate_chain(chain), 1e-9 * G4.R)

    def test_generic_phase_mirrors_to_negated_phase(self):
        step = 2 * math.pi / 3
        chain = chain_at_phase(G3, 0.4)
        mirrored = conjugate_chain(chain)
        assert circle_sets_close(mirrored, chain_at_phase(G3, step - 0.4), 1e-9 * G3.R)
        assert mirrored.phase == pytest.approx(step - 0.4, rel=1e-12)

    def test_double_application_exact(self):
        chain = chain_at_phase(G3, 0.73)
        back = conjugate_chain(conjugate_chain(chain))
        for a, b in zip(back.circles, chain.circles):
            assert a.center.x == b.center.x and a.center.y == b.center.y
            assert a.radius == b.radius
        axial = chain_at_phase(G4, 0.0)  # its first circle has y = 0.0
        for c in (chain, axial):
            assert repr(conjugate_chain(conjugate_chain(c)).rows) == repr(c.rows)
