import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdlab import (
    BoundQuery,
    ConstantsBundle,
    InfeasibleStart,
    SeriesDivergence,
    StepSchedule,
    ValidationError,
    build_query,
    check_n0,
    evaluate_bound,
    floor_term,
    martingale_tail,
    radius_curve,
    tail_crossover,
    tail_probability,
)
from tdlab.bounds import _TERM_BUDGET, zero_tail

from oracles import corollary_rate


def bundle(alpha=0.5, gain=1.0, offset=1.0, scale=1.0, x_norm=0.0):
    """Synthetic constants for arithmetic-level tests."""
    return ConstantsBundle(
        offset_solution_max=0.0,
        linear_solution_max=0.0,
        noise_matrix_max=0.0,
        update_offset_bound=0.0,
        update_gain_bound=0.0,
        remainder_gain=gain,
        remainder_offset=offset,
        increment_scale=scale,
        alpha=alpha,
        feature_gain=0.5,
        x_star_norm=x_norm,
    )


def flat_schedule(a=0.01, length=400):
    return StepSchedule.table([a] * length, d1=a, d2=0.01, d3=2.0 * a)


def unit_harmonic_stub(a0=0.01):
    """Stand-in with exact 1/m tail weights (unreachable by a validated
    schedule, whose harmonic multiplier must stay below one)."""
    return SimpleNamespace(d1=1.0, d2=1.0, step=lambda n: a0)


class TestCheckN0:
    def test_zero_gain_always_feasible(self):
        chk = check_n0(bundle(alpha=0.4, gain=0.0), StepSchedule.harmonic(0.5), 0)
        assert chk.feasible
        assert_allclose(chk.margin, 0.6)
        assert chk.smallest_feasible == 0

    def test_harmonic_threshold_index(self):
        # alpha=0.5, gain=1: need a(n0) < 0.5; a(0)=0.5 fails the strict test,
        # a(1)=0.25 leaves margin 0.25
        sched = StepSchedule.harmonic(0.5)
        chk0 = check_n0(bundle(alpha=0.5, gain=1.0), sched, 0)
        assert not chk0.feasible
        assert_allclose(chk0.margin, 0.0, atol=1e-15)
        chk1 = check_n0(bundle(alpha=0.5, gain=1.0), sched, 1)
        assert chk1.feasible
        assert_allclose(chk1.margin, 0.25)
        assert chk0.smallest_feasible == 1

    def test_large_constants_infeasible(self):
        chk = check_n0(bundle(alpha=0.99, gain=100.0), flat_schedule(0.001), 5)
        assert not chk.feasible  # 0.99 + 0.1 > 1
        assert chk.smallest_feasible is None

    def test_polynomial_smallest_feasible(self):
        sched = StepSchedule.polynomial(d3=0.9, d2=0.5)
        chk = check_n0(bundle(alpha=0.5, gain=1.0), sched, 0)
        n = chk.smallest_feasible
        assert sched.step(n) < 0.5
        assert n == 0 or sched.step(n - 1) >= 0.5


class TestRadiusCurve:
    def test_hand_value_at_start(self):
        # floor = (0.01*(1 + 1*0.1) + 0.05) / 0.49; radius(n0) = 0.1 + floor
        sched = flat_schedule(0.01)
        ms, radius = radius_curve(bundle(), sched, 5, 30, epsilon=0.1, delta=0.05)
        assert ms[0] == 5
        assert_allclose(radius[0], 0.1 + 0.061 / 0.49, rtol=1e-12)
        assert_allclose(radius[0], 0.22449, atol=5e-6)

    def test_non_increasing_to_floor(self):
        sched = StepSchedule.harmonic(0.5)
        c = bundle(alpha=0.6, gain=0.5, offset=0.2)
        ms, radius = radius_curve(c, sched, 2, 5000, epsilon=0.3, delta=0.02)
        floor = floor_term(c, sched, 2, 0.3, 0.02)
        assert np.all(np.diff(radius) <= 1e-15)
        assert np.all(radius >= floor - 1e-15)
        assert radius[-1] - floor < 0.3 * np.exp(-(1.0 - 0.6) * sched.step_sum(2, 4999)) + 1e-12

    def test_zero_epsilon_edge_constant(self):
        sched = flat_schedule(0.01)
        _, radius = radius_curve(bundle(), sched, 5, 60, epsilon=0.0, delta=0.05)
        assert np.all(radius == radius[0])

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleStart):
            floor_term(bundle(alpha=0.99, gain=100.0), flat_schedule(0.01), 0, 0.1, 0.1)


class TestTailProbability:
    def geometric_query(self, horizon):
        return BoundQuery(
            epsilon=0.5,
            delta=math.sqrt(0.5),
            n0=4,
            horizon=horizon,
            D_const=10.0,
            p_init=0.1,
            p_init_source="user",
        )

    def test_geometric_regime_hand_bound(self):
        # exponent strength D*delta^2 = 5, unit tail weights 1/m: terms
        # 2d exp(-5m) from m=5, so the sum is 4 e^{-25} / (1 - e^{-5})
        stub = unit_harmonic_stub()
        out = tail_probability(self.geometric_query(10_000), 2, stub, bundle(scale=1.0))
        closed = 4.0 * math.exp(-25.0) / (1.0 - math.exp(-5.0))
        assert out.quadratic_branch
        assert_allclose(out.tail_sum, closed, rtol=1e-10)
        assert_allclose(out.prob_lower_bound, 0.9 - closed, rtol=1e-12)
        assert abs(out.prob_lower_bound - 0.9) < 1e-9
        assert not out.vacuous

    def test_infinite_horizon_certified_truncation(self):
        stub = unit_harmonic_stub()
        fin = tail_probability(self.geometric_query(10_000), 2, stub, bundle())
        inf = tail_probability(self.geometric_query(None), 2, stub, bundle())
        assert inf.truncated_at is not None
        assert inf.tail_sum >= fin.tail_sum  # remainder keeps it a true upper bound
        assert_allclose(inf.tail_sum, fin.tail_sum, rtol=1e-6)
        assert inf.prob_lower_bound <= fin.prob_lower_bound

    def test_finite_bound_decreases_to_infinite(self):
        stub = unit_harmonic_stub()
        probs = []
        for horizon in (10, 20, 50, 200, None):
            q = BoundQuery(0.5, 0.3, 4, horizon, 2.0, 0.0, "user")
            probs.append(tail_probability(q, 1, stub, bundle()).prob_lower_bound)
        assert all(a >= b - 1e-15 for a, b in zip(probs, probs[1:]))
        assert_allclose(probs[-2], probs[-1], rtol=1e-6)

    def test_large_exponent_limit(self):
        stub = unit_harmonic_stub()
        q = BoundQuery(0.5, 0.5, 4, 1000, 1e9, 0.1, "user")
        out = tail_probability(q, 2, stub, bundle())
        assert out.tail_sum <= 1e-300
        assert_allclose(out.prob_lower_bound, 0.9)

    def test_vacuous_reported_as_is(self):
        stub = unit_harmonic_stub()
        q = BoundQuery(0.5, 0.01, 4, 500, 0.1, 0.1, "user")
        out = tail_probability(q, 2, stub, bundle())
        assert out.vacuous
        assert out.prob_lower_bound < 0.0

    @pytest.mark.parametrize("D", [5.0, 0.05, 0.005])
    def test_infinite_tail_returns_on_reference_config(self, ref_analytic, D):
        # at small D the terms decay slowly: the exact sum stops at the term
        # budget and the certified remainder covers the rest
        sched = StepSchedule.harmonic(0.5)
        kw = dict(epsilon=0.045, delta=0.1, n0=100, D_const=D, p_init=0.0)
        c = ref_analytic.constants
        fin = tail_probability(build_query(c, sched, horizon=10_000, **kw), 2, sched, c)
        inf = tail_probability(build_query(c, sched, horizon=None, **kw), 2, sched, c)
        assert math.isfinite(inf.tail_sum)
        assert inf.tail_sum >= fin.tail_sum
        assert inf.remainder_bound > 0.0
        assert 100 < inf.truncated_at <= 100 + _TERM_BUDGET

    def test_nonpositive_strength_diverges(self):
        stub = unit_harmonic_stub()
        q = BoundQuery(0.5, 0.3, 4, None, -1.0, 0.0, "user")
        with pytest.raises(SeriesDivergence):
            tail_probability(q, 1, stub, bundle())

    def test_monotone_in_delta_exponent_and_start(self):
        stub = unit_harmonic_stub()
        base = dict(epsilon=0.5, horizon=2000, p_init=0.0, p_init_source="user")
        for grid, patch in (
            ([0.1, 0.2, 0.4, 0.8], "delta"),
            ([0.5, 1.0, 3.0, 9.0], "D_const"),
            ([2, 5, 20, 100], "n0"),
        ):
            vals = []
            for g in grid:
                kw = dict(base, delta=0.3, n0=4, D_const=2.0)
                kw[patch] = g
                vals.append(tail_probability(BoundQuery(**kw), 2, stub, bundle()).prob_lower_bound)
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_branch_switch_above_crossover(self):
        # tiny increment scale pulls the crossover below delta
        stub = unit_harmonic_stub()
        c = bundle(scale=1e-4, gain=0.01, offset=0.01)
        q = BoundQuery(0.5, 0.9, 4, 100, 2.0, 0.0, "user")
        out = tail_probability(q, 2, stub, c)
        assert not out.quadratic_branch
        cross = tail_crossover(c, stub, 4, 2)
        assert cross < 0.9


class TestZeroTail:
    def test_bound_is_one_minus_p_init(self):
        out = zero_tail(bundle(scale=0.0), flat_schedule(), 4, 2, 0.5, 0.25)
        assert out.tail_sum == 0.0 and out.remainder_bound == 0.0
        assert out.prob_lower_bound == 0.75 and not out.vacuous
        assert out.crossover == 0.0 and not out.quadratic_branch
        assert zero_tail(bundle(scale=0.0), flat_schedule(), 4, 2, 0.5, 1.0).vacuous

    def test_refused_with_noise(self):
        with pytest.raises(ValidationError):
            zero_tail(bundle(scale=1e-300), flat_schedule(), 4, 2, 0.5, 0.25)


class TestMartingaleTail:
    def test_hand_value(self):
        assert_allclose(martingale_tail(1.0, 2.0, 1.0, 1.0, 1), 2.0 * math.exp(-1.0), rtol=1e-12)
        assert_allclose(martingale_tail(1.0, 2.0, 1.0, 1.0, 1), 0.73576, atol=5e-6)

    def test_quadratic_branch_at_equality(self):
        # at delta == crossover the quadratic branch applies
        got = martingale_tail(0.5, 0.5, 2.0, 0.1, 3)
        assert_allclose(got, 6.0 * math.exp(-2.0 * 0.25 / 0.1), rtol=1e-12)

    def test_linear_branch_above(self):
        got = martingale_tail(0.6, 0.5, 2.0, 0.1, 3)
        assert_allclose(got, 6.0 * math.exp(-2.0 * 0.6 / 0.1), rtol=1e-12)

    def test_vanishes_with_weight(self):
        assert martingale_tail(0.5, 1.0, 1.0, 1e-12, 1) == 0.0


class TestBuildQuery:
    def test_range_validation(self):
        c, s = bundle(), flat_schedule()
        for kw in (
            dict(epsilon=0.0, delta=0.5),
            dict(epsilon=1.5, delta=0.5),
            dict(epsilon=0.5, delta=0.0),
            dict(epsilon=0.5, delta=2.0),
        ):
            with pytest.raises(ValidationError):
                build_query(c, s, n0=1, horizon=10, D_const=1.0, p_init=0.0, **kw)

    def test_feasibility_enforced(self):
        with pytest.raises(InfeasibleStart, match="smallest feasible"):
            build_query(
                bundle(alpha=0.5, gain=1.0),
                StepSchedule.harmonic(0.5),
                epsilon=0.5,
                delta=0.5,
                n0=0,
                horizon=10,
                D_const=1.0,
                p_init=0.0,
            )

    def test_report_round_trip(self, tmp_path):
        c = bundle(alpha=0.5, gain=0.2, offset=0.2, scale=1.0)
        sched = StepSchedule.harmonic(0.5)
        q = build_query(
            c, sched, epsilon=0.5, delta=0.5, n0=2, horizon=50, D_const=5.0, p_init=0.05
        )
        report = evaluate_bound(q, 2, sched, c)
        d = report.as_dict()
        assert d["p_init"] == 0.05
        assert d["radius_first"] >= d["radius_last"]
        path = tmp_path / "bound.csv"
        report.to_csv(path, sched)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,radius,tail_term,cumulative_tail"
        assert len(lines) == 1 + (50 - 2 + 1)  # header + one row per m in [2, 50]


class TestCorollaryRate:
    def test_matches_direct_expression(self):
        for n0, m, e1, e2 in [(4, 4, 0.1, 0.2), (16, 64, 0.05, 0.5), (100, 10_000, 0.3, 0.3)]:
            first = math.sqrt(math.log(1.0 / e1)) / math.sqrt(n0)
            second = math.sqrt(math.log(n0) / n0) / math.sqrt(e2) * (n0 / m + 1.0 / n0)
            assert_allclose(corollary_rate(n0, m, e1, e2), first + second, rtol=1e-15)

    def test_doubling_m_halves_the_transient_term(self):
        n0, e1, e2 = 16, 0.1, 0.25
        scale = math.sqrt(math.log(n0) / n0) / math.sqrt(e2)
        for m in (16, 64, 1024):
            drop = corollary_rate(n0, m, e1, e2) - corollary_rate(n0, 2 * m, e1, e2)
            assert_allclose(drop, 0.5 * scale * n0 / m, rtol=1e-12)

    def test_quadrupling_n0_halves_the_leading_term(self):
        e1 = 0.07
        for n0 in (9, 25, 400):
            lead = corollary_rate(n0, 10**9, e1, 0.999999) - corollary_rate(
                n0, 10**9, 0.999999, 0.999999
            )
            lead4 = corollary_rate(4 * n0, 10**9, e1, 0.999999) - corollary_rate(
                4 * n0, 10**9, 0.999999, 0.999999
            )
            assert_allclose(lead4, 0.5 * lead, rtol=1e-9)

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            corollary_rate(0, 5, 0.1, 0.1)
        with pytest.raises(ValidationError):
            corollary_rate(5, 4, 0.1, 0.1)
