"""The infinite tail's remainder bound, sum_{m > M} exp(-c m^q) <= Gamma(a, x) / (q c^a)
with a = 1/q and x = c M^q, against 40-digit values from mpmath and against
its scipy twin.

The pass rule is ``certified``: the remainder is at least the exact
integral and at most (1 + 1e-10) times it.  Below the normal range of
doubles the spacing of doubles is coarser than any relative rule, so the
upper end is widened by two steps of the subnormal spacing there.
"""

import math
import sys

import mpmath as mp
import pytest

from tdlab import StepSchedule, bounds, build_query, tail_probability
from tdlab.bounds import _REMAINDER_SLACK, _series_remainder

from oracles import scipy_series_remainder

DIGITS = 40
REL_TOL = 1e-10
SUBNORMAL_STEP = math.ulp(0.0)
QS = (1.0, 0.5, 0.3, 0.1, 0.05)
XS = (
    1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 0.5, 1.0, 2.0, 3.0, 4.3, 10.0, 11.0, 21.0, 22.0,
    40.0, 100.0, 300.0, 700.0, 746.0, 1000.0, 1400.0, 1e4, 1e5, 1e300,
)
MS = (1, 7011, 262244, 10**15, 10**300)


def exact_remainder(c, q, M):
    """Gamma(1/q, c M^q) / (q c^(1/q)) at 40 digits, from the doubles c and q
    and the integer M as given."""
    with mp.workdps(DIGITS):
        if math.isinf(c):
            return mp.mpf(0)
        c_, q_ = mp.mpf(c), mp.mpf(q)
        a = 1 / q_
        return mp.gammainc(a, c_ * mp.mpf(M) ** q_, mp.inf) / (q_ * c_**a)


def certified(rem, exact):
    with mp.workdps(DIGITS):
        upper = (1 + mp.mpf(REL_TOL)) * exact + 2 * SUBNORMAL_STEP
        if upper > sys.float_info.max:
            return rem == math.inf
        return exact <= mp.mpf(rem) <= upper


def grid(q):
    """(c, q, M) with c M^q at each x of the grid and beside a + 1, where
    the evaluation switches from the series to the fraction; then x = 0
    (M = 0) and x = inf (c = inf)."""
    a = 1.0 / q
    cases = []
    for x in (*XS, (a + 1.0) * (1.0 - 1e-9), (a + 1.0) * (1.0 + 1e-9)):
        for M in MS:
            c = x / float(M) ** q
            if 0.0 < c < math.inf:
                cases.append((c, q, M))
    cases += [(c, q, 0) for c in (1e-300, 0.5, 1e3)]
    cases += [(math.inf, q, M) for M in (1, 7011)]
    return cases


@pytest.fixture(scope="module")
def evaluated():
    """Every grid case with the remainder and its exact value."""
    return {q: [(case, _series_remainder(*case), exact_remainder(*case)) for case in grid(q)] for q in QS}


class TestCertifiedGrid:
    @pytest.mark.parametrize("q", QS)
    def test_remainder_bounds_the_integral(self, evaluated, q):
        failed = [(case, rem, exact) for case, rem, exact in evaluated[q] if not certified(rem, exact)]
        assert not failed

    @pytest.mark.parametrize("q", QS)
    def test_slack_is_100_times_the_evaluation_error(self, evaluated, q):
        # the value before the slack, wherever the remainder is a normal double
        errors = [
            abs(float(mp.mpf(rem / (1.0 + _REMAINDER_SLACK)) / exact - 1))
            for _, rem, exact in evaluated[q]
            if sys.float_info.min <= exact <= sys.float_info.max and rem < math.inf
        ]
        assert len(errors) > 40
        assert max(errors) <= _REMAINDER_SLACK / 100

    @pytest.mark.parametrize("q", QS)
    def test_agrees_with_the_scipy_twin(self, evaluated, q):
        for case, rem, _ in evaluated[q]:
            if math.isinf(case[0]):
                continue
            twin = scipy_series_remainder(*case)
            if twin == math.inf:
                assert rem == math.inf, case
            elif twin > 0.0:
                assert abs(rem - twin) <= REL_TOL * twin + 2 * SUBNORMAL_STEP, case


class TestPinned:
    @pytest.mark.parametrize(
        "case",
        [(0.005000000000000001, 0.5, 262244), (0.5, 0.5, 7000)],
        ids=["cli-mix-D-0.05", "c-0.5-M-7000"],
    )
    def test_scipy_twin_sits_below_the_integral(self, case):
        # the remainder at the cut of `bound --infinite --D 0.05` on the
        # reference config, and near the cut at D = 5: scipy's value is 5.6e-16
        # and 8.2e-15 relative below the exact integral, so it was no upper bound
        exact = exact_remainder(*case)
        assert mp.mpf(scipy_series_remainder(*case)) < exact
        assert certified(_series_remainder(*case), exact)

    def test_remainder_below_the_regularised_range_is_kept(self):
        # x = 746: Q(1, x) = e^-746 underflows, but Gamma(1, x) / c is 1.04e-34
        case = (1e-290, 1.0, 746 * 10**290)
        exact = exact_remainder(*case)
        assert scipy_series_remainder(*case) == 0.0
        assert 1.03e-34 < _series_remainder(*case) < 1.05e-34
        assert certified(_series_remainder(*case), exact)

    @pytest.mark.parametrize("c", [1e-290, 1e-3, 0.5, 7.0])
    @pytest.mark.parametrize("M", [1, 2, 7011, 262244, 10**15])
    def test_closed_forms_at_a_1_and_2(self, c, M):
        # Gamma(1, x) = e^-x and Gamma(2, x) = (1 + x) e^-x
        with mp.workdps(DIGITS):
            x1 = mp.mpf(c) * M
            x2 = mp.mpf(c) * mp.sqrt(M)
            exact1 = mp.exp(-x1) / mp.mpf(c)
            exact2 = (1 + x2) * mp.exp(-x2) / (mp.mpf(0.5) * mp.mpf(c) ** 2)
        assert certified(_series_remainder(c, 1.0, M), exact1)
        assert certified(_series_remainder(c, 0.5, M), exact2)

    @pytest.mark.parametrize("D, c", [("5", 0.5), ("0.05", 0.005), ("0.005", 0.0005)])
    def test_cli_mix_cuts(self, ref_analytic, monkeypatch, D, c):
        # the remainder each `bound --infinite --D` of the benchmark's mix takes
        seen = []

        def spy(*case):
            seen.append(case)
            return _series_remainder(*case)

        monkeypatch.setattr(bounds, "_series_remainder", spy)
        sched = StepSchedule.harmonic(0.5)
        constants = ref_analytic.constants
        query = build_query(
            constants, sched, epsilon=0.045, delta=0.1, n0=100, horizon=None,
            D_const=float(D), p_init=0.0,
        )
        tail_probability(query, 2, sched, constants)
        ((c_seen, q, M),) = seen
        assert c_seen == pytest.approx(c, rel=1e-12) and q == 0.5
        assert certified(_series_remainder(c_seen, q, M), exact_remainder(c_seen, q, M))
