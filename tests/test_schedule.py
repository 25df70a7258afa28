import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdlab import ValidationError, tail_weight

from oracles import ProductSchedule as StepSchedule


def constant_table(value=0.1, length=10):
    return StepSchedule.table([value] * length, d1=value, d2=0.01, d3=2.0 * value)


class TestConstruction:
    def test_harmonic_d1_one_rejected(self):
        # a(0) would equal 1, violating the strict bound
        with pytest.raises(ValidationError):
            StepSchedule.harmonic(1.0)

    def test_harmonic_evaluation(self):
        sched = StepSchedule.harmonic(0.5)
        assert_allclose(sched.step(1), 0.25)

    def test_polynomial_evaluation(self):
        sched = StepSchedule.polynomial(d3=0.9, d2=0.5)
        assert_allclose(sched.step(3), 0.45)

    def test_polynomial_d3_one_rejected(self):
        with pytest.raises(ValidationError):
            StepSchedule.polynomial(d3=1.0, d2=0.5)

    def test_increasing_table_rejected(self):
        with pytest.raises(ValidationError, match="non-increasing"):
            StepSchedule.table([0.1, 0.2], d1=0.1, d2=1.0, d3=0.5)

    def test_table_entry_at_one_rejected(self):
        with pytest.raises(ValidationError):
            StepSchedule.table([1.0, 0.5], d1=0.1, d2=1.0, d3=2.0)

    def test_table_below_lower_envelope_rejected(self):
        with pytest.raises(ValidationError, match="envelope"):
            StepSchedule.table([0.5, 0.01], d1=0.4, d2=1.0, d3=0.9)

    def test_beyond_table_errors(self):
        sched = constant_table(length=4)
        with pytest.raises(ValidationError, match="beyond table"):
            sched.step(4)

    def test_d2_range(self):
        with pytest.raises(ValidationError):
            StepSchedule.polynomial(d3=0.5, d2=1.5)


class TestStepSums:
    def test_empty_sum_is_zero(self):
        sched = StepSchedule.harmonic(0.5)
        assert sched.step_sum(5, 4) == 0.0
        assert sched.step_sum(7, 2) == 0.0

    def test_hand_value(self):
        # table mirrors 1/(n+1) where that is a valid step size
        sched = StepSchedule.table(
            [0.9, 0.5, 1.0 / 3.0, 0.25, 0.2], d1=0.9, d2=0.9, d3=0.95
        )
        assert_allclose(sched.step_sum(2, 4), 47.0 / 60.0, rtol=1e-15)

    def test_recurrence(self):
        sched = StepSchedule.polynomial(d3=0.8, d2=0.7)
        for k, n in [(0, 5), (3, 9), (2, 2)]:
            assert_allclose(sched.step_sum(k, n + 1), sched.step_sum(k, n) + sched.step(n + 1))

    def test_cumulative_matches_scalar(self):
        sched = StepSchedule.harmonic(0.3)
        cums = sched.cumulative_step_sums(4, 20)
        for j, n in enumerate(range(4, 21)):
            assert_allclose(cums[j], sched.step_sum(4, n), rtol=1e-14)


class TestTailWeight:
    def test_case_d1_below_d2(self):
        assert_allclose(tail_weight(0.5, 1.0, 4, 100), 0.05, rtol=1e-14)

    def test_equal_exponents(self):
        for n in (2, 10, 77):
            assert_allclose(tail_weight(1.0, 1.0, 5, n), 1.0 / n, rtol=1e-14)

    def test_otherwise_branch(self):
        assert_allclose(tail_weight(2.0, 1.0, 3, 10), 0.1, rtol=1e-14)

    def test_requires_positive_indices(self):
        with pytest.raises(ValidationError):
            tail_weight(0.5, 1.0, 0, 10)


class TestDecayProduct:
    def test_empty_product_is_one(self):
        # the convention used when the window is empty
        sched = StepSchedule.harmonic(0.5)
        assert sched.decay_product(3, 7) == 1.0

    def test_constant_table_value(self):
        sched = constant_table(0.1)
        assert_allclose(sched.decay_product(4, 2), 0.9**3, rtol=1e-15)

    def test_one_step_identity(self):
        # chi(m, k) + chi(m, k+1) a(k) = chi(m, k+1)
        sched = StepSchedule.polynomial(d3=0.7, d2=0.6)
        for m in (5, 40, 300):
            for k in range(1, m + 1, 7):
                lhs = sched.decay_product(m, k) + sched.decay_product(m, k + 1) * sched.step(k)
                assert abs(lhs - sched.decay_product(m, k + 1)) <= 1e-14

    def test_telescoping_identity_on_grids(self):
        for sched in (
            StepSchedule.harmonic(0.5),
            StepSchedule.polynomial(d3=0.9, d2=0.5),
            constant_table(0.1, 200),
        ):
            for n0 in (0, 3):
                for m in (10, 100):
                    row = sched.decay_product_row(m, n0)  # chi(m, k) for k = n0 .. m+1
                    a = sched.steps(n0, m + 1)
                    total = row[0] + float((row[1:] * a).sum())
                    assert abs(total - 1.0) <= 1e-12

    def test_row_matches_scalar(self):
        sched = StepSchedule.harmonic(0.4)
        row = sched.decay_product_row(25, 3)
        for j, k in enumerate(range(3, 27)):
            assert_allclose(row[j], sched.decay_product(25, k), rtol=1e-13)

    def test_log_space_matches_direct_product(self):
        sched = StepSchedule.harmonic(0.5)
        m, k = 20_000, 10  # beyond the exact-product limit
        via_log = sched.decay_product(m, k)
        direct = float(np.prod(1.0 - sched.steps(k, m + 1)))
        assert_allclose(via_log, direct, rtol=1e-12)


class TestContractionProduct:
    def test_empty_product_is_one(self):
        sched = StepSchedule.harmonic(0.5)
        assert sched.contraction_product(3, 3, 0.5) == 1.0
        assert sched.contraction_product(2, 5, 0.5) == 1.0

    def test_constant_table_value(self):
        sched = constant_table(0.1)
        assert_allclose(sched.contraction_product(3, 1, 0.5), 0.95**2, rtol=1e-15)

    def test_dominated_by_exponential_of_step_sum(self):
        # 1 - y <= exp(-y) termwise
        sched = StepSchedule.polynomial(d3=0.8, d2=0.6)
        alpha = 0.7
        for m, n in [(0, 10), (5, 50), (2, 400)]:
            psi = sched.contraction_product(n, m, alpha)
            bound = np.exp(-(1.0 - alpha) * sched.step_sum(m, n - 1))
            assert psi <= bound + 1e-15

    def test_alpha_validated(self):
        sched = StepSchedule.harmonic(0.5)
        with pytest.raises(ValidationError):
            sched.contraction_product(5, 1, 1.0)


class TestEnvelopeDominations:
    def test_noise_weight_domination(self):
        # max_k a(k) chi(m, k+1) <= d3 2^d1 tail_weight(n0, m)
        for sched in (
            StepSchedule.harmonic(0.5),
            StepSchedule.harmonic(0.9),
            StepSchedule.polynomial(d3=0.6, d2=0.7, d1=0.3),
        ):
            for n0 in (1, 5, 20):
                for m in (n0 + 1, 50, 1000, 10_000):
                    if m <= n0:
                        continue
                    row = sched.decay_product_row(m, n0)  # chi(m, k), k = n0 .. m+1
                    a = sched.steps(n0, m + 1)
                    lhs = float((a * row[1:]).max())
                    rhs = sched.d3 * 2.0**sched.d1 * sched.tail_weight(n0, m)
                    assert lhs <= rhs + 1e-15

    def test_harmonic_rate_domination(self):
        # exp(-(1-alpha) sum_{i=n0}^{m-1} d1/(i+1)) <= (n0+1)/(m+1) when (1-alpha) d1 > 1.
        # Multipliers this large force a(0) >= 1, so the sums are formed directly
        # rather than through a validated schedule.
        for d1, alpha in [(3.0, 0.5), (2.5, 0.55), (1.2, 0.1)]:
            assert (1.0 - alpha) * d1 > 1.0
            for n0 in (1, 5, 40):
                idx = np.arange(n0, 10_001, dtype=float)
                partial = np.cumsum(d1 / (idx + 1.0))
                ms = np.arange(n0 + 1, 10_002, dtype=float)  # m = n0+1 .. 10001
                lhs = np.exp(-(1.0 - alpha) * partial)
                rhs = (n0 + 1.0) / (ms + 1.0)
                assert np.all(lhs <= rhs + 1e-15)
                # and at m = n0 both sides are >= 1 trivially via the empty sum
                assert np.exp(-(1.0 - alpha) * 0.0) <= (n0 + 1.0) / (n0 + 1.0) + 1e-15
