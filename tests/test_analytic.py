import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdlab import (
    AssumptionViolated,
    PolicyEvalProblem,
    build_chain,
    build_features,
    compute_constants,
    contraction_factor,
    exact_value_function,
    fixed_point,
    poisson_solve,
    solve_problem,
    stationary_distribution,
)
from tdlab.rng import stream

from conftest import random_chain, random_problem, tabular_problem
from oracles import expected_hitting_sums, project_weighted, weighted_norm


def two_state_identity(gamma=0.1):
    chain = build_chain(np.array([[0.5, 0.5], [0.5, 0.5]]))
    feats = build_features(np.eye(2))
    return PolicyEvalProblem(chain, np.array([1.0, -1.0]), gamma, feats)


class TestStateMap:
    def test_zero_point_gives_offset(self, ref_problem):
        for i in range(ref_problem.n_states):
            got = ref_problem.state_map(np.zeros(2), i)
            assert_allclose(got, ref_problem.phi[i] * ref_problem.rewards[i])

    def test_zero_rewards_zero_point(self):
        p = random_problem(1, reward_scale=0.0)
        for i in range(p.n_states):
            assert_allclose(p.state_map(np.zeros(2), i), 0.0)

    def test_scalar_fixed_point_value(self, scalar):
        # 0.5 + (0.5*0.25 - 0.25)*4 + 4 = 4
        assert_allclose(scalar.state_map(np.array([4.0]), 0), [4.0], rtol=1e-14)


class TestMeanField:
    def test_single_state_equals_state_map(self, scalar):
        for x in (np.array([0.0]), np.array([2.5]), np.array([-3.0])):
            assert_allclose(scalar.mean_field(x), scalar.state_map(x, 0), rtol=1e-14)

    def test_fixed_point_is_fixed(self, ref_problem, ref_analytic):
        x = ref_analytic.x_star
        assert np.max(np.abs(ref_problem.mean_field(x) - x)) <= 1e-8

    def test_affine_identity(self, ref_problem):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, z = rng.standard_normal(2), rng.standard_normal(2)
            t = float(rng.uniform(-2, 2))
            combo = ref_problem.mean_field(t * x + (1 - t) * z)
            parts = t * ref_problem.mean_field(x) + (1 - t) * ref_problem.mean_field(z)
            assert np.max(np.abs(combo - parts)) <= 1e-12 * max(1.0, np.max(np.abs(parts)))

    @pytest.mark.parametrize("instance", ["reference", "wide"])
    def test_matrix_form_equals_the_state_sum(self, ref_problem, instance):
        # mean_field(x) = sum_i pi(i) F(x, i), with the averaged map cached in matrix form
        problem = ref_problem if instance == "reference" else random_problem(5, s=200, d=8)
        pi = problem.stationary.pi
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = rng.standard_normal(problem.n_features)
            direct = sum(pi[i] * problem.state_map(x, i) for i in range(problem.n_states))
            tol = 1e-10 * max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(direct - problem.mean_field(x))) <= tol


class TestFixedPoint:
    def test_scalar_closed_form(self, scalar):
        # x* = 1 / ((1 - gamma) * phi) = 4
        assert_allclose(fixed_point(scalar), [4.0], rtol=1e-12)

    def test_tabular_matches_exact_values(self):
        p = tabular_problem(7)
        x = fixed_point(p)
        assert np.max(np.abs(p.phi @ x - exact_value_function(p))) <= 1e-8

    def test_zero_rewards(self):
        p = random_problem(2, reward_scale=0.0)
        assert_allclose(fixed_point(p), np.zeros(2), atol=1e-12)

    def test_projected_equation_round_trip(self, ref_problem, ref_analytic):
        v = ref_problem.rewards + ref_problem.gamma * ref_problem.chain.P @ ref_analytic.v_approx
        proj = project_weighted(v, ref_problem.features, ref_problem.stationary)
        assert np.max(np.abs(ref_analytic.v_approx - proj)) <= 1e-8


class TestExactValueFunction:
    def test_single_state_geometric_series(self, scalar):
        assert_allclose(exact_value_function(scalar), [2.0], rtol=1e-12)

    def test_two_state_hand_solved(self):
        chain = build_chain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        feats = build_features(np.eye(2))
        p = PolicyEvalProblem(chain, np.array([1.0, 0.0]), 0.5, feats)
        assert not p.assumption.satisfied  # gain 0.707 over the 0.667 threshold, flagged
        assert_allclose(exact_value_function(p), [1.5, 0.5], rtol=1e-12)

    def test_zero_rewards(self):
        p = random_problem(3, reward_scale=0.0)
        assert_allclose(exact_value_function(p), np.zeros(p.n_states), atol=1e-12)


class TestContractionFactor:
    def test_scalar_arithmetic_value(self, scalar):
        # sqrt(1 - 0.25 * (2*0.5 - 0.25*2.25)) = sqrt(0.890625)
        assert_allclose(contraction_factor(scalar), np.sqrt(0.890625), rtol=1e-12)

    def test_scalar_direct_slope_below_factor(self, scalar):
        slope = abs(0.5 * 0.25 - 0.25 + 1.0)  # |gamma phi^2 - phi^2 + 1| = 0.875
        assert slope <= contraction_factor(scalar)
        x, z = np.array([1.7]), np.array([-0.3])
        gap = scalar.mean_field(x) - scalar.mean_field(z)
        ratio = abs(float(gap[0])) / abs(float(x[0] - z[0]))
        assert_allclose(ratio, slope, rtol=1e-12)

    def test_two_state_identity_arithmetic(self):
        p = two_state_identity(gamma=0.1)
        expected = np.sqrt(1.0 - 0.5 * (1.8 - 0.5 * 1.21))
        assert_allclose(contraction_factor(p), expected, rtol=1e-12)
        assert_allclose(expected, 0.63443, atol=5e-6)

    def test_raises_when_assumption_fails(self):
        chain = build_chain(np.array([[1.0]]))
        feats = build_features(np.array([[1.0]]))
        p = PolicyEvalProblem(chain, np.array([1.0]), 0.5, feats)
        assert not p.assumption.satisfied
        with pytest.raises(AssumptionViolated):
            contraction_factor(p)

    def test_random_pairs_never_exceed_factor(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            p = random_problem(100 + seed)
            alpha = contraction_factor(p)
            for _ in range(2000):
                x, z = 10.0 * rng.standard_normal((2, p.n_features))
                lhs = np.linalg.norm(p.mean_field(x) - p.mean_field(z))
                assert lhs <= alpha * np.linalg.norm(x - z) + 1e-9


class TestPoisson:
    def test_single_state_all_zero(self, scalar_analytic):
        assert_allclose(scalar_analytic.poisson.offset, 0.0)
        assert_allclose(scalar_analytic.poisson.linear, 0.0)

    def test_residuals_and_exact_anchor(self, ref_problem):
        for anchor in range(ref_problem.n_states):
            sol = poisson_solve(ref_problem, anchor)
            assert sol.offset_residual <= 1e-8
            assert sol.linear_residual <= 1e-8
            assert np.all(sol.offset[anchor] == 0.0)
            assert np.all(sol.linear[anchor] == 0.0)

    def test_anchors_differ_by_constant(self, ref_problem):
        a = poisson_solve(ref_problem, 0)
        b = poisson_solve(ref_problem, 2)
        diff = a.offset - b.offset
        assert np.max(np.abs(diff - diff[0])) <= 1e-8
        diff_lin = a.linear - b.linear
        assert np.max(np.abs(diff_lin - diff_lin[0])) <= 1e-8

    def test_matches_regenerative_monte_carlo(self):
        # hitting-time accumulator estimates the anchored solution directly
        rng = np.random.default_rng(17)
        chain = random_chain(rng, 3)
        feats = build_features(rng.standard_normal((3, 2)) * 0.3)
        p = PolicyEvalProblem(chain, rng.uniform(0, 1, 3), 0.5, feats)
        anchor = 1
        sol = poisson_solve(p, anchor)
        pi = p.stationary.pi
        centered = p.offset_terms - pi @ p.offset_terms
        mc, se = expected_hitting_sums(chain, anchor, centered, n_cycles=20_000, rng=stream(5))
        shifted = mc - mc[anchor]
        combined_se = np.sqrt(se**2 + se[anchor] ** 2)
        assert np.all(np.abs(shifted - sol.offset) <= 3.0 * combined_se + 1e-12)


class TestConstants:
    def test_scalar_values(self, scalar_analytic):
        c = scalar_analytic.constants
        assert_allclose(c.update_offset_bound, 0.5)
        assert c.offset_solution_max == 0.0
        assert c.linear_solution_max == 0.0
        assert c.noise_matrix_max == 0.0
        assert c.remainder_gain == 0.0
        assert c.remainder_offset == 0.0
        assert c.increment_scale == 0.0

    def test_zero_rewards_kill_offset_constants(self):
        p = random_problem(4, reward_scale=0.0)
        sol = solve_problem(p)
        assert sol.constants.update_offset_bound == 0.0
        assert sol.constants.offset_solution_max <= 1e-12

    def test_composition_formulas(self, ref_analytic):
        c = ref_analytic.constants
        assert_allclose(c.remainder_gain, c.linear_solution_max * (4.0 + c.update_gain_bound))
        assert_allclose(
            c.remainder_offset,
            4.0 * c.offset_solution_max
            + c.update_offset_bound * c.linear_solution_max
            + c.remainder_gain * c.x_star_norm,
        )
        assert_allclose(
            c.increment_scale,
            max(c.noise_matrix_max + 2.0 * c.linear_solution_max, 2.0 * c.offset_solution_max),
        )

    def test_noise_matrix_bound_holds_on_realizable_transitions(self, ref_problem, ref_analytic):
        c = ref_analytic.constants
        P = ref_problem.chain.P
        for y in range(ref_problem.n_states):
            for y2 in range(ref_problem.n_states):
                if P[y, y2] > 0:
                    op = np.linalg.norm(ref_problem.noise_matrix(y, y2), 2)
                    assert op <= c.noise_matrix_max + 1e-12


class TestInvariants:
    def test_transition_is_weighted_nonexpansive(self, ref_problem):
        rng = np.random.default_rng(8)
        P = ref_problem.chain.P
        pi = ref_problem.stationary
        vs = rng.standard_normal((10_000, ref_problem.n_states))
        lhs = np.sqrt(np.sum(pi.pi[None, :] * (vs @ P.T) ** 2, axis=1))
        rhs = np.sqrt(np.sum(pi.pi[None, :] * vs**2, axis=1))
        assert np.all(lhs <= rhs + 1e-12)

    def test_solution_serializes_to_json(self, ref_analytic):
        blob = json.dumps(ref_analytic.as_dict(), sort_keys=True)
        assert "x_star" in blob

    def test_tabular_approximation_is_exact(self):
        p = tabular_problem(9, s=4)
        sol = solve_problem(p)
        assert np.max(np.abs(sol.v_approx - sol.v_exact)) <= 1e-8
