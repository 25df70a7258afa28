import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdlab import (
    ValidationError,
    build_chain,
    build_features,
    check_assumption,
    feature_gain,
    scaling_threshold,
    stationary_distribution,
)

from conftest import random_chain, random_problem
from oracles import project_weighted, weighted_norm


def two_state_uniform():
    chain = build_chain(np.array([[0.5, 0.5], [0.5, 0.5]]))
    return stationary_distribution(chain)


def power_iteration_gain(Phi, pi, iters=500):
    # independent oracle: power iteration on the weighted Gram matrix
    gram = Phi.T @ (pi[:, None] * Phi)
    v = np.ones(gram.shape[0]) / np.sqrt(gram.shape[0])
    for _ in range(iters):
        w = gram @ v
        v = w / np.linalg.norm(w)
    return float(np.sqrt(v @ gram @ v))


class TestWeightedNorm:
    def test_zero_vector(self):
        assert weighted_norm(np.zeros(2), two_state_uniform()) == 0.0

    def test_unit_constant_vector(self):
        assert_allclose(weighted_norm(np.ones(2), two_state_uniform()), 1.0)

    def test_hand_value(self):
        chain = build_chain(np.array([[0.9, 0.1], [0.2, 0.8]]))
        pi = stationary_distribution(chain)  # [2/3, 1/3]
        assert_allclose(weighted_norm(np.array([3.0, 0.0]), pi), np.sqrt(6.0), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            weighted_norm(np.zeros(3), two_state_uniform())


class TestFeatureGain:
    def test_identity_features_uniform(self):
        feats = build_features(np.eye(2))
        pi = two_state_uniform()
        gain = feature_gain(feats, pi)
        assert_allclose(gain, np.sqrt(0.5), rtol=1e-12)
        assert_allclose(gain, power_iteration_gain(feats.Phi, pi.pi), rtol=1e-8)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        chain = random_chain(rng, 4)
        pi = stationary_distribution(chain)
        Phi = rng.standard_normal((4, 2))
        g1 = feature_gain(build_features(Phi), pi)
        g2 = feature_gain(build_features(2.5 * Phi), pi)
        assert_allclose(g2, 2.5 * g1, rtol=1e-12)

    def test_scalar_instance(self):
        chain = build_chain(np.array([[1.0]]))
        pi = stationary_distribution(chain)
        assert_allclose(feature_gain(build_features(np.array([[0.5]])), pi), 0.5)

    def test_gain_is_max_ratio_over_unit_vectors(self):
        rng = np.random.default_rng(5)
        chain = random_chain(rng, 6)
        pi = stationary_distribution(chain)
        feats = build_features(rng.standard_normal((6, 3)))
        gain = feature_gain(feats, pi)
        xs = rng.standard_normal((10_000, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        vals = np.sqrt(np.sum(pi.pi[None, :] * (xs @ feats.Phi.T) ** 2, axis=1))
        assert vals.max() <= gain + 1e-8
        assert vals.max() >= 0.8 * gain


class TestCheckAssumption:
    def test_threshold_small_discount(self):
        # sqrt(2 * 0.9) / 1.1
        feats = build_features(np.eye(2))
        report = check_assumption(feats, two_state_uniform(), 0.1)
        assert_allclose(report.threshold, np.sqrt(1.8) / 1.1, rtol=1e-12)
        assert_allclose(report.feature_gain, 0.70710678, rtol=1e-6)
        assert report.satisfied

    def test_scalar_unit_feature_fails(self):
        chain = build_chain(np.array([[1.0]]))
        pi = stationary_distribution(chain)
        report = check_assumption(build_features(np.array([[1.0]])), pi, 0.5)
        assert_allclose(report.threshold, 1.0 / 1.5, rtol=1e-12)
        assert not report.satisfied
        assert_allclose(report.rescaling_factor, (1.0 / 1.5) / 1.0, rtol=1e-12)

    def test_row_condition_implies_satisfied(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = int(rng.integers(2, 8))
            chain = random_chain(rng, s)
            pi = stationary_distribution(chain)
            gamma = float(rng.uniform(0.05, 0.95))
            Phi = rng.standard_normal((s, 2))
            thr = scaling_threshold(gamma)
            Phi *= 0.9 * thr / np.max(np.linalg.norm(Phi, axis=1))
            report = check_assumption(build_features(Phi), pi, gamma)
            assert report.row_condition_satisfied
            assert report.satisfied

    def test_gamma_range_validated(self):
        with pytest.raises(ValidationError):
            scaling_threshold(1.0)


class TestProjection:
    def test_fixes_its_range(self):
        p = random_problem(21, s=6, d=3)
        rng = np.random.default_rng(0)
        w = rng.standard_normal(3)
        v = p.features.Phi @ w
        assert_allclose(project_weighted(v, p.features, p.stationary), v, atol=1e-10)

    def test_idempotent(self):
        p = random_problem(22, s=6, d=3)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(6)
        once = project_weighted(v, p.features, p.stationary)
        twice = project_weighted(once, p.features, p.stationary)
        assert_allclose(twice, once, atol=1e-10)

    def test_square_invertible_is_identity(self):
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 3)
        pi = stationary_distribution(chain)
        feats = build_features(np.eye(3) + 0.2 * rng.standard_normal((3, 3)))
        v = rng.standard_normal(3)
        assert_allclose(project_weighted(v, feats, pi), v, atol=1e-9)

    def test_nonexpansive_in_weighted_norm(self):
        p = random_problem(23, s=7, d=2)
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.standard_normal(7)
            pv = project_weighted(v, p.features, p.stationary)
            assert weighted_norm(pv, p.stationary) <= weighted_norm(v, p.stationary) + 1e-12

    def test_residual_orthogonality(self):
        p = random_problem(24, s=7, d=3)
        rng = np.random.default_rng(4)
        pi = p.stationary.pi
        for _ in range(100):
            v = rng.standard_normal(7)
            resid = v - project_weighted(v, p.features, p.stationary)
            w = rng.standard_normal(3)
            inner = float(np.sum(pi * resid * (p.features.Phi @ w)))
            assert abs(inner) <= 1e-10


class TestBuildFeatures:
    def test_rank_deficient_rejected(self):
        Phi = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        with pytest.raises(ValidationError, match="rank"):
            build_features(Phi)

    def test_more_features_than_states_rejected(self):
        with pytest.raises(ValidationError):
            build_features(np.ones((2, 3)))
