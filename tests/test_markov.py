import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdlab import (
    NotIrreducible,
    NotStochastic,
    Periodic,
    PolicyEvalProblem,
    StepSchedule,
    build_chain,
    solve_problem,
    stationary_distribution,
)
from tdlab.harness import ExperimentConfig, _base_spec
from tdlab.instances import scalar_problem, whitened_features
from tdlab.rng import stream

from conftest import random_chain
from oracles import chain_class, expected_hitting_sums, reachability, sample_paths


def path_spec(problem, horizon, policy, seed=0):
    """The engine's sampling spec for paths of ``problem`` over steps 0..horizon."""
    config = ExperimentConfig(
        problem=problem,
        schedule=StepSchedule.harmonic(0.5),
        n0=0,
        horizon=horizon,
        n_trajectories=1,
        master_seed=seed,
        epsilon=0.5,
        delta=0.25,
        initial_state_policy=policy,
    )
    return _base_spec(config, solve_problem(problem), horizon=horizon)


def random_support_chain(rng, s):
    """A random chain on s states: a sparse support, or a cyclic one over k classes
    (every edge steps to the next class), sometimes with one random edge added."""
    if rng.random() < 0.4:
        support = rng.random((s, s)) < rng.uniform(0.1, 0.6)
        for u in np.flatnonzero(~support.any(axis=1)):
            support[u, rng.integers(s)] = True
    else:
        k = int(rng.integers(1, s + 1))
        cls = rng.permutation(np.arange(s) % k)
        support = (cls[None, :] == (cls[:, None] + 1) % k) & (rng.random((s, s)) < 0.7)
        for u in np.flatnonzero(~support.any(axis=1)):
            support[u, rng.choice(np.flatnonzero(cls == (cls[u] + 1) % k))] = True
        if rng.random() < 0.3:
            support[rng.integers(s), rng.integers(s)] = True
    P = support * rng.uniform(0.1, 1.0, size=(s, s))
    return P / P.sum(axis=1, keepdims=True)


def two_state_problem():
    chain = build_chain(np.array([[0.9, 0.1], [0.2, 0.8]]))
    features = whitened_features(chain, np.array([[1.0], [0.5]]), 0.5)
    return PolicyEvalProblem(chain, np.array([1.0, 0.0]), 0.5, features)


class TestBuildChain:
    def test_doubly_stochastic_valid(self):
        chain = build_chain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert chain.n_states == 2

    def test_period_two_rejected(self):
        with pytest.raises(Periodic):
            build_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_two_closed_classes_rejected(self):
        with pytest.raises(NotIrreducible):
            build_chain(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_row_sum_violation_rejected(self):
        with pytest.raises(NotStochastic, match="renormalization"):
            build_chain(np.array([[0.6, 0.5], [0.5, 0.5]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(NotStochastic):
            build_chain(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_non_square_rejected(self):
        with pytest.raises(NotStochastic):
            build_chain(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]))

    def test_single_state_valid(self):
        chain = build_chain(np.array([[1.0]]))
        assert chain.n_states == 1

    def test_period_three_cycle_rejected(self):
        P = np.zeros((3, 3))
        P[0, 1] = P[1, 2] = P[2, 0] = 1.0
        with pytest.raises(Periodic):
            build_chain(P)

    def test_empty_matrix_rejected(self):
        with pytest.raises(NotIrreducible):
            build_chain(np.zeros((0, 0)))


class TestChainClassTwin:
    """``build_chain``'s graph walk against the matrix-power classifier in ``oracles``."""

    @pytest.mark.parametrize(
        "P, error, match",
        [
            ([[0.5, 0.5], [0.0, 1.0]], NotIrreducible, "^state 1 cannot reach state 0"),
            ([[1.0, 0.0], [0.5, 0.5]], NotIrreducible, "^state 1 is not reachable from state 0"),
            ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], Periodic, "period 3"),
            ([[0, 0.5, 0.5, 0], [1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 0, 0]], None, None),
        ],
        ids=["no-return", "no-reach", "three-cycle", "cycles-2-and-3"],
    )
    def test_hand_cases(self, P, error, match):
        P = np.array(P, dtype=float)
        assert chain_class(P) is error
        if error is None:
            assert build_chain(P).n_states == len(P)
        else:
            with pytest.raises(error, match=match):
                build_chain(P)

    def test_random_chains_agree(self):
        rng = np.random.default_rng(8)
        seen = {None: 0, NotIrreducible: 0, Periodic: 0}
        for _ in range(400):
            P = random_support_chain(rng, int(rng.integers(1, 9)))
            expected = chain_class(P)
            seen[expected] += 1
            if expected is None:
                build_chain(P)
                continue
            with pytest.raises(expected) as info:
                build_chain(P)
            if expected is NotIrreducible:
                reach = reachability(P)
                unreached, stuck = np.flatnonzero(~reach[0]), np.flatnonzero(~reach[:, 0])
                first = unreached[0] if unreached.size else stuck[0]
                assert str(info.value).startswith(f"state {first} ")
        assert min(seen.values()) >= 50, seen


class TestStationaryDistribution:
    def test_doubly_stochastic_uniform(self):
        chain = build_chain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert_allclose(stationary_distribution(chain).pi, [0.5, 0.5], atol=1e-12)

    def test_two_state_hand_solved(self):
        # balance: pi0 * 0.1 = pi1 * 0.2, so pi = [2/3, 1/3]
        chain = build_chain(np.array([[0.9, 0.1], [0.2, 0.8]]))
        assert_allclose(stationary_distribution(chain).pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_single_state(self):
        chain = build_chain(np.array([[1.0]]))
        assert_allclose(stationary_distribution(chain).pi, [1.0])

    def test_matches_eigenvector_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            chain = random_chain(rng, int(rng.integers(2, 8)))
            pi = stationary_distribution(chain).pi
            vals, vecs = np.linalg.eig(chain.P.T)
            lead = np.argmin(np.abs(vals - 1.0))
            oracle = np.real(vecs[:, lead])
            oracle = oracle / oracle.sum()
            assert_allclose(pi, oracle, atol=1e-9)

    def test_balance_residual_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            chain = random_chain(rng, int(rng.integers(2, 12)))
            pi = stationary_distribution(chain).pi
            assert np.max(np.abs(pi @ chain.P - pi)) <= 1e-10


class TestSamplePath:
    def test_single_state_path(self):
        spec = path_spec(scalar_problem(), 4, "fixed:0", seed=1)
        assert_allclose(sample_paths(spec, 0, 1)[0], np.zeros(5))

    def test_deterministic_given_stream(self):
        spec = path_spec(two_state_problem(), 199, "fixed:0", seed=7)
        p1 = sample_paths(spec, 3, 4)[0]
        p2 = sample_paths(spec, 3, 4)[0]
        assert np.array_equal(p1, p2)
        assert np.array_equal(p1, sample_paths(spec, 0, 5)[3])  # the stream is the index's own

    def test_starts_at_initial_state(self):
        spec = path_spec(two_state_problem(), 9, "fixed:1")
        assert sample_paths(spec, 0, 1)[0, 0] == 1

    def test_visit_frequencies_match_stationary(self):
        # 10^6 steps as 100 independent stationary paths: each path is one batch
        problem = two_state_problem()
        pi = stationary_distribution(problem.chain).pi
        spec = path_spec(problem, 9_999, "stationary", seed=12345)
        paths = sample_paths(spec, 0, 100)
        n_batches = len(paths)
        for state in range(2):
            freqs = (paths == state).mean(axis=1)
            se = freqs.std(ddof=1) / np.sqrt(n_batches)
            assert abs(freqs.mean() - pi[state]) <= 3.0 * se


class TestExpectedHittingSums:
    def test_zero_integrand(self):
        chain = build_chain(np.array([[0.9, 0.1], [0.2, 0.8]]))
        mean, se = expected_hitting_sums(chain, 0, np.zeros(2), n_cycles=100, rng=stream(0))
        assert_allclose(mean, 0.0)
        assert_allclose(se, 0.0)

    def test_single_state_centered(self):
        chain = build_chain(np.array([[1.0]]))
        mean, _ = expected_hitting_sums(chain, 0, np.zeros(1), n_cycles=50, rng=stream(0))
        assert_allclose(mean, 0.0)

    def test_visit_counts_hand_solved(self):
        # P = [[0.9, 0.1], [0.2, 0.8]], anchor 1, g = indicator of state 0.
        # From 0: visits to 0 before hitting 1 are Geometric(0.1): mean 10.
        # From 1: first step enters 0 w.p. 0.2, then the same count: mean 2.
        chain = build_chain(np.array([[0.9, 0.1], [0.2, 0.8]]))
        mean, se = expected_hitting_sums(
            chain, 1, np.array([1.0, 0.0]), n_cycles=40_000, rng=stream(99)
        )
        assert abs(mean[0] - 10.0) <= 3.0 * se[0]
        assert abs(mean[1] - 2.0) <= 3.0 * se[1]

    def test_matrix_valued_shape(self):
        chain = build_chain(np.array([[0.5, 0.5], [0.5, 0.5]]))
        g = np.arange(8.0).reshape(2, 2, 2)
        mean, se = expected_hitting_sums(chain, 0, g, n_cycles=100, rng=stream(1))
        assert mean.shape == (2, 2, 2)
        assert se.shape == (2, 2, 2)
