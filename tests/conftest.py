import numpy as np
import pytest

from tdlab import PolicyEvalProblem, build_chain, build_features, harness, solve_problem
from tdlab.instances import reference_problem, scalar_problem, whitened_features


@pytest.fixture(scope="session")
def ref_problem():
    return reference_problem()


@pytest.fixture(scope="session")
def ref_analytic(ref_problem):
    return solve_problem(ref_problem)


@pytest.fixture(scope="session")
def scalar():
    return scalar_problem()


@pytest.fixture(scope="session")
def scalar_analytic(scalar):
    return solve_problem(scalar)


@pytest.fixture(scope="session")
def wide():
    """The s = 200, d = 8 instance and its solution."""
    problem = random_problem(5, s=200, d=8)
    return problem, solve_problem(problem)


@pytest.fixture
def no_noise_table(monkeypatch):
    """Noise sums from per-state gathers, the path above the noise-table cap."""
    monkeypatch.setattr(harness, "_NOISE_TABLE_MAX_CELLS", 0)


def random_chain(rng, s):
    """Random irreducible aperiodic chain (Dirichlet rows are a.s. positive)."""
    return build_chain(rng.dirichlet(np.ones(s), size=s))


def random_problem(seed, s=5, d=2, gamma=0.5, gain_fraction=None, reward_scale=1.0):
    """A random instance that satisfies the feature-scaling condition."""
    rng = np.random.default_rng(seed)
    chain = random_chain(rng, s)
    if gain_fraction is None:
        gain_fraction = rng.uniform(0.3, 0.9)
    features = whitened_features(chain, rng.standard_normal((s, d)), gamma, gain_fraction)
    rewards = reward_scale * rng.uniform(-1.0, 1.0, size=s)
    return PolicyEvalProblem(chain, rewards, gamma, features)


def tabular_problem(seed, s=3, gamma=0.4):
    """Square invertible features: no approximation error."""
    rng = np.random.default_rng(seed)
    chain = random_chain(rng, s)
    features = whitened_features(chain, np.eye(s) + 0.1 * rng.standard_normal((s, s)), gamma, 0.6)
    rewards = rng.uniform(0.0, 1.0, size=s)
    return PolicyEvalProblem(chain, rewards, gamma, features)
