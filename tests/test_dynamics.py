from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import tdlab.cli as cli
from tdlab import NonFinite, run_deterministic, simulate_trajectory, solve_problem
from tdlab.harness import Checkpoints, ExperimentConfig, _base_spec
from tdlab.rng import stream

from conftest import random_problem
from oracles import ProductSchedule as StepSchedule
from oracles import _run_chunk, join_windows, noise_matrix, sample_paths, state_map


def sched_half():
    return StepSchedule.harmonic(0.5)


def path_config(problem, horizon, initial_x, policy="fixed:0", seed=0, schedule=None):
    """A one-trajectory run from step 0 of ``problem``."""
    return ExperimentConfig(
        problem=problem,
        schedule=schedule or sched_half(),
        n0=0,
        horizon=horizon,
        n_trajectories=1,
        master_seed=seed,
        epsilon=0.5,
        delta=0.25,
        initial_state_policy=policy,
        initial_x=np.asarray(initial_x, dtype=float),
    )


def engine_path(config, analytic, index=0, **spec_changes):
    """States and iterates of trajectory ``index``, straight from the engine."""
    T = config.horizon
    chk = Checkpoints(np.arange(T + 1), config.problem.n_features)
    spec = replace(_base_spec(config, analytic, T), **spec_changes)
    _run_chunk(spec, (chk,), index, index + 1)
    return sample_paths(spec, index, index + 1)[0], chk.x[0]


class TestTdStep:
    def test_zero_step_leaves_iterate(self, ref_problem, ref_analytic):
        x0 = np.array([0.3, -0.2])
        cfg = path_config(ref_problem, 20, x0, policy="fixed:1")
        _, xs = engine_path(cfg, ref_analytic, steps=np.zeros(20))
        assert np.array_equal(xs, np.repeat(x0[None, :], 21, axis=0))

    def test_scalar_fixed_point_stationary(self, scalar, scalar_analytic):
        cfg = path_config(scalar, 1, [4.0], schedule=StepSchedule.harmonic(0.1))
        rec = join_windows(simulate_trajectory(cfg, 0, scalar_analytic))
        assert_allclose(rec.x[1], [4.0], rtol=1e-14)

    def test_scalar_arithmetic(self, scalar, scalar_analytic):
        # horizon 1: 0 + 0.1 * 0.5 * (1 + 0 - 0) = 0.05
        cfg = path_config(scalar, 1, [0.0], schedule=StepSchedule.harmonic(0.1))
        rec = join_windows(simulate_trajectory(cfg, 0, scalar_analytic))
        assert_allclose(rec.x[1], [0.05], rtol=1e-14)


class TestDeterministic:
    def test_fixed_point_is_constant(self, ref_problem, ref_analytic):
        zs = run_deterministic(ref_problem, sched_half(), 0, 50, ref_analytic.x_star)
        assert np.max(np.abs(zs - ref_analytic.x_star[None, :])) <= 1e-10

    def test_per_step_contraction(self, ref_problem, ref_analytic):
        alpha = ref_analytic.constants.alpha
        x_star = ref_analytic.x_star
        sched = sched_half()
        zs = run_deterministic(ref_problem, sched, 0, 200, np.array([2.0, -1.0]))
        for n in range(200):
            lhs = np.linalg.norm(zs[n + 1] - x_star)
            rhs = (1.0 - (1.0 - alpha) * sched.step(n)) * np.linalg.norm(zs[n] - x_star)
            assert lhs <= rhs + 1e-12

    def test_norm_stays_in_initial_ball(self, ref_problem, ref_analytic):
        x_star = ref_analytic.x_star
        z0 = np.array([3.0, 1.0])
        zs = run_deterministic(ref_problem, sched_half(), 0, 500, z0)
        bound = np.linalg.norm(z0 - x_star) + np.linalg.norm(x_star)
        assert np.all(np.linalg.norm(zs, axis=1) <= bound + 1e-12)

    def test_decay_dominated_by_contraction_product(self, ref_problem, ref_analytic):
        alpha = ref_analytic.constants.alpha
        x_star = ref_analytic.x_star
        sched = sched_half()
        n0, horizon = 3, 400
        z0 = np.array([-1.0, 2.0])
        zs = run_deterministic(ref_problem, sched, n0, horizon, z0)
        e0 = np.linalg.norm(z0 - x_star)
        for n in range(n0, horizon + 1, 13):
            psi = sched.contraction_product(n, n0, alpha)
            assert np.linalg.norm(zs[n - n0] - x_star) <= psi * e0 + 1e-12


def mean_field_loop(problem, schedule, start, stop, z):
    """The comparison run as a numpy loop of ``mean_field``: its twin."""
    out = [np.asarray(z, dtype=float)]
    for a in schedule.steps(start, stop):
        z = out[-1]
        out.append(z + a * (problem.mean_field(z) - z))
    return np.array(out)


def matrix_product_loop(problem, schedule, start, stop, z):
    """The comparison run with the BLAS product ``map_matrix @ z``."""
    out = [np.asarray(z, dtype=float)]
    M, b = problem.map_matrix, problem.map_offset
    for a in schedule.steps(start, stop):
        z = out[-1]
        out.append(z + a * (z - M @ z + b - z))
    return np.array(out)


COMPARISON_CASES = [f"d{d}" for d in (1, 2, 5, 6, 7, 8, 9, 33)] + ["reference", "wide"]


@pytest.fixture(params=COMPARISON_CASES)
def comparison_problem(request, ref_problem):
    """Instances on both sides of the float loop's feature cap and of the
    8 terms from which numpy's pairwise sum is a tree."""
    if request.param == "reference":
        return ref_problem
    if request.param == "wide":
        return random_problem(5, s=200, d=8)
    d = int(request.param[1:])
    return random_problem(60 + d, s=d + 4, d=d)


class TestComparisonTwin:
    # steps near 1 carry a product's last bit into the iterate; small ones round it away
    sched = StepSchedule.polynomial(d3=0.9, d2=0.05)

    def start(self, problem):
        return np.random.default_rng(problem.n_features).uniform(-3.0, 3.0, problem.n_features)

    def test_equals_a_numpy_loop_of_mean_field(self, comparison_problem):
        z0, sched = self.start(comparison_problem), self.sched
        zs = run_deterministic(comparison_problem, sched, 3, 700, z0)
        assert np.array_equal(zs, mean_field_loop(comparison_problem, sched, 3, 700, z0))

    def test_continued_runs_equal_the_whole_run(self, comparison_problem):
        z0, sched = self.start(comparison_problem), self.sched
        whole = run_deterministic(comparison_problem, sched, 0, 1100, z0)
        for split in (1, 1023, 1024, 1025):
            head = run_deterministic(comparison_problem, sched, 0, split, z0)
            tail = run_deterministic(comparison_problem, sched, split, 1100, head[-1])
            assert np.array_equal(np.concatenate([head, tail[1:]]), whole), split

    def test_stays_near_the_matrix_product_recursion(self, comparison_problem):
        z0, sched = self.start(comparison_problem), self.sched
        zs = run_deterministic(comparison_problem, sched, 0, 700, z0)
        blas = matrix_product_loop(comparison_problem, sched, 0, 700, z0)
        assert np.max(np.abs(zs - blas)) <= 1e-12 * max(1.0, float(np.max(np.abs(blas))))


def assert_decomposition(problem, schedule, states, xs, tol=1e-10):
    """drift + martingale term + state-sampling term = the raw update, per step."""
    steps = schedule.steps(0, len(states) - 1)
    for n, a in enumerate(steps):
        y, y_next, x = int(states[n]), int(states[n + 1]), xs[n]
        drift = a * (problem.mean_field(x) - x)
        martingale = a * (noise_matrix(problem, y, y_next) @ x)
        sampling = a * (state_map(problem, x, y) - problem.mean_field(x))
        gap = xs[n + 1] - x - drift - martingale - sampling
        assert float(np.max(np.abs(gap))) <= tol, f"step {n}"


class TestOnline:
    def test_single_state_noiseless_stationary(self, scalar, scalar_analytic):
        cfg = path_config(scalar, 100, scalar_analytic.x_star)
        rec = join_windows(simulate_trajectory(cfg, 0, scalar_analytic))
        assert np.max(np.abs(rec.x - 4.0)) <= 1e-12
        assert np.max(rec.dist_to_target) <= 1e-12

    def test_bitwise_reproducible(self, ref_problem, ref_analytic):
        cfg = path_config(ref_problem, 300, np.zeros(2), policy="fixed:1", seed=4)
        a = join_windows(simulate_trajectory(cfg, 2, ref_analytic))
        b = join_windows(simulate_trajectory(cfg, 2, ref_analytic))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.x, b.x)

    def test_decomposition_reconstructs_update(self, ref_analytic, ref_problem):
        cfg = path_config(ref_problem, 1000, np.zeros(2), seed=9)
        states, xs = engine_path(cfg, ref_analytic)
        assert_decomposition(ref_problem, cfg.schedule, states, xs)

    def test_decomposition_on_random_instances(self):
        for seed in (51, 52):
            p = random_problem(seed)
            cfg = path_config(
                p, 400, np.zeros(2), seed=seed, schedule=StepSchedule.polynomial(d3=0.6, d2=0.7)
            )
            states, xs = engine_path(cfg, solve_problem(p))
            assert_decomposition(p, cfg.schedule, states, xs)

    def test_peak_deviation_monotone_and_zero_at_start(self, ref_problem, ref_analytic):
        cfg = path_config(ref_problem, 400, np.ones(2), policy="fixed:2", seed=3)
        rec = join_windows(simulate_trajectory(cfg, 0, ref_analytic))
        assert rec.peak_deviation[0] == 0.0
        assert np.all(np.diff(rec.peak_deviation) >= 0.0)
        assert rec.peak_deviation[-1] == rec.dist_to_comparison.max() > 0.0

    def test_comparison_starts_equal(self, ref_problem, ref_analytic):
        cfg = path_config(ref_problem, 50, np.ones(2), seed=1)
        rec = join_windows(simulate_trajectory(cfg, 0, ref_analytic))
        assert_allclose(rec.x[0], rec.z[0])
        assert rec.dist_to_comparison[0] == 0.0

    def test_nonfinite_reported_with_step(self, ref_problem, ref_analytic):
        cfg = path_config(ref_problem, 10, [np.inf, 0.0], seed=2)
        with pytest.raises(NonFinite, match="step 1"):
            join_windows(simulate_trajectory(cfg, 0, ref_analytic))

    def test_martingale_terms_have_zero_conditional_mean(self, ref_problem, ref_analytic):
        # per-state empirical means over simulated transitions, 3 sigma band
        rng = stream(42)
        poisson = ref_analytic.poisson
        x = np.array([0.7, -0.4])
        n = 20_000
        for y in range(ref_problem.n_states):
            cum = ref_problem.chain.cumulative_rows()[y]
            nxt = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), 4)
            gap = ref_problem.phi[nxt] - ref_problem.next_phi[y]
            mart = ref_problem.gamma * np.outer(gap @ x, ref_problem.phi[y])
            off = poisson.offset[nxt] - poisson.expected_offset[y]
            lin = (poisson.linear[nxt] - poisson.expected_linear[y]) @ x
            for arr in (mart, off, lin):
                mean = arr.mean(axis=0)
                se = arr.std(axis=0, ddof=1) / np.sqrt(n)
                assert np.all(np.abs(mean) <= 3.0 * se + 1e-12)

    def test_csv_export(self, ref_problem, ref_analytic, tmp_path):
        cfg = path_config(ref_problem, 20, np.zeros(2))
        path = tmp_path / "traj.csv"
        windows = simulate_trajectory(cfg, 0, ref_analytic)
        cli._write_trajectory_csv(path, windows, include_components=True)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,state,dist_to_target,dist_to_comparison,peak_deviation,x0,x1"
        assert len(lines) == 22
