import numpy as np
import pytest
from numpy.testing import assert_allclose

from tdlab import (
    InsufficientTailData,
    StepSchedule,
    ValidationError,
    fit_tail_exponent,
    solve_problem,
)
from tdlab import harness
from tdlab.bounds import decay_curve, floor_term
from tdlab.harness import (
    Checkpoints,
    Excess,
    ExperimentConfig,
    NoiseSums,
    estimate_p_init,
    run_alltime_experiment,
    wilson_interval,
    _base_spec,
    _run_ensemble,
    _sample_paths,
)

from conftest import random_problem
from oracles import convergence_diagnostics, linear_noise, noise_matrix, offset_noise


def small_config(problem, analytic=None, **kw):
    defaults = dict(
        n0=80,
        horizon=400,
        n_trajectories=60,
        master_seed=314,
        epsilon=0.5,
        delta=0.25,
        batch_size=16,
    )
    defaults.update(kw)
    return ExperimentConfig(problem=problem, schedule=StepSchedule.harmonic(0.5), **defaults)


class TestWilson:
    def test_extreme_counts_stay_in_unit_interval(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and 0.0 < hi < 0.2
        lo, hi = wilson_interval(50, 50)
        assert 0.8 < lo < 1.0 and hi == 1.0

    def test_extremes_exact_for_every_sample_count(self):
        for n in range(1, 2001):
            assert wilson_interval(0, n)[0] == 0.0
            assert wilson_interval(n, n)[1] == 1.0

    def test_half_is_symmetric(self):
        lo, hi = wilson_interval(20, 40)
        assert_allclose(0.5 - lo, hi - 0.5, rtol=1e-12)

    def test_needs_samples(self):
        with pytest.raises(ValidationError):
            wilson_interval(0, 0)


class TestEstimatePInit:
    def test_zero_when_epsilon_dominates(self, ref_problem, ref_analytic):
        cfg = small_config(ref_problem, epsilon=1.0)
        assert estimate_p_init(cfg, analytic=ref_analytic).value == 0.0

    def test_noiseless_start_at_target(self, scalar, scalar_analytic):
        cfg = small_config(scalar, initial_x=scalar_analytic.x_star, epsilon=0.5)
        assert estimate_p_init(cfg, analytic=scalar_analytic).value == 0.0

    def test_exactly_non_increasing_in_epsilon(self, ref_problem, ref_analytic):
        # same streams for every epsilon, so the empirical CDF is reused exactly
        values = [
            estimate_p_init(
                small_config(ref_problem, epsilon=eps), analytic=ref_analytic
            ).value
            for eps in (0.01, 0.02, 0.04, 0.08, 0.2)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] > values[-1]  # the grid actually spans the distribution

    def test_matches_full_run(self, ref_problem, ref_analytic):
        cfg = small_config(ref_problem, epsilon=0.03)
        standalone = estimate_p_init(cfg, analytic=ref_analytic)
        full = run_alltime_experiment(cfg, analytic=ref_analytic)
        assert standalone.value == full.empirical_p_init


class TestFitTailExponent:
    def model_points(self, d_true=2.0, dims=2):
        points = []
        for weight in (0.5, 0.1, 0.02, 0.004):
            for delta in (0.05, 0.1, 0.2, 0.4):
                p = 2.0 * dims * np.exp(-d_true * delta**2 / weight)
                if 0.0 < p < 1.0:
                    points.append((p, delta, weight, dims))
        assert len(points) >= 6
        return points

    def test_exact_model_recovered(self):
        fit = fit_tail_exponent(self.model_points(2.0))
        assert_allclose(fit.value, 2.0, rtol=1e-12)
        assert_allclose(fit.conservative, 2.0, rtol=1e-12)
        assert fit.residual_rms <= 1e-12

    def test_delta_rescaling_invariance_on_exact_data(self):
        # scaling every delta by c and weights by c^2 leaves the exponent fixed
        pts = self.model_points(3.0)
        scaled = [(p, 2.0 * d, 4.0 * w, k) for p, d, w, k in pts]
        assert_allclose(fit_tail_exponent(scaled).value, 3.0, rtol=1e-12)

    def test_degenerate_frequencies_rejected(self):
        with pytest.raises(InsufficientTailData):
            fit_tail_exponent([(0.0, 0.1, 0.5, 2), (1.0, 0.2, 0.5, 2)])

    def test_simulation_fit_runs(self, ref_problem, ref_analytic):
        cfg = small_config(ref_problem, n_trajectories=120, horizon=800)
        fit = run_alltime_experiment(cfg, analytic=ref_analytic).fitted
        assert fit.value > 0.0
        assert fit.n_points >= 3


class TestTailStartIndex:
    @pytest.fixture
    def no_ensemble(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an ensemble ran before the start index was checked")

        monkeypatch.setattr(harness, "_run_ensemble", refuse)

    @pytest.mark.parametrize("D_const", [1.0, None])  # given; fitted on the noisy reference
    def test_tail_constant_needs_n0_at_least_1(self, ref_problem, ref_analytic, no_ensemble, D_const):
        cfg = small_config(ref_problem, n0=0, D_const=D_const)
        with pytest.raises(ValidationError, match=r"^n0: a tail constant D needs n0 >= 1, got 0$"):
            run_alltime_experiment(cfg, analytic=ref_analytic)

    def test_noiseless_without_d_runs_at_n0_0(self, scalar, scalar_analytic):
        result = run_alltime_experiment(small_config(scalar, n0=0), analytic=scalar_analytic)
        assert result.D_source == "noiseless" and result.D_used is None


class TestAllTimeExperiment:
    def test_pure_function_of_config(self, ref_problem, ref_analytic):
        cfg = small_config(ref_problem)
        a = run_alltime_experiment(cfg, analytic=ref_analytic).as_dict()
        b = run_alltime_experiment(cfg, analytic=ref_analytic).as_dict()
        assert a == b
        # the reference instance is noisy, so an unset D is fitted
        assert a["D_source"] == "fitted"
        assert a["D_used"] == a["fitted_D"] > 0.0

    def test_invariant_to_worker_count(self, ref_problem, ref_analytic):
        cfg = small_config(ref_problem, n_trajectories=48, batch_size=8)
        serial = run_alltime_experiment(cfg, jobs=1, analytic=ref_analytic).as_dict()
        parallel = run_alltime_experiment(cfg, jobs=2, analytic=ref_analytic).as_dict()
        assert serial == parallel

    def test_noiseless_single_state_never_violates(self, scalar, scalar_analytic):
        cfg = small_config(scalar, initial_x=scalar_analytic.x_star, n_trajectories=20)
        res = run_alltime_experiment(cfg, analytic=scalar_analytic)
        assert res.violations == 0
        assert res.empirical_alltime_prob == 1.0
        assert np.all(res.per_m_violation_counts == 0)

    def test_given_d_is_used_unchanged(self, ref_problem, ref_analytic):
        cfg = small_config(ref_problem, D_const=0.75)
        res = run_alltime_experiment(cfg, analytic=ref_analytic).as_dict()
        assert res["D_source"] == "given"
        assert res["D_used"] == 0.75
        assert res["fitted_D"] is None and res["fit"] is None
        assert res["tail_sum"] > 0.0

    def test_noiseless_tail_is_zero_without_d(self, scalar, scalar_analytic):
        # the one-state path is deterministic: the error at n0 is about 0.46
        kw = dict(n_trajectories=20, initial_x=scalar_analytic.x_star + 0.6)
        cfg = small_config(
            scalar, epsilon=0.2, epsilon_grid=(0.5, 1.0), delta_grid=(0.5,), **kw
        )
        res = run_alltime_experiment(cfg, analytic=scalar_analytic)
        assert res.D_source == "noiseless"
        assert res.D_used is None and res.fitted is None
        assert res.tail.tail_sum == 0.0
        assert res.theoretical_lower_bound == 1.0 - res.empirical_p_init == 0.0
        bounds = set()
        for row in res.grid:
            p_init = estimate_p_init(
                small_config(scalar, epsilon=row.epsilon, **kw), analytic=scalar_analytic
            ).value
            assert row.tail_sum == 0.0
            assert row.theoretical_lower_bound == 1.0 - p_init
            bounds.add(row.theoretical_lower_bound)
        assert bounds == {0.0, 1.0}

    def test_inflated_radius_never_violates(self, ref_problem, ref_analytic):
        # delta at its cap pushes the floor far above any observed error
        cfg = small_config(ref_problem, delta=1.0)
        res = run_alltime_experiment(cfg, analytic=ref_analytic)
        assert res.floor > 10.0
        assert res.violations == 0

    def test_violations_exactly_monotone_and_consistent(self, ref_problem, ref_analytic):
        # start far from the fixed point so the small-delta floors are crossed
        c = ref_analytic.constants
        sched = StepSchedule.harmonic(0.5)
        far = ref_analytic.x_star + np.array([2.2, 0.0])
        cfg = small_config(
            ref_problem, n_trajectories=200, n0=100, horizon=600,
            epsilon=0.045, initial_x=far, batch_size=64,
        )
        spec = _base_spec(cfg, ref_analytic, cfg.horizon, (Excess(
            np.array([cfg.epsilon]),
            decay_curve(c, sched, cfg.n0, cfg.horizon),
            cfg.epsilon,
            floor_term(c, sched, cfg.n0, cfg.epsilon, cfg.delta),
        ),))
        (out,) = _run_ensemble(spec, cfg.n_trajectories, cfg.batch_size, 1)
        excess = out.max_excess[:, 0]
        a0 = sched.step(cfg.n0)
        margin = 1.0 - c.alpha - a0 * c.remainder_gain
        base = a0 * (c.remainder_offset + c.remainder_gain * cfg.epsilon)
        targets = np.quantile(excess, [0.15, 0.4, 0.6, 0.85])
        deltas = sorted(float(t * margin - base) for t in targets) + [1.0]
        assert all(0.0 < d <= 1.0 for d in deltas)

        cfg2 = small_config(
            ref_problem, n_trajectories=200, n0=100, horizon=600,
            epsilon=0.045, initial_x=far, batch_size=64,
            delta=deltas[2], delta_grid=tuple(deltas),
        )
        res = run_alltime_experiment(cfg2, analytic=ref_analytic)
        rows = [r for r in res.grid if r.epsilon == cfg2.epsilon]
        rows.sort(key=lambda r: r.delta)
        counts = [r.violations for r in rows]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > counts[-1]  # the grid genuinely separates
        # grid rows agree with a direct recount from the same ensemble
        for row in rows:
            flr = floor_term(c, sched, cfg2.n0, row.epsilon, row.delta)
            assert row.violations == int(np.count_nonzero(excess > flr))
        # every all-time violation shows up in the per-step counts
        assert res.violations <= int(res.per_m_violation_counts.sum())

    def test_wall_time_excluded_from_serialization(self, ref_problem, ref_analytic):
        res = run_alltime_experiment(small_config(ref_problem), analytic=ref_analytic)
        assert res.wall_time > 0.0
        assert "wall_time" not in res.as_dict()


class TestDiagnostics:
    def test_noiseless_error_decays_monotonically(self, scalar, scalar_analytic):
        cfg = small_config(scalar, n_trajectories=4, initial_x=np.array([1.0]), n0=0)
        diag = convergence_diagnostics(
            cfg, checkpoints=[1, 10, 100, 400], analytic=scalar_analytic
        )
        assert np.all(np.diff(diag.median) < 0.0)

    def test_deterministic_given_seed(self, ref_problem, ref_analytic):
        cfg = small_config(ref_problem, n0=0)
        a = convergence_diagnostics(cfg, analytic=ref_analytic).as_dict()
        b = convergence_diagnostics(cfg, analytic=ref_analytic).as_dict()
        assert a == b

    def test_checkpoint_validation(self, ref_problem, ref_analytic):
        cfg = small_config(ref_problem)
        with pytest.raises(ValidationError):
            convergence_diagnostics(cfg, checkpoints=[5], analytic=ref_analytic)

    @pytest.mark.parametrize("jobs, batch_size", [(1, 8), (1, 64), (2, 8), (2, 64)])
    def test_experiment_pass_matches_standalone(self, ref_problem, ref_analytic, jobs, batch_size):
        cfg = small_config(ref_problem, n_trajectories=48, batch_size=batch_size)
        folded = run_alltime_experiment(cfg, jobs=jobs, analytic=ref_analytic).diagnostics
        alone = convergence_diagnostics(cfg, jobs=jobs, analytic=ref_analytic)
        for name in ("checkpoints", "median", "q25", "q75"):
            assert np.array_equal(getattr(folded, name), getattr(alone, name))
        assert folded.as_dict() == alone.as_dict()

    def test_duplicate_checkpoints_collected_once(self, scalar, scalar_analytic):
        cfg = small_config(scalar, n_trajectories=4, initial_x=np.array([1.0]), n0=0)
        diag = convergence_diagnostics(cfg, checkpoints=[100, 10, 100], analytic=scalar_analytic)
        once = convergence_diagnostics(cfg, checkpoints=[10, 100], analytic=scalar_analytic)
        assert diag.as_dict() == once.as_dict()

    def test_harmonic_slope_reported(self, ref_problem, ref_analytic):
        cfg = small_config(ref_problem, n_trajectories=40, n0=0, horizon=2000)
        diag = convergence_diagnostics(cfg, analytic=ref_analytic)
        assert diag.loglog_slope is not None
        assert diag.loglog_slope < 0.0


class TestNoiseSums:
    @pytest.mark.parametrize("instance", ["reference", "random"])
    def test_harness_sums_match_recomputed(self, ref_problem, ref_analytic, instance):
        # S_n = (1 - a_n) S_{n-1} + a_n xi_n from n0 on, with xi_n recomputed here
        # from the noise matrix and the Poisson increments along the engine's path
        if instance == "reference":
            problem, analytic = ref_problem, ref_analytic
        else:
            problem = random_problem(61)
            analytic = solve_problem(problem)
        cfg = small_config(problem, n_trajectories=6, n0=20, horizon=300, batch_size=4)
        n0, T = cfg.n0, cfg.horizon
        poisson = analytic.poisson
        spec = _base_spec(cfg, analytic, T, (
            # S_n after every step n in [n0, T)
            NoiseSums(np.arange(n0, T), problem.gamma, problem.phi, problem.next_phi, poisson),
            # the iterate x_n at every step from n0
            Checkpoints(np.arange(n0, T + 1), problem.n_features),
        ))
        noise, chk = _run_ensemble(spec, cfg.n_trajectories, cfg.batch_size, 1)
        states = _sample_paths(spec, 0, cfg.n_trajectories)
        steps = cfg.schedule.steps(0, T)
        for i in range(cfg.n_trajectories):
            S = np.zeros(problem.n_features)
            norms = []
            for n in range(n0, T):
                y, y_next, x = int(states[i, n]), int(states[i, n + 1]), chk.x[i, n - n0]
                xi = (
                    noise_matrix(problem, y, y_next) @ x
                    + linear_noise(poisson, y, y_next) @ x
                    + offset_noise(poisson, y, y_next)
                )
                S = (1.0 - steps[n]) * S + steps[n] * xi
                norms.append(np.linalg.norm(S))
            assert np.max(np.abs(np.array(norms) - noise.norms[i])) <= 1e-12
            assert np.max(norms) > 0.0


@pytest.mark.usefixtures("no_noise_table")
class TestNoiseSumsPerState(TestNoiseSums):
    """The same sums on the per-state path above the noise-table cap."""


class TestErrQuantiles:
    @pytest.mark.parametrize("n, span", [(1, 7), (2, 5), (9, 2500), (40, 1024)])
    def test_sorted_slices_equal_one_percentile(self, n, span):
        # a window of the ring is (steps, n): each row is one step's column of the (n, span) matrix
        rng = np.random.default_rng(n)
        matrix = rng.random((n, span)).astype(np.float32)
        matrix[:, ::3] = np.round(matrix[:, ::3], 1)  # ties within a column
        matrix[:, 1] = 0.25  # a column of one value
        window = matrix.T.copy()
        want = np.percentile(matrix, [25, 50, 75, 90], axis=0)
        got = harness._err_quantiles(window)
        assert list(got) == ["q25", "q50", "q75", "q90"]
        for q, w in zip(got.values(), want):
            assert q.dtype == w.dtype and np.array_equal(q, w)
        assert np.array_equal(window, np.sort(matrix.T, axis=1))  # sorted in place, each row its own numbers
