"""The time-blocked TD kernel against the per-step reference kernel.

``harness._simulate_chunk`` runs the update in blocks of ``_BLOCK`` steps
and feeds the collectors once per block; ``oracles.reference_chunk`` does
both one step at a time.  Every collector must agree: the noise sums
within 1e-12, everything else bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from tdlab import NonFinite, StepSchedule, solve_problem
from tdlab import harness
from tdlab.bounds import decay_curve
from tdlab.harness import (
    ExperimentConfig,
    _BLOCK,
    _base_spec,
    _run_ensemble,
    _sample_paths,
    _simulate_chunk,
)

from conftest import random_problem
from oracles import reference_chunk

COLLECTORS = (
    "err_n0",
    "max_excess",
    "per_m_counts",
    "err_max_per_m",
    "noise_sums",
    "diag_x",
    "err_matrix",
)


def full_spec(problem, analytic, n0, horizon, fit_ms=None, diag_ms=None, policy="stationary"):
    """A spec with every collector on, started away from the fixed point."""
    config = ExperimentConfig(
        problem=problem,
        schedule=StepSchedule.harmonic(0.5),
        n0=n0,
        horizon=horizon,
        n_trajectories=1,
        master_seed=11,
        epsilon=0.5,
        delta=0.25,
        initial_state_policy=policy,
        initial_x=analytic.x_star + 0.8,
    )
    if fit_ms is None:
        fit_ms = np.unique(np.linspace(n0, horizon - 1, 7).astype(np.int64))
    if diag_ms is None:
        diag_ms = np.unique(np.linspace(n0, horizon, 6).astype(np.int64))
    poisson = analytic.poisson
    return _base_spec(
        config,
        analytic,
        horizon=horizon,
        eps_grid=np.array([0.05, 0.2, 0.6]),
        decay=decay_curve(analytic.constants, config.schedule, n0, horizon),
        primary_eps=0.2,
        count_violations=True,
        track_noise_sum=True,
        offset_sol=poisson.offset,
        linear_sol=poisson.linear,
        expected_offset=poisson.expected_offset,
        expected_linear=poisson.expected_linear,
        fit_ms=np.asarray(fit_ms, dtype=np.int64),
        diag_ms=np.asarray(diag_ms, dtype=np.int64),
        want_err_matrix=True,
    )


def assert_twins(spec, lo, B):
    states = _sample_paths(spec, lo, lo + B)
    want = reference_chunk(spec, lo, states)
    # a floor at the median excess, so about half the (step, trajectory) cells count
    excess = want.err_matrix - spec.primary_eps * spec.decay[None, :]
    spec = replace(spec, primary_floor=float(np.median(excess)))
    want = reference_chunk(spec, lo, states)
    got = _simulate_chunk(spec, lo, states)
    assert (got.lo, got.hi) == (want.lo, want.hi) == (lo, lo + B)
    for name in COLLECTORS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.dtype == b.dtype, name
        if name == "noise_sums":  # the reference's stacked ``@`` rounds differently
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-12, name
        else:  # integers, and the iterates and errors bit for bit
            assert np.array_equal(a, b), name
    assert 0 < want.per_m_counts.sum() < want.err_matrix.size


@pytest.fixture(scope="module")
def wide():
    problem = random_problem(5, s=200, d=8)
    return problem, solve_problem(problem)


class TestBlockedKernelTwins:
    @pytest.mark.parametrize(
        "n0, horizon",
        [
            (100, 700),  # the block length divides neither n0 nor the horizon
            (0, 3 * _BLOCK),  # from step 0, the horizon on a block boundary
            (7, 40),  # horizon shorter than one block
            (150, 151),  # one step
            (_BLOCK, 2 * _BLOCK + 1),  # n0 on a block boundary
            (_BLOCK + 2, 3 * _BLOCK + 5),  # the block before n0 ends one step short of it
        ],
    )
    def test_reference_instance(self, ref_problem, ref_analytic, n0, horizon):
        assert_twins(full_spec(ref_problem, ref_analytic, n0, horizon), lo=3, B=13)

    @pytest.mark.parametrize("n0, horizon", [(30, 300), (0, 70)])
    def test_wide_instance(self, wide, n0, horizon):
        assert_twins(full_spec(*wide, n0, horizon, policy="uniform"), lo=0, B=9)

    def test_single_trajectory(self, ref_problem, ref_analytic):
        assert_twins(full_spec(ref_problem, ref_analytic, 0, 200), lo=41, B=1)

    def test_collection_points_on_block_boundaries(self, ref_problem, ref_analytic):
        n0, horizon = 20, 4 * _BLOCK
        edges = [n0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK - 1, horizon - 1]
        spec = full_spec(
            ref_problem, ref_analytic, n0, horizon,
            fit_ms=edges, diag_ms=sorted(set(edges + [horizon])),
        )
        assert_twins(spec, lo=0, B=6)


class TestInvariance:
    def test_batch_split_and_worker_count(self, ref_problem, ref_analytic):
        # D fitted, every collector on: the whole result, quantiles included
        def run(jobs, batch_size):
            cfg = ExperimentConfig(
                problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=80, horizon=400,
                n_trajectories=48, master_seed=314, epsilon=0.5, delta=0.25, batch_size=batch_size,
            )
            return harness.run_alltime_experiment(cfg, jobs=jobs, analytic=ref_analytic)

        base = run(1, 512)
        assert base.D_source == "fitted" and base.err_quantiles is not None
        for jobs, batch_size in [(1, 8), (1, 64), (2, 8)]:
            other = run(jobs, batch_size)
            assert other.as_dict() == base.as_dict()
            assert np.array_equal(other.per_m_err_max, base.per_m_err_max)
            for k in base.err_quantiles:
                assert np.array_equal(other.err_quantiles[k], base.err_quantiles[k])


def divergent_paths(spec, bad):
    """A sampler stand-in: every trajectory stays in state 0, except that
    trajectory i of ``bad`` sits in state 1 at step ``bad[i]``."""

    def sample(_spec, lo, hi):
        states = np.zeros((hi - lo, spec.horizon + 1), dtype=np.int64)
        for i, n in bad.items():
            if lo <= i < hi:
                states[i - lo, n] = 1
        return states

    return sample


class TestNonFinite:
    @pytest.mark.parametrize("batch_size", [4, 7, 8, 20])
    def test_first_bad_step_and_trajectory(self, ref_problem, ref_analytic, monkeypatch, batch_size):
        # state 1 has an infinite reward, so a trajectory's iterate becomes
        # non-finite one step after it sits there; 13 goes first, in the
        # third block, and 12 (a lower index, in the same batch) later
        spec = _base_spec(
            ExperimentConfig(
                problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=10,
                horizon=300, n_trajectories=20, master_seed=0, epsilon=0.5, delta=0.25,
            ),
            ref_analytic,
            horizon=300,
        )
        spec = replace(spec, rewards=np.array([0.0, np.inf, 0.0, 0.0, 0.0]))
        step = 2 * _BLOCK + 22
        monkeypatch.setattr(
            harness, "_sample_paths", divergent_paths(spec, {12: step + 19, 13: step, 14: step + 1})
        )
        with pytest.raises(NonFinite, match=f"trajectory 13 became non-finite at step {step + 1}$"):
            _run_ensemble(spec, 20, batch_size, 1)


class TestWorkerPool:
    @pytest.mark.parametrize("jobs, batches, workers", [(6, 3, 3), (2, 3, 2), (4, 4, 4)])
    def test_pool_capped_at_batch_count(self, ref_problem, ref_analytic, monkeypatch, jobs, batches, workers):
        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        cfg = ExperimentConfig(
            problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=10, horizon=30,
            n_trajectories=8 * batches, master_seed=0, epsilon=0.5, delta=0.25,
        )
        spec = _base_spec(cfg, ref_analytic, horizon=30)
        pooled = _run_ensemble(spec, cfg.n_trajectories, 8, jobs)
        serial = _run_ensemble(spec, cfg.n_trajectories, 8, 1)
        assert opened == [workers]
        assert np.array_equal(pooled.err_n0, serial.err_n0)

    def test_jobs_below_one_refused(self, ref_problem, ref_analytic):
        cfg = ExperimentConfig(
            problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=10, horizon=30,
            n_trajectories=4, master_seed=0, epsilon=0.5, delta=0.25,
        )
        with pytest.raises(harness.ValidationError, match="jobs"):
            _run_ensemble(_base_spec(cfg, ref_analytic, horizon=30), 4, 8, 0)
