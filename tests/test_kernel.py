"""The time-blocked TD kernel against the per-step reference kernel.

``harness._simulate_chunk`` runs the update in blocks of ``_BLOCK`` steps
over path segments of ``_DRAW`` steps and feeds the collectors once per
block; ``oracles.reference_chunk`` does both one step at a time along the
whole path.  Every output of every collector must agree: the noise sums
within 1e-12, everything else bit for bit.  Each collector's outputs are
also the same whether it runs alone or alongside all the others.
"""

import copy
import tracemalloc
from dataclasses import replace
from multiprocessing.context import ForkProcess

import numpy as np
import pytest

from tdlab import NonFinite, StepSchedule, solve_problem
from tdlab import harness
from tdlab.analytic import noise_table
from tdlab.bounds import decay_curve
from tdlab.harness import (
    Checkpoints,
    Excess,
    ExperimentConfig,
    NoiseSums,
    StartError,
    _BLOCK,
    _DRAW,
    _base_spec,
    _Collector,
    _run_ensemble,
    _sample_paths,
)

from conftest import random_problem
from oracles import ErrMatrix, _run_chunk, reference_chunk

KINDS = _Collector.__subclasses__()


def full_spec(problem, analytic, n0, horizon, fit_ms=None, diag_ms=None, policy="stationary"):
    """A spec with one collector of every kind, started away from the fixed point."""
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
    decay = decay_curve(analytic.constants, config.schedule, n0, horizon)
    collectors = (
        StartError(),
        Excess(np.array([0.05, 0.2, 0.6]), decay, 0.2, np.inf),
        ErrMatrix(horizon - n0 + 1),
        Checkpoints(np.asarray(diag_ms, dtype=np.int64), problem.n_features),
        NoiseSums(
            np.asarray(fit_ms, dtype=np.int64), problem.gamma, problem.phi, problem.next_phi,
            analytic.poisson,
        ),
    )
    assert {type(c) for c in collectors} == set(KINDS)
    return _base_spec(config, analytic, horizon, collectors)


def by_kind(parts):
    return {type(c): c for c in parts}


def assert_twins(spec, lo, B):
    states = _sample_paths(spec, lo, lo + B)
    want = by_kind(reference_chunk(spec, lo, states))
    # a floor at the median excess, so about half the (step, trajectory) cells count
    ex = want[Excess]
    floor = float(np.median(want[ErrMatrix].matrix - ex.eps * ex.decay[None, :]))
    spec = replace(spec, collectors=tuple(
        replace(c, floor=floor) if isinstance(c, Excess) else c for c in spec.collectors
    ))
    want = by_kind(reference_chunk(spec, lo, states))
    got = by_kind(_run_chunk((spec, lo, lo + B)))
    assert set(got) == set(want) == set(KINDS)
    assert bool(got[NoiseSums].table) == (harness._NOISE_TABLE_MAX_CELLS > 0)
    for kind, g in got.items():
        w = want[kind]
        assert (g.lo, g.hi) == (w.lo, w.hi) == (lo, lo + B)
        for name in kind.outputs:
            a, b = getattr(g, name), getattr(w, name)
            assert a.shape == b.shape and a.dtype == b.dtype, name
            if kind is NoiseSums:  # the reference's stacked ``@`` rounds differently
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-12, name
            else:  # integers, and the iterates and errors bit for bit
                assert np.array_equal(a, b), name
    assert 0 < want[Excess].counts.sum() < want[ErrMatrix].matrix.size
    # the other side of the noise-table cap gives the same sums, bit for bit
    (noise,) = [c for c in spec.collectors if isinstance(c, NoiseSums)]
    twin = copy.copy(noise)
    twin.table = None
    if noise.table is None:
        twin.table = noise_table(noise.phi, noise.next_phi, noise.gamma, noise.poisson)
    (other,) = _run_chunk((replace(spec, collectors=(twin,)), lo, lo + B))
    assert np.array_equal(other.norms, got[NoiseSums].norms)


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
            (0, _DRAW),  # the horizon on a segment boundary
            (_DRAW - 1, _DRAW + 1),  # n0 and the horizon one step either side of it
            (_DRAW, 2 * _DRAW + 1),  # n0 on a segment boundary, one step into a third segment
            (_DRAW + 1, 2 * _DRAW - 1),  # n0 just after a boundary, the horizon just before one
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

    @pytest.mark.parametrize(
        "n0, fit_ms",
        [
            (10, [20, 40]),  # two fit steps in one block
            (10, [10, 100]),  # a fit step at n0, inside a block
            (_BLOCK, [_BLOCK, 2 * _BLOCK]),  # a fit step at n0 on a block boundary
            (10, [_BLOCK - 1, 2 * _BLOCK - 1]),  # on the last step of a block
            (10, [3 * _BLOCK + 19]),  # at horizon - 1 only
            (10, [70, 71, 72, 73, 3 * _BLOCK + 18, 3 * _BLOCK + 19]),  # consecutive
        ],
        ids=["two-in-a-block", "at-n0", "at-n0-on-a-boundary", "block-end", "horizon-1", "consecutive"],
    )
    def test_noise_fold_split_points(self, ref_problem, ref_analytic, n0, fit_ms):
        spec = full_spec(ref_problem, ref_analytic, n0, 3 * _BLOCK + 20, fit_ms=fit_ms)
        assert_twins(spec, lo=2, B=5)


@pytest.mark.usefixtures("no_noise_table")
class TestBlockedKernelTwinsPerState(TestBlockedKernelTwins):
    """The same twins on the per-state path above the noise-table cap."""


class TestExcessMemory:
    def test_block_peak_below_three_error_blocks(self):
        # one (K', B) buffer for all epsilons, not a (K', B, n_eps) temporary
        err = np.random.default_rng(0).random((_BLOCK, 512))
        decay = np.linspace(1.0, 0.5, _BLOCK)
        ex = Excess(np.linspace(0.1, 0.5, 5), decay, 0.3, 0.1).empty(0, err.shape[1])
        blk = harness._Block(0, None, None, None, 0, 0, None, err)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ex.update(blk)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert 0 < peak < 3 * err.nbytes


class TestCollectorIndependence:
    @pytest.mark.parametrize("batch_size", [8, 64])
    @pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.__name__)
    def test_alone_equals_alongside_the_others(self, ref_problem, ref_analytic, kind, batch_size):
        spec = full_spec(ref_problem, ref_analytic, 0, 700)
        (collector,) = [c for c in spec.collectors if isinstance(c, kind)]
        (alone,) = _run_ensemble(replace(spec, collectors=(collector,)), 70, batch_size, 1)
        alongside = by_kind(_run_ensemble(spec, 70, batch_size, 1))[kind]
        for name in kind.outputs:
            assert np.array_equal(getattr(alone, name), getattr(alongside, name)), name


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
    trajectory i of ``bad`` sits in state 1 at step ``bad[i]``; the whole
    path is one segment."""

    def sample(_spec, lo, hi):
        states = np.zeros((hi - lo, spec.horizon + 1), dtype=np.int64)
        for i, n in bad.items():
            if lo <= i < hi:
                states[i - lo, n] = 1
        return [states.T]

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
            harness, "_path_segments", divergent_paths(spec, {12: step + 19, 13: step, 14: step + 1})
        )
        with pytest.raises(NonFinite, match=f"trajectory 13 became non-finite at step {step + 1}$"):
            _run_ensemble(spec, 20, batch_size, 1)


class TestWorkerPool:
    @pytest.mark.parametrize("jobs, batches, workers", [(6, 3, 3), (2, 3, 2), (4, 4, 4)])
    def test_pool_capped_at_batch_count(self, ref_problem, ref_analytic, monkeypatch, jobs, batches, workers):
        started = []
        start = ForkProcess.start

        def recording(self):
            started.append(self)
            start(self)

        monkeypatch.setattr(ForkProcess, "start", recording)
        cfg = ExperimentConfig(
            problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=10, horizon=30,
            n_trajectories=8 * batches, master_seed=0, epsilon=0.5, delta=0.25,
        )
        spec = _base_spec(cfg, ref_analytic, 30, (StartError(),))
        (pooled,) = _run_ensemble(spec, cfg.n_trajectories, 8, jobs)
        (serial,) = _run_ensemble(spec, cfg.n_trajectories, 8, 1)
        assert len(started) == workers
        assert np.array_equal(pooled.err, serial.err)

    def test_jobs_below_one_refused(self, ref_problem, ref_analytic):
        cfg = ExperimentConfig(
            problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=10, horizon=30,
            n_trajectories=4, master_seed=0, epsilon=0.5, delta=0.25,
        )
        with pytest.raises(harness.ValidationError, match="jobs"):
            _run_ensemble(_base_spec(cfg, ref_analytic, horizon=30), 4, 8, 0)
