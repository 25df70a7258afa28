"""The time-blocked TD kernel against the per-step reference kernel.

``harness._fill_rows`` runs the update along a lane's blocks of ``_BLOCK``
steps, one window of at most ``_DRAW`` steps per call, and feeds the
collectors once per block; ``oracles.reference_chunk`` does both one step
at a time along the whole path.  Every output of every collector must
agree: the noise sums within 1e-12, everything else bit for bit.  Each
collector's outputs are also the same whether it runs alone or alongside
all the others.
"""

import math
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
    _FLOAT_MAX_D,
    _base_spec,
    _Collector,
    _dsum,
    _fsum,
    _run_ensemble,
)

from conftest import random_problem
from oracles import ErrMatrix, _run_chunk, reference_chunk, sample_paths

KINDS = _Collector.__subclasses__()
# the per-trajectory outputs of each kind, a row per trajectory
OUTPUTS = {
    StartError: ("err",),
    Excess: ("max_excess",),
    ErrMatrix: ("matrix",),
    Checkpoints: ("x", "y"),
    NoiseSums: ("norms",),
}


def full_spec(problem, analytic, n0, horizon, fit_ms=None, diag_ms=None, policy="stationary"):
    """A spec started away from the fixed point, and a function that makes a
    new collector of every kind over its steps each time it is called."""
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

    def fresh():
        collectors = (
            StartError(),
            Excess(np.array([0.05, 0.2, 0.6]), decay),
            ErrMatrix(horizon - n0 + 1),
            Checkpoints(np.asarray(diag_ms, dtype=np.int64), problem.n_features),
            NoiseSums(
                np.asarray(fit_ms, dtype=np.int64), problem.gamma, problem.phi, problem.next_phi,
                analytic.poisson,
            ),
        )
        assert {type(c) for c in collectors} == set(KINDS) == set(OUTPUTS)
        return collectors

    return _base_spec(config, analytic, horizon), fresh


def by_kind(collectors):
    return {type(c): c for c in collectors}


def run_kinds(spec, collectors, n, batch_size, jobs, stats=None):
    """``_run_ensemble`` into ``collectors``; they come back by kind."""
    _run_ensemble(spec, collectors, n, batch_size, jobs, stats)
    return by_kind(collectors)


def assert_twins(spec, fresh, lo, B):
    states = sample_paths(spec, lo, lo + B)
    want, got = fresh(), fresh()
    reference_chunk(spec, want, lo, states)
    _run_chunk(spec, got, lo, lo + B)
    want, got = by_kind(want), by_kind(got)
    assert set(got) == set(want) == set(KINDS)
    assert bool(got[NoiseSums].table) == (harness._NOISE_TABLE_MAX_CELLS > 0)
    for kind, g in got.items():
        w = want[kind]
        for name in OUTPUTS[kind]:
            a, b = getattr(g, name), getattr(w, name)
            assert len(a) == len(b) == B, name  # a row per trajectory of the chunk
            assert a.shape == b.shape and a.dtype == b.dtype, name
            if kind is NoiseSums:  # the reference's stacked ``@`` rounds differently
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-12, name
            else:  # integers, and the iterates and errors bit for bit
                assert np.array_equal(a, b), name
    # the other side of the noise-table cap gives the same sums, bit for bit
    twin = by_kind(fresh())[NoiseSums]
    if twin.table is None:
        twin.table = noise_table(twin.phi, twin.next_phi, twin.gamma, twin.poisson)
    else:
        twin.table = None
    _run_chunk(spec, (twin,), lo, lo + B)
    assert np.array_equal(twin.norms, got[NoiseSums].norms)


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
        assert_twins(*full_spec(ref_problem, ref_analytic, n0, horizon), lo=3, B=13)

    @pytest.mark.parametrize("n0, horizon", [(30, 300), (0, 70)])
    def test_wide_instance(self, wide, n0, horizon):
        assert_twins(*full_spec(*wide, n0, horizon, policy="uniform"), lo=0, B=9)

    def test_single_trajectory(self, ref_problem, ref_analytic):
        assert_twins(*full_spec(ref_problem, ref_analytic, 0, 200), lo=41, B=1)

    @pytest.mark.parametrize("n0, horizon", [(30, 300), (0, 70)])
    def test_single_trajectory_wide(self, wide, n0, horizon):
        # d = 8, the first feature count whose sums take _dsum's tree
        assert_twins(*full_spec(*wide, n0, horizon, policy="uniform"), lo=4, B=1)

    @pytest.mark.parametrize("d", [*range(1, 10), _FLOAT_MAX_D, _FLOAT_MAX_D + 1])
    def test_single_trajectory_feature_counts(self, d):
        # one trajectory runs on Python floats up to _FLOAT_MAX_D features, on numpy above
        problem = random_problem(100 + d, s=d + 3, d=d)
        assert_twins(*full_spec(problem, solve_problem(problem), 10, 3 * _BLOCK + 5), lo=2, B=1)

    def test_collection_points_on_block_boundaries(self, ref_problem, ref_analytic):
        n0, horizon = 20, 4 * _BLOCK
        edges = [n0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK - 1, horizon - 1]
        spec, fresh = full_spec(
            ref_problem, ref_analytic, n0, horizon,
            fit_ms=edges, diag_ms=sorted(set(edges + [horizon])),
        )
        assert_twins(spec, fresh, lo=0, B=6)

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
        spec, fresh = full_spec(ref_problem, ref_analytic, n0, 3 * _BLOCK + 20, fit_ms=fit_ms)
        assert_twins(spec, fresh, lo=2, B=5)


@pytest.mark.usefixtures("no_noise_table")
class TestBlockedKernelTwinsPerState(TestBlockedKernelTwins):
    """The same twins on the per-state path above the noise-table cap."""


def signed_terms(d, seed):
    """d floats with both zeros, magnitudes spread over 40 decades, so that
    most other orders of addition round differently, and at random places
    an inf, a -inf or a NaN."""
    rng = np.random.default_rng(seed)
    p = rng.standard_normal(d) * 10.0 ** rng.integers(-20, 20, size=d)
    p[rng.random(d) < 0.2] = 0.0
    p[rng.random(d) < 0.2] = -0.0
    if seed % 4 == 1:
        p[rng.integers(d)] = np.inf
    elif seed % 4 == 2:
        p[rng.integers(d, size=2)] = [np.inf, -np.inf]
    elif seed % 4 == 3:
        p[rng.integers(d)] = np.nan
    return p


class TestFloatSum:
    @pytest.mark.parametrize("d", [*range(1, 21), *range(129, 141)])
    def test_equals_dsum_bit_for_bit(self, d):
        for seed in range(12):
            p = signed_terms(d, seed)
            with np.errstate(invalid="ignore"):  # inf - inf
                want = _dsum(p[:, None])[0]
            got = _fsum(p.tolist())
            assert type(got) is float
            assert np.array([got]).view(np.int64)[0] == np.array([want]).view(np.int64)[0], seed

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16])
    def test_signed_zeros(self, d):
        # -0.0 + -0.0 is -0.0, and -0.0 + 0.0 is 0.0, in either form
        for p in (np.full(d, -0.0), np.r_[-0.0, np.zeros(d - 1)], np.r_[np.full(d - 1, -0.0), 0.0]):
            want = _dsum(p[:, None])[0]
            assert math.copysign(1.0, _fsum(p.tolist())) == math.copysign(1.0, want)


class TestExcessMemory:
    def test_block_peak_below_three_error_blocks(self):
        # one (K', B) buffer for all epsilons, not a (K', B, n_eps) temporary
        err = np.random.default_rng(0).random((_BLOCK, 512))
        decay = np.linspace(1.0, 0.5, _BLOCK)
        ex = Excess(np.linspace(0.1, 0.5, 5), decay)
        ex.size(err.shape[1])
        blk = harness._Block(slice(0, err.shape[1]), 0, None, None, None, 0, 0, None, err)
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
        spec, fresh = full_spec(ref_problem, ref_analytic, 0, 700)
        alone = by_kind(fresh())[kind]
        _run_ensemble(spec, (alone,), 70, batch_size, 1)
        alongside = run_kinds(spec, fresh(), 70, batch_size, 1)[kind]
        for name in OUTPUTS[kind]:
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

    def test_one_trajectory_per_batch(self, ref_problem, ref_analytic):
        # at batch size 1 every lane runs on Python floats; at 8 and 64 none does
        def run(jobs, batch_size):
            cfg = ExperimentConfig(
                problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=80, horizon=400,
                n_trajectories=48, master_seed=314, epsilon=0.5, delta=0.25, batch_size=batch_size,
            )
            return harness.run_alltime_experiment(cfg, jobs=jobs, analytic=ref_analytic)

        base = run(1, 1)
        assert base.D_source == "fitted"
        for jobs, batch_size in [(1, 8), (1, 64), (2, 1)]:
            other = run(jobs, batch_size)
            assert other.as_dict() == base.as_dict()
            assert np.array_equal(other.per_m_err_max, base.per_m_err_max)
            for k in base.err_quantiles:
                assert np.array_equal(other.err_quantiles[k], base.err_quantiles[k])


def divergent_paths(spec, bad):
    """A sampler stand-in: every trajectory stays in state 0, except that
    trajectory i of ``bad`` sits in state 1 at step ``bad[i]``; the states
    come in blocks of ``_BLOCK`` steps, as the sampler's do."""

    def sample(_spec, lo, hi):
        states = np.zeros((hi - lo, spec.horizon + 1), dtype=np.int64)
        for i, n in bad.items():
            if lo <= i < hi:
                states[i - lo, n] = 1
        for bs in range(0, spec.horizon, _BLOCK):
            yield states[:, bs : bs + _BLOCK + 1].T

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
            _run_ensemble(spec, (), 20, batch_size, 1)

    def test_one_trajectory_per_batch(self, ref_problem, ref_analytic, monkeypatch):
        # every lane on Python floats, which overflow to inf and NaN without raising
        self.test_first_bad_step_and_trajectory(ref_problem, ref_analytic, monkeypatch, 1)


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
        spec = _base_spec(cfg, ref_analytic, 30)
        pooled, serial = StartError(), StartError()
        _run_ensemble(spec, (pooled,), cfg.n_trajectories, 8, jobs)
        _run_ensemble(spec, (serial,), cfg.n_trajectories, 8, 1)
        assert len(started) == workers
        assert np.array_equal(pooled.err, serial.err)

    def test_jobs_below_one_refused(self, ref_problem, ref_analytic):
        cfg = ExperimentConfig(
            problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=10, horizon=30,
            n_trajectories=4, master_seed=0, epsilon=0.5, delta=0.25,
        )
        with pytest.raises(harness.ValidationError, match="jobs"):
            _run_ensemble(_base_spec(cfg, ref_analytic, horizon=30), (), 4, 8, 0)
