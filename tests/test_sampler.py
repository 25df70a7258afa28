"""The segment-wise path sampler against the whole-path reference sampler.

``harness._path_segments`` draws each trajectory's uniforms one segment of
``_DRAW`` steps at a time and picks the next state from a table of the
first s-1 CDF columns, read as (s-1, B) columns up to
``_TAKE_COLUMNS_MAX_S`` states and as (B, s-1) rows above; the oracle
``reference_paths`` draws the whole path at once and caps the full count
at s-1.  Every state must be equal.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tdlab import StepSchedule, solve_problem
from tdlab.harness import (
    _DRAW,
    _TAKE_COLUMNS_MAX_S,
    ExperimentConfig,
    StartError,
    _base_spec,
    _path_segments,
    _run_chunk,
    _sample_paths,
)

from conftest import random_problem
from oracles import reference_paths

HORIZONS = (0, 1, 63, 64, _DRAW - 1, _DRAW, _DRAW + 1, 2 * _DRAW + 1)


def path_spec(problem, analytic, horizon, policy="stationary", seed=23):
    config = ExperimentConfig(
        problem=problem,
        schedule=StepSchedule.harmonic(0.5),
        n0=0,
        horizon=max(horizon, 1),
        n_trajectories=1,
        master_seed=seed,
        epsilon=0.5,
        delta=0.25,
        initial_state_policy=policy,
    )
    return _base_spec(config, analytic, horizon=horizon)


def assert_equal_paths(spec, lo, hi):
    got = _sample_paths(spec, lo, hi)
    want = reference_paths(spec, lo, hi)
    assert got.shape == want.shape == (hi - lo, spec.horizon + 1)
    assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def wide():
    problem = random_problem(5, s=200, d=8)
    return problem, solve_problem(problem)


class TestReferenceTwins:
    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_column_layout(self, ref_problem, ref_analytic, horizon):
        assert ref_problem.n_states <= _TAKE_COLUMNS_MAX_S
        assert_equal_paths(path_spec(ref_problem, ref_analytic, horizon), 3, 20)

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_row_layout(self, wide, horizon):
        assert wide[0].n_states > _TAKE_COLUMNS_MAX_S
        assert_equal_paths(path_spec(*wide, horizon, policy="uniform"), 0, 7)

    def test_single_state_has_no_columns(self, scalar, scalar_analytic):
        spec = path_spec(scalar, scalar_analytic, _DRAW + 1)
        assert_equal_paths(spec, 0, 4)
        assert not _sample_paths(spec, 0, 4).any()

    @pytest.mark.parametrize("policy", ["stationary", "uniform", "fixed:3"])
    @pytest.mark.parametrize("lo, hi", [(5, 6), (0, 9)])
    def test_start_policies(self, ref_problem, ref_analytic, policy, lo, hi):
        assert_equal_paths(path_spec(ref_problem, ref_analytic, _DRAW + 1, policy), lo, hi)

    @pytest.mark.parametrize("policy", ["stationary", "fixed:150"])
    def test_start_policies_row_layout(self, wide, policy):
        assert_equal_paths(path_spec(*wide, 70, policy), 0, 3)


class TestSegments:
    def test_batch_rows_are_each_trajectory_alone(self, ref_problem, ref_analytic):
        spec = path_spec(ref_problem, ref_analytic, 2 * _DRAW + 1)
        batch = _sample_paths(spec, 2, 9)
        for i in range(2, 9):
            assert np.array_equal(batch[i - 2], _sample_paths(spec, i, i + 1)[0])

    def test_segments_chain_end_to_start(self, ref_problem, ref_analytic):
        spec = path_spec(ref_problem, ref_analytic, 2 * _DRAW + 1)
        full = reference_paths(spec, 0, 5)
        start = 0
        lengths = []
        for seg in _path_segments(spec, 0, 5):
            assert seg.dtype == np.intp and seg.shape[1] == 5
            assert np.array_equal(seg, full[:, start : start + len(seg)].T)
            lengths.append(len(seg) - 1)
            start += len(seg) - 1
        assert lengths == [_DRAW, _DRAW, 1]


class TestMemory:
    def test_run_chunk_peaks_below_a_full_path_array(self, ref_problem, ref_analytic):
        # the (B, T+1) int64 states alone would take 64 * 20 001 * 8 bytes
        B, T = 64, 20_000
        spec = replace(path_spec(ref_problem, ref_analytic, T), collectors=(StartError(),))
        tracemalloc.start()
        try:
            (start,) = _run_chunk((spec, 0, B))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(start.err))
        assert peak < B * (T + 1) * 8
