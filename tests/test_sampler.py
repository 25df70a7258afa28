"""The segment-wise path sampler against the whole-path reference sampler.

``harness._path_segments`` draws each trajectory's uniforms one window of
at most ``_DRAW`` steps at a time and yields the states one block of
``_BLOCK`` steps at a time.  The next state is the count of the first s-1
CDF entries of the current row at or below the uniform u.  Up to
``_TAKE_COLUMNS_MAX_S`` states each step compares u with the whole row,
read as (s-1, B) CDF columns.  Above it each step reads a guide table
(``harness._guide_table``): the count at or below the bucket edge b/G with
b = floor(u*G), plus the count at or below u of the next w entries.  The
oracle ``reference_paths`` draws the whole path at once and caps the full
count at s-1.  Every state must be equal, in both layouts.

The guide lookup is also pinned against a per-row ``searchsorted`` on CDF
rows built to hit its edges: entries exactly on b/G, repeated and trailing
1.0 entries (states of probability 0), uniforms on and just below b/G and
at 1 - 2^-53, and a row whose mass sits below 1/G, so that w >= s/2.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tdlab import StepSchedule, solve_problem
import tdlab.harness as harness
from tdlab.harness import (
    _BLOCK,
    _DRAW,
    _GUIDE_MAX_CELLS,
    _TAKE_COLUMNS_MAX_S,
    ExperimentConfig,
    StartError,
    _base_spec,
    _guide_table,
    _path_segments,
)

from conftest import random_problem
from oracles import _run_chunk, reference_paths, sample_paths

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
    got = sample_paths(spec, lo, hi)
    want = reference_paths(spec, lo, hi)
    assert got.shape == want.shape == (hi - lo, spec.horizon + 1)
    assert np.array_equal(got, want)


@pytest.fixture(scope="module")
def wide():
    problem = random_problem(5, s=200, d=8)
    return problem, solve_problem(problem)


@pytest.fixture(scope="module", params=[_TAKE_COLUMNS_MAX_S + 1, 33, 600])
def sized(request):
    """Random chains just above the column limit, just above the earlier
    limit of 32, and past s = 512, where int64 search keys would overflow."""
    problem = random_problem(request.param, s=request.param, d=3)
    return problem, solve_problem(problem)


@pytest.fixture(params=["columns", "guide"])
def layout(request, monkeypatch):
    """Route every chain through one branch of ``_path_segments``."""
    monkeypatch.setattr(harness, "_TAKE_COLUMNS_MAX_S", 10**9 if request.param == "columns" else 0)
    return request.param


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
        assert not sample_paths(spec, 0, 4).any()

    @pytest.mark.parametrize("policy", ["stationary", "uniform", "fixed:3"])
    @pytest.mark.parametrize("lo, hi", [(5, 6), (0, 9)])
    def test_start_policies(self, ref_problem, ref_analytic, policy, lo, hi):
        assert_equal_paths(path_spec(ref_problem, ref_analytic, _DRAW + 1, policy), lo, hi)

    @pytest.mark.parametrize("policy", ["stationary", "fixed:150"])
    def test_start_policies_row_layout(self, wide, policy):
        assert_equal_paths(path_spec(*wide, 70, policy), 0, 3)

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_one_trajectory(self, ref_problem, ref_analytic, scalar, scalar_analytic, wide, horizon):
        # one trajectory takes each state by bisect on Python floats
        assert_equal_paths(path_spec(ref_problem, ref_analytic, horizon), 5, 6)
        assert_equal_paths(path_spec(scalar, scalar_analytic, horizon), 2, 3)
        assert_equal_paths(path_spec(*wide, horizon, policy="uniform"), 4, 5)

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_one_trajectory_sizes(self, sized, horizon):
        assert_equal_paths(path_spec(*sized, horizon, policy="uniform"), 6, 7)


class TestBothLayouts:
    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_reference(self, layout, ref_problem, ref_analytic, horizon):
        assert_equal_paths(path_spec(ref_problem, ref_analytic, horizon), 3, 20)

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_scalar(self, layout, scalar, scalar_analytic, horizon):
        assert_equal_paths(path_spec(scalar, scalar_analytic, horizon), 0, 4)

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_wide(self, layout, wide, horizon):
        assert_equal_paths(path_spec(*wide, horizon, policy="uniform"), 0, 7)

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_sizes(self, layout, sized, horizon):
        assert_equal_paths(path_spec(*sized, horizon, policy="uniform"), 2, 9)

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_one_trajectory(self, layout, scalar, scalar_analytic, wide, sized, horizon):
        # whichever layout wider batches read, one trajectory gives the same states
        assert_equal_paths(path_spec(scalar, scalar_analytic, horizon), 1, 2)
        assert_equal_paths(path_spec(*wide, horizon, policy="uniform"), 3, 4)
        assert_equal_paths(path_spec(*sized, horizon, policy="uniform"), 8, 9)


def guide_size(s):
    """The table's bucket count below its cell cap: the smallest power of two >= 4s."""
    return 1 << (4 * s - 1).bit_length()


def edge_cdf(s, G):
    """Nondecreasing (s, s-1) CDF rows that hit the guide lookup's edges."""
    rng = np.random.default_rng(s)
    rows = [
        np.arange(1, s) / G,  # every entry exactly on a bucket edge
        np.sort(rng.integers(0, G + 1, size=s - 1)) / G,  # edges, repeated, and 1.0
        np.minimum(np.cumsum(rng.dirichlet(np.ones(s)))[: s - 1], 1.0),
        np.r_[np.sort(rng.random(s // 2)), np.ones(s - 1 - s // 2)],  # trailing 1.0
        np.r_[np.full(s // 3, 0.25), np.full(s - 1 - s // 3, 0.5)],  # repeated edges
        np.zeros(s - 1),
    ]
    rows += [np.sort(rng.random(s - 1)) for _ in range(s - len(rows))]
    return np.array(rows)


def crowded_cdf(s, G):
    """``edge_cdf`` with one row whose mass sits below 1/G, so that w >= s/2."""
    cdf = edge_cdf(s, G)
    cdf[5] = np.r_[np.sort(np.random.default_rng(s).random(s - 2)) / G, 1.0]
    return cdf


def edge_uniforms(G):
    """0, every bucket edge b/G, the double just below each, and 1 - 2^-53."""
    edges = np.arange(G) / G
    return np.r_[edges, np.nextafter(edges[1:], 0.0), 1.0 - 2.0**-53]


def guide_lookup(guide, y, u):
    """The rule ``_path_segments`` applies per step, one (state, uniform) at a time."""
    b = int(u * guide.G)
    lo = guide.first[b, y]
    return lo + int(np.count_nonzero(guide.rows[y, lo : lo + guide.w] <= u))


class TestGuideTable:
    @pytest.mark.parametrize("s", [8, 33, 200])
    @pytest.mark.parametrize("rows", [edge_cdf, crowded_cdf])
    def test_lookup_equals_searchsorted(self, s, rows):
        G = guide_size(s)
        cdf = rows(s, G)
        guide = _guide_table(cdf)
        assert guide.G == G
        assert (guide.w >= s // 2) == (rows is crowded_cdf)
        us = edge_uniforms(G)
        for y, row in enumerate(cdf):
            want = np.searchsorted(row, us, side="right")
            assert [guide_lookup(guide, y, u) for u in us] == want.tolist(), y

    def test_bucket_edges_are_exact(self):
        G = guide_size(33)
        assert ((np.arange(G) / G) * G == np.arange(G)).all()
        assert int((1.0 - 2.0**-53) * G) == G - 1

    @pytest.mark.parametrize("s", [2, 33, 255, 256, 257, 600, 3000])
    def test_bucket_count_is_capped(self, s):
        G = _guide_table(np.full((s, 1), 0.5)).G
        assert G & (G - 1) == 0 and G * s <= _GUIDE_MAX_CELLS
        assert G == guide_size(s) or 2 * G * s > _GUIDE_MAX_CELLS

    @pytest.mark.parametrize("s", [33, 200])
    @pytest.mark.parametrize("rows", [edge_cdf, crowded_cdf])
    def test_path_segments_on_edge_uniforms(self, layout, wide, monkeypatch, s, rows):
        """The sampler's own loop, fed the edge uniforms in place of a stream."""
        cdf = rows(s, guide_size(s))
        us = np.tile(edge_uniforms(guide_size(s)), 3)
        us = us[np.random.default_rng(1).permutation(len(us))]

        class Fixed:  # stands in for rng.stream(seed, index)
            def __init__(self, seed, index):
                self.pos = 0

            def random(self, out):
                out[:] = us[self.pos : self.pos + len(out)]
                self.pos += len(out)

        monkeypatch.setattr(harness, "stream", Fixed)
        spec = replace(
            path_spec(*wide, len(us) - 1, policy="fixed:3"),
            cum_rows=np.c_[cdf, np.ones(s)],
            phi=np.zeros((s, 1)),
        )
        want = [3]
        for u in us[1:]:
            want.append(int(np.searchsorted(cdf[want[-1]], u, side="right")))
        assert sample_paths(spec, 0, 1)[0].tolist() == want


    @pytest.mark.parametrize("s", [33, 200])
    @pytest.mark.parametrize("rows", [edge_cdf, crowded_cdf])
    def test_path_segments_on_edge_uniforms_in_a_batch(self, layout, wide, monkeypatch, s, rows):
        """The numpy layouts, which run batches of more than one trajectory,
        fed the same edge uniforms in every trajectory."""
        cdf = rows(s, guide_size(s))
        us = np.tile(edge_uniforms(guide_size(s)), 3)
        us = us[np.random.default_rng(2).permutation(len(us))]

        class Fixed:  # every trajectory's stream gives the same uniforms
            def __init__(self, seed, index):
                self.pos = 0

            def random(self, out):
                out[:] = us[self.pos : self.pos + len(out)]
                self.pos += len(out)

        monkeypatch.setattr(harness, "stream", Fixed)
        spec = replace(
            path_spec(*wide, len(us) - 1, policy="fixed:3"),
            cum_rows=np.c_[cdf, np.ones(s)],
            phi=np.zeros((s, 1)),
        )
        want = [3]
        for u in us[1:]:
            want.append(int(np.searchsorted(cdf[want[-1]], u, side="right")))
        assert sample_paths(spec, 0, 3).tolist() == [want] * 3


class TestSegments:
    def test_batch_rows_are_each_trajectory_alone(self, ref_problem, ref_analytic):
        spec = path_spec(ref_problem, ref_analytic, 2 * _DRAW + 1)
        batch = sample_paths(spec, 2, 9)
        for i in range(2, 9):
            assert np.array_equal(batch[i - 2], sample_paths(spec, i, i + 1)[0])

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
        assert lengths == [_BLOCK] * (2 * _DRAW // _BLOCK) + [1]  # one block per segment

    @pytest.mark.parametrize("window, B", [(_DRAW, 600), (3 * _BLOCK, 5)])
    def test_one_draw_per_window(self, ref_problem, ref_analytic, monkeypatch, window, B):
        # each trajectory draws a window's uniforms in one call, the first with its start state's,
        # however wide the lane
        draws = []
        real = harness.stream

        class Recorded:
            def __init__(self, seed, index):
                self.gen = real(seed, index)

            def random(self, out):
                draws.append(len(out))
                return self.gen.random(out=out)

        monkeypatch.setattr(harness, "stream", Recorded)
        T = 2 * _DRAW + 1
        spec = replace(path_spec(ref_problem, ref_analytic, T), window=window)
        assert np.array_equal(sample_paths(spec, 0, B), reference_paths(spec, 0, B))
        assert draws == [min(window, T - t) + (t == 0) for t in range(0, T, window) for _ in range(B)]


class TestMemory:
    def test_guide_tables_stay_under_the_cell_cap(self):
        s = 2000
        cdf = np.sort(np.random.default_rng(0).random((s, s - 1)), axis=1)
        tracemalloc.start()
        try:
            guide = _guide_table(cdf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert guide.first.size == guide.G * s <= _GUIDE_MAX_CELLS
        # the padded rows replace the parent's contiguous copy of the CDF table
        assert guide.rows.shape == (s, s - 1 + guide.w)
        assert peak < guide.first.nbytes + guide.rows.nbytes + (1 << 20)

    def test_run_chunk_peaks_below_a_full_path_array(self, ref_problem, ref_analytic):
        # the (B, T+1) int64 states alone would take 64 * 20 001 * 8 bytes
        B, T = 64, 20_000
        spec, start = path_spec(ref_problem, ref_analytic, T), StartError()
        tracemalloc.start()
        try:
            _run_chunk(spec, (start,), 0, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(start.err))
        assert peak < B * (T + 1) * 8
