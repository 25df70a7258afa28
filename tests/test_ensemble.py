"""Lanes write their rows of the run's collectors in place, in lockstep windows.

``harness._run_ensemble`` sizes each collector's outputs once, for every
trajectory.  The lanes' rows tile the trajectories in order, and a lane
writes only its own rows of every output and of the ring, so at jobs = 1
no rows are copied; at jobs = 2 the outputs live in anonymous shared
mappings that forked workers write, and a worker answers each window with
None.  Every batch runs window
k before any runs window k+1, so a non-finite iterate is reported at the
earliest step, and at that step the lowest trajectory, for any batch split
and worker count.  The per-step outputs, reduced one window at a time from
a ring, equal one percentile, maximum and count of the whole error matrix,
and the memory of a run does not grow with its horizon.  No worker
process outlives a run, whether it ends normally, fails or dies.
"""

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from multiprocessing.connection import Connection
from pathlib import Path

import numpy as np
import pytest

from tdlab import NonFinite, StepSchedule, solve_problem
from tdlab import harness
from tdlab.bounds import decay_curve
from tdlab.harness import (
    _BLOCK,
    Checkpoints,
    Excess,
    ExperimentConfig,
    StartError,
    StepStats,
    _base_spec,
    _buffer,
    _run_ensemble,
    _split,
    _window,
    run_alltime_experiment,
)
from tdlab.instances import reference_config_dict

from conftest import random_problem
from oracles import ErrMatrix
from test_kernel import KINDS, OUTPUTS, divergent_paths, full_spec, run_kinds

SENTINEL = -(2**40)  # held exactly by every output's dtype, and below every excess


def fill_on_alloc(feed, method, names):
    """Have ``feed`` fill its arrays ``names`` with ``SENTINEL`` as soon as
    its ``method`` allocates them."""
    alloc = getattr(feed, method)

    def allocated(*args):
        alloc(*args)
        for name in names:
            getattr(feed, name)[...] = SENTINEL

    setattr(feed, method, allocated)


class TestInPlace:
    @pytest.mark.parametrize("batch_size, jobs", [(8, 1), (32, 1), (8, 2)])
    def test_each_lane_writes_only_its_rows(self, ref_problem, ref_analytic, monkeypatch, batch_size, jobs):
        # at jobs 2 the outputs and the ring are shared mappings that the workers write
        n = 70
        spec, fresh = full_spec(ref_problem, ref_analytic, 10, 200)
        tiles = []

        class Recorded(harness._Lane):
            def __init__(self, *args):
                super().__init__(*args)
                tiles.append(self.rows)

        monkeypatch.setattr(harness, "_Lane", Recorded)
        _run_ensemble(spec, fresh(), n, batch_size, jobs)
        assert tiles == [slice(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]

        fill = harness._fill_rows
        monkeypatch.setattr(StepStats, "reduce", lambda self, k: None)  # the ring as the lane left it
        for rows in list(tiles):

            def alone(spec, lane):  # every other lane runs nothing
                if lane.rows == rows:
                    fill(spec, lane)

            monkeypatch.setattr(harness, "_fill_rows", alone)
            collectors, stats = fresh(), step_stats(spec, ref_analytic, 0.0)
            feeds = {c: ("size", OUTPUTS[type(c)]) for c in collectors}
            feeds[stats] = ("ring", ("rows",))
            for feed, (method, names) in feeds.items():
                fill_on_alloc(feed, method, names)
            _run_ensemble(spec, collectors, n, batch_size, jobs, stats)
            others = np.r_[: rows.start, rows.stop : n]
            for feed, (_, names) in feeds.items():
                for name in names:
                    out = getattr(feed, name)
                    if feed is stats:  # the ring's trajectories are its last axis
                        out = np.moveaxis(out, -1, 0)
                    assert np.all(out[others] == SENTINEL), name
                    assert not np.all(out[rows] == SENTINEL), name
            assert multiprocessing.active_children() == []

    def test_tasks_and_returns_carry_no_rows(self, ref_problem, ref_analytic, monkeypatch):
        # at horizon 4000 one batch's error rows take 512 * 3991 * 8 bytes, about 16 MB;
        # the workers inherit the spec and their batches at fork, the parent sends each
        # of them only the index of each window, and each answers None
        sent, replies = [], []
        send, recv = Connection.send, Connection.recv

        def recording_send(self, obj):
            sent.append(len(pickle.dumps(obj)))
            send(self, obj)

        def recording_recv(self):
            obj = recv(self)
            replies.append(len(pickle.dumps(obj)))
            return obj

        monkeypatch.setattr(Connection, "send", recording_send)
        monkeypatch.setattr(Connection, "recv", recording_recv)

        def returned(horizon, n):
            # every collector kind, and the per-step outputs from the ring
            spec, fresh = full_spec(ref_problem, ref_analytic, 10, horizon)
            collectors = fresh()
            assert {type(c) for c in collectors} == set(KINDS)
            replies.clear()
            _run_ensemble(spec, collectors, n, 512, 2, step_stats(spec, ref_analytic, 0.0))
            assert len(replies) == 2 * windows(horizon, n)  # one answer per worker and window
            return max(replies)

        def windows(horizon, n):
            return -(-horizon // _window(n))

        assert _window(1024) == 512
        for horizon in (1000, 4000):
            assert returned(horizon, 1024) < 256  # every answer, the last window's included
        # each worker runs two lanes of 512, and still answers once a window
        assert returned(1000, 2048) < 256
        assert len(sent) == 2 * (windows(1000, 1024) + windows(4000, 1024) + windows(1000, 2048))
        assert max(sent) < 256  # a message is a window index


def failing_spec(ref_problem, ref_analytic):
    """``TestNonFinite``'s setup: state 1 has an infinite reward, so an
    iterate becomes non-finite one step after a trajectory sits there; and
    a function that makes the run's new collectors."""
    spec = _base_spec(
        ExperimentConfig(
            problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=10,
            horizon=300, n_trajectories=20, master_seed=0, epsilon=0.5, delta=0.25,
        ),
        ref_analytic,
        horizon=300,
    )
    spec = replace(spec, rewards=np.array([0.0, np.inf, 0.0, 0.0, 0.0]))
    return spec, lambda: (StartError(), ErrMatrix(291))


class TestWorkers:
    @pytest.mark.parametrize("batch_size", [4, 8])
    def test_non_finite_names_the_same_step(self, ref_problem, ref_analytic, monkeypatch, batch_size):
        spec, fresh = failing_spec(ref_problem, ref_analytic)
        step = 2 * _BLOCK + 22
        monkeypatch.setattr(  # the forked workers inherit the stand-in
            harness, "_path_segments", divergent_paths(spec, {12: step + 19, 13: step, 14: step + 1})
        )
        messages = []
        for jobs in (1, 2):
            with pytest.raises(NonFinite) as err:
                _run_ensemble(spec, fresh(), 20, batch_size, jobs)
            messages.append(str(err.value))
            assert multiprocessing.active_children() == []
        assert messages == [f"trajectory 13 became non-finite at step {step + 1}"] * 2

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm to list")
    @pytest.mark.parametrize("jobs", [2, 4])  # 4: more workers than a 2-core host has cores
    def test_no_process_or_segment_left(self, ref_problem, ref_analytic, jobs):
        spec, fresh = full_spec(ref_problem, ref_analytic, 10, 300)
        before = set(os.listdir("/dev/shm"))
        pooled = run_kinds(spec, fresh(), 64, 8, jobs)
        assert multiprocessing.active_children() == []
        assert set(os.listdir("/dev/shm")) - before == set()
        serial = run_kinds(spec, fresh(), 64, 8, 1)
        for kind in KINDS:
            for name in OUTPUTS[kind]:
                assert np.array_equal(getattr(pooled[kind], name), getattr(serial[kind], name)), name


class TestFreshInterpreter:
    def test_fork_path_warns_nothing(self, tmp_path):
        # two batches of at most 512, so the pool forks two workers
        cfg = tmp_path / "ref.json"
        cfg.write_text(json.dumps(reference_config_dict(horizon=300, n_trajectories=600)))
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
        outs = {}
        for jobs in (1, 2):
            outs[jobs] = tmp_path / f"jobs{jobs}"
            run = subprocess.run(
                [sys.executable, "-W", "error", "-m", "tdlab.cli", "experiment", str(cfg),
                 "--jobs", str(jobs), "--out", str(outs[jobs])],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert run.returncode == 0, run.stderr
            assert [line for line in run.stderr.splitlines() if not line.startswith("elapsed ")] == []
        assert (outs[2] / "result.json").read_bytes() == (outs[1] / "result.json").read_bytes()


def ring_config(problem, n, n0, horizon, batch_size):
    return ExperimentConfig(
        problem=problem, schedule=StepSchedule.harmonic(0.5), n0=n0, horizon=horizon,
        n_trajectories=n, master_seed=5, epsilon=0.5, delta=0.25, D_const=1.0,
        batch_size=batch_size,
    )


def error_matrix(spec, n, batch_size):
    """The whole (n, span) error matrix of the oracle collector."""
    matrix = ErrMatrix(spec.horizon - spec.n0 + 1)
    _run_ensemble(spec, (matrix,), n, batch_size, 1)
    return matrix.matrix


def matrix_quantiles(spec, n, batch_size):
    """np.percentile over the whole (n, span) error matrix of the oracle collector."""
    return np.percentile(error_matrix(spec, n, batch_size), [25, 50, 75, 90], axis=0)


def step_stats(spec, analytic, floor):
    """A ``StepStats`` over the spec's steps at epsilon 0.5, on the decay of
    the harmonic schedule 0.5 that ``ring_config`` and ``full_spec`` use."""
    decay = decay_curve(analytic.constants, StepSchedule.harmonic(0.5), spec.n0, spec.horizon)
    return StepStats(spec.n0, spec.horizon, decay, 0.5, floor)


RING_CASES = [
    (1200, 70, 2000, 256),  # L = 384 < _DRAW; 1200 = 4 * 256 + 176; n0 and the horizon off windows
    (1200, 384, 769, 256),  # n0 on a window boundary, the horizon one step into a third window
    (40, 70, 700, 16),  # the horizon shorter than one window (L = 1024)
]


class TestErrRing:
    @pytest.mark.parametrize("n, n0, horizon, batch_size", RING_CASES)
    def test_experiment_quantiles_equal_one_percentile(
        self, ref_problem, ref_analytic, n, n0, horizon, batch_size
    ):
        cfg = ring_config(ref_problem, n, n0, horizon, batch_size)
        assert _window(n) == (384 if n == 1200 else 1024)
        want = matrix_quantiles(_base_spec(cfg, ref_analytic, horizon), n, batch_size)
        for jobs in (1, 2):
            got = run_alltime_experiment(cfg, jobs=jobs, analytic=ref_analytic).err_quantiles
            assert list(got) == ["q25", "q50", "q75", "q90"]
            for q, w in zip(got.values(), want):
                assert np.array_equal(q, w)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_from_step_0(self, ref_problem, ref_analytic, jobs):
        # the experiment refuses n0 = 0 on a noisy instance, so the ensemble is run directly
        n, horizon = 600, 1700
        spec, fresh = full_spec(ref_problem, ref_analytic, 0, horizon)
        want = matrix_quantiles(spec, n, 256)
        stats = step_stats(spec, ref_analytic, 0.0)
        _run_ensemble(spec, fresh(), n, 256, jobs, stats)
        for q, w in zip(stats.q.values(), want):
            assert np.array_equal(q, w)

    @pytest.mark.parametrize("n, n0, horizon, batch_size", [*RING_CASES, (600, 0, 1700, 256)])
    def test_counts_and_maxima_equal_the_matrix(self, ref_problem, ref_analytic, n, n0, horizon, batch_size):
        spec = _base_spec(ring_config(ref_problem, n, n0, horizon, batch_size), ref_analytic, horizon)
        M = error_matrix(spec, n, batch_size)
        decay = step_stats(spec, ref_analytic, 0.0).decay
        # a floor at the median excess, so about half the (trajectory, step) cells count
        floor = float(np.median(M - 0.5 * decay))
        for jobs in (1, 2):
            stats = step_stats(spec, ref_analytic, floor)
            _run_ensemble(spec, (), n, batch_size, jobs, stats)
            assert np.array_equal(stats.counts, np.count_nonzero(M - 0.5 * decay > floor, axis=0))
            assert np.array_equal(stats.err_max, M.max(axis=0))
            assert 0 < stats.counts.sum() < M.size
            assert multiprocessing.active_children() == []

    def test_peak_does_not_grow_with_the_horizon(self, ref_problem, ref_analytic):
        # an (n, span) float64 matrix would add 256 * 6000 * 8 bytes, about 12 MB
        def peak(horizon):
            tracemalloc.start()
            try:
                cfg = ring_config(ref_problem, 256, 100, horizon, 512)
                run_alltime_experiment(cfg, analytic=ref_analytic)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8000) - peak(2000) < 2**20


class TestLockstep:
    @pytest.mark.parametrize("batch_size", [4, 8, 20])
    @pytest.mark.parametrize("late", [5, 15], ids=["same-worker", "other-worker"])
    def test_non_finite_does_not_depend_on_the_batch_split(
        self, ref_problem, ref_analytic, monkeypatch, batch_size, late
    ):
        # trajectory 1 goes at step 201 and the later one at step 101: with batches of 4,
        # a batch-by-batch run would meet trajectory 1 first; at jobs 2 the first worker
        # holds trajectories 0-7
        spec, fresh = failing_spec(ref_problem, ref_analytic)
        monkeypatch.setattr(harness, "_path_segments", divergent_paths(spec, {1: 200, late: 100}))
        for jobs in (1, 2):
            with pytest.raises(NonFinite, match=f"^trajectory {late} became non-finite at step 101$"):
                _run_ensemble(spec, fresh(), 20, batch_size, jobs)
            assert multiprocessing.active_children() == []

    def test_batches_share_one_guide_table(self, monkeypatch):
        # s = 40 samples through a guide table; the lanes take turns, so one table stays in cache
        problem = random_problem(5, s=40, d=2)
        spec = _base_spec(ring_config(problem, 40, 10, 300, 8), solve_problem(problem), 300)
        built = []
        real = harness._guide_table
        monkeypatch.setattr(harness, "_guide_table", lambda cdf: built.append(len(cdf)) or real(cdf))
        _run_ensemble(spec, (StartError(),), 40, 8, 1)
        assert built == [40]

    def test_batches_share_the_sampler_buffers(self, ref_problem, ref_analytic):
        # the batches take turns, so four batches of 512 need the sampler buffers of one;
        # at windows of 256 steps, a 2048-wide batch's buffers take about 17 MB
        spec = _base_spec(ring_config(ref_problem, 2048, 10, 600, 512), ref_analytic, 600)

        def peak(batch_size):
            tracemalloc.start()
            try:
                _run_ensemble(spec, (StartError(),), 2048, batch_size, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _window(2048) == 256
        assert 2 * peak(512) < peak(2048)

    def test_worker_error_is_raised_without_a_hang(self, ref_problem, ref_analytic, monkeypatch):
        fill = harness._fill_rows

        def failing(spec, lane):
            if lane.lo > 0 and lane.at > 0:  # in the second window of a worker's batch
                raise MemoryError("no room for the window")
            fill(spec, lane)

        monkeypatch.setattr(harness, "_fill_rows", failing)
        cfg = ring_config(ref_problem, 600, 70, 2000, 256)
        with pytest.raises(MemoryError, match="no room for the window"):
            run_alltime_experiment(cfg, jobs=2, analytic=ref_analytic)
        assert multiprocessing.active_children() == []

    def test_parent_error_is_raised_without_a_hang(self, ref_problem, ref_analytic, monkeypatch):
        def failing(self, k):
            if k == 1:
                raise MemoryError("no room for the quantiles")

        monkeypatch.setattr(StepStats, "reduce", failing)
        cfg = ring_config(ref_problem, 1200, 70, 2000, 256)  # six windows: the workers run the third
        with pytest.raises(MemoryError, match="no room for the quantiles"):
            run_alltime_experiment(cfg, jobs=2, analytic=ref_analytic)
        assert multiprocessing.active_children() == []

    def test_dead_worker_exits_2_with_one_line(self, tmp_path):
        run = run_with_patch(tmp_path / "out", 300, (
            "def fill(spec, lane):\n"
            "    if lane.lo > 0:\n"
            "        os._exit(9)\n"
            "    real_fill(spec, lane)\n"
            "harness._fill_rows = fill\n"
        ))
        assert run.returncode == 2
        assert run.stderr == "numerical failure: a worker process ended abruptly with exit code 9\n"
        assert run.stdout == "0\n"  # no worker left

    def test_worker_killed_while_it_waits(self, tmp_path):
        # the second worker runs its first window and waits for the next; the first kills it then
        pid = tmp_path / "pid"
        run = run_with_patch(tmp_path / "out", 2000, (
            "def fill(spec, lane):\n"
            "    if lane.lo > 0 and lane.at == 0:\n"
            f"        open({str(pid)!r}, 'w').write(str(os.getpid()))\n"
            "    elif lane.lo == 0 and lane.at == 0:\n"
            f"        while not os.path.exists({str(pid)!r}) or not open({str(pid)!r}).read():\n"
            "            time.sleep(0.01)\n"
            "        time.sleep(0.5)\n"
            f"        os.kill(int(open({str(pid)!r}).read()), signal.SIGKILL)\n"
            "    real_fill(spec, lane)\n"
            "harness._fill_rows = fill\n"
        ))
        assert run.returncode == 2
        assert run.stderr == "numerical failure: a worker process ended abruptly with exit code -9\n"
        assert run.stdout == "0\n"

    def test_late_and_slow_worker_stays_in_step(self, tmp_path):
        # the second worker starts 0.5 s late and takes 50 ms longer for every window; had
        # the first one run ahead, it would write window k+1 into the ring slot the parent
        # is reducing, or the parent would reduce window k before the second wrote its part
        serial = run_with_patch(tmp_path / "serial", 3000, "", jobs=1)
        pooled = run_with_patch(tmp_path / "pooled", 3000, (
            "def work(spec, lanes, conn, parent_ends):\n"
            "    if lanes[0].lo > 0:\n"
            "        time.sleep(0.5)\n"
            "    real_work(spec, lanes, conn, parent_ends)\n"
            "def fill(spec, lane):\n"
            "    if lane.lo > 0:\n"
            "        time.sleep(0.05)\n"
            "    real_fill(spec, lane)\n"
            "harness._work, harness._fill_rows = work, fill\n"
        ))
        for run in (serial, pooled):
            assert run.returncode == 0, run.stderr
            assert run.stdout.endswith("\n0\n")  # no worker left
        for name in ("per_m.csv", "result.json"):
            assert (tmp_path / "pooled" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


class TestBlockBuffers:
    def test_buffers_are_kept_by_name_and_dtype(self):
        buffers = {}
        ints = _buffer(buffers, "Y", (4, 3), np.intp)
        floats = _buffer(buffers, "Y", (4, 3), float)
        assert (ints.dtype, floats.dtype) == (np.intp, np.float64)
        assert not np.shares_memory(ints, floats)
        fewer = _buffer(buffers, "Y", (2, 5), np.intp)  # a view of the same buffer
        assert fewer.shape == (2, 5) and np.shares_memory(fewer, ints)
        more = _buffer(buffers, "Y", (5, 5), np.intp)  # the buffer grows
        assert more.shape == (5, 5) and more.dtype == np.intp
        assert _buffer(buffers, "Y", (4, 3), np.intp).base is more.base
        assert len(buffers) == 2

    def test_peak_is_one_window_of_uniforms_and_one_block(self, ref_problem, ref_analytic):
        # one batch of 512 in windows of 1024 steps, over three windows, with D given (no
        # noise sums); window-wide (W, B) arrays of the states or the transposed uniforms
        # would add 4.2 MB each
        n, n0, horizon = 512, 100, 2200
        spec, fresh = full_spec(ref_problem, ref_analytic, n0, horizon)
        collectors = tuple(c for c in fresh() if type(c) in (StartError, Excess, Checkpoints))
        stats = step_stats(spec, ref_analytic, 0.0)
        tracemalloc.start()
        try:
            _run_ensemble(spec, collectors, n, n, 1, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        W = _window(n)
        assert W == 1024 and horizon > 2 * W
        u = n * (1 + W) * 8
        ring = stats.rows.nbytes + sum(a.nbytes for a in (*stats.q.values(), stats.err_max, stats.counts))
        outputs = sum(getattr(c, name).nbytes for c in collectors for name in OUTPUTS[type(c)])
        d = ref_problem.n_features
        block = (4 * d + 5) * (_BLOCK + 1) * n * 8  # F, X, AF, distances (d each); R, ut, Y, err, excess
        # the 512 streams and smaller temporaries
        allowance = 2 * 2**20
        assert peak < u + ring + outputs + block + allowance

    @pytest.mark.parametrize("segments", ["blocks"])
    def test_one_window_per_call(self, ref_problem, ref_analytic, monkeypatch, segments):
        n, horizon = 512, 2500
        spec, fresh = full_spec(ref_problem, ref_analytic, 100, horizon)

        def collectors():
            return tuple(c for c in fresh() if type(c) is not ErrMatrix)

        want = run_kinds(spec, collectors(), n, 256, 1)
        calls = []
        fill = harness._fill_rows

        def recorded(spec, lane):
            at = lane.at
            fill(spec, lane)
            calls.append((lane.lo, at, lane.at))

        monkeypatch.setattr(harness, "_fill_rows", recorded)
        got = run_kinds(spec, collectors(), n, 256, 1)
        W = _window(n)
        steps = [(0, W), (W, 2 * W), (2 * W, horizon)]
        assert calls == [(lo, at, end) for at, end in steps for lo in (0, 256)]
        for kind, total in want.items():
            for name in OUTPUTS[kind]:
                assert np.array_equal(getattr(got[kind], name), getattr(total, name)), name


def recorded_runs(monkeypatch):
    """The (lo, hi) of every lane a run builds, and the count of worker
    processes it starts; the lanes are built in the parent, before any fork."""
    lanes, starts = [], []

    class Recorded(harness._Lane):
        def __init__(self, spec, lo, hi, *args):
            lanes.append((lo, hi))
            super().__init__(spec, lo, hi, *args)

    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(harness, "_Lane", Recorded)
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", lambda self: starts.append(self) or start(self)
    )
    return lanes, starts


def outputs_bytes(spec, fresh, analytic, n, batch_size, jobs):
    """The bytes and dtype of every collector output and per-step output of a
    run into the new collectors ``fresh()``."""
    stats = step_stats(spec, analytic, 0.0)
    collectors = fresh()
    _run_ensemble(spec, collectors, n, batch_size, jobs, stats)
    out = {(type(c).__name__, name): getattr(c, name) for c in collectors for name in OUTPUTS[type(c)]}
    out.update(stats.q, err_max=stats.err_max, counts=stats.counts)
    return {key: (a.dtype, a.tobytes()) for key, a in out.items()}


class TestDefaultSplit:
    def test_one_lane_per_worker_within_the_cap(self, ref_problem, ref_analytic, monkeypatch):
        assert _split(1000, 2, 1, None) == [(0, 1000)]
        assert _split(2000, 2, 1, None) == [(0, 1000), (1000, 2000)]  # at most _DRAW trajectories
        assert _split(2000, 8, 2, None) == [(0, 500), (500, 1000), (1000, 1500), (1500, 2000)]
        assert _split(7, 2, 2, None) == [(0, 3), (3, 7)]  # near-equal
        assert _split(3, 4096, 2, None) == [(0, 1), (1, 2), (2, 3)]  # at most n lanes
        assert _split(70, 2, 2, 32) == [(0, 32), (32, 64), (64, 70)]  # the tests' override
        lanes, starts = recorded_runs(monkeypatch)
        spec, fresh = full_spec(ref_problem, ref_analytic, 10, 200)
        _run_ensemble(spec, fresh(), 1000, None, 1)
        assert (lanes, starts) == ([(0, 1000)], [])
        lanes.clear()
        problem = random_problem(5, s=40, d=8)
        spec, fresh = full_spec(problem, solve_problem(problem), 10, 100)
        _run_ensemble(spec, fresh(), 2000, None, 2)
        assert lanes == [(0, 500), (500, 1000), (1000, 1500), (1500, 2000)]
        assert len(starts) == 2

    @pytest.mark.parametrize(
        "instance, n, horizon, batch_size",
        [
            ("ref", 1000, 1100, None),  # one lane of 1000, in windows of 512 steps, one draw each
            ("s40-d8", 2000, 300, None),  # four lanes of 500, two per worker at jobs 2
            ("ref", 1200, 1700, 1200),  # one lane of every trajectory, windows of 384 steps, the last short
        ],
    )
    def test_equals_batches_of_512(self, ref_problem, ref_analytic, instance, n, horizon, batch_size):
        if instance == "ref":
            problem, analytic = ref_problem, ref_analytic
        else:
            problem = random_problem(5, s=40, d=8)
            analytic = solve_problem(problem)
        spec, fresh = full_spec(problem, analytic, 10, horizon)
        want = outputs_bytes(spec, fresh, analytic, n, 512, 1)
        for jobs in (1, 2):
            assert outputs_bytes(spec, fresh, analytic, n, batch_size, jobs) == want

    def test_jobs_2_forks_two_workers_at_512(self, ref_problem, ref_analytic, monkeypatch):
        spec, fresh = full_spec(ref_problem, ref_analytic, 10, 300)
        want = outputs_bytes(spec, fresh, ref_analytic, 512, None, 1)
        lanes, starts = recorded_runs(monkeypatch)
        assert outputs_bytes(spec, fresh, ref_analytic, 512, None, 2) == want
        assert lanes == [(0, 256), (256, 512)] and len(starts) == 2
        assert multiprocessing.active_children() == []


def run_with_patch(out, horizon, patch, jobs=2):
    """``experiment --jobs {jobs}`` on 600 reference trajectories (two batches, so
    two workers at jobs 2) in a fresh interpreter, writing to ``out``, after
    running ``patch``, which may replace functions of ``harness`` and call the
    originals as ``real_fill`` and ``real_work``; prints the number of child
    processes left after the run, and exits with its code."""
    out.mkdir()
    cfg = out / "ref.json"
    cfg.write_text(json.dumps(reference_config_dict(horizon=horizon, n_trajectories=600)))
    script = (
        "import multiprocessing, os, signal, sys, time\n"
        "from tdlab import cli, harness\n"
        "real_fill, real_work = harness._fill_rows, harness._work\n"
        f"{patch}"
        f"code = cli.main(['experiment', {str(cfg)!r}, '--jobs', '{jobs}', '--out', {str(out)!r}])\n"
        "print(len(multiprocessing.active_children()))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the hung run and its workers
            proc.communicate()
            pytest.fail("the run hung")
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)
