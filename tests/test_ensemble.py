"""Batches write their rows of the run's totals in place, in lockstep windows.

``harness._run_ensemble`` allocates each collector's total once.  A batch's
part holds views of the total's rows, so at jobs = 1 no rows are copied; at
jobs = 2 the rows live in anonymous shared mappings that forked workers
write, and a worker sends back only the per-step outputs it folds.  Every
batch runs window k before any runs window k+1, so a non-finite iterate is
reported at the earliest step, and at that step the lowest trajectory, for
any batch split and worker count.  The per-step error quantiles, reduced
one window at a time from a ring, equal one percentile of the whole error
matrix, and the memory of a run does not grow with its horizon.  No worker
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
from tdlab.harness import (
    _BLOCK,
    ErrQuantiles,
    Excess,
    ExperimentConfig,
    StartError,
    _base_spec,
    _run_ensemble,
    _window,
    run_alltime_experiment,
)
from tdlab.instances import reference_config_dict

from conftest import random_problem
from oracles import ErrMatrix
from test_kernel import KINDS, by_kind, divergent_paths, full_spec


def row_outputs(kind):
    return [name for name in kind.outputs if name not in kind.folded]


class TestInPlace:
    @pytest.mark.parametrize("batch_size", [8, 32])
    def test_parts_are_views_of_the_totals(self, ref_problem, ref_analytic, monkeypatch, batch_size):
        spec = full_spec(ref_problem, ref_analytic, 10, 200)
        seen = []
        simulate = harness._simulate_chunk

        def recording(spec, lo, hi, segments, parts=None):
            seen.append(parts)
            return simulate(spec, lo, hi, segments, parts)

        monkeypatch.setattr(harness, "_simulate_chunk", recording)
        totals = by_kind(_run_ensemble(spec, 70, batch_size, 1))
        assert len(seen) == -(-70 // batch_size)
        for parts in seen:
            for part in parts:
                total = totals[type(part)]
                for name in row_outputs(type(part)):
                    view, whole = getattr(part, name), getattr(total, name)
                    assert view.shape == whole[part.lo : part.hi].shape, name
                    assert np.shares_memory(view, whole[part.lo : part.hi]), name
                    assert not np.shares_memory(view, whole[: part.lo]), name
                    assert not np.shares_memory(view, whole[part.hi :]), name
                for name in type(part).folded:
                    assert not np.shares_memory(getattr(part, name), getattr(total, name)), name

    def test_tasks_and_returns_carry_no_rows(self, ref_problem, ref_analytic, monkeypatch):
        # at horizon 4000 one batch's error rows take 512 * 3991 * 4 bytes, about 8 MB;
        # the workers inherit the spec and their batches at fork, and the parent sends
        # each of them only the index of each window
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

        def returned(horizon, kinds):
            spec = full_spec(ref_problem, ref_analytic, 10, horizon)
            spec = replace(spec, collectors=tuple(c for c in spec.collectors if type(c) in kinds))
            replies.clear()
            _run_ensemble(spec, 1024, 512, 2)
            assert len(replies) == 2 * windows(horizon)  # one answer per worker and window
            return max(replies)

        def windows(horizon):
            return -(-horizon // _window(1024))

        rows_only = set(KINDS) - {Excess}
        assert returned(1000, rows_only) == returned(4000, rows_only) < 1024
        span = 4000 - 10 + 1
        folded = pickle.dumps((np.zeros(span, dtype=np.int64), np.zeros(span)))
        assert returned(4000, set(KINDS)) < len(folded) + 1024 < 512 * span * 4 // 100
        assert len(sent) == 2 * (windows(1000) + 2 * windows(4000))
        assert max(sent) < 256  # a message is a window index


def failing_spec(ref_problem, ref_analytic):
    """``TestNonFinite``'s setup: state 1 has an infinite reward, so an
    iterate becomes non-finite one step after a trajectory sits there."""
    spec = _base_spec(
        ExperimentConfig(
            problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=10,
            horizon=300, n_trajectories=20, master_seed=0, epsilon=0.5, delta=0.25,
        ),
        ref_analytic,
        horizon=300,
        collectors=(StartError(), ErrMatrix(291)),
    )
    return replace(spec, rewards=np.array([0.0, np.inf, 0.0, 0.0, 0.0]))


class TestWorkers:
    @pytest.mark.parametrize("batch_size", [4, 8])
    def test_non_finite_names_the_same_step(self, ref_problem, ref_analytic, monkeypatch, batch_size):
        spec = failing_spec(ref_problem, ref_analytic)
        step = 2 * _BLOCK + 22
        monkeypatch.setattr(  # the forked workers inherit the stand-in
            harness, "_path_segments", divergent_paths(spec, {12: step + 19, 13: step, 14: step + 1})
        )
        messages = []
        for jobs in (1, 2):
            with pytest.raises(NonFinite) as err:
                _run_ensemble(spec, 20, batch_size, jobs)
            messages.append(str(err.value))
            assert multiprocessing.active_children() == []
        assert messages == [f"trajectory 13 became non-finite at step {step + 1}"] * 2

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm to list")
    @pytest.mark.parametrize("jobs", [2, 4])  # 4: more workers than a 2-core host has cores
    def test_no_process_or_segment_left(self, ref_problem, ref_analytic, jobs):
        spec = full_spec(ref_problem, ref_analytic, 10, 300)
        before = set(os.listdir("/dev/shm"))
        pooled = by_kind(_run_ensemble(spec, 64, 8, jobs))
        assert multiprocessing.active_children() == []
        assert set(os.listdir("/dev/shm")) - before == set()
        serial = by_kind(_run_ensemble(spec, 64, 8, 1))
        for kind in KINDS:
            for name in kind.outputs:
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


def matrix_quantiles(spec, n, batch_size):
    """np.percentile over the whole (n, span) error matrix of the oracle collector."""
    matrix = ErrMatrix(spec.horizon - spec.n0 + 1)
    (full,) = _run_ensemble(replace(spec, collectors=(matrix,)), n, batch_size, 1)
    return np.percentile(full.matrix, [25, 50, 75, 90], axis=0)


class TestErrRing:
    @pytest.mark.parametrize(
        "n, n0, horizon, batch_size",
        [
            (1200, 70, 2000, 256),  # L = 832 < _DRAW; 1200 = 4 * 256 + 176; n0 and the horizon off windows
            (1200, 832, 1665, 256),  # n0 on a window boundary, the horizon one step into a third window
            (40, 70, 700, 16),  # the horizon shorter than one window (L = 1024)
        ],
    )
    def test_experiment_quantiles_equal_one_percentile(
        self, ref_problem, ref_analytic, n, n0, horizon, batch_size
    ):
        cfg = ring_config(ref_problem, n, n0, horizon, batch_size)
        assert _window(n) == (832 if n == 1200 else 1024)
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
        spec = full_spec(ref_problem, ref_analytic, 0, horizon)
        want = matrix_quantiles(spec, n, 256)
        quantiles = ErrQuantiles(0, horizon)
        _run_ensemble(spec, n, 256, jobs, quantiles)
        for q, w in zip(quantiles.q.values(), want):
            assert np.array_equal(q, w)

    def test_peak_does_not_grow_with_the_horizon(self, ref_problem, ref_analytic):
        # an (n, span) float32 matrix would add 256 * 6000 * 4 bytes, about 6 MB
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
        spec = failing_spec(ref_problem, ref_analytic)
        monkeypatch.setattr(harness, "_path_segments", divergent_paths(spec, {1: 200, late: 100}))
        for jobs in (1, 2):
            with pytest.raises(NonFinite, match=f"^trajectory {late} became non-finite at step 101$"):
                _run_ensemble(spec, 20, batch_size, jobs)
            assert multiprocessing.active_children() == []

    def test_batches_share_one_guide_table(self, monkeypatch):
        # s = 40 samples through a guide table; the lanes take turns, so one table stays in cache
        problem = random_problem(5, s=40, d=2)
        spec = _base_spec(ring_config(problem, 40, 10, 300, 8), solve_problem(problem), 300, (StartError(),))
        built = []
        real = harness._guide_table
        monkeypatch.setattr(harness, "_guide_table", lambda cdf: built.append(len(cdf)) or real(cdf))
        _run_ensemble(spec, 40, 8, 1)
        assert built == [40]

    def test_batches_share_the_sampler_buffers(self, ref_problem, ref_analytic):
        # the batches take turns, so four batches of 512 need the sampler buffers of one;
        # at windows of 512 steps, a 2048-wide batch's buffers take about 25 MB
        spec = _base_spec(ring_config(ref_problem, 2048, 10, 600, 512), ref_analytic, 600, (StartError(),))

        def peak(batch_size):
            tracemalloc.start()
            try:
                _run_ensemble(spec, 2048, batch_size, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert _window(2048) == 512
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

        monkeypatch.setattr(ErrQuantiles, "reduce", failing)
        cfg = ring_config(ref_problem, 1200, 70, 2000, 256)  # three windows: the workers run the third
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
