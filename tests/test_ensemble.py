"""Batches write their rows of the run's totals in place.

``harness._run_ensemble`` allocates each collector's total once.  A batch's
part holds views of the total's rows, so at jobs = 1 no rows are copied; at
jobs = 2 the rows live in anonymous shared mappings that forked workers
write, and a worker sends back only the per-step outputs it folds.  An
error raised in a worker names the same trajectory and step as at jobs = 1,
and no worker process outlives a run, whether it ends normally or not.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tdlab import NonFinite, StepSchedule
from tdlab import harness
from tdlab.harness import (
    _BLOCK,
    ErrMatrix,
    Excess,
    ExperimentConfig,
    StartError,
    _base_spec,
    _run_ensemble,
)
from tdlab.instances import reference_config_dict

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
        # at horizon 4000 one batch's error rows take 512 * 3991 * 4 bytes, about 8 MB
        sizes, sent = [], []

        class Recording(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                sent.extend(len(pickle.dumps((fn, task))) for task in zip(*iterables))
                for out in super().map(fn, *iterables, **kwargs):
                    sizes.append(len(pickle.dumps(out)))
                    yield out

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)

        def returned(horizon, kinds):
            spec = full_spec(ref_problem, ref_analytic, 10, horizon)
            spec = replace(spec, collectors=tuple(c for c in spec.collectors if type(c) in kinds))
            sizes.clear()
            _run_ensemble(spec, 1024, 512, 2)
            assert len(sizes) == 2
            return max(sizes)

        rows_only = set(KINDS) - {Excess}
        assert returned(1000, rows_only) == returned(4000, rows_only) < 1024
        span = 4000 - 10 + 1
        folded = pickle.dumps((np.zeros(span, dtype=np.int64), np.zeros(span)))
        assert returned(4000, set(KINDS)) < len(folded) + 1024 < 512 * span * 4 // 100
        assert len(sent) == 6 and max(sent) < 256  # a task is its rows, never the spec


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
