import ast
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tdlab.cli as cli
from tdlab import harness
from tdlab.bounds import build_query, evaluate_bound
from tdlab.config import load_config
from tdlab.dynamics import TrajectoryRecord
from tdlab.errors import NonFinite
from tdlab.harness import Checkpoints, _base_spec, _run_ensemble
from tdlab.instances import reference_config_dict
from tdlab.schedule import StepSchedule

from conftest import random_problem
from oracles import _run_chunk, join_windows, sample_paths, whole_trajectory


def _reject_constant(token):
    raise ValueError(f"non-standard JSON number {token}")


def strict_load(path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def scalar_config(tmp_path, **experiment):
    """The one-state, one-feature instance as a config file, with no D_const."""
    exp = dict(
        n0=80,
        horizon=400,
        n_trajectories=20,
        master_seed=314,
        epsilon=0.5,
        delta=0.25,
        epsilon_grid=[0.2, 1.0],
        delta_grid=[0.5, 1.0],
    )
    exp.update(experiment)
    cfg = {
        "chain": {"P": [[1.0]]},
        "rewards": {"r": [1.0]},
        "gamma": 0.5,
        "features": {"Phi": [[0.5]]},
        "schedule": {"kind": "harmonic", "d1": 0.5},
        "experiment": exp,
    }
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestNoiselessExperiment:
    def test_zero_tail_without_d(self, tmp_path):
        cfg = scalar_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["experiment", cfg, "--out", str(out)]) == 0
        res = strict_load(out / "result.json")
        assert res["D_source"] == "noiseless"
        assert res["D_used"] is None
        assert res["fitted_D"] is None and res["fit"] is None
        assert res["tail_sum"] == 0.0
        assert res["theoretical_lower_bound"] == 1.0 - res["empirical_p_init"]
        assert res["grid"] and all(row["tail_sum"] == 0.0 for row in res["grid"])

        again = tmp_path / "again"
        assert cli.main(["experiment", cfg, "--out", str(again)]) == 0
        for name in ("result.json", "per_m.csv", "summary.csv"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_given_d_still_used(self, tmp_path):
        cfg = scalar_config(tmp_path, D_const=2.0)
        out = tmp_path / "out"
        assert cli.main(["experiment", cfg, "--out", str(out)]) == 0
        res = strict_load(out / "result.json")
        assert res["D_source"] == "given"
        assert res["D_used"] == 2.0
        assert res["tail_sum"] > 0.0


class TestStrictJson:
    def test_non_finite_value_is_refused(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(NonFinite, match="x.json"):
            cli._write_json(path, {"D_used": math.inf})
        assert not path.exists()

    def test_non_finite_result_exits_2(self, tmp_path, monkeypatch, capsys):
        real = cli.run_alltime_experiment

        def with_infinite_d(*args, **kwargs):
            res = real(*args, **kwargs)
            res.D_used = math.inf
            return res

        monkeypatch.setattr(cli, "run_alltime_experiment", with_infinite_d)
        out = tmp_path / "out"
        code = cli.main(["experiment", scalar_config(tmp_path), "--out", str(out)])
        assert code == 2
        assert "numerical failure: result.json" in capsys.readouterr().err
        assert not (out / "result.json").exists()


def reference_config(tmp_path, **experiment):
    raw = reference_config_dict(horizon=2000, n_trajectories=16)
    raw["experiment"].update(experiment)
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestNoiselessBound:
    def test_zero_tail_without_d(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["bound", scalar_config(tmp_path), "--out", str(out)]) == 0
        res = strict_load(out / "bound.json")
        assert res["D_source"] == "noiseless" and res["D_const"] is None
        assert res["tail_sum"] == 0.0
        assert res["prob_lower_bound"] == 1.0 - res["p_init"]
        with open(out / "bound.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(row["cumulative_tail"]) == 0.0 for row in rows)

    def test_given_d_still_used(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["bound", scalar_config(tmp_path), "--D", "1", "--out", str(out)]) == 0
        res = strict_load(out / "bound.json")
        assert res["D_source"] == "given" and res["D_const"] == 1.0
        assert res["tail_sum"] > 0.0

    def test_noisy_problem_still_needs_d(self, tmp_path, capsys):
        assert cli.main(["bound", reference_config(tmp_path), "--out", str(tmp_path)]) == 1
        assert "no tail-exponent constant" in capsys.readouterr().err


class TestBadInputs:
    @pytest.mark.parametrize(
        "experiment, field",
        [
            (dict(initial_state_policy="fixed:abc"), "experiment.initial_state_policy"),
            (dict(initial_state_policy=5), "experiment.initial_state_policy"),
            (dict(initial_state_policy="fixed:9"), "experiment.initial_state_policy"),
            (dict(master_seed=-1), "experiment.master_seed"),
            (dict(initial_x=[math.nan, 0.0]), "experiment.initial_x"),
            (dict(D_const=math.inf), "experiment.D_const"),
            (dict(epsilon=math.nan), "experiment.epsilon"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "experiment", "bound"])
    def test_bad_config_field_exits_1(self, tmp_path, capsys, experiment, field, command):
        cfg = reference_config(tmp_path, **{"D_const": 1.0, **experiment})
        assert cli.main([command, cfg, "--out", str(tmp_path / "out")]) == 1
        assert f"error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("D, code", [(0.0, 1), (-1.0, 1), (0.5, 0)])
    @pytest.mark.parametrize("command", ["validate", "experiment", "bound"])
    def test_tail_constant_refused_before_any_ensemble(self, tmp_path, capsys, monkeypatch, command, D, code):
        calls = []
        run = harness._run_ensemble
        monkeypatch.setattr(harness, "_run_ensemble", lambda *args: calls.append(args) or run(*args))
        cfg = reference_config(tmp_path, D_const=D, n_trajectories=4, horizon=300)
        assert cli.main([command, cfg, "--out", str(tmp_path / "out")]) == code
        if code:
            assert f"error: experiment.D_const: must be finite and > 0, got {D}" in capsys.readouterr().err
            assert not calls
        else:  # the positive control runs its ensemble, if the command has one
            assert len(calls) == (command != "validate")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["experiment", "--seed", "-2"], "--seed"),
            (["simulate", "--seed", "-2"], "--seed"),
            (["simulate", "--trajectory", "-1"], "--trajectory"),
            (["bound", "--D", "nan"], "--D"),
            (["bound", "--D", "inf"], "--D"),
            (["simulate", "--horizon", "0"], "--horizon"),
            (["experiment", "--horizon", "100"], "--horizon"),
            (["experiment", "--jobs", "0"], "--jobs"),
            (["experiment", "--jobs", "-1"], "--jobs"),
            (["bound", "--D", "1", "--jobs", "0"], "--jobs"),
        ],
    )
    def test_bad_flag_exits_1(self, tmp_path, capsys, argv, flag):
        cfg = reference_config(tmp_path)
        full = [argv[0], cfg, *argv[1:], "--out", str(tmp_path / "out")]
        assert cli.main(full) == 1
        assert f"error: {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_horizon_past_a_table_schedule_exits_1(self, tmp_path, capsys, command):
        raw = reference_config_dict(horizon=2000, n_trajectories=4)
        values = (0.5 / np.arange(1, 2001)).tolist()
        raw["schedule"] = {"kind": "table", "values": values, "d1": 0.5, "d2": 1.0, "d3": 0.5}
        path = tmp_path / "table.json"
        path.write_text(json.dumps(raw))
        argv = [command, str(path), "--horizon", "3000", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert "error: --horizon:" in capsys.readouterr().err


class TestFileErrors:
    """A config that cannot be read, or an output directory or file that cannot
    be made or written, exits 1 with one line naming it, never a traceback."""

    @pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"gamma": "\xe9"}')
        assert cli.main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["--out", "OUTPUT_DIR", "output.dir"])
    @pytest.mark.parametrize("below", [False, True], ids=["a-file", "below-a-file"])
    def test_output_directory_that_cannot_be_made_exits_1(
        self, tmp_path, capsys, monkeypatch, source, below
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        target = blocker / "sub" if below else blocker
        raw = reference_config_dict(horizon=300, n_trajectories=4)
        raw["output"]["dir"] = str(target if source == "output.dir" else tmp_path / "unused")
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(raw))
        argv = ["solve", str(path)] + (["--out", str(target)] if source == "--out" else [])
        if source == "OUTPUT_DIR":
            monkeypatch.setenv("OUTPUT_DIR", str(target))
        else:
            monkeypatch.delenv("OUTPUT_DIR", raising=False)
        assert cli.main(argv) == 1
        reason = "Not a directory" if below else "File exists"
        assert capsys.readouterr().err == (
            f"error: {source}: cannot make directory {target}: {reason}\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "ref.json"]

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["solve"], "analytic.json"),
            (["bound", "--D", "5"], "bound.csv"),
            (["simulate"], "trajectory_0.csv"),
        ],
    )
    def test_output_file_that_cannot_be_written_exits_1(self, tmp_path, capsys, argv, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = reference_config(tmp_path, n_trajectories=4, horizon=300)
        assert cli.main([argv[0], cfg, *argv[1:], "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out / name}: Is a directory\n"


class TestOutOfMemory:
    # a horizon or n0 too large for memory, e.g. bound at n0 = 10**12; the callee is
    # made to raise, so that no test allocates for real
    @pytest.mark.parametrize(
        "command, owner, name",
        [
            ("bound", StepSchedule, "steps"),
            ("simulate", cli, "simulate_trajectory"),
            ("experiment", harness, "decay_curve"),
        ],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch, command, owner, name):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (10**12,)")

        monkeypatch.setattr(owner, name, no_memory)
        cfg = reference_config(tmp_path, D_const=1.0)
        assert cli.main([command, cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 7.28 TiB for an array with shape (10**12,)\n"
        assert not (tmp_path / "out").exists()


class TestEnsembleTwins:
    def test_worker_count_leaves_result_unchanged(self, tmp_path):
        cfg = reference_config(tmp_path, n_trajectories=24, horizon=600)
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert cli.main(["experiment", cfg, "--jobs", jobs, "--out", str(out)]) == 0
            outs.append(out)
        res = strict_load(outs[0] / "result.json")
        assert res["D_source"] == "fitted" and res["diagnostics"]["n_trajectories"] == 24
        for name in ("result.json", "per_m.csv", "summary.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("policy", ["stationary", "uniform", "fixed:3"])
    def test_simulate_reproduces_batched_rows(self, tmp_path, policy):
        path = reference_config(tmp_path, initial_state_policy=policy)
        cfg = load_config(path)
        exp = dataclasses.replace(cfg.require_experiment(), n0=0)  # collect from step 0
        steps = np.arange(exp.horizon + 1)
        every_step = Checkpoints(steps, cfg.problem.n_features)
        spec = _base_spec(exp, cfg.analytic, exp.horizon)
        states = sample_paths(spec, 0, exp.n_trajectories)
        _run_ensemble(spec, (every_step,), exp.n_trajectories, 5, 1)
        iterates = every_step.x
        errors = np.linalg.norm(iterates - cfg.analytic.x_star, axis=2)
        for i in (0, 7, 11):
            out = tmp_path / f"traj{i}"
            assert cli.main(["simulate", path, "--trajectory", str(i), "--out", str(out)]) == 0
            with open(out / f"trajectory_{i}.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert [int(r["n"]) for r in rows] == steps.tolist()
            assert [int(r["state"]) for r in rows] == states[i].tolist()
            dist = np.array([float(r["dist_to_target"]) for r in rows])
            assert np.max(np.abs(dist - errors[i])) <= 1e-12


def simulate_config(tmp_path, instance, kind):
    """The reference instance, or an s = 200, d = 8 one, on a harmonic or a
    polynomial schedule."""
    raw = reference_config_dict(n0=3000, horizon=5000, n_trajectories=4)  # n0 feasible for all four
    if instance == "wide":
        p = random_problem(5, s=200, d=8)
        raw.update(chain={"P": p.chain.P.tolist()}, rewards={"r": p.rewards.tolist()},
                   gamma=p.gamma, features={"Phi": p.features.Phi.tolist()})
    if kind == "polynomial":
        raw["schedule"] = {"kind": "polynomial", "d3": 0.6, "d2": 0.7}
    path = tmp_path / f"{instance}-{kind}.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestSimulate:
    @pytest.mark.parametrize("kind", ["harmonic", "polynomial"])
    @pytest.mark.parametrize("instance", ["reference", "wide"])
    @pytest.mark.parametrize("horizon", [1, 1023, 1024, 1025, 3 * 1024 + 17])
    def test_windows_write_the_path_taken_whole(self, tmp_path, horizon, instance, kind):
        # windows of 1024 steps (0..1024, then 1025..2048, ...) write the bytes of the
        # path taken in one piece, with and without the iterates
        path = simulate_config(tmp_path, instance, kind)
        cfg = load_config(path)
        exp = dataclasses.replace(cfg.require_experiment(), n0=0, horizon=horizon)
        windows = list(harness.simulate_trajectory(exp, 2, cfg.analytic))
        L = min(horizon, 1024)
        assert [len(w.states) for w in windows] == [L + 1] + [
            min(L, horizon - start) for start in range(L, horizon, L)
        ]
        for before, after in zip(windows, windows[1:]):
            assert after.peak_deviation[0] >= before.peak_deviation[-1]
        whole = whole_trajectory(exp, 2, cfg.analytic)
        for components in (False, True):
            out = tmp_path / f"out-{components}"
            argv = ["simulate", path, "--horizon", str(horizon), "--trajectory", "2"]
            assert cli.main([*argv, "--out", str(out)] + ["--components"] * components) == 0
            cli._write_trajectory_csv(tmp_path / "whole.csv", [whole], components)
            assert (out / "trajectory_2.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    @pytest.mark.parametrize("instance", ["reference", "wide"])
    @pytest.mark.parametrize("horizon", [1023, 1024, 1025, 3 * 1024 + 17])
    def test_windows_equal_a_row_of_a_batch(self, tmp_path, horizon, instance):
        # simulate's lane of one trajectory runs on Python floats, a batch of three on numpy
        cfg = load_config(simulate_config(tmp_path, instance, "harmonic"))
        exp = dataclasses.replace(cfg.require_experiment(), n0=0, horizon=horizon)
        record = join_windows(harness.simulate_trajectory(exp, 2, cfg.analytic))
        batch = Checkpoints(np.arange(horizon + 1), cfg.problem.n_features)
        _run_chunk(_base_spec(exp, cfg.analytic, horizon), (batch,), 1, 4)
        assert np.array_equal(record.states, batch.y[1])
        assert np.array_equal(record.x, batch.x[1])

    @pytest.mark.parametrize(
        "failure, initial_x, err",
        [
            ("overflow", [1e308, -1e308],
             "numerical failure: trajectory_0.csv: dist_to_target is inf at step 0\n"),
            ("diverging", [1.7e308, 1.7e308],
             "numerical failure: trajectory 0 became non-finite at step 2\n"),
            ("out-of-memory", [0.0, 0.0], "out of memory: the second window\n"),
        ],
        ids=["overflow", "diverging", "out-of-memory"],
    )
    def test_failed_run_leaves_the_directory_as_it_found_it(
        self, tmp_path, capsys, monkeypatch, failure, initial_x, err
    ):
        # distances that overflow on a finite path are a numerical failure, like divergence;
        # the earlier file stays and no temporary file is left
        out = tmp_path / "out"
        out.mkdir()
        (out / "trajectory_0.csv").write_text("an earlier run\n")
        real = harness.run_deterministic

        def no_memory(problem, schedule, start, *args):  # after window 0 is written
            if start and failure == "out-of-memory":
                raise MemoryError("the second window")
            return real(problem, schedule, start, *args)

        monkeypatch.setattr(harness, "run_deterministic", no_memory)
        config = reference_config(tmp_path, initial_x=initial_x)
        assert cli.main(["simulate", config, "--horizon", "3000", "--out", str(out)]) == 2
        assert capsys.readouterr().err == err
        assert [p.name for p in out.iterdir()] == ["trajectory_0.csv"]
        assert (out / "trajectory_0.csv").read_text() == "an earlier run\n"

    def test_memory_does_not_grow_with_the_horizon(self, tmp_path):
        # the path is written a window at a time; only the kernel's step sizes span the
        # horizon, at 8 bytes a step, and the temporaries that build them
        path = reference_config(tmp_path)
        peaks = []
        for horizon in (20_000, 80_000):
            argv = ["simulate", path, "--horizon", str(horizon), "--out", str(tmp_path / "out")]
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 40 * 60_000

    def test_horizon_below_start_index(self, tmp_path):
        # simulate runs from step 0, so the experiment's n0 = 100 does not bound it
        out = tmp_path / "out"
        argv = ["simulate", reference_config(tmp_path), "--horizon", "50", "--out", str(out)]
        assert cli.main(argv) == 0
        with open(out / "trajectory_0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == list(range(51))


class TestStartUp:
    def test_import_loads_no_scipy(self):
        # the package needs no scipy; the start-up of every command skips it
        code = "import sys, tdlab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "[]"

    def test_infinite_bound_loads_no_scipy(self, tmp_path):
        # the infinite tail's remainder is evaluated with math alone
        config = tmp_path / "ref.json"
        config.write_text(json.dumps(reference_config_dict(horizon=200, n_trajectories=8)))
        argv = ["bound", str(config), "--infinite", "--D", "0.05", "--out", str(tmp_path / "out")]
        code = (
            "import sys, tdlab.cli as cli; assert cli.main(sys.argv[1:]) == 0; "
            "print([m for m in sys.modules if m.startswith('scipy')])"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.splitlines()[-1] == "[]"
        assert strict_load(tmp_path / "out" / "bound.json")["horizon"] is None

    def test_import_adds_only_stdlib_numpy_and_tdlab(self):
        # every command starts with this import, `validate` included
        code = (
            "import sys; before = set(sys.modules); import tdlab.cli; "
            "print(sorted(set(sys.modules) - before))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        added = ast.literal_eval(run.stdout.strip())
        assert "numpy" in added and "tdlab.cli" in added
        assert [
            m for m in added
            if m.split(".")[0] not in sys.stdlib_module_names and not m.startswith(("numpy", "tdlab"))
        ] == []

    def test_import_loads_no_pool(self):
        # only an ensemble at jobs >= 2 makes a pool; every other start-up skips its modules
        names = ("multiprocessing", "concurrent.futures", "mmap")
        code = f"import sys, tdlab.cli; print([m for m in {names!r} if m in sys.modules])"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "[]"


def n0_zero_config(tmp_path, kind):
    """A config with n0 = 0: the noiseless scalar instance without or with
    D_const, or the noisy reference instance at d1 = 0.001 without D_const
    (D is fitted), where n0 = 0 is a feasible start."""
    if kind == "reference":
        raw = reference_config_dict(n0=0, d1=0.001, horizon=300, n_trajectories=8)
        path = tmp_path / "ref_n0_0.json"
        path.write_text(json.dumps(raw))
        return str(path)
    return scalar_config(tmp_path, n0=0, **({"D_const": 2.0} if kind == "scalar-with-d" else {}))


class TestTailStartIndex:
    @pytest.fixture
    def no_ensemble(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an ensemble ran before the start index was checked")

        monkeypatch.setattr(harness, "_run_ensemble", refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ["experiment", "scalar-with-d"],  # D given
            ["experiment", "reference"],  # D fitted
            ["bound", "scalar", "--D", "1"],
            ["bound", "reference", "--D", "1"],
        ],
    )
    def test_tail_constant_needs_n0_at_least_1(self, tmp_path, capsys, no_ensemble, argv):
        out = tmp_path / "out"
        config = n0_zero_config(tmp_path, argv[1])
        assert cli.main([argv[0], config, *argv[2:], "--out", str(out)]) == 1
        assert "error: experiment.n0:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["experiment", "bound"])
    def test_noiseless_without_d_still_runs_at_n0_0(self, tmp_path, command):
        out = tmp_path / "out"
        assert cli.main([command, n0_zero_config(tmp_path, "scalar"), "--out", str(out)]) == 0
        name = "result.json" if command == "experiment" else "bound.json"
        assert strict_load(out / name)["D_source"] == "noiseless"

    @pytest.mark.parametrize("kind", ["scalar-with-d", "reference"])
    def test_simulate_still_runs_at_n0_0(self, tmp_path, kind):
        out = tmp_path / "out"
        assert cli.main(["simulate", n0_zero_config(tmp_path, kind), "--out", str(out)]) == 0
        assert (out / "trajectory_0.csv").exists()


def polynomial_config(tmp_path):
    """The reference instance on a polynomial schedule (d1 < d2, q = 0.05) at n0 = 1200."""
    raw = reference_config_dict(n0=1200, horizon=1500, n_trajectories=8)
    raw["schedule"] = {"kind": "polynomial", "d3": 0.5, "d2": 0.6, "d1": 0.05}
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(raw))
    return str(path)


class TestInfiniteTailExtremes:
    @pytest.mark.parametrize("kind, D", [("reference", "1e300"), ("polynomial", "1e30")])
    def test_huge_constant_exits_0_with_a_tail_near_0(self, tmp_path, capsys, kind, D):
        config = reference_config(tmp_path) if kind == "reference" else polynomial_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["bound", config, "--infinite", "--D", D, "--out", str(out)]) == 0
        res = strict_load(out / "bound.json")
        assert 0.0 <= res["tail_sum"] <= 1e-300
        assert res["prob_lower_bound"] == 1.0 - res["p_init"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, D", [("reference", "1e-300"), ("reference", "1e-320"), ("polynomial", "1e-20")]
    )
    def test_tiny_constant_exits_2_naming_the_cause(self, tmp_path, capsys, kind, D):
        config = reference_config(tmp_path) if kind == "reference" else polynomial_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["bound", config, "--infinite", "--D", D, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the tail sum exceeds the double range")
        assert "tail-exponent constant D is too small" in err
        assert not (out / "bound.json").exists()


class TestTraceSeam:
    """The benchmark times its layers by wrapping these names on ``tdlab.cli``,
    and skips any that is missing; each must stay bound there and be what
    the commands call."""

    NAMES = ("load_config", "run_alltime_experiment", "estimate_p_init", "evaluate_bound")

    def test_commands_call_the_bound_names(self, tmp_path, monkeypatch):
        called = []
        for name in self.NAMES:
            real = getattr(cli, name)

            def wrapper(*args, _name=name, _real=real, **kwargs):
                called.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)
        config = reference_config(tmp_path, D_const=1.0, n_trajectories=4, horizon=300)
        assert cli.main(["bound", config, "--out", str(tmp_path / "bound")]) == 0
        assert cli.main(["experiment", config, "--out", str(tmp_path / "experiment")]) == 0
        assert sorted(set(called)) == sorted(self.NAMES)


def read_columns(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {name: [row[name] for row in rows] for name in rows[0]}


def kept_returns(monkeypatch, name):
    """Wrap ``cli.<name>``; the returned list collects what each call gave the command."""
    kept, real = [], getattr(cli, name)

    def keep(*args, **kwargs):
        kept.append(real(*args, **kwargs))
        return kept[-1]

    monkeypatch.setattr(cli, name, keep)
    return kept


def assert_cells_exact(path, expected):
    """Every float cell of the named columns reads back as the in-memory double."""
    columns = read_columns(path)
    for name, values in expected.items():
        assert [float(cell) for cell in columns[name]] == [float(v) for v in values], name


class TestCsvWriters:
    def test_only_cli_imports_csv(self):
        importers = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name == "csv" or name.startswith("csv.") for name in names):
                    importers.append(path.name)
        assert importers == ["cli.py"]

    @pytest.mark.parametrize("D", [5.0, 0.005])
    def test_tail_terms_sum_to_the_tail_sum(self, tmp_path, D):
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(reference_config_dict()))
        cfg = load_config(path)
        exp, constants = cfg.require_experiment(), cfg.require_analytic().constants
        query = build_query(
            constants,
            cfg.schedule,
            epsilon=exp.epsilon,
            delta=exp.delta,
            n0=exp.n0,
            horizon=exp.horizon,
            D_const=D,
            p_init=0.0,
        )
        report = evaluate_bound(query, cfg.problem.n_features, cfg.schedule, constants)
        terms = report.tail_terms(cfg.schedule)
        assert len(terms) == len(report.ms) and terms[0] == 0.0
        assert math.isclose(sum(terms), report.tail.tail_sum, rel_tol=1e-12, abs_tol=0.0)

    @pytest.mark.parametrize("D", ["5", "0.005"])
    def test_bound_csv_ends_at_the_json_tail_sum(self, tmp_path, D):
        out = tmp_path / "out"
        assert cli.main(["bound", reference_config(tmp_path), "--D", D, "--out", str(out)]) == 0
        last = float(read_columns(out / "bound.csv")["cumulative_tail"][-1])
        tail_sum = strict_load(out / "bound.json")["tail_sum"]
        assert math.isclose(last, tail_sum, rel_tol=1e-12, abs_tol=0.0)

    def test_experiment_cells_read_back_exactly(self, tmp_path, monkeypatch):
        kept = kept_returns(monkeypatch, "run_alltime_experiment")
        out = tmp_path / "out"
        cfg = reference_config(tmp_path, n_trajectories=24, horizon=600)
        assert cli.main(["experiment", cfg, "--out", str(out)]) == 0
        res = kept[0]
        quantiles = {f"err_{k}": v for k, v in res.err_quantiles.items()}
        expected = {"radius": res.radius, "err_max": res.per_m_err_max, **quantiles}
        assert_cells_exact(out / "per_m.csv", expected)
        grid = res.grid
        assert_cells_exact(
            out / "summary.csv",
            {
                "epsilon": [r.epsilon for r in grid],
                "delta": [r.delta for r in grid],
                "floor": [r.floor for r in grid],
                "alltime_prob": [r.alltime_prob for r in grid],
                "wilson_lo": [r.interval[0] for r in grid],
                "wilson_hi": [r.interval[1] for r in grid],
                "tail_sum": [r.tail_sum for r in grid],
                "theoretical_lower_bound": [r.theoretical_lower_bound for r in grid],
            },
        )

    def test_bound_cells_read_back_exactly(self, tmp_path, monkeypatch):
        kept = kept_returns(monkeypatch, "evaluate_bound")
        out = tmp_path / "out"
        path = reference_config(tmp_path)
        assert cli.main(["bound", path, "--D", "0.05", "--out", str(out)]) == 0
        report = kept[0]
        terms = report.tail_terms(load_config(path).schedule)
        assert_cells_exact(
            out / "bound.csv",
            {"radius": report.radius, "tail_term": terms, "cumulative_tail": np.cumsum(terms)},
        )

    def test_simulate_cells_read_back_exactly(self, tmp_path, monkeypatch):
        windows, real = [], cli.simulate_trajectory
        monkeypatch.setattr(cli, "simulate_trajectory", lambda *args: (
            windows.append(w) or w for w in real(*args)
        ))
        out = tmp_path / "out"
        argv = ["simulate", reference_config(tmp_path), "--trajectory", "3", "--components"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        rec = join_windows(windows)
        assert_cells_exact(
            out / "trajectory_3.csv",
            {
                "dist_to_target": rec.dist_to_target,
                "dist_to_comparison": rec.dist_to_comparison,
                "peak_deviation": rec.peak_deviation,
                **{f"x{j}": rec.x[:, j] for j in range(rec.x.shape[1])},
            },
        )

    @pytest.mark.parametrize("writer", ["trajectory", "per_m"])
    def test_long_columns_are_written_without_whole_lists(self, tmp_path, writer):
        # one 10^5-row float column as a Python list takes 8 + 24 bytes a row, about 3.2 MB
        T = 100_000
        rng = np.random.default_rng(0)

        def floats(*shape):  # eighths, whose short reprs keep the writing fast
            return rng.integers(0, 1024, (T + 1, *shape)) / 8

        if writer == "trajectory":
            rec = TrajectoryRecord(
                states=rng.integers(0, 5, T + 1), x=floats(2), z=floats(2), dist_to_target=floats(),
                dist_to_comparison=floats(), peak_deviation=floats(),
            )
            write = lambda path: cli._write_trajectory_csv(path, [rec], True)  # noqa: E731
            columns = [np.arange(T + 1), rec.states, rec.dist_to_target, rec.dist_to_comparison,
                       rec.peak_deviation, *rec.x.T]
        else:
            keys = ("q25", "q50", "q75", "q90")
            res = SimpleNamespace(
                n0=7, horizon=T + 7, radius=floats(), per_m_err_max=floats(),
                err_quantiles={k: floats() for k in keys}, per_m_violation_counts=rng.integers(0, 9, T + 1),
            )
            write = lambda path: cli._write_per_m_csv(path, res)  # noqa: E731
            columns = [np.arange(7, T + 8), res.radius, res.per_m_err_max,
                       *(res.err_quantiles[k] for k in keys), res.per_m_violation_counts]
        path = tmp_path / "chunked.csv"
        tracemalloc.start()
        try:
            write(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (T + 1) * 32
        # the same bytes as rows zipped from whole-column lists
        lists = tmp_path / "lists.csv"
        header = path.read_text().splitlines()[0].split(",")
        cli._write_csv(lists, header, zip(*(c.tolist() for c in columns)))
        assert path.read_bytes() == lists.read_bytes()


class TestRowWriter:
    VALUES = [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 0.1 + 0.2,
              1.7976931348623157e308, math.inf, -math.inf, math.nan]

    def rows(self, n):
        """``n`` rows of Python ints and floats, every value in every column."""
        k = len(self.VALUES)
        return [(i, -7 * i, 2**63 + i, *(self.VALUES[(i + j) % k] for j in range(k)), i / 3)
                for i in range(n)]

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 4097])
    def test_same_bytes_as_the_csv_module(self, tmp_path, n):
        header = ["m", "neg", "big", *(f"v{j}" for j in range(len(self.VALUES))), "third"]
        rows = self.rows(n)
        cli._write_csv(tmp_path / "rows.csv", header, iter(rows))
        with open(tmp_path / "module.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "module.csv").read_bytes()

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 4097])
    def test_at_most_one_chunk_of_rows_a_write(self, n):
        writes = []
        cli._write_rows(SimpleNamespace(write=writes.append), None, iter(self.rows(n)))
        lines = [w.count("\r\n") for w in writes]
        assert sum(lines) == n and max(lines) <= cli._ROWS
        assert len(writes) == -(-n // cli._ROWS)


class TestOutputFormats:
    FILES = {
        "solve": ["analytic.json"],
        "bound": ["bound.csv", "bound.json"],
        "experiment": ["per_m.csv", "result.json", "summary.csv"],
    }

    @pytest.mark.parametrize("formats", [["csv"], []], ids=["csv", "none"])
    def test_only_listed_formats_are_written(self, tmp_path, capsys, formats):
        raw = reference_config_dict(horizon=300, n_trajectories=8)
        raw["experiment"]["D_const"] = 5.0
        del raw["output"]["formats"]  # the default: json and csv
        default = tmp_path / "default.json"
        default.write_text(json.dumps(raw))
        raw["output"]["formats"] = formats
        chosen = tmp_path / "chosen.json"
        chosen.write_text(json.dumps(raw))
        for command, files in self.FILES.items():
            full, some = tmp_path / "full" / command, tmp_path / "some" / command
            assert cli.main([command, str(default), "--out", str(full)]) == 0
            assert sorted(p.name for p in full.iterdir()) == files
            printed = capsys.readouterr().out
            if command != "experiment":
                assert printed == f"{full / files[-1]}\n"
            assert cli.main([command, str(chosen), "--out", str(some)]) == 0
            kept = [name for name in files if name.rsplit(".", 1)[1] in formats]
            assert sorted(p.name for p in some.iterdir()) == kept
            for name in kept:
                assert (some / name).read_bytes() == (full / name).read_bytes()
            printed = capsys.readouterr().out
            if command != "experiment":
                assert printed == ""  # no JSON file, so no path


class TestDistanceOverflow:
    @pytest.mark.parametrize("D_const", [None, 5.0], ids=["fitted", "given"])
    def test_experiment_names_the_first_overflowing_step(self, tmp_path, capsys, D_const):
        # the iterates stay finite, but their distances to x* overflow;
        # a numpy RuntimeWarning would fail the test, as pytest turns it into an error
        given = {} if D_const is None else {"D_const": D_const}
        config = reference_config(
            tmp_path, initial_x=[1e308, -1e308], n_trajectories=50, horizon=3000, **given
        )
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert cli.main(["experiment", config, "--jobs", jobs, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                "numerical failure: the distance to x* of trajectory 0 overflows at step 100\n"
            )
            assert not out.exists()


class TestBoundMatchesExperiment:
    def test_primary_cell_agrees(self, tmp_path):
        # both commands evaluate the primary cell through one evaluator, at the same p_init
        config = reference_config(tmp_path, D_const=5.0, n_trajectories=200)
        bound_out, experiment_out = tmp_path / "bound", tmp_path / "experiment"
        assert cli.main(["bound", config, "--out", str(bound_out)]) == 0
        assert cli.main(["experiment", config, "--out", str(experiment_out)]) == 0
        bound = strict_load(bound_out / "bound.json")
        result = strict_load(experiment_out / "result.json")
        keys = {
            "floor": "floor",
            "tail_sum": "tail_sum",
            "prob_lower_bound": "theoretical_lower_bound",
            "p_init": "empirical_p_init",
        }
        for bound_key, result_key in keys.items():
            assert bound[bound_key] == result[result_key], bound_key
        radius = read_columns(bound_out / "bound.csv")["radius"]
        assert radius == read_columns(experiment_out / "per_m.csv")["radius"]
