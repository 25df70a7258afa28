import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tdlab.cli as cli
from tdlab import harness
from tdlab.config import load_config
from tdlab.errors import NonFinite
from tdlab.harness import Checkpoints, _base_spec, _run_ensemble, _sample_paths
from tdlab.instances import reference_config_dict


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
        spec = _base_spec(exp, cfg.analytic, exp.horizon, (every_step,))
        states = _sample_paths(spec, 0, exp.n_trajectories)
        iterates = _run_ensemble(spec, exp.n_trajectories, 5, 1)[0].x
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


class TestSimulate:
    def test_horizon_below_start_index(self, tmp_path):
        # simulate runs from step 0, so the experiment's n0 = 100 does not bound it
        out = tmp_path / "out"
        argv = ["simulate", reference_config(tmp_path), "--horizon", "50", "--out", str(out)]
        assert cli.main(argv) == 0
        with open(out / "trajectory_0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == list(range(51))


class TestQuantileCap:
    def test_blank_quantiles_are_reported(self, tmp_path, monkeypatch, capsys):
        cfg = reference_config(tmp_path, n_trajectories=4, horizon=300)
        monkeypatch.setattr(harness, "MAX_ERR_MATRIX_CELLS", 803)  # 4 x 201 cells needed
        out = tmp_path / "capped"
        assert cli.main(["experiment", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "804 cells, over MAX_ERR_MATRIX_CELLS = 803" in err
        with open(out / "per_m.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 201 and all(row["err_q50"] == "" for row in rows)

        monkeypatch.setattr(harness, "MAX_ERR_MATRIX_CELLS", 804)
        full = tmp_path / "full"
        assert cli.main(["experiment", cfg, "--out", str(full)]) == 0
        assert "MAX_ERR_MATRIX_CELLS" not in capsys.readouterr().err
        assert (full / "result.json").read_bytes() == (out / "result.json").read_bytes()


class TestStartUp:
    def test_import_loads_no_scipy(self):
        # scipy serves only the infinite tail's remainder; every command's start-up skips it
        code = "import sys, tdlab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "[]"
