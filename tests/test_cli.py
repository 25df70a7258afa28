import ast
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
from tdlab.bounds import build_query, evaluate_bound
from tdlab.config import load_config
from tdlab.errors import NonFinite
from tdlab.harness import Checkpoints, _base_spec, _run_ensemble, _sample_paths
from tdlab.instances import reference_config_dict
from tdlab.schedule import StepSchedule


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


class TestStartUp:
    def test_import_loads_no_scipy(self):
        # scipy serves only the infinite tail's remainder; every command's start-up skips it
        code = "import sys, tdlab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "[]"

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
        kept = kept_returns(monkeypatch, "simulate_trajectory")
        out = tmp_path / "out"
        argv = ["simulate", reference_config(tmp_path), "--trajectory", "3", "--components"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        rec = kept[0]
        assert_cells_exact(
            out / "trajectory_3.csv",
            {
                "dist_to_target": rec.dist_to_target,
                "dist_to_comparison": rec.dist_to_comparison,
                "peak_deviation": rec.peak_deviation,
                **{f"x{j}": rec.x[:, j] for j in range(rec.x.shape[1])},
            },
        )
