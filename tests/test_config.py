import json
from dataclasses import fields

import numpy as np
import pytest

import tdlab.cli as cli
from tdlab.config import _EXPERIMENT, load_config
from tdlab.errors import ConfigError, ValidationError
from tdlab.harness import ExperimentConfig
from tdlab.instances import reference_config_dict
from tdlab.schedule import StepSchedule


def write_config(tmp_path, raw) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    return str(path)


def with_experiment(**fields) -> dict:
    raw = reference_config_dict(horizon=300, n_trajectories=10)
    raw["experiment"].update(fields)
    return raw


class TestLoadConfig:
    def test_reference_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, reference_config_dict()))
        exp = cfg.require_experiment()
        assert cfg.issues == []
        assert cfg.analytic is not None
        assert (exp.n0, exp.horizon, exp.n_trajectories) == (100, 10_000, 2000)
        assert exp.initial_state_policy == "stationary"
        assert exp.fixed_initial_state() == -1
        assert cfg.formats == ("json", "csv")

    def test_fixed_state_in_range(self, tmp_path):
        cfg = load_config(write_config(tmp_path, with_experiment(initial_state_policy="fixed:4")))
        assert cfg.require_experiment().fixed_initial_state() == 4

    @pytest.mark.parametrize(
        "fields, path",
        [
            (dict(initial_state_policy="fixed:abc"), "experiment.initial_state_policy"),
            (dict(initial_state_policy="fixed:9"), "experiment.initial_state_policy"),
            (dict(initial_state_policy="fixed:-1"), "experiment.initial_state_policy"),
            (dict(initial_state_policy=5), "experiment.initial_state_policy"),
            (dict(initial_state_policy="random"), "experiment.initial_state_policy"),
            (dict(master_seed=-1), "experiment.master_seed"),
            (dict(master_seed=1.5), "experiment.master_seed"),
            (dict(n_trajectories=0), "experiment.n_trajectories"),
            (dict(horizon=100), "experiment.horizon"),
            (dict(epsilon=0.0), "experiment.epsilon"),
            (dict(delta=2.0), "experiment.delta"),
            (dict(initial_x=[0.0]), "experiment.initial_x"),
            (dict(delta_grid=[0.1, 0.0]), "experiment.delta_grid"),
            (dict(p_init=1.5), "experiment.p_init"),
            (dict(epsilon_grid=[0.01, 0.01]), "experiment.epsilon_grid"),
            (dict(delta_grid=[0.1, 0.5, 0.1]), "experiment.delta_grid"),
        ],
    )
    def test_bad_experiment_field_is_named(self, tmp_path, fields, path):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, with_experiment(**fields)))
        assert str(info.value).startswith(f"{path}:")

    def test_experiment_table_is_the_config_dataclass(self):
        # every field of the block is one field of ExperimentConfig, under the same name
        assert set(_EXPERIMENT) == (
            {f.name for f in fields(ExperimentConfig)} - {"problem", "schedule", "batch_size"}
        )

    @pytest.mark.parametrize("section", ["chain", "schedule", "experiment", "output"])
    def test_null_block_is_refused(self, tmp_path, section):
        raw = with_experiment()
        raw[section] = None
        with pytest.raises(ConfigError, match=f"^{section}: expected an object$"):
            load_config(write_config(tmp_path, raw))

    @pytest.mark.parametrize("section", ["chain", "rewards", "gamma", "features", "schedule"])
    def test_missing_top_level_field_is_bare(self, tmp_path, section):
        raw = with_experiment()
        del raw[section]
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, raw))
        assert str(info.value) == f"{section}: missing required field"

    def test_missing_field_is_named(self, tmp_path):
        raw = with_experiment()
        del raw["experiment"]["n0"]
        with pytest.raises(ConfigError, match=r"^experiment\.n0: missing required field"):
            load_config(write_config(tmp_path, raw))

    def test_bad_top_level_fields_are_named(self, tmp_path):
        raw = with_experiment()
        raw["gamma"] = 1.0
        with pytest.raises(ConfigError, match=r"^gamma:"):
            load_config(write_config(tmp_path, raw))
        raw = with_experiment()
        raw["output"] = {"formats": ["xml"]}
        with pytest.raises(ConfigError, match=r"^output\.formats:"):
            load_config(write_config(tmp_path, raw))
        for section, value in (
            ("chain", 5), ("chain", "P"), ("rewards", 5), ("features", 5), ("schedule", 5)
        ):
            raw = with_experiment()
            raw[section] = value
            with pytest.raises(ConfigError, match=f"^{section}: expected an object$"):
                load_config(write_config(tmp_path, raw))

    @pytest.mark.parametrize(
        "path, message",
        [
            ("features.Phi", "the matrix has 4 rows but the chain has 5 states"),
            ("rewards.r", "must have shape (5,), got (4,)"),
        ],
    )
    def test_problem_field_that_misses_a_state_is_named(self, tmp_path, path, message):
        raw = with_experiment()
        section, key = path.split(".")
        raw[section][key] = raw[section][key][:4]
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, raw))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "schedule, field, words",
        [
            ({"kind": "polynomial", "d2": 0.8}, "d3", "missing required field"),
            ({"kind": "harmonic", "d1": "x"}, "d1", "expected a number"),
            ({"kind": "polynomial", "d3": 0.5, "d2": 1.5}, "d2", "must lie in"),
            ({"kind": "table", "values": [0.1, 0.2], "d1": 0.1, "d2": 1.0, "d3": 0.5},
             "values", "non-increasing"),
            ({"kind": "table", "values": [0.5, 0.01], "d1": 0.4, "d2": 1.0, "d3": 0.9},
             "values", "envelope"),
            # a field the kind does not take is still parsed; it used to be ignored
            ({"kind": "harmonic", "d1": 0.5, "d2": "x"}, "d2", "expected a number"),
        ],
        ids=[
            "missing-d3", "d1-not-a-number", "d2-range", "table-increasing", "table-envelope",
            "harmonic-d2-not-a-number",
        ],
    )
    def test_bad_schedule_field_is_named_once(self, tmp_path, schedule, field, words):
        raw = with_experiment()
        raw["schedule"] = schedule
        with pytest.raises(ConfigError, match=rf"^schedule\.{field}: .*{words}") as info:
            load_config(write_config(tmp_path, raw))
        assert str(info.value).count("schedule") == 1

    def test_table_shorter_than_the_horizon_is_named(self, tmp_path):
        def with_table(length):
            raw = with_experiment()  # n0 = 100, horizon = 300
            values = (0.5 / np.arange(1, length + 1)).tolist()
            raw["schedule"] = {"kind": "table", "values": values, "d1": 0.5, "d2": 1.0, "d3": 0.5}
            return raw

        for length in (50, 299):
            with pytest.raises(ConfigError, match=r"^schedule\.values: .*horizon = 300"):
                load_config(write_config(tmp_path, with_table(length)))
        assert load_config(write_config(tmp_path, with_table(300))).issues == []

    @pytest.mark.parametrize(
        "block, key",
        [
            ("$", "gama"),
            ("chain", "p"),
            ("rewards", "rr"),
            ("features", "phi"),
            ("schedule", "d_1"),
            ("experiment", "D_cosnt"),
            ("output", "formts"),
        ],
    )
    def test_misspelt_key_exits_1(self, tmp_path, capsys, block, key):
        # a misspelt optional field used to be ignored: D_cosnt left D_const unset, so D was fitted
        raw = with_experiment()
        (raw if block == "$" else raw[block])[key] = 1.0
        path = write_config(tmp_path, raw)
        name = key if block == "$" else f"{block}.{key}"  # top-level paths are bare
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"{name}: unknown field"
        assert cli.main(["validate", path]) == 1
        assert f"error: {name}: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [None, 5, ["a"]], ids=["null", "integer", "list"])
    def test_output_dir_that_is_not_a_string_exits_1(self, tmp_path, capsys, monkeypatch, value):
        # it used to go through str(), so null wrote to ./None/ and ["a"] to ./['a']/
        monkeypatch.chdir(tmp_path)
        raw = with_experiment()
        raw["output"]["dir"] = value
        path = write_config(tmp_path, raw)
        message = f"output.dir: expected a string, got {type(value).__name__}"
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message
        assert cli.main(["experiment", path]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_malformed_json_gives_its_position(self, tmp_path):
        with pytest.raises(ConfigError, match=r"cfg\.json:1:2:"):
            load_config(write_config(tmp_path, "{,}"))

    def test_infeasible_start_is_an_issue_not_an_error(self, tmp_path):
        cfg = load_config(write_config(tmp_path, with_experiment(n0=1)))
        assert any(issue.startswith("experiment.n0:") for issue in cfg.issues)
        with pytest.raises(ConfigError):
            cfg.require_analytic()


class TestExperimentConfig:
    def test_messages_start_with_the_field(self, ref_problem):
        base = dict(
            problem=ref_problem,
            schedule=StepSchedule.harmonic(0.5),
            n0=100,
            horizon=300,
            n_trajectories=10,
            master_seed=0,
            epsilon=0.5,
            delta=0.5,
        )
        for field, value in (
            ("initial_state_policy", "fixed:x"),
            ("initial_state_policy", None),
            ("master_seed", -3),
            ("n0", -1),
            ("initial_x", np.zeros(3)),
        ):
            with pytest.raises(ValidationError, match=f"^{field}:"):
                ExperimentConfig(**dict(base, **{field: value}))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("p_init", 1.5, "p_init: must lie in [0, 1], got 1.5"),
            ("p_init", -0.25, "p_init: must lie in [0, 1], got -0.25"),
            ("epsilon_grid", (0.01, 0.03, 0.01), "epsilon_grid: entries must be distinct"),
            ("delta_grid", (0.5, 0.5), "delta_grid: entries must be distinct"),
        ],
    )
    def test_p_init_and_grid_checks(self, ref_problem, field, value, message):
        with pytest.raises(ValidationError) as info:
            ExperimentConfig(
                problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=100, horizon=300,
                n_trajectories=10, master_seed=0, epsilon=0.5, delta=0.5, **{field: value},
            )
        assert str(info.value) == message

    @pytest.mark.parametrize("batch_size", [-5, 0])
    def test_batch_size_below_one_refused(self, ref_problem, batch_size):
        # -5 used to simulate nothing and report rows of np.empty; 0 ended in range()'s ValueError
        with pytest.raises(ValidationError, match=f"^batch_size: must be >= 1, got {batch_size}$"):
            ExperimentConfig(
                problem=ref_problem, schedule=StepSchedule.harmonic(0.5), n0=100, horizon=300,
                n_trajectories=10, master_seed=0, epsilon=0.5, delta=0.5, batch_size=batch_size,
            )
