import json

import numpy as np
import pytest

from tdlab.config import load_config
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
        ],
    )
    def test_bad_experiment_field_is_named(self, tmp_path, fields, path):
        with pytest.raises(ConfigError) as info:
            load_config(write_config(tmp_path, with_experiment(**fields)))
        assert str(info.value).startswith(f"{path}:")

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
        "schedule, field, words",
        [
            ({"kind": "polynomial", "d2": 0.8}, "d3", "missing required field"),
            ({"kind": "harmonic", "d1": "x"}, "d1", "expected a number"),
            ({"kind": "polynomial", "d3": 0.5, "d2": 1.5}, "d2", "must lie in"),
            ({"kind": "table", "values": [0.1, 0.2], "d1": 0.1, "d2": 1.0, "d3": 0.5},
             "values", "non-increasing"),
            ({"kind": "table", "values": [0.5, 0.01], "d1": 0.4, "d2": 1.0, "d3": 0.9},
             "values", "envelope"),
        ],
        ids=["missing-d3", "d1-not-a-number", "d2-range", "table-increasing", "table-envelope"],
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
