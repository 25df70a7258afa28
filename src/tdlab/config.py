"""Problem configuration files: parsing, building, and cross-validation.

One self-contained JSON document describes a whole experiment: the chain,
rewards, discount, features, step-size schedule, experiment parameters
and output destination.  Parsing errors carry the offending field path.
Cross-validation (feature scaling, start-index feasibility) runs at load
time and is collected as a list of issues; the validate command reports
them, every other command refuses to run while any are present.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analytic import AnalyticSolution, PolicyEvalProblem, solve_problem
from .bounds import require_feasible
from .errors import ConfigError, InfeasibleStart, ValidationError
from .features import build_features
from .harness import ExperimentConfig
from .markov import build_chain
from .schedule import StepSchedule


@dataclass
class LoadedConfig:
    problem: PolicyEvalProblem
    schedule: StepSchedule
    experiment: ExperimentConfig | None
    p_init_user: float | None
    output_dir: str
    formats: tuple[str, ...]
    analytic: AnalyticSolution | None
    issues: list[str] = field(default_factory=list)

    def require_clean(self) -> None:
        if self.issues:
            raise ConfigError("; ".join(self.issues))

    def require_analytic(self) -> AnalyticSolution:
        self.require_clean()
        if self.analytic is None:
            raise ConfigError("analytic solution unavailable (feature scaling check failed)")
        return self.analytic

    def require_experiment(self) -> ExperimentConfig:
        if self.experiment is None:
            raise ConfigError("config has no 'experiment' block")
        return self.experiment


def _require(mapping: dict, key: str, path: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected an object")
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    return mapping[key]


def _known(mapping: dict, path: str, fields: tuple[str, ...]) -> None:
    """Refuse any key of ``mapping`` outside ``fields``, so that a misspelt
    optional field is not silently left at its default."""
    for key in mapping:
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _array(value, path: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a numeric array ({exc})") from exc
    if arr.ndim != ndim:
        raise ConfigError(f"{path}: expected a {ndim}-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}: entries must be finite numbers")
    return arr


def _matrix(value, path: str) -> np.ndarray:
    return _array(value, path, 2)


def _vector(value, path: str) -> np.ndarray:
    return _array(value, path, 1)


def _build_schedule(block: dict) -> StepSchedule:
    kind = _require(block, "kind", "schedule")
    _known(block, "schedule", ("kind", "d1", "d2", "d3", "values"))

    def number(key: str) -> float:
        return _number(_require(block, key, "schedule"), f"schedule.{key}")

    if kind == "harmonic":
        make, args = StepSchedule.harmonic, dict(d1=number("d1"))
    elif kind == "polynomial":
        make = StepSchedule.polynomial
        args = dict(d3=number("d3"), d2=number("d2"), d1=number("d1") if "d1" in block else None)
    elif kind == "table":
        make = StepSchedule.table
        values = _vector(_require(block, "values", "schedule"), "schedule.values")
        args = dict(values=values, d1=number("d1"), d2=number("d2"), d3=number("d3"))
    else:
        raise ConfigError(f"schedule.kind: unknown kind {kind!r}")
    try:
        return make(**args)
    except ValidationError as exc:  # its message starts with the field name
        raise ConfigError(f"schedule.{exc}") from exc


def load_config(path: str | Path) -> LoadedConfig:
    """Parse, build and cross-validate a problem configuration file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _known(raw, "$", ("chain", "rewards", "gamma", "features", "schedule", "experiment", "output"))

    block = _require(raw, "chain", "$")
    P = _matrix(_require(block, "P", "chain"), "chain.P")
    _known(block, "chain", ("P",))
    try:
        chain = build_chain(P)
    except ValidationError as exc:
        raise ConfigError(f"chain.P: {exc}") from exc
    block = _require(raw, "rewards", "$")
    rewards = _vector(_require(block, "r", "rewards"), "rewards.r")
    _known(block, "rewards", ("r",))
    gamma = _number(_require(raw, "gamma", "$"), "gamma")
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma: must lie in (0, 1), got {gamma}")
    block = _require(raw, "features", "$")
    Phi = _matrix(_require(block, "Phi", "features"), "features.Phi")
    _known(block, "features", ("Phi",))
    try:
        features = build_features(Phi)
    except ValidationError as exc:
        raise ConfigError(f"features.Phi: {exc}") from exc
    schedule = _build_schedule(_require(raw, "schedule", "$"))

    try:
        problem = PolicyEvalProblem(chain, rewards, gamma, features)
    except ValidationError as exc:  # its message starts with the argument at fault
        arg, _, msg = str(exc).partition(": ")
        name = {"rewards": "rewards.r", "features": "features.Phi"}.get(arg, arg)
        raise ConfigError(f"{name}: {msg}") from exc

    issues: list[str] = []
    analytic: AnalyticSolution | None = None
    if problem.assumption.satisfied:
        analytic = solve_problem(problem)
    else:
        issues.append(
            "feature scaling condition fails: gain "
            f"{problem.assumption.feature_gain:.6g} >= threshold "
            f"{problem.assumption.threshold:.6g}; rescale features by "
            f"{problem.assumption.rescaling_factor:.6g} or less"
        )

    experiment: ExperimentConfig | None = None
    p_init_user: float | None = None
    if "experiment" in raw:
        exp = raw["experiment"]
        if not isinstance(exp, dict):
            raise ConfigError("experiment: expected an object")
        _known(exp, "experiment", (
            "n0", "horizon", "n_trajectories", "master_seed", "epsilon", "delta", "D_const",
            "initial_state_policy", "initial_x", "epsilon_grid", "delta_grid", "p_init",
        ))
        fields = dict(
            n0=_integer(_require(exp, "n0", "experiment"), "experiment.n0"),
            horizon=_integer(_require(exp, "horizon", "experiment"), "experiment.horizon"),
            n_trajectories=_integer(
                _require(exp, "n_trajectories", "experiment"), "experiment.n_trajectories"
            ),
            master_seed=_integer(
                _require(exp, "master_seed", "experiment"), "experiment.master_seed"
            ),
            epsilon=_number(_require(exp, "epsilon", "experiment"), "experiment.epsilon"),
            delta=_number(_require(exp, "delta", "experiment"), "experiment.delta"),
            D_const=None
            if exp.get("D_const") is None
            else _number(exp["D_const"], "experiment.D_const"),
            initial_state_policy=exp.get("initial_state_policy", "stationary"),
            initial_x=None
            if exp.get("initial_x") is None
            else _vector(exp["initial_x"], "experiment.initial_x"),
            epsilon_grid=None
            if exp.get("epsilon_grid") is None
            else tuple(_vector(exp["epsilon_grid"], "experiment.epsilon_grid").tolist()),
            delta_grid=None
            if exp.get("delta_grid") is None
            else tuple(_vector(exp["delta_grid"], "experiment.delta_grid").tolist()),
        )
        try:
            experiment = ExperimentConfig(problem=problem, schedule=schedule, **fields)
        except ValidationError as exc:  # its message starts with the field name
            raise ConfigError(f"experiment.{exc}") from exc
        if schedule.values is not None and len(schedule.values) < experiment.horizon:
            raise ConfigError(
                f"schedule.values: {len(schedule.values)} values do not cover "
                f"experiment.horizon = {experiment.horizon}"
            )
        if exp.get("p_init") is not None:
            p_init_user = _number(exp["p_init"], "experiment.p_init")
            if not 0.0 <= p_init_user <= 1.0:
                raise ConfigError(f"experiment.p_init: must lie in [0, 1], got {p_init_user}")
        if analytic is not None:
            try:
                require_feasible(analytic.constants, schedule, experiment.n0)
            except InfeasibleStart as exc:
                issues.append(f"experiment.n0: {exc}")

    output_dir = "."
    formats: tuple[str, ...] = ("json", "csv")
    if "output" in raw:
        out = raw["output"]
        if not isinstance(out, dict):
            raise ConfigError("output: expected an object")
        _known(out, "output", ("dir", "formats"))
        output_dir = out.get("dir", ".")
        if not isinstance(output_dir, str):
            raise ConfigError(f"output.dir: expected a string, got {type(output_dir).__name__}")
        fmts = out.get("formats", ["json", "csv"])
        if not isinstance(fmts, list) or not all(f in ("json", "csv") for f in fmts):
            raise ConfigError("output.formats: entries must be 'json' or 'csv'")
        formats = tuple(fmts)

    return LoadedConfig(
        problem=problem,
        schedule=schedule,
        experiment=experiment,
        p_init_user=p_init_user,
        output_dir=output_dir,
        formats=formats,
        analytic=analytic,
        issues=issues,
    )
