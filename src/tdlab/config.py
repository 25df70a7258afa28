"""Problem configuration files: parsing, building, and cross-validation.

One self-contained JSON document describes a whole experiment: the chain,
rewards, discount, features, step-size schedule, experiment parameters
and output destination.  Each block -- the top level, ``chain``,
``rewards``, ``features``, ``schedule``, ``experiment`` and ``output`` --
has one table that maps each of its keys to a parser and a default, and
``_fields`` applies every table by one rule:

* a block that is not an object: ``<path>: expected an object``;
* a key outside the table: ``<path>.<key>: unknown field``;
* a missing key with no default: ``<path>.<key>: missing required field``;
* a present key is parsed with its path, so each message starts with the
  field at fault.  A null value gives None where that is the field's
  default; a null block or a null required value is refused.

Top-level paths are bare (``gamma: ...``, ``chain: missing required
field``), nested ones dotted (``experiment.n0: ...``).  A schedule's kind
decides which of its fields are required.  ``ExperimentConfig`` holds
the experiment block's rules; ``experiment_errors`` names the block in
their messages, here and in the CLI.  Cross-validation (feature
scaling, start-index feasibility) runs at load time and is collected as a
list of issues; the validate command reports them, every other command
refuses to run while any are present.
"""

from __future__ import annotations

import inspect
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields as dataclass_fields
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


def _grid(value, path: str) -> tuple[float, ...]:
    return tuple(_vector(value, path).tolist())


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _formats(value, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(f in ("json", "csv") for f in value):
        raise ConfigError(f"{path}: entries must be 'json' or 'csv'")
    return tuple(value)


_REQUIRED = object()  # the default of a key that must be present


def _fields(raw, path: str, table: dict) -> dict:
    """The fields of the block ``raw`` at ``path`` ("" for the top level),
    one per key of ``table``.  ``table`` maps each key to ``(parse, default)``,
    where ``parse`` is ``parse(value, path)`` or the table of a nested block.
    A parser may build an object; the field's path goes in front of any
    error the build raises."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    prefix = f"{path}." if path else ""
    for key in raw:
        if key not in table:
            raise ConfigError(f"{prefix}{key}: unknown field")
    fields = {}
    for key, (parse, default) in table.items():
        if key not in raw and default is _REQUIRED:
            raise ConfigError(f"{prefix}{key}: missing required field")
        if key in raw and isinstance(parse, dict):
            fields[key] = _fields(raw[key], prefix + key, parse)
        elif key not in raw or (raw[key] is None and default is None):
            fields[key] = default
        else:
            try:
                fields[key] = parse(raw[key], prefix + key)
            except ConfigError:
                raise
            except ValidationError as exc:
                raise ConfigError(f"{prefix}{key}: {exc}") from exc
    return fields


# Each kind's factory.  Its parameters are the fields that kind takes, and
# those without a default are required.
_KINDS = {kind: getattr(StepSchedule, kind) for kind in ("harmonic", "polynomial", "table")}

_SCHEDULE = {
    "kind": (_string, _REQUIRED),
    "d1": (_number, None),
    "d2": (_number, None),
    "d3": (_number, None),
    "values": (_vector, None),
}


def _schedule(raw, path: str) -> StepSchedule:
    """Every field present is parsed; the kind decides which are required."""
    fields = _fields(raw, path, _SCHEDULE)
    make = _KINDS.get(fields["kind"])
    if make is None:
        raise ConfigError(f"{path}.kind: unknown kind {fields['kind']!r}")
    params = inspect.signature(make).parameters
    for name, param in params.items():
        if fields[name] is None and param.default is param.empty:
            raise ConfigError(f"{path}.{name}: missing required field")
    try:
        return make(**{name: fields[name] for name in params})
    except ValidationError as exc:  # its message starts with the field name
        raise ConfigError(f"{path}.{exc}") from exc


_EXPERIMENT = {  # ExperimentConfig's fields, less problem, schedule and batch_size
    "n0": (_integer, _REQUIRED),
    "horizon": (_integer, _REQUIRED),
    "n_trajectories": (_integer, _REQUIRED),
    "master_seed": (_integer, _REQUIRED),
    "epsilon": (_number, _REQUIRED),
    "delta": (_number, _REQUIRED),
    "D_const": (_number, None),
    "initial_state_policy": (_string, "stationary"),
    "initial_x": (_vector, None),
    "epsilon_grid": (_grid, None),
    "delta_grid": (_grid, None),
    "p_init": (_number, None),
}

_OUTPUT = {"dir": (_string, "."), "formats": (_formats, ("json", "csv"))}

_TOP = {
    "chain": ({"P": (lambda v, path: build_chain(_matrix(v, path)), _REQUIRED)}, _REQUIRED),
    "rewards": ({"r": (_vector, _REQUIRED)}, _REQUIRED),
    "gamma": (_number, _REQUIRED),
    "features": ({"Phi": (lambda v, path: build_features(_matrix(v, path)), _REQUIRED)}, _REQUIRED),
    "schedule": (_schedule, _REQUIRED),
    "experiment": (_EXPERIMENT, None),
    "output": (_OUTPUT, _fields({}, "output", _OUTPUT)),  # absent: every default
}


@contextmanager
def experiment_errors():
    """Re-raise a :class:`ValidationError` as a :class:`ConfigError`, with
    ``experiment.`` in front of a message that leads with an ``ExperimentConfig`` field."""
    try:
        yield
    except ValidationError as exc:
        fields = {f.name for f in dataclass_fields(ExperimentConfig)}
        prefix = "experiment." if str(exc).partition(":")[0] in fields else ""
        raise ConfigError(f"{prefix}{exc}") from exc


def load_config(path: str | Path) -> LoadedConfig:
    """Parse, build and cross-validate a problem configuration file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    top = _fields(raw, "", _TOP)

    try:
        problem = PolicyEvalProblem(
            top["chain"]["P"], top["rewards"]["r"], top["gamma"], top["features"]["Phi"]
        )
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

    schedule = top["schedule"]
    experiment: ExperimentConfig | None = None
    if top["experiment"] is not None:
        with experiment_errors():
            experiment = ExperimentConfig(problem=problem, schedule=schedule, **top["experiment"])
        if analytic is not None:
            try:
                require_feasible(analytic.constants, schedule, experiment.n0)
            except InfeasibleStart as exc:
                issues.append(f"experiment.n0: {exc}")

    output = top["output"]
    return LoadedConfig(problem, schedule, experiment, output["dir"], output["formats"], analytic, issues)
