"""The single-path record and the noiseless comparison run.

``harness.simulate_trajectory`` runs the ensemble engine on one
trajectory and returns a :class:`TrajectoryRecord`; ``cli`` writes it as
the ``simulate`` CSV, as it writes every other output file.  The
comparison recursion replaces the sampled update with its stationary
average and is started from the same point; the gap between the two runs
isolates the stochastic part of the error.

Iterates are never projected or clipped; divergence raises, with the
step index, rather than being silently absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import PolicyEvalProblem
from .errors import ValidationError
from .schedule import StepSchedule


@dataclass
class TrajectoryRecord:
    """One simulated trajectory over steps 0..T with its comparison run.

    ``x`` and ``z`` hold the online and comparison iterates, one row per
    step.  ``peak_deviation[m]`` is the running sup over k <= m of the gap
    between them; it starts at zero and never decreases.
    """

    states: np.ndarray
    x: np.ndarray
    z: np.ndarray
    dist_to_target: np.ndarray
    dist_to_comparison: np.ndarray
    peak_deviation: np.ndarray


def run_deterministic(
    problem: PolicyEvalProblem,
    schedule: StepSchedule,
    start: int,
    horizon: int,
    initial_z: np.ndarray,
) -> np.ndarray:
    """Iterate the averaged (noiseless) recursion; returns iterates for [start, horizon]."""
    if horizon <= start:
        raise ValidationError(f"horizon {horizon} must exceed start {start}")
    d = problem.n_features
    z = np.asarray(initial_z, dtype=float).copy()
    if z.shape != (d,):
        raise ValidationError(f"initial point must have shape ({d},), got {z.shape}")
    out = np.empty((horizon - start + 1, d))
    out[0] = z
    for k, a in enumerate(schedule.steps(start, horizon).tolist(), 1):
        z = z + a * (problem.mean_field(z) - z)
        out[k] = z
    return out
