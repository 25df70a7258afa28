"""The single-path record and the noiseless comparison run.

``harness.simulate_trajectory`` runs the ensemble engine on one
trajectory and yields one :class:`TrajectoryRecord` per lockstep window;
``cli`` writes each as rows of the ``simulate`` CSV before the next
window runs, so no array of the path outlives its window.  The
comparison recursion replaces the sampled update with its stationary
average and is started from the same point; each window continues it
from the last iterate of the window before (``run_deterministic`` from
``start`` with that iterate).  The gap between the two runs isolates the
stochastic part of the error.

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
    """One window of a simulated trajectory with its comparison run.

    ``x`` and ``z`` hold the online and comparison iterates, one row per
    step of the window.  ``peak_deviation[m]`` is the running sup of the
    gap between them over every step k <= m since step 0, carried over from
    the windows before: it starts at zero and never decreases.
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
    stop: int,
    initial_z: np.ndarray,
) -> np.ndarray:
    """Iterate the averaged (noiseless) recursion from ``initial_z`` at step
    ``start``; returns the iterates for steps [start, stop].  A run from its
    last iterate continues it exactly."""
    if stop <= start:
        raise ValidationError(f"horizon {stop} must exceed start {start}")
    d = problem.n_features
    z = np.asarray(initial_z, dtype=float).copy()
    if z.shape != (d,):
        raise ValidationError(f"initial point must have shape ({d},), got {z.shape}")
    out = np.empty((stop - start + 1, d))
    out[0] = z
    for k, a in enumerate(schedule.steps(start, stop).tolist(), 1):
        z = z + a * (problem.mean_field(z) - z)
        out[k] = z
    return out
