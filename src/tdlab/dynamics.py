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

Iterates are never projected or clipped.  The engine raises at the
first non-finite online iterate, with its step.  ``run_deterministic``
never raises: Python's float ``*``, ``+`` and ``-`` return inf or NaN
without raising, as numpy's do, and the comparison run carries them on.
``cli._write_trajectory_csv`` then finds the first non-finite cell of a
window and exits 2, naming its column and step, so divergence is reported
rather than silently absorbed.

Up to ``_FLOAT_MAX_D`` features the comparison run steps on Python
floats, since numpy's fixed cost per call would be most of a step (4.6 us
a step against 1.5 us on floats at d = 2, on a shared 2-core x86-64
host).  Each row of ``map_matrix @ z`` is then a left fold of its
products, the order numpy's pairwise sum takes below 8 terms, so the
floats equal ``mean_field``'s bits.  At 6 features the two loops cost the
same (4.8 us a step), and the float loop's cost grows with d squared
(6.5 against 4.6 us at d = 8), so a wider run iterates ``mean_field``
itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul

import numpy as np

from .analytic import PolicyEvalProblem
from .errors import ValidationError
from .schedule import StepSchedule

_FLOAT_MAX_D = 5  # most features a comparison run steps on Python floats, not numpy


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
    ``start``; returns the iterates for steps [start, stop].  Every step is
    ``z + a * (problem.mean_field(z) - z)`` bit for bit, on Python floats up
    to ``_FLOAT_MAX_D`` features, so a run from its last iterate continues
    it exactly."""
    if stop <= start:
        raise ValidationError(f"horizon {stop} must exceed start {start}")
    d = problem.n_features
    z = np.asarray(initial_z, dtype=float).copy()
    if z.shape != (d,):
        raise ValidationError(f"initial point must have shape ({d},), got {z.shape}")
    steps = schedule.steps(start, stop).tolist()
    if d > _FLOAT_MAX_D:
        out = np.empty((stop - start + 1, d))
        out[0] = z
        for k, a in enumerate(steps, 1):
            z = z + a * (problem.mean_field(z) - z)
            out[k] = z
        return out
    # mean_field's operations on floats, in its order: (z - Mz) + b, then z + a (mf - z)
    M, b = problem.map_matrix.tolist(), problem.map_offset.tolist()
    rows = [z.tolist()]
    for a in steps:
        z = rows[-1]
        rows.append([v + a * (v - reduce(add, map(mul, m, z)) + c - v) for v, m, c in zip(z, M, b)])
    return np.array(rows)
