"""Closed-form evaluation of the all-time radius curve and its probability bound.

For a feasible start index n0 (the step size there must leave the
contraction some margin), the guaranteed radius at step m is

    radius(m) = exp(-(1 - alpha) * step_sum(n0, m-1)) * epsilon + floor,
    floor     = (a(n0) * (remainder_offset + remainder_gain * epsilon) + delta)
                / (1 - alpha - a(n0) * remainder_gain),

and the event that every step from n0 to the horizon stays inside the
radius has probability at least

    1 - 2 d * sum_{m > n0} exp(-D * delta^2 / tail_weight(n0, m)) - p_init,

where D is the tail-exponent constant (user supplied or fitted
empirically; no closed form is available) and p_init bounds the chance
that the iterate at n0 already sits outside epsilon.  Above the
crossover scale the per-step tail switches from a quadratic to a linear
exponent.  A problem without noise has a tail sum of exactly 0, and no D.

Infinite horizons are summed with a certified truncation: terms decay
like exp(-c m^q), the exact terms are summed up to a cut, and the
remainder beyond the cut is bounded by the corresponding incomplete-gamma
integral and added to the sum, keeping the reported probability a true
lower bound.  The cut is where a term drops below a relative cutoff of
the first term, capped at a fixed term budget, so the cost is bounded
for any positive exponent strength.

Nothing here writes a file: ``cli`` owns every output format, and
``BoundReport.tail_terms`` hands it the per-step terms of ``bound.csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import ConstantsBundle
from .errors import InfeasibleStart, SeriesDivergence, ValidationError
from .schedule import StepSchedule

_REL_TERM_CUTOFF = 1e-16
_TERM_BUDGET = 2**18  # exact terms summed at most (2 MB); the remainder bounds the rest


@dataclass(frozen=True)
class StartIndexCheck:
    feasible: bool
    margin: float
    smallest_feasible: int | None  # None when no index of a finite table works


def check_n0(constants: ConstantsBundle, schedule: StepSchedule, n0: int) -> StartIndexCheck:
    """Feasibility of a start index: the contraction margin left after the
    step-size correction, plus the smallest index that is feasible at all."""
    if n0 < 0:
        raise ValidationError(f"start index must be >= 0, got {n0}")
    margin = 1.0 - constants.alpha - schedule.step(n0) * constants.remainder_gain
    return StartIndexCheck(
        feasible=margin > 0.0,
        margin=margin,
        smallest_feasible=_smallest_feasible_n0(constants, schedule),
    )


def _smallest_feasible_n0(constants: ConstantsBundle, schedule: StepSchedule) -> int | None:
    gap = 1.0 - constants.alpha
    if constants.remainder_gain == 0.0:
        return 0
    target = gap / constants.remainder_gain  # need a(n0) < target
    if schedule.kind == "harmonic":
        n = max(0, math.ceil(schedule.d1 / target) - 1)
    elif schedule.kind == "polynomial":
        n = max(0, math.ceil((schedule.d3 / target) ** (1.0 / schedule.d2)) - 1)
    else:
        assert schedule.values is not None
        for i, v in enumerate(schedule.values):
            if v < target:
                return i
        return None
    while schedule.step(n) >= target:  # guard the ceil against roundoff
        n += 1
    while n > 0 and schedule.step(n - 1) < target:
        n -= 1
    return n


@dataclass(frozen=True)
class BoundQuery:
    """A validated bound evaluation request.  Build via :func:`build_query`."""

    epsilon: float
    delta: float
    n0: int
    horizon: int | None  # None means every step from n0 on
    D_const: float | None  # None only for a noiseless problem, whose tail is 0
    p_init: float
    p_init_source: str


def build_query(
    constants: ConstantsBundle,
    schedule: StepSchedule,
    *,
    epsilon: float,
    delta: float,
    n0: int,
    horizon: int | None,
    D_const: float | None,
    p_init: float,
    p_init_source: str = "user",
) -> BoundQuery:
    """Validate ranges and feasibility, then freeze the query.

    ``D_const`` may be None only when the problem has no noise
    (``increment_scale`` 0): the tail is then 0 and needs no constant.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"delta must lie in (0, 1], got {delta}")
    if not 0.0 <= p_init <= 1.0:
        raise ValidationError(f"p_init must lie in [0, 1], got {p_init}")
    if D_const is None:
        if constants.increment_scale != 0.0:
            raise ValidationError("a problem with noise needs a tail-exponent constant")
    elif not (math.isfinite(D_const) and D_const > 0.0):
        raise ValidationError(f"tail-exponent constant must be finite and positive, got {D_const}")
    if horizon is not None and horizon < n0:
        raise ValidationError(f"horizon {horizon} must be >= start index {n0}")
    chk = check_n0(constants, schedule, n0)
    if not chk.feasible:
        raise InfeasibleStart(
            f"start index {n0} infeasible (margin {chk.margin:.6g}); "
            f"smallest feasible index is {chk.smallest_feasible}"
        )
    return BoundQuery(
        epsilon=epsilon,
        delta=delta,
        n0=n0,
        horizon=horizon,
        D_const=D_const,
        p_init=p_init,
        p_init_source=p_init_source,
    )


def floor_term(
    constants: ConstantsBundle,
    schedule: StepSchedule,
    n0: int,
    epsilon: float,
    delta: float,
) -> float:
    """The non-decaying part of the radius; requires a feasible start index."""
    a0 = schedule.step(n0)
    margin = 1.0 - constants.alpha - a0 * constants.remainder_gain
    if margin <= 0.0:
        raise InfeasibleStart(f"start index {n0} infeasible (margin {margin:.6g})")
    return (a0 * (constants.remainder_offset + constants.remainder_gain * epsilon) + delta) / margin


def decay_curve(
    constants: ConstantsBundle, schedule: StepSchedule, n0: int, horizon: int
) -> np.ndarray:
    """exp(-(1 - alpha) * step_sum(n0, m-1)) for m = n0 .. horizon (1 at m = n0)."""
    out = np.empty(horizon - n0 + 1)
    out[0] = 1.0
    if horizon > n0:
        sums = schedule.cumulative_step_sums(n0, horizon - 1)
        out[1:] = np.exp(-(1.0 - constants.alpha) * sums)
    return out


def radius_curve(
    constants: ConstantsBundle,
    schedule: StepSchedule,
    n0: int,
    horizon: int,
    epsilon: float,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The radius at every step in [n0, horizon]; non-increasing toward the floor."""
    floor = floor_term(constants, schedule, n0, epsilon, delta)
    ms = np.arange(n0, horizon + 1)
    return ms, decay_curve(constants, schedule, n0, horizon) * epsilon + floor


def tail_crossover(
    constants: ConstantsBundle, schedule: StepSchedule, n0: int, dims: int
) -> float:
    """Scale separating the quadratic-exponent tail regime from the linear one."""
    a0 = schedule.step(n0)
    margin = 1.0 - constants.alpha - a0 * constants.remainder_gain
    if margin <= 0.0:
        raise InfeasibleStart(f"start index {n0} infeasible (margin {margin:.6g})")
    return (
        math.sqrt(dims)
        * constants.increment_scale
        * (2.0 + constants.x_star_norm + (a0 * (constants.remainder_offset + 1.0) + 1.0) / margin)
    )


def martingale_tail(
    delta: float, crossover: float, D_const: float, omega: float, dims: int
) -> float:
    """Per-step tail bound 2 d exp(-D delta^p / omega), quadratic p at or below
    the crossover and linear above it (the dimension factor is a union bound)."""
    if delta <= 0.0 or omega <= 0.0 or D_const <= 0.0:
        raise ValidationError("delta, omega and the exponent constant must be positive")
    power = 2.0 if delta <= crossover else 1.0
    return 2.0 * dims * math.exp(-D_const * delta**power / omega)


@dataclass(frozen=True)
class TailSummary:
    tail_sum: float
    prob_lower_bound: float
    vacuous: bool
    crossover: float
    quadratic_branch: bool
    truncated_at: int | None
    remainder_bound: float


def _series_remainder(c: float, q: float, M: int) -> float:
    """Upper bound on sum_{m > M} exp(-c m^q) via the decreasing-integrand integral,
    evaluated exactly with the regularized upper incomplete gamma function.

    scipy is imported here, at its one use, so that start-up does not load it.
    """
    from scipy.special import gammaincc

    a = 1.0 / q
    scale = math.gamma(a) / (q * c**a)
    return float(scale * gammaincc(a, c * float(M) ** q))


def tail_probability(
    query: BoundQuery,
    dims: int,
    schedule: StepSchedule,
    constants: ConstantsBundle,
) -> TailSummary:
    """Sum the per-step tail terms and report the probability lower bound.

    The bound may be negative (vacuous); it is reported as-is and flagged.
    A query without a tail-exponent constant gets :func:`zero_tail`.
    """
    if dims < 1:
        raise ValidationError(f"dimension must be >= 1, got {dims}")
    n0 = query.n0
    if query.D_const is None:
        return zero_tail(constants, schedule, n0, dims, query.delta, query.p_init)
    if n0 < 1:
        raise ValidationError("tail weights need a start index >= 1")
    cross = tail_crossover(constants, schedule, n0, dims)
    quad = query.delta <= cross
    power = 2.0 if quad else 1.0
    strength = query.D_const * query.delta**power
    if strength <= 0.0:
        raise SeriesDivergence("tail terms do not decay: nonpositive exponent strength")

    d1, d2 = schedule.d1, schedule.d2
    if d1 <= d2:
        c = strength * float(n0) ** (d2 - d1)
        q = d1
    else:
        c = strength
        q = d2

    truncated_at: int | None = None
    remainder = 0.0
    if query.horizon is not None:
        if query.horizon <= n0:
            total = 0.0
        else:
            ms = np.arange(n0 + 1, query.horizon + 1, dtype=float)
            total = float(np.sum(np.exp(-c * ms**q)))
    else:
        # exp(-c m^q) < cutoff * exp(-c (n0+1)^q) once m passes this index;
        # the first term is a lower bound on any partial sum
        rel_cut = (float(n0 + 1) ** q - math.log(_REL_TERM_CUTOFF) / c) ** (1.0 / q)
        truncated_at = int(min(rel_cut, n0 + _TERM_BUDGET))
        terms = np.arange(n0 + 1, truncated_at + 1, dtype=float)
        np.power(terms, q, out=terms)
        terms *= -c
        np.exp(terms, out=terms)
        remainder = _series_remainder(c, q, truncated_at)
        total = float(terms.sum()) + remainder

    tail_sum = 2.0 * dims * total
    prob = 1.0 - tail_sum - query.p_init
    return TailSummary(
        tail_sum=tail_sum,
        prob_lower_bound=prob,
        vacuous=prob <= 0.0,
        crossover=cross,
        quadratic_branch=quad,
        truncated_at=truncated_at,
        remainder_bound=2.0 * dims * remainder,
    )


def zero_tail(
    constants: ConstantsBundle,
    schedule: StepSchedule,
    n0: int,
    dims: int,
    delta: float,
    p_init: float,
) -> TailSummary:
    """The tail summary of a noiseless problem: probability bound 1 - p_init.

    When ``increment_scale`` is 0 every martingale increment is identically
    0, so every weighted noise sum is 0 and no step's tail event can occur:
    the tail sum is exactly 0 for any tail-exponent constant, and no
    constant is needed.  Raises on a problem with noise, where dropping the
    tail would no longer leave a lower bound.
    """
    if constants.increment_scale != 0.0:
        raise ValidationError(
            f"the tail vanishes only without noise; increment scale is {constants.increment_scale}"
        )
    cross = tail_crossover(constants, schedule, n0, dims)
    prob = 1.0 - p_init
    return TailSummary(
        tail_sum=0.0,
        prob_lower_bound=prob,
        vacuous=prob <= 0.0,
        crossover=cross,
        quadratic_branch=delta <= cross,
        truncated_at=None,
        remainder_bound=0.0,
    )


@dataclass(frozen=True)
class BoundReport:
    """Radius curve plus tail accounting for one query."""

    query: BoundQuery
    dims: int
    ms: np.ndarray
    radius: np.ndarray
    floor: float
    tail: TailSummary

    def as_dict(self) -> dict:
        return {
            "epsilon": self.query.epsilon,
            "delta": self.query.delta,
            "n0": self.query.n0,
            "horizon": self.query.horizon,
            "D_const": self.query.D_const,
            "D_source": "noiseless" if self.query.D_const is None else "given",
            "p_init": self.query.p_init,
            "p_init_source": self.query.p_init_source,
            "dims": self.dims,
            "floor": self.floor,
            "tail_sum": self.tail.tail_sum,
            "prob_lower_bound": self.tail.prob_lower_bound,
            "vacuous": self.tail.vacuous,
            "crossover": self.tail.crossover,
            "quadratic_branch": self.tail.quadratic_branch,
            "radius_first": float(self.radius[0]),
            "radius_last": float(self.radius[-1]),
        }

    def tail_terms(self, schedule: StepSchedule) -> list[float]:
        """The per-step tail term at each m of ``ms``: 0 at n0 and without
        noise, else :func:`martingale_tail` at ``tail_weight(n0, m)``.  On a
        finite horizon they sum to ``tail.tail_sum`` up to rounding."""
        q = self.query
        if q.D_const is None:
            return [0.0] * len(self.ms)
        return [0.0] + [
            martingale_tail(
                q.delta, self.tail.crossover, q.D_const, schedule.tail_weight(q.n0, m), self.dims
            )
            for m in self.ms[1:].tolist()
        ]


def evaluate_bound(
    query: BoundQuery,
    dims: int,
    schedule: StepSchedule,
    constants: ConstantsBundle,
    curve_horizon: int | None = None,
) -> BoundReport:
    """Evaluate the radius curve and tail bound for one query.

    For infinite-horizon queries the curve is still tabulated to a finite
    ``curve_horizon`` (default: 10 * n0 + 1000) for reporting.
    """
    horizon = query.horizon if query.horizon is not None else curve_horizon
    if horizon is None:
        horizon = 10 * query.n0 + 1000
    ms, radius = radius_curve(
        constants, schedule, query.n0, horizon, query.epsilon, query.delta
    )
    return BoundReport(
        query=query,
        dims=dims,
        ms=ms,
        radius=radius,
        floor=floor_term(constants, schedule, query.n0, query.epsilon, query.delta),
        tail=tail_probability(query, dims, schedule, constants),
    )
