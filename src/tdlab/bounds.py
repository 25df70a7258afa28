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
exponent.  A problem without noise has a tail sum of exactly 0, and no
D; ``tail_probability`` covers that case too.  ``evaluate_grid`` is the one
evaluator of (epsilon, delta) cells, for ``experiment``'s grid and
``evaluate_bound``'s single cell.

Every tail term is 2 d exp(-c m^q) for one pair (c, q) read off the
query and the schedule; the finite sum, the infinite partial sum and the
per-step terms of ``bound.csv`` read the same vectorised terms.

Infinite horizons are summed with a certified truncation: the exact terms
up to a cut, plus the incomplete-gamma integral beyond it as a bound on
the remainder, so the reported probability stays a true lower bound.  The
cut is where a term drops below a relative cutoff of the first term,
capped at a fixed term budget.  The cut is compared as m^q, so no power
overflows for any finite positive D; a tail sum beyond the double range
raises ``SeriesDivergence``.

The remainder is Gamma(a, x) / (q c^a) with a = 1/q >= 1 and x = c M^q,
evaluated with ``math`` alone and in log space throughout, so no
regularised ratio underflows before the scale c^-a is applied: for
x <= a + 1 as Gamma(a) - gamma(a, x) with gamma from its power series,
above that as the Legendre continued fraction by modified Lentz
(Numerical Recipes, section 6.2).  The value is then raised by a fixed
relative slack, ``_REMAINDER_SLACK``, which is more than 100 times the
largest evaluation error measured against 40-digit values, so it stays a
true upper bound on the integral.

The start-index, D and cell rules live here, for the harness and the CLI:
``require_feasible`` (the one margin and message; the smallest feasible
index is searched on ``StepSchedule.step``), ``tail_constant_source`` (D
given, noiseless or fitted), ``require_tail_start`` (D needs n0 >= 1) and
``evaluate_grid`` (a cell's floor and tail, at its epsilon's p_init).
Nothing here writes a file: ``cli`` owns every output format.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import ConstantsBundle
from .errors import InfeasibleStart, SeriesDivergence, ValidationError
from .schedule import StepSchedule

_REL_TERM_CUTOFF = 1e-16
_TERM_BUDGET = 2**18  # exact terms summed at most (2 MB); the remainder bounds the rest
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_REMAINDER_SLACK = 2.0**-34  # 5.8e-11 relative; see _series_remainder
_FRACTION_TERMS = 10**6  # continued-fraction steps at most; about 4000 are needed at a = 1e8


@dataclass(frozen=True)
class StartIndexCheck:
    feasible: bool
    margin: float
    smallest_feasible: int | None  # None when no index of a finite table works


def _margin(constants: ConstantsBundle, schedule: StepSchedule, n0: int) -> float:
    return 1.0 - constants.alpha - schedule.step(n0) * constants.remainder_gain


def check_n0(constants: ConstantsBundle, schedule: StepSchedule, n0: int) -> StartIndexCheck:
    """Feasibility of a start index: the contraction margin left after the
    step-size correction, plus the smallest index that is feasible at all."""
    if n0 < 0:
        raise ValidationError(f"start index must be >= 0, got {n0}")
    margin = _margin(constants, schedule, n0)
    return StartIndexCheck(margin > 0.0, margin, _smallest_feasible_n0(constants, schedule))


def require_feasible(constants: ConstantsBundle, schedule: StepSchedule, n0: int) -> float:
    """The margin at a feasible start index, else :class:`InfeasibleStart`;
    a feasible start reads nothing of the schedule but ``step``."""
    margin = _margin(constants, schedule, n0)
    if margin <= 0.0:
        raise InfeasibleStart(
            f"start index {n0} infeasible (margin {margin:.6g}); "
            f"smallest feasible index is {_smallest_feasible_n0(constants, schedule)}"
        )
    return margin


def tail_constant_source(constants: ConstantsBundle, D_const: float | None) -> str:
    """Where D comes from: ``given``; ``noiseless`` when the problem has no
    noise, so every tail is 0 without one; else ``fitted`` from an ensemble."""
    if D_const is not None:
        return "given"
    return "noiseless" if constants.increment_scale == 0.0 else "fitted"


def require_tail_start(n0: int, source: str) -> None:
    """A tail with a constant D weighs step m by tail_weight(n0, m), defined for n0 >= 1."""
    if source != "noiseless" and n0 < 1:
        raise ValidationError(f"n0: a tail constant D needs n0 >= 1, got {n0}")


def _smallest_feasible_n0(constants: ConstantsBundle, schedule: StepSchedule) -> int | None:
    """The smallest n with a(n) < (1 - alpha) / remainder_gain (None if no
    table entry is): a(n) does not increase, so doubling brackets n, up to
    a table's last index, and bisection finds it."""
    if constants.remainder_gain == 0.0:
        return 0
    target = (1.0 - constants.alpha) / constants.remainder_gain
    last = math.inf if schedule.values is None else len(schedule.values) - 1
    lo, hi = -1, 0  # a(lo) >= target, with a(-1) read as infinite
    while schedule.step(hi) >= target:
        if hi == last:
            return None
        lo, hi = hi, min(2 * hi + 1, last)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if schedule.step(mid) < target else (mid, hi)
    return hi


@dataclass(frozen=True)
class BoundQuery:
    """A bound evaluation request; :func:`build_query` checks one from outside."""

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
    """Validate ranges, the tail constant and feasibility, then freeze the query.

    ``D_const`` may be None only when the problem has no noise
    (``increment_scale`` 0): the tail is then 0 and needs no constant.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"delta must lie in (0, 1], got {delta}")
    if not 0.0 <= p_init <= 1.0:
        raise ValidationError(f"p_init must lie in [0, 1], got {p_init}")
    source = tail_constant_source(constants, D_const)
    if source == "fitted":
        raise ValidationError(
            "no tail-exponent constant: set experiment.D_const, pass --D, "
            "or run the experiment command to fit one"
        )
    if D_const is not None and not (math.isfinite(D_const) and D_const > 0.0):
        raise ValidationError(f"tail-exponent constant must be finite and positive, got {D_const}")
    if horizon is not None and horizon < n0:
        raise ValidationError(f"horizon {horizon} must be >= start index {n0}")
    require_feasible(constants, schedule, n0)
    require_tail_start(n0, source)
    return BoundQuery(epsilon, delta, n0, horizon, D_const, p_init, p_init_source)


def floor_term(
    constants: ConstantsBundle,
    schedule: StepSchedule,
    n0: int,
    epsilon: float,
    delta: float,
) -> float:
    """The non-decaying part of the radius; requires a feasible start index."""
    margin = require_feasible(constants, schedule, n0)
    a0 = schedule.step(n0)
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


def tail_crossover(
    constants: ConstantsBundle, schedule: StepSchedule, n0: int, dims: int
) -> float:
    """Scale separating the quadratic-exponent tail regime from the linear one."""
    margin = require_feasible(constants, schedule, n0)
    a0 = schedule.step(n0)
    return (
        math.sqrt(dims)
        * constants.increment_scale
        * (2.0 + constants.x_star_norm + (a0 * (constants.remainder_offset + 1.0) + 1.0) / margin)
    )


def _tail_exponent(
    query: BoundQuery, schedule: StepSchedule, crossover: float
) -> tuple[float, float]:
    """(c, q) with D delta^p / tail_weight(n0, m) = c m^q: quadratic p at or
    below the crossover, linear above it."""
    power = 2.0 if query.delta <= crossover else 1.0
    strength = query.D_const * query.delta**power
    if strength <= 0.0:
        raise SeriesDivergence(f"tail terms do not decay: D * delta^{power:g} is {strength:g}")
    d1, d2 = schedule.d1, schedule.d2
    if d1 <= d2:
        return strength * float(query.n0) ** (d2 - d1), d1
    return strength, d2


def _tail_terms(c: float, q: float, first: int, last: int) -> np.ndarray:
    """exp(-c m^q) for m = first .. last (empty when last < first)."""
    terms = np.arange(first, last + 1, dtype=float)
    np.power(terms, q, out=terms)
    with np.errstate(over="ignore"):  # -inf for a huge c, and its term is 0
        terms *= -c
    return np.exp(terms, out=terms)


@dataclass(frozen=True)
class TailSummary:
    tail_sum: float
    prob_lower_bound: float
    vacuous: bool
    crossover: float
    quadratic_branch: bool
    truncated_at: int | None
    remainder_bound: float


def _lower_gamma_ratio(a: float, x: float) -> float:
    """P(a, x) = gamma(a, x) / Gamma(a) for 0 < x <= a + 1, from the power
    series x^a e^-x sum_n x^n / (a (a+1) ... (a+n)) / Gamma(a).  Its terms
    are positive, so stopping early only lowers P."""
    term = total = 1.0 / a
    ap = a
    while term > total * sys.float_info.epsilon:
        ap += 1.0
        term *= x / ap
        total += term
    return math.exp(a * math.log(x) - x - math.lgamma(a) + math.log(total))


def _legendre_fraction(a: float, x: float) -> float:
    """F(a, x) = e^x x^-a Gamma(a, x) for x > a + 1, from the Legendre
    continued fraction 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))),
    evaluated by modified Lentz."""
    tiny = sys.float_info.min
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = h = 1.0 / b
    for i in range(1, _FRACTION_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        step = c * d
        h *= step
        if abs(step - 1.0) <= sys.float_info.epsilon:
            return h
    raise SeriesDivergence(f"the incomplete-gamma fraction did not converge at a = {a:g}, x = {x:g}")


def _series_remainder(c: float, q: float, M: int) -> float:
    """Upper bound on sum_{m > M} exp(-c m^q): the integral from M,
    Gamma(a, x) / (q c^a) with a = 1/q and x = c M^q; inf beyond the double
    range.

    Every factor is taken in log space.  For x <= a + 1 the log is
    lgamma(a) - a log c - log q + log(1 - P(a, x)).  Above that, x^a / c^a
    is M, so it is log M - x + log F(a, x) - log q: neither c^a nor x^a is
    formed.  The rounding of x = c M^q and of these sums leaves a relative
    error of at most 1.6e-13 against 40-digit values on the test grid
    (q 1 to 0.05, x 1e-300 to 1e300, wherever the remainder is a normal
    double; 9.8e-13 at q = 0.001).  The value is raised by
    ``_REMAINDER_SLACK``, over 300 times that, so it bounds the integral
    from above.  Below the normal range the spacing of doubles is
    coarser than the slack, so the value there is raised by one step of
    that spacing; a positive remainder never reads 0.
    """
    a = 1.0 / q
    # past 2^1000 the remainder is far below the double range, and a smaller
    # x only raises it; the cap keeps the fraction's 1/x a normal double
    x = min(c * float(M) ** q, 2.0**1000)
    if x <= a + 1.0:
        lower = _lower_gamma_ratio(a, x) if x > 0.0 else 0.0
        log_rem = math.lgamma(a) - a * math.log(c) - math.log(q) + math.log1p(-lower)
    else:
        log_rem = math.log(M) - x + math.log(_legendre_fraction(a, x)) - math.log(q)
    if log_rem >= _LOG_FLOAT_MAX:
        return math.inf
    rem = math.exp(log_rem) * (1.0 + _REMAINDER_SLACK)
    return rem if rem >= sys.float_info.min else math.nextafter(rem, math.inf)


def _summary(
    tail_sum: float, p_init: float, cross: float, delta: float, cut=None, remainder=0.0
) -> TailSummary:
    prob = 1.0 - tail_sum - p_init
    return TailSummary(tail_sum, prob, prob <= 0.0, cross, delta <= cross, cut, remainder)


def tail_probability(
    query: BoundQuery,
    dims: int,
    schedule: StepSchedule,
    constants: ConstantsBundle,
) -> TailSummary:
    """Sum the per-step tail terms and report the probability lower bound.

    The bound may be negative (vacuous); it is reported as-is and flagged.
    Without noise every martingale increment is identically 0, so a query
    with no D gets tail 0; with noise, such a query is refused.
    """
    if dims < 1:
        raise ValidationError(f"dimension must be >= 1, got {dims}")
    n0 = query.n0
    source = tail_constant_source(constants, query.D_const)
    require_tail_start(n0, source)
    if source == "fitted":
        raise ValidationError(
            f"the tail vanishes only without noise; increment scale is {constants.increment_scale}"
        )
    cross = tail_crossover(constants, schedule, n0, dims)
    if source == "noiseless":
        return _summary(0.0, query.p_init, cross, query.delta)
    c, q = _tail_exponent(query, schedule, cross)
    if query.horizon is not None:
        truncated_at, remainder, last = None, 0.0, query.horizon
    else:
        # exp(-c m^q) < cutoff * exp(-c (n0+1)^q) once m^q passes cut_q, which
        # is inf, not an error, for a tiny c; the first term bounds any partial sum
        last = truncated_at = n0 + _TERM_BUDGET
        cut_q = float(n0 + 1) ** q - math.log(_REL_TERM_CUTOFF) / c
        if cut_q < float(last) ** q:
            last = truncated_at = int(cut_q ** (1.0 / q))
        remainder = _series_remainder(c, q, truncated_at)
    tail_sum = 2.0 * dims * (float(_tail_terms(c, q, n0 + 1, last).sum()) + remainder)
    if not math.isfinite(tail_sum):
        raise SeriesDivergence(
            f"the tail sum exceeds the double range: its terms exp(-c m^{q:g}) decay too "
            f"slowly at c = {c:.6g}, as the tail-exponent constant D is too small"
        )
    remainder_bound = 2.0 * dims * remainder
    return _summary(tail_sum, query.p_init, cross, query.delta, truncated_at, remainder_bound)


@dataclass(frozen=True)
class BoundCell:
    """One (epsilon, delta) cell of a grid: its floor and its tail."""

    epsilon: float
    delta: float
    floor: float
    tail: TailSummary


def evaluate_grid(
    query: BoundQuery, dims: int, schedule: StepSchedule, constants: ConstantsBundle,
    epsilons: list[float], deltas: list[float], p_inits: list[float],
) -> list[BoundCell]:
    """The cells of ``epsilons`` x ``deltas``, epsilon-major: ``query`` at the
    cell's epsilon and delta, and at its epsilon's entry of ``p_inits``."""
    n0, horizon, D_const, p_source = query.n0, query.horizon, query.D_const, query.p_init_source
    cells = []
    for eps, p_init in zip(epsilons, p_inits, strict=True):
        for dlt in deltas:
            cell = BoundQuery(eps, dlt, n0, horizon, D_const, p_init, p_source)
            floor = floor_term(constants, schedule, n0, eps, dlt)
            tail = tail_probability(cell, dims, schedule, constants)
            cells.append(BoundCell(eps, dlt, floor, tail))
    return cells


@dataclass(frozen=True)
class BoundReport:
    """Radius curve plus tail accounting for one query."""

    query: BoundQuery
    dims: int
    ms: np.ndarray
    radius: np.ndarray
    floor: float
    tail: TailSummary
    D_source: str  # ``tail_constant_source`` of the query's constant

    def as_dict(self) -> dict:
        return {
            "epsilon": self.query.epsilon,
            "delta": self.query.delta,
            "n0": self.query.n0,
            "horizon": self.query.horizon,
            "D_const": self.query.D_const,
            "D_source": self.D_source,
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
        noise.  On a finite horizon they sum to ``tail.tail_sum`` up to rounding."""
        q = self.query
        if q.D_const is None:
            return [0.0] * len(self.ms)
        c, power = _tail_exponent(q, schedule, self.tail.crossover)
        terms = 2.0 * self.dims * _tail_terms(c, power, q.n0 + 1, int(self.ms[-1]))
        return [0.0] + terms.tolist()


def evaluate_bound(
    query: BoundQuery,
    dims: int,
    schedule: StepSchedule,
    constants: ConstantsBundle,
    curve_horizon: int | None = None,
) -> BoundReport:
    """Evaluate the radius curve and tail bound for one query: its one cell.

    For infinite-horizon queries the curve is still tabulated to a finite
    ``curve_horizon`` (default: 10 * n0 + 1000) for reporting.
    """
    n0 = query.n0
    horizon = query.horizon if query.horizon is not None else curve_horizon
    if horizon is None:
        horizon = 10 * n0 + 1000
    (cell,) = evaluate_grid(
        query, dims, schedule, constants, [query.epsilon], [query.delta], [query.p_init]
    )
    return BoundReport(
        query=query,
        dims=dims,
        ms=np.arange(n0, horizon + 1),
        radius=decay_curve(constants, schedule, n0, horizon) * query.epsilon + cell.floor,
        floor=cell.floor,
        tail=cell.tail,
        D_source=tail_constant_source(constants, query.D_const),
    )
