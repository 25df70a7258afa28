"""Monte Carlo verification of the all-time bound.

One engine serves ``experiment``, ``bound`` and ``simulate``:
``_path_segments`` draws a batch's states by inverse CDF, one segment of
``_DRAW`` steps at a time, and ``_simulate_chunk`` runs the online TD(0)
update along each segment before the next is drawn.  The
experiment simulates many independent trajectories, estimates the
initial-condition term, fits the tail-exponent constant from simulated
weighted noise sums when none is supplied, and compares the empirical
all-time event frequency against the closed-form lower bound; ``bound``
runs the same engine up to the start index for the initial-condition
term; ``simulate_trajectory`` runs it on one trajectory alone.

The kernel keeps the batch's iterates in a (d, B) layout and runs each
segment's steps in blocks of ``_BLOCK``.  Per block it gathers the
features, rewards and scaled features of that block's (K+1, B) slice of
the segment once; per step it runs only the update (and, when D is fitted,
the noise-sum recursion); after the block it checks the new iterates
for non-finite values, forms the noise increments and feeds every
collector, each vectorised over the block.  Feature-axis sums follow
numpy's pairwise order (``_dsum``), so the iterates equal those of a
per-step update in the (B, d) layout bit for bit.

One experiment is one ensemble pass: the collectors (start error, max
excess per epsilon, per-step counts, noise sums at the fit points,
iterates at the checkpoints, the error matrix) all read the iterates of
that pass.  Which collectors are on never changes the iterates, so a
standalone pass with fewer collectors reproduces the same values bit
for bit.

Reproducibility contract: every result is a pure function of the
experiment configuration, including the master seed.  Each trajectory
owns the stream ``rng.stream(master_seed, index)``; trajectories are
processed in fixed-size batches and assembled by index, so the outputs
are bit-identical for any batch split or worker count.

Grid sweeps over the radius parameters reuse one trajectory ensemble
(common random numbers); violation counts are therefore exactly, not
statistically, monotone across the grids.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import AnalyticSolution, PolicyEvalProblem, solve_problem
from .bounds import (
    TailSummary,
    build_query,
    check_n0,
    decay_curve,
    floor_term,
    tail_probability,
)
from .dynamics import TrajectoryRecord, run_deterministic
from .errors import InfeasibleStart, InsufficientTailData, NonFinite, ValidationError
from .rng import stream
from .schedule import StepSchedule

WILSON_Z = 1.959963984540054  # two-sided 95%
MAX_ERR_MATRIX_CELLS = 40_000_000  # float32 error matrix cap (~160 MB)
_BLOCK = 64  # steps per block of the TD kernel
_DRAW = 16 * _BLOCK  # steps per sampled path segment
_TAKE_COLUMNS_MAX_S = 32  # largest state count whose CDF table is read as (s-1, B) columns


def wilson_interval(successes: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval; exactly 0 at 0 successes and exactly 1 at n.

    Only the endpoint away from p = k/n is taken as ``center + half``.  The
    one near p comes from ``lo * hi = p^2 / (1 + z^2/n)``, since
    ``center - half`` cancels to rounding noise at p = 0.  For p > 1/2 the
    interval of the failures is mirrored.
    """
    if n <= 0:
        raise ValidationError("interval needs a positive sample count")
    if 2 * successes > n:
        lo, hi = wilson_interval(n - successes, n, z)
        return 1.0 - hi, 1.0 - lo
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom
    hi = center + half
    return p * p / denom / hi, min(1.0, hi)


@dataclass
class ExperimentConfig:
    """Everything a run depends on; results are a pure function of this."""

    problem: PolicyEvalProblem
    schedule: StepSchedule
    n0: int
    horizon: int
    n_trajectories: int
    master_seed: int
    epsilon: float
    delta: float
    D_const: float | None = None
    initial_state_policy: str = "stationary"
    initial_x: np.ndarray | None = None
    epsilon_grid: tuple[float, ...] | None = None
    delta_grid: tuple[float, ...] | None = None
    batch_size: int = 512

    def __post_init__(self) -> None:
        """Every message starts with the name of the field at fault."""
        if self.n_trajectories < 1:
            raise ValidationError("n_trajectories: need at least one trajectory")
        if self.n0 < 0:
            raise ValidationError(f"n0: must be >= 0, got {self.n0}")
        if self.horizon <= self.n0:
            raise ValidationError(f"horizon: must exceed n0 = {self.n0}, got {self.horizon}")
        if self.master_seed < 0:
            raise ValidationError(f"master_seed: must be >= 0, got {self.master_seed}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValidationError(f"epsilon: must lie in (0, 1], got {self.epsilon}")
        if not 0.0 < self.delta <= 1.0:
            raise ValidationError(f"delta: must lie in (0, 1], got {self.delta}")
        policy = self.initial_state_policy
        if not isinstance(policy, str) or (
            policy not in ("stationary", "uniform") and not policy.startswith("fixed:")
        ):
            raise ValidationError(
                f"initial_state_policy: must be 'stationary', 'uniform' or 'fixed:<i>', got {policy!r}"
            )
        if policy.startswith("fixed:"):
            s = self.problem.n_states
            try:
                state = int(policy.split(":", 1)[1])
            except ValueError:
                state = -1
            if not 0 <= state < s:
                raise ValidationError(
                    f"initial_state_policy: the fixed state must be an integer in [0, {s}), got {policy!r}"
                )
        d = self.problem.n_features
        if self.initial_x is None:
            self.initial_x = np.zeros(d)
        else:
            self.initial_x = np.asarray(self.initial_x, dtype=float)
            if self.initial_x.shape != (d,):
                raise ValidationError(f"initial_x: must have shape ({d},)")
        for name, grid in (("epsilon_grid", self.epsilon_grid), ("delta_grid", self.delta_grid)):
            if grid is not None and not all(0.0 < g <= 1.0 for g in grid):
                raise ValidationError(f"{name}: entries must lie in (0, 1]")

    def fixed_initial_state(self) -> int:
        """The start state of a 'fixed:<i>' policy, or -1."""
        if self.initial_state_policy.startswith("fixed:"):
            return int(self.initial_state_policy.split(":", 1)[1])
        return -1


# ---------------------------------------------------------------------------
# batched simulation engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _EnsembleSpec:
    """Picklable bundle of everything one worker needs."""

    cum_rows: np.ndarray
    cum_pi: np.ndarray
    phi: np.ndarray
    next_phi: np.ndarray
    rewards: np.ndarray
    gamma: float
    steps: np.ndarray
    x_star: np.ndarray
    initial_x: np.ndarray
    init_policy: str
    init_state: int
    master_seed: int
    n0: int
    horizon: int
    eps_grid: np.ndarray | None = None
    decay: np.ndarray | None = None
    primary_eps: float = 0.0
    primary_floor: float = math.inf
    count_violations: bool = False
    track_noise_sum: bool = False
    offset_sol: np.ndarray | None = None
    linear_sol: np.ndarray | None = None
    expected_offset: np.ndarray | None = None
    expected_linear: np.ndarray | None = None
    fit_ms: np.ndarray | None = None
    diag_ms: np.ndarray | None = None
    want_err_matrix: bool = False


@dataclass
class _EnsembleOut:
    """What the collectors gathered over trajectories [lo, hi).

    ``_simulate_chunk`` fills one per batch; the ensemble's own output is
    the one over [0, n), into which every batch is absorbed.
    """

    lo: int
    hi: int
    err_n0: np.ndarray
    max_excess: np.ndarray | None
    per_m_counts: np.ndarray | None
    err_max_per_m: np.ndarray | None
    noise_sums: np.ndarray | None
    diag_x: np.ndarray | None
    err_matrix: np.ndarray | None

    @classmethod
    def empty(cls, spec: _EnsembleSpec, lo: int, hi: int) -> _EnsembleOut:
        """The collectors ``spec`` switches on, sized for trajectories [lo, hi)."""
        B = hi - lo
        d = spec.phi.shape[1]
        span = spec.horizon - spec.n0 + 1
        n_eps = 0 if spec.eps_grid is None else len(spec.eps_grid)
        track_noise = spec.track_noise_sum and spec.fit_ms is not None
        return cls(
            lo=lo,
            hi=hi,
            err_n0=np.empty(B),
            max_excess=np.full((B, n_eps), -np.inf) if n_eps else None,
            per_m_counts=np.zeros(span, dtype=np.int64) if spec.count_violations else None,
            err_max_per_m=np.zeros(span) if spec.count_violations else None,
            noise_sums=np.empty((B, len(spec.fit_ms))) if track_noise else None,
            diag_x=np.empty((B, len(spec.diag_ms), d)) if spec.diag_ms is not None else None,
            err_matrix=np.empty((B, span), dtype=np.float32) if spec.want_err_matrix else None,
        )

    def absorb(self, part: _EnsembleOut) -> None:
        """Copy the rows of a batch inside [lo, hi) and fold in its per-step columns."""
        rows = slice(part.lo - self.lo, part.hi - self.lo)
        for name in ("err_n0", "max_excess", "noise_sums", "diag_x", "err_matrix"):
            mine = getattr(self, name)
            if mine is not None:
                mine[rows] = getattr(part, name)
        if self.per_m_counts is not None:
            self.per_m_counts += part.per_m_counts
            np.maximum(self.err_max_per_m, part.err_max_per_m, out=self.err_max_per_m)


def _path_segments(spec: _EnsembleSpec, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The states of trajectories [lo, hi) at steps 0..horizon, by inverse
    CDF on each trajectory's own stream, one segment at a time.

    A segment holds the states at steps start..start+L as an (L+1, B) array,
    L <= ``_DRAW``; the next one starts at the state this one ends at.  The
    buffer is reused, so a segment is valid only until the next is asked
    for.  Segment 0 draws 1 + L uniforms per trajectory (the first picks the
    start state, drawn even when it is fixed), the others L; chunked draws
    continue the stream exactly as one long draw would.

    The next state is the number of CDF entries of the current row at or
    below the uniform.  Rows are nondecreasing, so counting only the first
    s-1 columns equals the count capped at s-1.  Up to ``_TAKE_COLUMNS_MAX_S``
    states the table is read as (s-1, B) columns, above it as (B, s-1) rows.
    """
    B = hi - lo
    T = spec.horizon
    s = spec.phi.shape[0]
    gens = [stream(spec.master_seed, i) for i in range(lo, hi)]
    u = np.empty((B, 1 + _DRAW))  # column 0 is the start-state draw
    ut = np.empty((_DRAW, B))
    if s <= _TAKE_COLUMNS_MAX_S:  # the CDF row of state y is column y
        table, axis, ut_cmp = np.ascontiguousarray(spec.cum_rows[:, : s - 1].T), 1, ut
    else:
        table, axis, ut_cmp = np.ascontiguousarray(spec.cum_rows[:, : s - 1]), 0, ut[:, :, None]
    cdf = np.empty((s - 1, B) if axis else (B, s - 1))
    hits = np.empty(cdf.shape, dtype=bool)
    Y = np.empty((_DRAW + 1, B), dtype=np.intp)
    for start in range(0, max(T, 1), _DRAW):
        L = min(_DRAW, T - start)
        for g, row in zip(gens, u):
            g.random(out=row[0 if start == 0 else 1 : 1 + L])
        if start > 0:
            Y[0] = Y[_DRAW]
        elif spec.init_policy == "fixed":
            Y[0] = spec.init_state
        elif spec.init_policy == "uniform":
            Y[0] = np.minimum((u[:, 0] * s).astype(np.intp), s - 1)
        else:
            Y[0] = np.minimum(np.searchsorted(spec.cum_pi, u[:, 0], side="right"), s - 1)
        ut[:L] = u[:, 1 : 1 + L].T
        for n in range(L):
            table.take(Y[n], axis=axis, out=cdf, mode="clip")
            np.less_equal(cdf, ut_cmp[n], out=hits)
            np.add.reduce(hits, axis=1 - axis, dtype=np.intp, out=Y[n + 1])
        yield Y[: L + 1]


def _sample_paths(spec: _EnsembleSpec, lo: int, hi: int) -> np.ndarray:
    """The states of ``_path_segments`` joined into one (B, horizon+1) array."""
    states = np.empty((hi - lo, spec.horizon + 1), dtype=np.intp)
    start = 0
    for seg in _path_segments(spec, lo, hi):
        states[:, start : start + len(seg)] = seg.T
        start += len(seg) - 1
    return states


def _dsum(p: np.ndarray) -> np.ndarray:
    """Sum over the leading (feature) axis in the order numpy's pairwise sum
    adds a contiguous row: term by term below 8 terms, else into eight
    accumulators folded as a tree.  A (d, ...) sum is then bit-identical to
    the ``sum(axis=-1)`` of the same numbers laid out as (..., d)."""
    d = len(p)
    if d < 8:
        out = p[0] + p[1] if d > 1 else p[0].copy()
        for i in range(2, d):
            out += p[i]
        return out
    if d > 128:
        half = d // 2 - (d // 2) % 8
        return _dsum(p[:half]) + _dsum(p[half:])
    r = p[:8]
    for i in range(8, d - d % 8, 8):
        r = r + p[i : i + 8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    out = r[0] + r[1]
    for i in range(d - d % 8, d):
        out += p[i]
    return out


def _collect(spec: _EnsembleSpec, out: _EnsembleOut, m0: int, xs: np.ndarray) -> None:
    """Feed the iterates ``xs[:, k]`` = x_{m0+k}, shape (d, K, B), to the
    collectors ``out`` holds; steps before n0 are skipped."""
    n0 = spec.n0
    if m0 < n0:
        xs = xs[:, n0 - m0 :]
        m0 = n0
    K = xs.shape[1]
    if K == 0:
        return
    if out.diag_x is not None:
        ms = spec.diag_ms
        a, b = np.searchsorted(ms, [m0, m0 + K])
        out.diag_x[:, a:b] = xs[:, ms[a:b] - m0].transpose(2, 1, 0)
    per_step = (
        out.err_matrix is not None or out.max_excess is not None or out.per_m_counts is not None
    )
    i0 = m0 - n0
    if not per_step:
        if i0 > 0:
            return
        xs = xs[:, :1]
    diff = xs - spec.x_star[:, None, None]
    err = np.sqrt(_dsum(diff * diff))  # (K, B)
    if i0 == 0:
        out.err_n0[:] = err[0]
    idx = slice(i0, i0 + len(err))
    if out.err_matrix is not None:
        out.err_matrix[:, idx] = err.T
    if out.max_excess is not None:
        ramp = spec.decay[idx, None] * spec.eps_grid[None, :]  # (K, n_eps)
        np.maximum(
            out.max_excess, (err[:, :, None] - ramp[:, None, :]).max(axis=0), out=out.max_excess
        )
    if out.per_m_counts is not None:
        excess = err - (spec.primary_eps * spec.decay[idx])[:, None]
        out.per_m_counts[idx] += np.count_nonzero(excess > spec.primary_floor, axis=1)
        np.maximum(out.err_max_per_m[idx], err.max(axis=1), out=out.err_max_per_m[idx])


def _noise_increments(spec: _EnsembleSpec, Y: np.ndarray, F: np.ndarray, X: np.ndarray) -> np.ndarray:
    """xi_n = gamma phi_y (phi_y' - E phi_y')·x_n + (L_y' - E L_y) x_n
    + (o_y' - E o_y) for a block's steps, shape (d, K, B), from the states
    ``Y`` (K+1, B), the features ``F`` = phi_Y (d, K+1, B) and the iterates
    ``X`` (d, K, B) before each step."""
    y, y_next = Y[:-1], Y[1:]

    def at(table, states):  # table[states] with the feature axis first
        return np.moveaxis(np.take(table, states, axis=0), -1, 0)

    mgap = _dsum((F[:, 1:] - at(spec.next_phi, y)) * X)
    xi = spec.gamma * F[:, :-1] * mgap
    for i in range(len(xi)):  # row i of L_y' - E L_y, one row at a time to bound memory
        G = at(spec.linear_sol[:, i], y_next) - at(spec.expected_linear[:, i], y)
        xi[i] += _dsum(G * X)
    xi += at(spec.offset_sol, y_next) - at(spec.expected_offset, y)
    return xi


def _simulate_chunk(
    spec: _EnsembleSpec, lo: int, hi: int, segments: Iterable[np.ndarray]
) -> _EnsembleOut:
    """The online TD(0) update of trajectories [lo, hi) along their sampled
    states, feeding the collectors ``spec`` switches on; time-blocked over a
    (d, B) layout as the module docstring describes.  ``segments`` are the
    states in order as (L+1, B) arrays, each starting at the state the one
    before ended at (``_path_segments``); any L will do."""
    n0 = spec.n0
    B = hi - lo
    d = spec.phi.shape[1]
    out = _EnsembleOut.empty(spec, lo, hi)
    phi_t = np.ascontiguousarray(spec.phi.T)
    gamma = spec.gamma
    x = np.repeat(spec.initial_x[:, None], B, axis=1)
    S = None  # the weighted noise sum, from step n0 on
    fit_ptr = 0
    P = np.empty((d, 2, B))
    t = np.empty(B)
    u = np.empty((d, B))
    with np.errstate(over="ignore", invalid="ignore"):
        if n0 == 0:
            _collect(spec, out, 0, x[:, None, :])
        start = 0
        for seg in segments:
            end = start + len(seg) - 1
            for bs in range(start, end, _BLOCK):
                K = min(_BLOCK, end - bs)
                Y = seg[bs - start : bs - start + K + 1]
                F = np.take(phi_t, Y, axis=1)  # phi at the states of steps bs .. bs+K
                R = np.take(spec.rewards, Y[:-1])
                a = spec.steps[bs : bs + K]
                AF = F[:, :-1] * a[:, None]
                X = np.empty((d, K + 1, B))
                X[:, 0] = x
                for j in range(K):
                    # x + a phi_y (r_y + gamma phi_y'·x - phi_y·x)
                    np.multiply(F[:, j : j + 2], X[:, j, None], out=P)
                    dots = _dsum(P)
                    np.multiply(dots[1], gamma, out=t)
                    t += R[j]
                    t -= dots[0]
                    np.multiply(AF[:, j], t, out=u)
                    np.add(X[:, j], u, out=X[:, j + 1])
                x = X[:, K]

                finite = np.isfinite(X[:, 1:]).all(axis=0)
                if not finite.all():
                    j, b = np.argwhere(~finite)[0]
                    raise NonFinite(f"trajectory {lo + b} became non-finite at step {bs + j + 1}")

                if out.noise_sums is not None and bs + K > n0:
                    j0 = max(n0 - bs, 0)
                    xi = _noise_increments(spec, Y[j0:], F[:, j0:], X[:, j0:K])
                    a_xi = a[j0:, None] * xi
                    for j in range(K - j0):
                        n = bs + j0 + j
                        if n == n0:
                            S = a_xi[:, j].copy()
                        else:
                            S *= 1.0 - a[j0 + j]
                            S += a_xi[:, j]
                        if fit_ptr < len(spec.fit_ms) and spec.fit_ms[fit_ptr] == n:
                            out.noise_sums[:, fit_ptr] = np.sqrt(_dsum(S * S))
                            fit_ptr += 1
                _collect(spec, out, bs + 1, X[:, 1:])
            start = end
    return out


def _run_chunk(args: tuple[_EnsembleSpec, int, int]) -> _EnsembleOut:
    spec, lo, hi = args
    return _simulate_chunk(spec, lo, hi, _path_segments(spec, lo, hi))


def _run_ensemble(spec: _EnsembleSpec, n: int, batch_size: int, jobs: int) -> _EnsembleOut:
    """Trajectories [0, n) in batches, on at most ``jobs`` worker processes
    and never more workers than batches."""
    if jobs < 1:
        raise ValidationError(f"jobs: must be >= 1, got {jobs}")
    chunks = [(spec, lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]
    total = _EnsembleOut.empty(spec, 0, n)
    workers = min(jobs, len(chunks))
    if workers == 1:
        for chunk in chunks:
            total.absorb(_run_chunk(chunk))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_chunk, chunks):
                total.absorb(part)
    return total


def _base_spec(config: ExperimentConfig, analytic: AnalyticSolution, horizon: int, **kw) -> _EnsembleSpec:
    problem = config.problem
    return _EnsembleSpec(
        cum_rows=problem.chain.cumulative_rows(),
        cum_pi=np.cumsum(analytic.stationary.pi),
        phi=problem.phi,
        next_phi=problem.next_phi,
        rewards=problem.rewards,
        gamma=problem.gamma,
        steps=config.schedule.steps(0, horizon),
        x_star=analytic.x_star,
        initial_x=config.initial_x,
        init_policy="fixed" if config.initial_state_policy.startswith("fixed:") else config.initial_state_policy,
        init_state=config.fixed_initial_state(),
        master_seed=config.master_seed,
        n0=config.n0,
        horizon=horizon,
        **kw,
    )


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PInitEstimate:
    value: float
    interval: tuple[float, float]
    n_trajectories: int


def estimate_p_init(
    config: ExperimentConfig,
    jobs: int = 1,
    analytic: AnalyticSolution | None = None,
) -> PInitEstimate:
    """Fraction of trajectories whose error at the start index exceeds epsilon.

    Simulates from step 0 to n0 with the same streams the full experiment
    uses, so the estimate matches the full run exactly.
    """
    analytic = analytic if analytic is not None else solve_problem(config.problem)
    spec = _base_spec(config, analytic, horizon=config.n0)
    out = _run_ensemble(spec, config.n_trajectories, config.batch_size, jobs)
    exceed = int(np.count_nonzero(out.err_n0 > config.epsilon))
    return PInitEstimate(
        value=exceed / config.n_trajectories,
        interval=wilson_interval(exceed, config.n_trajectories),
        n_trajectories=config.n_trajectories,
    )


def simulate_trajectory(
    config: ExperimentConfig,
    index: int,
    analytic: AnalyticSolution | None = None,
) -> TrajectoryRecord:
    """Trajectory ``index`` of the ensemble alone, from step 0 to the horizon.

    The engine runs with n0 = 0 on the trajectory's own stream
    ``rng.stream(master_seed, index)``, so the start state, the states and
    the iterates are those of row ``index`` of any batched run; every step
    is a checkpoint.  The comparison run is the averaged recursion from the
    same start.  Distances and the running peak of the gap are taken from
    the recorded iterates after the loop.
    """
    analytic = analytic if analytic is not None else solve_problem(config.problem)
    config = replace(config, n0=0)
    T = config.horizon
    spec = _base_spec(config, analytic, horizon=T, diag_ms=np.arange(T + 1))
    states = _sample_paths(spec, index, index + 1)
    xs = _simulate_chunk(spec, index, index + 1, [states.T]).diag_x[0]
    zs = run_deterministic(config.problem, config.schedule, 0, T, config.initial_x)
    gap = np.linalg.norm(xs - zs, axis=1)
    return TrajectoryRecord(
        states=states[0],
        x=xs,
        z=zs,
        dist_to_target=np.linalg.norm(xs - analytic.x_star, axis=1),
        dist_to_comparison=gap,
        peak_deviation=np.maximum.accumulate(gap),
    )


@dataclass(frozen=True)
class TailFit:
    """Least-squares fit of the tail-exponent constant.

    ``value`` regresses the log tail frequencies on delta^2 / tail_weight
    through the origin; ``conservative`` is the largest constant that
    bounds every grid point from above.
    """

    value: float
    conservative: float
    n_points: int
    residual_rms: float


def fit_tail_exponent(points) -> TailFit:
    """Fit the exponent from (tail_frequency, delta, tail_weight, dims) tuples.

    Points with frequency 0 or 1 carry no information and are dropped;
    if none remain the fit is impossible.
    """
    xs: list[float] = []
    ys: list[float] = []
    for p_hat, delta, weight, dims in points:
        if not 0.0 < p_hat < 1.0:
            continue
        xs.append(delta * delta / weight)
        ys.append(-math.log(p_hat / (2.0 * dims)))
    if not xs:
        raise InsufficientTailData("every tail frequency is 0 or 1; widen the delta grid")
    x = np.asarray(xs)
    y = np.asarray(ys)
    value = float((x * y).sum() / (x * x).sum())
    if value <= 0.0:
        raise InsufficientTailData("tail frequencies are inconsistent with an exponential decay")
    resid = y - value * x
    return TailFit(
        value=value,
        conservative=float(np.min(y / x)),
        n_points=len(xs),
        residual_rms=float(np.sqrt(np.mean(resid * resid))),
    )


DEFAULT_FIT_QUANTILES = (0.50, 0.65, 0.75, 0.83, 0.88, 0.92, 0.95, 0.97, 0.98)


def _default_fit_ms(n0: int, horizon: int, count: int = 16) -> np.ndarray:
    """Tail indices to fit at; the sum bounded at index m has upper limit m-1,
    so indices run over [n0+1, horizon] and are recorded one step earlier."""
    ms = np.unique(np.geomspace(n0 + 1, horizon, count).astype(np.int64))
    return ms[ms > n0]


def _fit_points(
    noise_sums: np.ndarray,
    fit_ms: np.ndarray,
    delta_grid: np.ndarray,
    schedule: StepSchedule,
    n0: int,
    dims: int,
) -> list[tuple[float, float, float, int]]:
    points = []
    for j, m in enumerate(fit_ms.tolist()):
        w = schedule.tail_weight(n0, int(m))
        col = noise_sums[:, j]
        for delta in delta_grid.tolist():
            p_hat = float(np.count_nonzero(col > delta)) / len(col)
            points.append((p_hat, float(delta), w, dims))
    return points


def fit_tail_exponent_from_sim(
    config: ExperimentConfig,
    delta_grid=None,
    jobs: int = 1,
    analytic: AnalyticSolution | None = None,
) -> TailFit:
    """Simulate the weighted noise sums and fit the tail exponent from their tails.

    When no delta grid is given, one is derived from pooled quantiles of the
    observed sums (deterministic given the configuration).
    """
    analytic = analytic if analytic is not None else solve_problem(config.problem)
    fit_ms = _default_fit_ms(config.n0, config.horizon)
    spec = _base_spec(
        config,
        analytic,
        horizon=config.horizon,
        track_noise_sum=True,
        offset_sol=analytic.poisson.offset,
        linear_sol=analytic.poisson.linear,
        expected_offset=analytic.poisson.expected_offset,
        expected_linear=analytic.poisson.expected_linear,
        fit_ms=fit_ms - 1,  # record one step before each tail index
    )
    out = _run_ensemble(spec, config.n_trajectories, config.batch_size, jobs)
    assert out.noise_sums is not None and np.all(np.isfinite(out.noise_sums))
    if delta_grid is None:
        pooled = out.noise_sums.ravel()
        delta_grid = np.unique(np.quantile(pooled, DEFAULT_FIT_QUANTILES))
        delta_grid = delta_grid[delta_grid > 0.0]
    else:
        delta_grid = np.asarray(list(delta_grid), dtype=float)
        if len(delta_grid) < 3:
            raise ValidationError("tail fit needs at least 3 grid points")
    points = _fit_points(
        out.noise_sums, fit_ms, delta_grid, config.schedule, config.n0, config.problem.n_features
    )
    return fit_tail_exponent(points)


@dataclass
class GridRow:
    epsilon: float
    delta: float
    floor: float
    violations: int
    alltime_prob: float
    interval: tuple[float, float]
    tail_sum: float
    theoretical_lower_bound: float
    vacuous: bool


@dataclass
class ExperimentResult:
    """Outcome of the all-time experiment (serialization omits wall time,
    which is the one field that is not a pure function of the config).

    ``D_source`` says where the tail-exponent constant came from:
    ``"given"`` by the config, ``"fitted"`` from the ensemble's noise sums,
    or ``"noiseless"`` when the problem has no noise and the tail is 0
    without any constant; ``D_used`` and ``fitted`` are then None.
    """

    n_trajectories: int
    n0: int
    horizon: int
    master_seed: int
    epsilon: float
    delta: float
    empirical_alltime_prob: float
    alltime_interval: tuple[float, float]
    violations: int
    empirical_p_init: float
    p_init_interval: tuple[float, float]
    p_init_source: str
    theoretical_lower_bound: float
    tail: TailSummary
    floor: float
    D_used: float | None
    D_source: str
    fitted: TailFit | None
    per_m_violation_counts: np.ndarray
    per_m_err_max: np.ndarray
    radius: np.ndarray
    grid: list[GridRow]
    err_quantiles: dict[str, np.ndarray] | None
    diagnostics: Diagnostics
    wall_time: float = field(default=0.0, compare=False)

    def as_dict(self) -> dict:
        out = {
            "n_trajectories": self.n_trajectories,
            "n0": self.n0,
            "horizon": self.horizon,
            "master_seed": self.master_seed,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "empirical_alltime_prob": self.empirical_alltime_prob,
            "alltime_interval": list(self.alltime_interval),
            "violations": self.violations,
            "empirical_p_init": self.empirical_p_init,
            "p_init_interval": list(self.p_init_interval),
            "p_init_source": self.p_init_source,
            "theoretical_lower_bound": self.theoretical_lower_bound,
            "tail_sum": self.tail.tail_sum,
            "vacuous": self.tail.vacuous,
            "floor": self.floor,
            "D_used": self.D_used,
            "D_source": self.D_source,
            "fitted_D": None if self.fitted is None else self.fitted.value,
            "fit": None
            if self.fitted is None
            else {
                "value": self.fitted.value,
                "conservative": self.fitted.conservative,
                "n_points": self.fitted.n_points,
                "residual_rms": self.fitted.residual_rms,
            },
            "per_m_violation_counts": self.per_m_violation_counts.tolist(),
            "grid": [
                {
                    "epsilon": row.epsilon,
                    "delta": row.delta,
                    "floor": row.floor,
                    "violations": row.violations,
                    "alltime_prob": row.alltime_prob,
                    "interval": list(row.interval),
                    "tail_sum": row.tail_sum,
                    "theoretical_lower_bound": row.theoretical_lower_bound,
                    "vacuous": row.vacuous,
                }
                for row in self.grid
            ],
            "diagnostics": self.diagnostics.as_dict(),
        }
        return out


def run_alltime_experiment(
    config: ExperimentConfig,
    jobs: int = 1,
    analytic: AnalyticSolution | None = None,
) -> ExperimentResult:
    """Run the ensemble once and verify the all-time radius event.

    A trajectory violates the event if at any step m in [n0, horizon] its
    error exceeds the radius; the comparison is made in excess form
    (error minus the decaying part against the floor), which makes the
    grid monotonicity exact.  The theoretical lower bound uses the
    supplied tail-exponent constant, or one fitted from the same ensemble.
    Without a supplied constant, a noiseless problem (``increment_scale``
    0, so every martingale increment is identically 0) skips the noise
    sums and the fit: every tail is 0 and every bound is 1 - p_init.
    The same pass collects the errors at the default convergence
    checkpoints, reduced into ``diagnostics``.
    """
    t0 = time.monotonic()
    problem = config.problem
    analytic = analytic if analytic is not None else solve_problem(problem)
    constants = analytic.constants
    sched = config.schedule
    n0, horizon = config.n0, config.horizon
    dims = problem.n_features
    chk = check_n0(constants, sched, n0)
    if not chk.feasible:
        raise InfeasibleStart(
            f"start index {n0} infeasible (margin {chk.margin:.6g}); "
            f"smallest feasible is {chk.smallest_feasible}"
        )

    eps_grid = list(config.epsilon_grid) if config.epsilon_grid else []
    if config.epsilon not in eps_grid:
        eps_grid = [config.epsilon] + eps_grid
    delta_grid = list(config.delta_grid) if config.delta_grid else []
    if config.delta not in delta_grid:
        delta_grid = [config.delta] + delta_grid
    eps_arr = np.asarray(eps_grid)
    i_primary = eps_grid.index(config.epsilon)

    decay = decay_curve(constants, sched, n0, horizon)
    primary_floor = floor_term(constants, sched, n0, config.epsilon, config.delta)
    if config.D_const is not None:
        d_source = "given"
    elif constants.increment_scale == 0.0:
        d_source = "noiseless"
    else:
        d_source = "fitted"
    need_fit = d_source == "fitted"
    fit_ms = _default_fit_ms(n0, horizon) if need_fit else None
    span = horizon - n0 + 1
    want_matrix = config.n_trajectories * span <= MAX_ERR_MATRIX_CELLS
    checkpoints = _checkpoint_steps(config)

    spec = _base_spec(
        config,
        analytic,
        horizon=horizon,
        eps_grid=eps_arr,
        decay=decay,
        primary_eps=config.epsilon,
        primary_floor=primary_floor,
        count_violations=True,
        track_noise_sum=need_fit,
        offset_sol=analytic.poisson.offset if need_fit else None,
        linear_sol=analytic.poisson.linear if need_fit else None,
        expected_offset=analytic.poisson.expected_offset if need_fit else None,
        expected_linear=analytic.poisson.expected_linear if need_fit else None,
        fit_ms=None if fit_ms is None else fit_ms - 1,
        diag_ms=checkpoints,
        want_err_matrix=want_matrix,
    )
    out = _run_ensemble(spec, config.n_trajectories, config.batch_size, jobs)
    assert out.max_excess is not None and out.per_m_counts is not None

    n = config.n_trajectories
    p_init_exceed = int(np.count_nonzero(out.err_n0 > config.epsilon))
    p_init_hat = p_init_exceed / n

    fitted: TailFit | None = None
    if need_fit:
        assert out.noise_sums is not None and fit_ms is not None
        pooled = out.noise_sums.ravel()
        fit_deltas = np.unique(np.quantile(pooled, DEFAULT_FIT_QUANTILES))
        fit_deltas = fit_deltas[fit_deltas > 0.0]
        fitted = fit_tail_exponent(
            _fit_points(out.noise_sums, fit_ms, fit_deltas, sched, n0, dims)
        )
        d_used = fitted.value
    elif d_source == "given":
        d_used = float(config.D_const)
    else:
        d_used = None
    p_init_source = "fitted-ensemble" if need_fit else "empirical"

    def tail_at(eps: float, dlt: float, p_init: float) -> TailSummary:
        q = build_query(
            constants,
            sched,
            epsilon=eps,
            delta=dlt,
            n0=n0,
            horizon=horizon,
            D_const=d_used,
            p_init=p_init,
            p_init_source=p_init_source,
        )
        return tail_probability(q, dims, sched, constants)

    tail = tail_at(config.epsilon, config.delta, p_init_hat)

    violations = int(np.count_nonzero(out.max_excess[:, i_primary] > primary_floor))
    alltime_prob = 1.0 - violations / n

    grid_rows: list[GridRow] = []
    for eps in eps_grid:
        i_eps = eps_grid.index(eps)
        p_init_eps = int(np.count_nonzero(out.err_n0 > eps)) / n
        for dlt in delta_grid:
            flr = floor_term(constants, sched, n0, eps, dlt)
            vio = int(np.count_nonzero(out.max_excess[:, i_eps] > flr))
            t = tail_at(eps, dlt, p_init_eps)
            grid_rows.append(
                GridRow(
                    epsilon=eps,
                    delta=dlt,
                    floor=flr,
                    violations=vio,
                    alltime_prob=1.0 - vio / n,
                    interval=wilson_interval(n - vio, n),
                    tail_sum=t.tail_sum,
                    theoretical_lower_bound=t.prob_lower_bound,
                    vacuous=t.vacuous,
                )
            )

    quantiles = None
    if out.err_matrix is not None:
        # over (cols, n) copies of 1024-column slices: the values of one
        # whole-matrix call, without a second matrix-sized copy
        parts = []
        for c in range(0, span, 1024):
            cols = np.ascontiguousarray(out.err_matrix[:, c : c + 1024].T)
            parts.append(np.percentile(cols, [25, 50, 75, 90], axis=1))
        qs = np.concatenate(parts, axis=1)
        quantiles = {"q25": qs[0], "q50": qs[1], "q75": qs[2], "q90": qs[3]}

    return ExperimentResult(
        n_trajectories=n,
        n0=n0,
        horizon=horizon,
        master_seed=config.master_seed,
        epsilon=config.epsilon,
        delta=config.delta,
        empirical_alltime_prob=alltime_prob,
        alltime_interval=wilson_interval(n - violations, n),
        violations=violations,
        empirical_p_init=p_init_hat,
        p_init_interval=wilson_interval(p_init_exceed, n),
        p_init_source=p_init_source,
        theoretical_lower_bound=tail.prob_lower_bound,
        tail=tail,
        floor=primary_floor,
        D_used=d_used,
        D_source=d_source,
        fitted=fitted,
        per_m_violation_counts=out.per_m_counts,
        per_m_err_max=out.err_max_per_m,
        radius=decay * config.epsilon + primary_floor,
        grid=grid_rows,
        err_quantiles=quantiles,
        diagnostics=_diagnostics(checkpoints, out.diag_x, analytic.x_star, sched),
        wall_time=time.monotonic() - t0,
    )


@dataclass(frozen=True)
class Diagnostics:
    checkpoints: np.ndarray
    median: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    loglog_slope: float | None
    n_trajectories: int

    def as_dict(self) -> dict:
        return {
            "checkpoints": self.checkpoints.tolist(),
            "median": self.median.tolist(),
            "q25": self.q25.tolist(),
            "q75": self.q75.tolist(),
            "loglog_slope": self.loglog_slope,
            "n_trajectories": self.n_trajectories,
        }


def _checkpoint_steps(config: ExperimentConfig, checkpoints=None) -> np.ndarray:
    """Sorted distinct checkpoint steps; by default 8 geometric steps from
    max(n0, 1) to the horizon.  Every step must lie within [n0, horizon]."""
    if checkpoints is None:
        checkpoints = np.geomspace(max(config.n0, 1), config.horizon, 8).astype(np.int64)
    ms = np.unique(np.asarray([int(m) for m in checkpoints], dtype=np.int64))
    if len(ms) == 0 or ms[0] < config.n0 or ms[-1] > config.horizon:
        raise ValidationError("checkpoints must lie within [n0, horizon]")
    return ms


def _diagnostics(
    ms: np.ndarray, iterates: np.ndarray, x_star: np.ndarray, schedule: StepSchedule
) -> Diagnostics:
    """Reduce the errors of the (trajectories, checkpoints, d) iterates to
    quartiles and, for a harmonic schedule, the log-log slope of the median."""
    errors = np.linalg.norm(iterates - x_star, axis=2)
    med = np.median(errors, axis=0)
    q25 = np.percentile(errors, 25, axis=0)
    q75 = np.percentile(errors, 75, axis=0)
    slope = None
    if schedule.kind == "harmonic" and len(ms) >= 2 and np.all(med > 0):
        slope = float(np.polyfit(np.log(ms.astype(float)), np.log(med), 1)[0])
    return Diagnostics(
        checkpoints=ms,
        median=med,
        q25=q25,
        q75=q75,
        loglog_slope=slope,
        n_trajectories=len(errors),
    )


def convergence_diagnostics(
    config: ExperimentConfig,
    checkpoints=None,
    jobs: int = 1,
    analytic: AnalyticSolution | None = None,
) -> Diagnostics:
    """Median and quartiles of the error across trajectories at checkpoint steps.

    For harmonic schedules the log-log slope of the median is reported as a
    crude rate estimate.  ``run_alltime_experiment`` collects the same
    values at the default checkpoints in its own pass.
    """
    analytic = analytic if analytic is not None else solve_problem(config.problem)
    ms = _checkpoint_steps(config, checkpoints)
    spec = _base_spec(config, analytic, horizon=config.horizon, diag_ms=ms)
    out = _run_ensemble(spec, config.n_trajectories, config.batch_size, jobs)
    return _diagnostics(ms, out.diag_x, analytic.x_star, config.schedule)
