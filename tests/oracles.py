"""Test oracles: independent or reference computations that check the library.

No production path uses anything here.

``chain_class`` classifies a transition matrix by powers of its support
matrix A alone, as an independent check on ``markov.build_chain``'s graph
walk: the chain is irreducible iff every entry of ``(I + A)^(s-1)`` is
positive (``reachability``), and irreducible and aperiodic iff every entry
of ``A^((s-1)^2 + 1)`` is positive (Wielandt's bound).

``expected_hitting_sums`` is a regenerative (hitting-time) accumulator.
It estimates

    E_i[ sum_{m=0}^{tau-1} g(Y_m) ],   tau = first time n > 0 with Y_n = i0,

by Monte Carlo, as an independent check on the linear-system Poisson
solver.

``reference_paths`` is the whole-path inverse-CDF sampler that the
segment-wise ``harness._path_segments`` replaced: every uniform of a batch
drawn at once, then each step gathers the (B, s) CDF rows and caps the
count at s-1.  The segment sampler is checked against it state for state.

``reference_chunk`` is the per-step TD(0) kernel in the (B, d) layout that
the time-blocked ``harness._simulate_chunk`` replaced: one update per step,
then each collector's output filled for that step by its own rule, written
out here and never through the collector's block-wise ``update``.  The
blocked kernel and its collectors are checked against it.

``ErrMatrix`` is a collector of every error from n0 on, as an (n, span)
float32 matrix.  The ensemble no longer holds one: it takes the per-step
quantiles one window at a time.  The kernel twins check every error
against the reference kernel's, and the quantiles against one percentile
of the whole matrix.

``_run_chunk`` samples and runs one batch on its own, into new parts of
the spec's collectors sized for its rows.  The ensemble no longer runs a
batch that way: its batches write their rows into the run's totals.

``convergence_diagnostics`` is a pass with only the checkpoint collector,
at the experiment's default checkpoints or any others in [n0, horizon]:
the twin of the checkpoint diagnostics the experiment gathers in its own
pass.

``martingale_tail`` is the per-step tail bound for one step's weight, the
twin of the vectorised terms of ``bounds``.  ``state_map``,
``noise_matrix``, ``offset_noise`` and ``linear_noise`` are the
per-transition quantities of a problem and its Poisson solution, which
the engine never evaluates one transition at a time.

``ProductSchedule`` adds the step-size product calculus, and
``weighted_norm``, ``project_weighted`` and ``corollary_rate`` the weighted
geometry and the rate shape, that the paper states but the bound evaluator
does not need.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from tdlab.errors import NonFinite, NotIrreducible, Periodic, SolverFailure, ValidationError
from tdlab.features import FeatureMap, weighted_gram
from tdlab.analytic import AnalyticSolution, PoissonSolution, PolicyEvalProblem, solve_problem
from tdlab.harness import (
    Checkpoints,
    Diagnostics,
    Excess,
    ExperimentConfig,
    NoiseSums,
    StartError,
    _base_spec,
    _Block,
    _Collector,
    _diagnostics,
    _EnsembleSpec,
    _path_segments,
    _run_ensemble,
    _simulate_chunk,
)
from tdlab.markov import MarkovChain, StationaryDistribution
from tdlab.rng import stream
from tdlab.schedule import StepSchedule

EXACT_PRODUCT_LIMIT = 10_000


def _pattern_power(A: np.ndarray, k: int) -> np.ndarray:
    """Positive-entry pattern of the k-th power of a nonnegative matrix with pattern ``A``."""
    out = np.eye(len(A), dtype=bool)
    for _ in range(k):
        out = (out.astype(int) @ A.astype(int)) > 0
    return out


def reachability(P: np.ndarray) -> np.ndarray:
    """``reach[i, j]``: state i reaches state j, the pattern of ``(I + A)^(s-1)``."""
    A = np.asarray(P) > 0.0
    return _pattern_power(A | np.eye(len(A), dtype=bool), len(A) - 1)


def chain_class(P: np.ndarray):
    """The error ``build_chain`` must raise for ``P`` (NotIrreducible or Periodic), or None."""
    A = np.asarray(P) > 0.0
    if not reachability(P).all():
        return NotIrreducible
    if not _pattern_power(A, (len(A) - 1) ** 2 + 1).all():
        return Periodic
    return None


def expected_hitting_sums(
    chain: MarkovChain,
    i0: int,
    g: np.ndarray,
    n_cycles: int = 10_000,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo estimate of the accumulated value of ``g`` until hitting ``i0``.

    For each start state i, averages ``sum_{m=0}^{tau-1} g(Y_m)`` over
    ``n_cycles`` independent episodes, where tau is the first n > 0 with
    Y_n = i0.  Returns ``(estimate, standard_error)``, both of shape
    ``g.shape``; cycles are independent so the plain iid standard error
    is valid.
    """
    if rng is None:
        rng = np.random.default_rng()
    s = chain.n_states
    if not 0 <= i0 < s:
        raise ValueError(f"anchor state {i0} out of range [0, {s})")
    g = np.asarray(g, dtype=float)
    if g.shape[0] != s:
        raise ValueError(f"g must have leading dimension {s}, got {g.shape}")
    flat = g.reshape(s, -1)
    k = flat.shape[1]
    cum_rows = [chain.P[i].cumsum().tolist() for i in range(s)]

    total = np.zeros((s, k))
    total_sq = np.zeros((s, k))
    buf: list[float] = []
    ptr = 0

    def next_u() -> float:
        nonlocal buf, ptr
        if ptr >= len(buf):
            buf = rng.random(8192).tolist()
            ptr = 0
        u = buf[ptr]
        ptr += 1
        return u

    for start in range(s):
        for _ in range(n_cycles):
            acc = flat[start].copy()
            y = start
            while True:
                row = cum_rows[y]
                y = min(bisect_right(row, next_u()), s - 1)
                if y == i0:
                    break
                acc += flat[y]
            total[start] += acc
            total_sq[start] += acc * acc
    mean = total / n_cycles
    var = np.maximum(total_sq / n_cycles - mean * mean, 0.0)
    se = np.sqrt(var / n_cycles)
    return mean.reshape(g.shape), se.reshape(g.shape)


def reference_paths(spec: _EnsembleSpec, lo: int, hi: int) -> np.ndarray:
    """States at steps 0..horizon of trajectories [lo, hi), by inverse CDF on
    each trajectory's own stream: one uniform for the start state (drawn
    even when it is fixed), then one per transition."""
    B = hi - lo
    T = spec.horizon
    s = spec.phi.shape[0]
    us = np.empty((B, T + 1))
    for j, i in enumerate(range(lo, hi)):
        us[j] = stream(spec.master_seed, i).random(T + 1)

    if spec.init_policy == "fixed":
        init = np.full(B, spec.init_state, dtype=np.int64)
    elif spec.init_policy == "uniform":
        init = np.minimum((us[:, 0] * s).astype(np.int64), s - 1)
    else:
        init = np.minimum(
            np.searchsorted(spec.cum_pi, us[:, 0], side="right"), s - 1
        ).astype(np.int64)

    states = np.empty((B, T + 1), dtype=np.int64)
    states[:, 0] = init
    for n in range(T):
        rows = spec.cum_rows[states[:, n]]
        states[:, n + 1] = np.minimum((rows <= us[:, n + 1, None]).sum(axis=1), s - 1)
    return states


@dataclass(eq=False)
class ErrMatrix(_Collector):
    """The error at every step from n0, in float32; ``span`` steps."""

    span: int
    outputs = ("matrix",)

    def empty(self, lo: int, hi: int, alloc=np.empty) -> "ErrMatrix":
        return self._sized(lo, hi, matrix=alloc((hi - lo, self.span), np.float32))

    def update(self, blk: _Block) -> None:
        i0 = blk.m0 - blk.n0
        self.matrix[:, i0 : i0 + len(blk.err)] = blk.err.T


def _run_chunk(args: tuple[_EnsembleSpec, int, int]) -> tuple:
    """The spec's collectors over trajectories [lo, hi) alone, from
    ``args`` = (spec, lo, hi)."""
    spec, lo, hi = args
    return _simulate_chunk(spec, lo, hi, _path_segments(spec, lo, hi))


def reference_chunk(spec: _EnsembleSpec, lo: int, states: np.ndarray) -> tuple:
    """The online TD(0) update along ``states``, one step at a time in the
    (B, d) layout, filling an empty copy of each of the spec's collectors
    after every step by its own per-step rule.  Non-finite iterates are
    caught at the exact step."""
    T = spec.horizon
    B = len(states)
    n0 = spec.n0
    x = np.repeat(spec.initial_x[None, :], B, axis=0)
    parts = tuple(c.empty(lo, lo + B) for c in spec.collectors)
    noise = [c for c in parts if isinstance(c, NoiseSums)]
    S = {id(c): np.zeros((B, len(x[0]))) for c in noise}

    def collect(m: int, x: np.ndarray) -> None:
        idx = m - n0
        err = np.linalg.norm(x - spec.x_star, axis=1)
        for c in parts:
            if isinstance(c, StartError) and idx == 0:
                c.err[:] = err
            elif isinstance(c, ErrMatrix):
                c.matrix[:, idx] = err
            elif isinstance(c, Checkpoints):
                c.x[:, c.ms == m] = x[:, None, :]
            elif isinstance(c, Excess):
                np.maximum(
                    c.max_excess, err[:, None] - c.decay[idx] * c.eps_grid[None, :], out=c.max_excess
                )
                c.counts[idx] += int(np.count_nonzero(err - c.eps * c.decay[idx] > c.floor))
                c.err_max[idx] = max(c.err_max[idx], float(err.max()))

    if n0 == 0:
        collect(0, x)

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(T):
            y = states[:, n]
            y_next = states[:, n + 1]
            phi_y = spec.phi[y]
            a = spec.steps[n]
            for c in noise if n >= n0 else ():
                sol = c.poisson
                mgap = ((spec.phi[y_next] - c.next_phi[y]) * x).sum(axis=1)
                xi = c.gamma * phi_y * mgap[:, None]
                xi += ((sol.linear[y_next] - sol.expected_linear[y]) @ x[..., None])[..., 0]
                xi += sol.offset[y_next] - sol.expected_offset[y]
                S[id(c)] = a * xi if n == n0 else (1.0 - a) * S[id(c)] + a * xi
                c.norms[:, c.ms == n] = np.linalg.norm(S[id(c)], axis=1)[:, None]
            proj_now = (phi_y * x).sum(axis=1)
            proj_next = (spec.phi[y_next] * x).sum(axis=1)
            x = x + a * phi_y * (spec.rewards[y] + spec.gamma * proj_next - proj_now)[:, None]
            if not np.all(np.isfinite(x)):
                bad = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
                raise NonFinite(f"trajectory {lo + bad} became non-finite at step {n + 1}")
            m = n + 1
            if m >= n0:
                collect(m, x)

    return parts


def convergence_diagnostics(
    config: ExperimentConfig,
    checkpoints=None,
    jobs: int = 1,
    analytic: AnalyticSolution | None = None,
) -> Diagnostics:
    """Median and quartiles of the error across trajectories at checkpoint
    steps, from a pass with only the checkpoint collector; by default at
    the 8 geometric steps from max(n0, 1) to the horizon that
    ``run_alltime_experiment`` collects in its own pass.  For harmonic
    schedules the log-log slope of the median is reported as a crude rate
    estimate."""
    analytic = analytic if analytic is not None else solve_problem(config.problem)
    if checkpoints is None:
        checkpoints = np.geomspace(max(config.n0, 1), config.horizon, 8).astype(np.int64)
    ms = np.unique(np.asarray([int(m) for m in checkpoints], dtype=np.int64))
    if len(ms) == 0 or ms[0] < config.n0 or ms[-1] > config.horizon:
        raise ValidationError("checkpoints must lie within [n0, horizon]")
    chk = Checkpoints(ms, config.problem.n_features)
    spec = _base_spec(config, analytic, config.horizon, (chk,))
    (out,) = _run_ensemble(spec, config.n_trajectories, config.batch_size, jobs)
    return _diagnostics(ms, out.x, analytic.x_star, config.schedule)


@dataclass(frozen=True)
class ProductSchedule(StepSchedule):
    """A step-size schedule with the product calculus

        decay_product(n, m)       product of (1 - a(k)) for k in [m, n]   (1 when n < m)
        contraction_product(n, m) product of (1 - (1-alpha) a(k)) for k in [m, n-1]

    Products with horizons beyond ``EXACT_PRODUCT_LIMIT`` are evaluated in
    log space to avoid underflow; below that they are formed directly.
    """

    def decay_product(self, n: int, m: int) -> float:
        """Product of (1 - a(k)) over k in [m, n]; 1 when n < m."""
        if n < m:
            return 1.0
        vals = self.steps(m, n + 1)
        if n <= EXACT_PRODUCT_LIMIT:
            return float(np.prod(1.0 - vals))
        return float(np.exp(np.log1p(-vals).sum()))

    def decay_product_row(self, m: int, k_lo: int) -> np.ndarray:
        """Products of (1 - a(i)) over [k, m] for every k in [k_lo, m+1].

        The final entry (k = m+1) is the empty product 1.  Computed in one
        backward sweep so step-size grids of length m cost O(m) total.
        """
        if k_lo > m:
            return np.ones(1)
        vals = self.steps(k_lo, m + 1)
        out = np.empty(len(vals) + 1)
        out[-1] = 1.0
        if m <= EXACT_PRODUCT_LIMIT:
            out[:-1] = np.cumprod((1.0 - vals)[::-1])[::-1]
        else:
            out[:-1] = np.exp(np.cumsum(np.log1p(-vals)[::-1])[::-1])
        return out

    def contraction_product(self, n: int, m: int, alpha: float) -> float:
        """Product of (1 - (1-alpha) a(k)) over k in [m, n-1]; 1 when n <= m."""
        if not 0.0 < alpha < 1.0:
            raise ValidationError(f"contraction factor must lie in (0, 1), got {alpha}")
        if n <= m:
            return 1.0
        vals = (1.0 - alpha) * self.steps(m, n)
        if n <= EXACT_PRODUCT_LIMIT:
            return float(np.prod(1.0 - vals))
        return float(np.exp(np.log1p(-vals).sum()))


def weighted_norm(x: np.ndarray, stationary: StationaryDistribution) -> float:
    """The stationary-weighted Euclidean norm ``sqrt(sum_i pi(i) x(i)^2)``."""
    x = np.asarray(x, dtype=float)
    if x.shape != stationary.pi.shape:
        raise ValidationError(f"vector shape {x.shape} does not match {stationary.pi.shape}")
    return float(np.sqrt(np.sum(stationary.pi * x * x)))


def project_weighted(
    v: np.ndarray, features: FeatureMap, stationary: StationaryDistribution
) -> np.ndarray:
    """Orthogonal projection of ``v`` onto the feature range, in the weighted norm."""
    v = np.asarray(v, dtype=float)
    Phi = features.Phi
    if v.shape[0] != Phi.shape[0]:
        raise ValidationError(f"vector length {v.shape[0]} does not match {Phi.shape[0]} states")
    gram = weighted_gram(features, stationary)
    rhs = Phi.T @ (stationary.pi * v)
    try:
        w = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"weighted Gram matrix is singular: {exc}") from exc
    return Phi @ w


def corollary_rate(n0: int, m: int, eps1: float, eps2: float) -> float:
    """Shape of the harmonic-step error rate, with unit constants.

    Useful only for slope and scaling tests: the true expression carries
    unreported constant factors.
    """
    if n0 < 1 or m < n0:
        raise ValidationError(f"need 1 <= n0 <= m, got n0={n0}, m={m}")
    if not 0.0 < eps1 < 1.0 or not 0.0 < eps2 < 1.0:
        raise ValidationError("confidence budgets must lie in (0, 1)")
    first = math.sqrt(math.log(1.0 / eps1)) / math.sqrt(n0)
    second = math.sqrt(math.log(n0) / n0) / math.sqrt(eps2) * (n0 / m + 1.0 / n0)
    return first + second


def martingale_tail(
    delta: float, crossover: float, D_const: float, omega: float, dims: int
) -> float:
    """Per-step tail bound 2 d exp(-D delta^p / omega), quadratic p at or below
    the crossover and linear above it (the dimension factor is a union bound)."""
    if delta <= 0.0 or omega <= 0.0 or D_const <= 0.0:
        raise ValidationError("delta, omega and the exponent constant must be positive")
    power = 2.0 if delta <= crossover else 1.0
    return 2.0 * dims * math.exp(-D_const * delta**power / omega)


def state_map(problem: PolicyEvalProblem, x: np.ndarray, i: int) -> np.ndarray:
    """The per-state expected-update map F(x, i)."""
    x = np.asarray(x, dtype=float)
    return problem.offset_terms[i] + problem.linear_terms[i] @ x + x


def noise_matrix(problem: PolicyEvalProblem, y: int, y_next: int) -> np.ndarray:
    """Martingale-difference matrix of the transition ``y -> y_next``.

    Rank one: the feature vector at ``y`` times the gap between the
    realized and expected next feature vectors, scaled by the discount.
    Conditional mean over ``y_next`` is exactly zero.
    """
    return problem.gamma * np.outer(problem.phi[y], problem.phi[y_next] - problem.next_phi[y])


def offset_noise(poisson: PoissonSolution, y: int, y_next: int) -> np.ndarray:
    """Martingale-difference increment of the offset solution along a transition."""
    return poisson.offset[y_next] - poisson.expected_offset[y]


def linear_noise(poisson: PoissonSolution, y: int, y_next: int) -> np.ndarray:
    """Martingale-difference increment of the linear solution along a transition."""
    return poisson.linear[y_next] - poisson.expected_linear[y]
