"""Test oracles: independent or reference computations that check the library.

No production path uses anything here.

``expected_hitting_sums`` is a regenerative (hitting-time) accumulator.
It estimates

    E_i[ sum_{m=0}^{tau-1} g(Y_m) ],   tau = first time n > 0 with Y_n = i0,

by Monte Carlo, as an independent check on the linear-system Poisson
solver.

``reference_chunk`` is the per-step TD(0) kernel in the (B, d) layout that
the time-blocked ``harness._simulate_chunk`` replaced: one update and one
round of collectors per step.  The blocked kernel is checked against it.

``ProductSchedule`` adds the step-size product calculus, and
``weighted_norm``, ``project_weighted`` and ``corollary_rate`` the weighted
geometry and the rate shape, that the paper states but the bound evaluator
does not need.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from tdlab.errors import NonFinite, SolverFailure, ValidationError
from tdlab.features import FeatureMap, weighted_gram
from tdlab.harness import _EnsembleOut, _EnsembleSpec
from tdlab.markov import MarkovChain, StationaryDistribution
from tdlab.schedule import StepSchedule

EXACT_PRODUCT_LIMIT = 10_000


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


def reference_chunk(spec: _EnsembleSpec, lo: int, states: np.ndarray) -> _EnsembleOut:
    """The online TD(0) update along ``states``, one step at a time in the
    (B, d) layout, feeding the collectors ``spec`` switches on after every
    step.  Non-finite iterates are caught at the exact step."""
    T = spec.horizon
    B = len(states)
    d = spec.phi.shape[1]
    n0 = spec.n0

    x = np.repeat(spec.initial_x[None, :], B, axis=0)
    out = _EnsembleOut.empty(spec, lo, lo + B)
    per_step_err = (
        out.err_matrix is not None or out.max_excess is not None or out.per_m_counts is not None
    )
    S = np.zeros((B, d))
    fit_ptr = 0
    diag_ptr = 0

    def collect(m: int, x: np.ndarray) -> None:
        nonlocal diag_ptr
        if out.diag_x is not None and diag_ptr < len(spec.diag_ms) and spec.diag_ms[diag_ptr] == m:
            out.diag_x[:, diag_ptr] = x
            diag_ptr += 1
        idx = m - n0
        if idx != 0 and not per_step_err:
            return
        err = np.linalg.norm(x - spec.x_star, axis=1)
        if idx == 0:
            out.err_n0[:] = err
        if out.err_matrix is not None:
            out.err_matrix[:, idx] = err
        if out.max_excess is not None:
            np.maximum(
                out.max_excess,
                err[:, None] - spec.decay[idx] * spec.eps_grid[None, :],
                out=out.max_excess,
            )
        if out.per_m_counts is not None:
            excess = err - spec.primary_eps * spec.decay[idx]
            out.per_m_counts[idx] += int(np.count_nonzero(excess > spec.primary_floor))
            out.err_max_per_m[idx] = max(out.err_max_per_m[idx], float(err.max()))

    if n0 == 0:
        collect(0, x)

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(T):
            y = states[:, n]
            y_next = states[:, n + 1]
            phi_y = spec.phi[y]
            a = spec.steps[n]
            if out.noise_sums is not None and n >= n0:
                mgap = ((spec.phi[y_next] - spec.next_phi[y]) * x).sum(axis=1)
                xi = spec.gamma * phi_y * mgap[:, None]
                xi += ((spec.linear_sol[y_next] - spec.expected_linear[y]) @ x[..., None])[..., 0]
                xi += spec.offset_sol[y_next] - spec.expected_offset[y]
                if n == n0:
                    S = a * xi
                else:
                    S = (1.0 - a) * S + a * xi
                if fit_ptr < len(spec.fit_ms) and spec.fit_ms[fit_ptr] == n:
                    out.noise_sums[:, fit_ptr] = np.linalg.norm(S, axis=1)
                    fit_ptr += 1
            proj_now = (phi_y * x).sum(axis=1)
            proj_next = (spec.phi[y_next] * x).sum(axis=1)
            x = x + a * phi_y * (spec.rewards[y] + spec.gamma * proj_next - proj_now)[:, None]
            if not np.all(np.isfinite(x)):
                bad = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
                raise NonFinite(f"trajectory {lo + bad} became non-finite at step {n + 1}")
            m = n + 1
            if m >= n0:
                collect(m, x)

    return out


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
