"""Exact ground truth for linear TD(0) policy evaluation on a finite chain.

Given a chain, rewards, a discount factor and features, this module
computes everything the bound evaluator and experiment harness treat as
known:

* the per-state update map F(x, i) and its stationary average, an affine
  contraction on weight space;
* the unique fixed point of the averaged map and the contraction factor
  with an explicit closed form;
* the exact value function (no approximation) for tabular comparisons;
* anchored solutions of the two Poisson equations that convert the
  state-sampling noise into martingale differences, solved componentwise
  as dense linear systems;
* the martingale increment at any transitions, and its table over all of
  them, for the noise sums of the tail-exponent fit;
* the bundle of worst-case constants (solution norms, per-step update
  bounds, remainder coefficients) entering the radius and tail formulas.

Everything here is deterministic, dense, and exact up to linear-algebra
roundoff; Monte Carlo counterparts live in the test suite as oracles.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AssumptionViolated, SolverFailure, ValidationError
from .features import AssumptionReport, FeatureMap, check_assumption, weighted_gram
from .markov import MarkovChain, StationaryDistribution, stationary_distribution

FIXED_POINT_TOL = 1e-8
POISSON_TOL = 1e-8


class PolicyEvalProblem:
    """A full problem instance with precomputed per-state update structure.

    The per-state map splits as ``F(x, i) = offset(i) + linear(i) @ x + x``
    with ``offset(i)`` the reward-weighted feature vector and ``linear(i)``
    the rank-two combination of current and expected-next features.  The
    stationary average of F is affine; its matrix and offset are cached so
    the averaged map costs one mat-vec.

    Construction is allowed when the feature-scaling condition fails.  The
    one flag is ``assumption``, the :class:`AssumptionReport`: callers read
    ``assumption.satisfied``, and contraction-dependent operations raise
    :class:`AssumptionViolated` while it is false.
    """

    def __init__(
        self,
        chain: MarkovChain,
        rewards: np.ndarray,
        gamma: float,
        features: FeatureMap,
    ) -> None:
        rewards = np.asarray(rewards, dtype=float)
        s = chain.n_states
        if rewards.shape != (s,):
            raise ValidationError(f"rewards: must have shape ({s},), got {rewards.shape}")
        if not np.all(np.isfinite(rewards)):
            raise ValidationError("rewards: must be finite")
        if not 0.0 < gamma < 1.0:
            raise ValidationError(f"gamma: discount factor must lie in (0, 1), got {gamma}")
        if features.n_states != s:
            raise ValidationError(
                f"features: the matrix has {features.n_states} rows but the chain has {s} states"
            )
        self.chain = chain
        self.rewards = rewards
        self.gamma = gamma
        self.features = features
        self.stationary = stationary_distribution(chain)
        self.assumption: AssumptionReport = check_assumption(features, self.stationary, gamma)

        Phi = features.Phi
        pi = self.stationary.pi
        self.phi = Phi
        self.next_phi = chain.P @ Phi
        self.offset_terms = Phi * rewards[:, None]
        self.linear_terms = gamma * Phi[:, :, None] * self.next_phi[:, None, :] - (
            Phi[:, :, None] * Phi[:, None, :]
        )
        self.gram = weighted_gram(features, self.stationary)
        self.cross_gram = Phi.T @ (pi[:, None] * self.next_phi)
        # averaged map: x  ->  x - map_matrix @ x + map_offset
        self.map_matrix = self.gram - gamma * self.cross_gram
        self.map_offset = Phi.T @ (pi * rewards)

    @property
    def n_states(self) -> int:
        return self.chain.n_states

    @property
    def n_features(self) -> int:
        return self.features.n_features

    def mean_field(self, x: np.ndarray) -> np.ndarray:
        """Stationary average of the per-state map; an affine contraction.

        The product is summed along each row in numpy's pairwise order,
        ``(map_matrix * x).sum(axis=1)``, not by the BLAS, so its bits do
        not depend on the BLAS build or its thread count, and
        ``dynamics.run_deterministic`` can repeat it on Python floats."""
        x = np.asarray(x, dtype=float)
        return x - (self.map_matrix * x).sum(axis=1) + self.map_offset


@dataclass(frozen=True)
class PoissonSolution:
    """Anchored solutions of the two Poisson equations.

    ``offset`` (s, d) solves the equation driven by the centered per-state
    offset terms; ``linear`` (s, d, d) the one driven by the centered
    per-state linear terms.  Both vanish exactly at ``anchor_state``.
    ``expected_offset`` / ``expected_linear`` are the one-step conditional
    expectations (transition matrix applied state-wise), cached for the
    martingale-difference increments.
    """

    offset: np.ndarray
    linear: np.ndarray
    anchor_state: int
    expected_offset: np.ndarray
    expected_linear: np.ndarray
    offset_residual: float
    linear_residual: float


@dataclass(frozen=True)
class ConstantsBundle:
    """Worst-case constants feeding the radius and tail formulas.

    offset_solution_max   largest Euclidean norm of the offset Poisson solution
    linear_solution_max   largest operator norm of the linear Poisson solution
    noise_matrix_max      tightest almost-sure operator-norm bound on the
                          per-transition martingale matrix, over realizable
                          transitions only
    update_offset_bound   largest norm of the per-state offset term
    update_gain_bound     largest operator norm of the per-step rank-one
                          update factor (bounds the iterate increment gain)
    remainder_gain        multiplies the running error in the remainder bound
    remainder_offset      constant part of the remainder bound
    increment_scale       almost-sure bound scale for the summed noise
                          increments entering the tail inequality
    """

    offset_solution_max: float
    linear_solution_max: float
    noise_matrix_max: float
    update_offset_bound: float
    update_gain_bound: float
    remainder_gain: float
    remainder_offset: float
    increment_scale: float
    alpha: float
    feature_gain: float
    x_star_norm: float


@dataclass(frozen=True)
class AnalyticSolution:
    """Exact ground truth for one problem instance."""

    stationary: StationaryDistribution
    x_star: np.ndarray
    v_exact: np.ndarray
    v_approx: np.ndarray
    poisson: PoissonSolution
    constants: ConstantsBundle
    assumption: AssumptionReport
    fixed_point_residual: float

    def as_dict(self) -> dict:
        return {
            "stationary": self.stationary.pi.tolist(),
            "x_star": self.x_star.tolist(),
            "v_exact": self.v_exact.tolist(),
            "v_approx": self.v_approx.tolist(),
            "poisson": {
                "anchor_state": self.poisson.anchor_state,
                "offset": self.poisson.offset.tolist(),
                "linear": self.poisson.linear.tolist(),
                "offset_residual": self.poisson.offset_residual,
                "linear_residual": self.poisson.linear_residual,
            },
            "constants": asdict(self.constants),
            "assumption": asdict(self.assumption),
            "fixed_point_residual": self.fixed_point_residual,
        }


def exact_value_function(problem: PolicyEvalProblem) -> np.ndarray:
    """Solve the discounted evaluation equation exactly (no approximation)."""
    s = problem.n_states
    A = np.eye(s) - problem.gamma * problem.chain.P
    try:
        v = np.linalg.solve(A, problem.rewards)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"value-function system singular: {exc}") from exc
    residual = float(np.max(np.abs(A @ v - problem.rewards)))
    if residual > FIXED_POINT_TOL:
        raise SolverFailure(f"value-function solve left residual {residual:.3e}")
    return v


def fixed_point(problem: PolicyEvalProblem) -> np.ndarray:
    """Unique fixed point of the averaged update map.

    Solves the d-by-d system built from the weighted Gram matrices and
    asserts the round trip through the averaged map closes to 1e-8.
    """
    try:
        x = np.linalg.solve(problem.map_matrix, problem.map_offset)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"fixed-point system singular: {exc}") from exc
    residual = float(np.max(np.abs(problem.mean_field(x) - x)))
    if residual > FIXED_POINT_TOL:
        raise SolverFailure(
            f"fixed point fails its defining equation by {residual:.3e} "
            f"(condition est. {np.linalg.cond(problem.map_matrix):.3e})"
        )
    return x


def contraction_factor(problem: PolicyEvalProblem) -> float:
    """Closed-form contraction factor of the averaged map, in (0, 1).

    Uses the smallest eigenvalue of the weighted Gram matrix for the
    minimal weighted gain of the features.  Raises when the scaling
    condition fails, in which case no factor below one is certified.
    """
    if not problem.assumption.satisfied:
        raise AssumptionViolated(
            "feature scaling condition fails; rescale features by "
            f"{problem.assumption.rescaling_factor:.6g} or less"
        )
    eigs = np.linalg.eigvalsh(problem.gram)
    min_gain_sq = float(eigs[0])
    gain = problem.assumption.feature_gain
    g = problem.gamma
    alpha_sq = 1.0 - min_gain_sq * (2.0 * (1.0 - g) - gain * gain * (1.0 + g) ** 2)
    if not 0.0 < alpha_sq < 1.0:
        raise AssumptionViolated(f"contraction factor squared {alpha_sq:.6g} outside (0, 1)")
    return float(np.sqrt(alpha_sq))


def poisson_solve(problem: PolicyEvalProblem, anchor_state: int = 0) -> PoissonSolution:
    """Solve both Poisson equations with the solution pinned to zero at one state.

    Componentwise dense solves: the singular one-step-difference system has
    its anchor row replaced by the pinning equation, which selects the
    unique solution among the additive-constant family.  After the solve
    the anchor value is subtracted exactly (a constant shift leaves the
    equation invariant), and residuals are checked to 1e-8.
    """
    s, d = problem.n_states, problem.n_features
    if not 0 <= anchor_state < s:
        raise ValidationError(f"anchor state {anchor_state} out of range [0, {s})")
    pi = problem.stationary.pi
    centered_offset = problem.offset_terms - pi @ problem.offset_terms
    centered_linear = problem.linear_terms - np.tensordot(pi, problem.linear_terms, axes=1)

    B = np.eye(s) - problem.chain.P
    B[anchor_state, :] = 0.0
    B[anchor_state, anchor_state] = 1.0
    rhs = np.concatenate(
        [centered_offset.reshape(s, d), centered_linear.reshape(s, d * d)], axis=1
    )
    rhs[anchor_state, :] = 0.0
    try:
        sol = np.linalg.solve(B, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"anchored Poisson system singular: {exc}") from exc

    sol = sol - sol[anchor_state]
    offset = sol[:, :d].copy()
    linear = sol[:, d:].reshape(s, d, d).copy()

    P = problem.chain.P
    expected_offset = P @ offset
    expected_linear = np.tensordot(P, linear, axes=1)
    off_res = float(np.max(np.abs(offset - centered_offset - expected_offset)))
    lin_res = float(np.max(np.abs(linear - centered_linear - expected_linear)))
    if max(off_res, lin_res) > POISSON_TOL:
        raise SolverFailure(
            f"Poisson residuals {off_res:.3e} / {lin_res:.3e} exceed {POISSON_TOL:g} "
            f"(condition est. {np.linalg.cond(B):.3e})"
        )
    return PoissonSolution(
        offset=offset,
        linear=linear,
        anchor_state=anchor_state,
        expected_offset=expected_offset,
        expected_linear=expected_linear,
        offset_residual=off_res,
        linear_residual=lin_res,
    )


def noise_rows(
    phi: np.ndarray, next_phi: np.ndarray, gamma: float, poisson: PoissonSolution, y, y_next
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Row i of C_yy' (d, *shape) and entry i of c_yy' (*shape), one i < d at a
    time to bound memory, at the transitions y -> y' of the state index
    arrays ``y``, ``y_next`` (broadcast to one shape), where the martingale
    increment xi = C x + c has

        C_yy' = gamma phi_y (phi_y' - E phi_y)^T + L_y' - E L_y
        c_yy' = o_y' - E o_y

    for the features ``phi`` (s, d), their one-step expectations ``next_phi``
    and the Poisson solutions L, o of ``poisson``."""
    gap = np.take(phi.T, y_next, axis=1) - np.take(next_phi.T, y, axis=1)  # phi_y' - E phi_y
    scale = gamma * np.take(phi.T, y, axis=1)
    c = np.take(poisson.offset, y_next, axis=0) - np.take(poisson.expected_offset, y, axis=0)
    L, EL = poisson.linear, poisson.expected_linear
    for i in range(len(gap)):
        L_i = np.take(L[:, i], y_next, axis=0) - np.take(EL[:, i], y, axis=0)  # L_y' - E L_y, row i
        C_i = scale[i] * gap
        C_i += np.moveaxis(L_i, -1, 0)
        yield C_i, c[..., i]


def noise_table(
    phi: np.ndarray, next_phi: np.ndarray, gamma: float, poisson: PoissonSolution
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`noise_rows` at every transition, indexed by the flat pair
    y*s + y': C (d, d, s^2) and c (d, s^2)."""
    s, d = phi.shape
    y = np.arange(s)[:, None]
    C, c = np.empty((d, d, s, s)), np.empty((d, s, s))
    for i, (C_i, c_i) in enumerate(noise_rows(phi, next_phi, gamma, poisson, y, y.T)):
        C[i], c[i] = C_i, c_i
    return C.reshape(d, d, s * s), c.reshape(d, s * s)


def compute_constants(
    problem: PolicyEvalProblem,
    poisson: PoissonSolution,
    x_star: np.ndarray,
    alpha: float,
) -> ConstantsBundle:
    """Assemble the worst-case constants over the finite state space.

    Operator norms of rank-one factors are taken exactly as products of
    vector norms; the linear Poisson solutions get a per-state SVD.  The
    noise-matrix bound maximizes over realizable transitions only, since
    transitions of probability zero never occur along a path.
    """
    phi = problem.phi
    phi_norms = np.linalg.norm(phi, axis=1)
    offset_max = float(np.max(np.linalg.norm(poisson.offset, axis=1)))
    linear_max = float(np.max(np.linalg.svd(poisson.linear, compute_uv=False)[:, 0]))
    update_offset_bound = float(np.max(phi_norms * np.abs(problem.rewards)))
    gap = problem.gamma * phi[None, :, :] - phi[:, None, :]
    update_gain_bound = float(np.max(phi_norms[:, None] * np.linalg.norm(gap, axis=2)))
    jump = phi[None, :, :] - problem.next_phi[:, None, :]
    jump_norms = np.linalg.norm(jump, axis=2)
    realizable = problem.chain.P > 0.0
    noise_matrix_max = float(
        problem.gamma * np.max(np.where(realizable, phi_norms[:, None] * jump_norms, 0.0))
    )
    remainder_gain = linear_max * (4.0 + update_gain_bound)
    x_star_norm = float(np.linalg.norm(x_star))
    remainder_offset = (
        4.0 * offset_max + update_offset_bound * linear_max + remainder_gain * x_star_norm
    )
    increment_scale = max(noise_matrix_max + 2.0 * linear_max, 2.0 * offset_max)
    return ConstantsBundle(
        offset_solution_max=offset_max,
        linear_solution_max=linear_max,
        noise_matrix_max=noise_matrix_max,
        update_offset_bound=update_offset_bound,
        update_gain_bound=update_gain_bound,
        remainder_gain=remainder_gain,
        remainder_offset=remainder_offset,
        increment_scale=increment_scale,
        alpha=alpha,
        feature_gain=problem.assumption.feature_gain,
        x_star_norm=x_star_norm,
    )


def solve_problem(problem: PolicyEvalProblem) -> AnalyticSolution:
    """Compute the full analytic ground truth for one instance, with the
    Poisson solutions anchored at state 0."""
    alpha = contraction_factor(problem)
    x_star = fixed_point(problem)
    v_exact = exact_value_function(problem)
    poisson = poisson_solve(problem)
    constants = compute_constants(problem, poisson, x_star, alpha)
    return AnalyticSolution(
        stationary=problem.stationary,
        x_star=x_star,
        v_exact=v_exact,
        v_approx=problem.phi @ x_star,
        poisson=poisson,
        constants=constants,
        assumption=problem.assumption,
        fixed_point_residual=float(np.max(np.abs(problem.mean_field(x_star) - x_star))),
    )
