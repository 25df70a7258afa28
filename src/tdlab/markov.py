"""Finite irreducible aperiodic Markov chains.

Validation and stationary analysis.  Irreducibility and the period come
from one breadth-first walk from state 0 over the support digraph: its
levels show which states state 0 reaches, the same walk over the
transposed support shows which states reach state 0, and the period is
the gcd of ``level[u] + 1 - level[v]`` over the edges ``u -> v``.

Path sampling is the ensemble engine's own (``harness._path_segments``):
inverse-CDF lookups on :meth:`MarkovChain.cumulative_rows`, one uniform
per transition from each trajectory's stream, drawn one path segment at
a time.

All operations are pure given their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotIrreducible, NotStochastic, Periodic, SolverFailure

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10


@dataclass(frozen=True)
class MarkovChain:
    """A validated finite chain.  Construct via :func:`build_chain`."""

    P: np.ndarray
    n_states: int

    def cumulative_rows(self) -> np.ndarray:
        """Row-wise cumulative transition probabilities, used for inverse-CDF sampling."""
        return np.cumsum(self.P, axis=1)


@dataclass(frozen=True)
class StationaryDistribution:
    """The unique invariant distribution of an irreducible aperiodic chain."""

    pi: np.ndarray


def _levels(support: np.ndarray) -> np.ndarray:
    """Breadth-first levels from state 0 over a boolean adjacency matrix; -1 if unreached."""
    level = np.full(support.shape[0], -1)
    frontier = np.zeros(support.shape[0], dtype=bool)
    frontier[0] = True
    depth = 0
    while frontier.any():
        level[frontier] = depth
        depth += 1
        frontier = support[frontier].any(axis=0) & (level < 0)
    return level


def build_chain(P: np.ndarray) -> MarkovChain:
    """Validate a transition matrix and wrap it as a chain.

    Raises NotStochastic when a row sum strays beyond 1e-12 or an entry
    leaves [0, 1] (renormalization is refused: silent fixes hide config
    bugs), NotIrreducible naming the first state that state 0 cannot
    reach, or else the first state that cannot reach state 0, and
    Periodic when the gcd of the walk's level gaps over the edges
    exceeds one.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise NotStochastic(f"transition matrix must be square, got shape {P.shape}")
    s = P.shape[0]
    if not np.all(np.isfinite(P)):
        raise NotStochastic("transition matrix has non-finite entries")
    if np.any(P < 0.0) or np.any(P > 1.0):
        raise NotStochastic("transition probabilities must lie in [0, 1]")
    row_err = np.abs(P.sum(axis=1) - 1.0)
    if np.any(row_err > ROW_SUM_TOL):
        bad = int(np.argmax(row_err))
        raise NotStochastic(
            f"row {bad} sums to {P[bad].sum():.17g}, off by {row_err[bad]:.3e} "
            f"(tolerance {ROW_SUM_TOL:g}); renormalization is refused"
        )
    if s == 0:
        raise NotIrreducible("a chain needs at least one state")
    support = P > 0.0
    level = _levels(support)
    if np.any(level < 0):
        raise NotIrreducible(f"state {int(np.argmax(level < 0))} is not reachable from state 0")
    back = _levels(support.T)
    if np.any(back < 0):
        raise NotIrreducible(f"state {int(np.argmax(back < 0))} cannot reach state 0")
    u, v = np.nonzero(support)
    period = int(np.gcd.reduce(level[u] + 1 - level[v]))
    if period != 1:
        raise Periodic(f"chain has period {period}")
    return MarkovChain(P=P, n_states=s)


def stationary_distribution(chain: MarkovChain) -> StationaryDistribution:
    """Solve the balance equations for the unique stationary distribution.

    Solves the linear system with the transposed transition matrix minus the
    identity, replacing one equation by the normalization row.  Deterministic,
    with no iterative-eigensolver tolerance coupling.
    """
    s = chain.n_states
    A = chain.P.T - np.eye(s)
    A[-1, :] = 1.0
    b = np.zeros(s)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"balance system singular: {exc}") from exc
    residual = float(np.max(np.abs(pi @ chain.P - pi)))
    if residual > STATIONARY_TOL or np.any(pi <= 0.0) or abs(pi.sum() - 1.0) > STATIONARY_TOL:
        raise SolverFailure(
            f"stationary solve left residual {residual:.3e} or an invalid distribution"
        )
    return StationaryDistribution(pi=pi)
