"""Finite irreducible aperiodic Markov chains.

Validation and stationary analysis.  Path sampling is the ensemble
engine's own (``harness._path_segments``): inverse-CDF lookups on
:meth:`MarkovChain.cumulative_rows`, one uniform per transition from each
trajectory's stream, drawn one path segment at a time.

All operations are pure given their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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

    @property
    def diag(self) -> np.ndarray:
        """The diagonal weight matrix with the stationary probabilities on the diagonal."""
        return np.diag(self.pi)


def _period(support: np.ndarray) -> int:
    """Period of a strongly connected digraph given as a boolean adjacency matrix.

    BFS from node 0 assigns levels; the period is the gcd of
    ``level[u] + 1 - level[v]`` over all edges ``u -> v``.
    """
    s = support.shape[0]
    level = np.full(s, -1, dtype=int)
    level[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(support[u]):
                if level[v] < 0:
                    level[v] = level[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    for u in range(s):
        for v in np.flatnonzero(support[u]):
            g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g)


def build_chain(P: np.ndarray) -> MarkovChain:
    """Validate a transition matrix and wrap it as a chain.

    Raises NotStochastic when a row sum strays beyond 1e-12 or an entry
    leaves [0, 1] (renormalization is refused: silent fixes hide config
    bugs), NotIrreducible when the support digraph is not strongly
    connected, and Periodic when the chain period exceeds one.
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
    support = P > 0.0
    n_comp, _ = connected_components(csr_matrix(support), directed=True, connection="strong")
    if n_comp != 1:
        raise NotIrreducible(f"support digraph has {n_comp} strongly connected components")
    period = _period(support)
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
