"""Test oracles: independent estimators that check the library's solvers.

``expected_hitting_sums`` is a regenerative (hitting-time) accumulator.
It estimates

    E_i[ sum_{m=0}^{tau-1} g(Y_m) ],   tau = first time n > 0 with Y_n = i0,

by Monte Carlo, as an independent check on the linear-system Poisson
solver.  No production path uses it.
"""

from bisect import bisect_right

import numpy as np

from tdlab.markov import MarkovChain


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
