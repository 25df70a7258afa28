"""Monte Carlo verification of the all-time bound.

One engine serves ``experiment``, ``bound`` and ``simulate``:
``_path_segments`` draws a batch's states by inverse CDF, one block of
``_BLOCK`` steps at a time, and ``_fill_rows`` runs the online TD(0)
update along each block before the next is drawn.  The
experiment simulates many independent trajectories, estimates the
initial-condition term, fits the tail-exponent constant from simulated
weighted noise sums when none is supplied, and compares the empirical
all-time event frequency against the closed-form lower bound; ``bound``
runs the same engine up to the start index for the initial-condition
term; ``simulate_trajectory`` runs it on one trajectory alone and yields
its path one window at a time.

The sampler draws the next state as the count of CDF entries of the
current row at or below the step's uniform u.  Small chains (up to
``_TAKE_COLUMNS_MAX_S`` states) compare u with the whole row.  Larger ones
use a guide table, the indexed search of Chen & Asau (1974; Devroye 1986,
section III.2.4), built once per run and process (``_guide_table``): for
each state and each of G buckets [b/G, (b+1)/G) it holds the count at or
below b/G, so a step compares u only with the w entries that follow,
where w is the most any row puts strictly inside one bucket.  G is a
power of two, so the bucket floor(u*G) is exact, and both ways give the
same state for every u.

The kernel keeps the batch's iterates in a (d, B) layout and takes the
path one block of ``_BLOCK`` steps at a time.  Per block it gathers the
features, rewards and scaled features of the block's (K+1, B) states
once and runs only the update per step; after the block it
checks the new iterates for non-finite values, takes the distances to x*
of those at steps from n0 on, and hands the block (a ``_Block``) to every
collector.  Feature-axis sums follow numpy's pairwise order (``_dsum``),
so the iterates equal those of a per-step update in the (B, d) layout
bit for bit.  The block's arrays, like the sampler's, are the spec's
working buffers (``_buffer``), and each collector keeps its own: besides
the run's outputs, only the uniforms of one window (``_path_segments``)
and the error ring are wider than one block, and the window's uniforms
never hold more bytes than a slot of the ring.

A lane of one trajectory (``simulate``'s, or the last batch of a split
that leaves one over) would pay numpy's fixed cost per call on arrays of
one column: about ten calls a step, 12-18 us a step against about 0.1 us
per trajectory-step in a lane of 512 trajectories (on a shared 2-core
x86-64 host).  So the lane's width selects a per-step loop on Python
floats, in the sampler and in the kernel alike.
The sampler takes the next state by one ``bisect_right`` on the current
row's CDF entries, the same count both numpy layouts take.  The kernel
keeps its per-block gathers and runs the block's steps on floats, with
each feature-axis sum in ``_dsum``'s order (``_fsum``) and every other
operation in the numpy loop's order, so the iterates are the same bit for
bit.  Python's float ``*``, ``+`` and ``-`` overflow to inf or NaN as
numpy's do, and never raise, so the block's finite check is unchanged.
Above ``_FLOAT_MAX_D`` features the float loop is slower than numpy's
(16.6 against 13.7 us a step at d = 48), and such a lane runs numpy's.

A collector is one quantity the pass gathers, built from its own inputs:
``StartError`` (the error at n0), ``Excess`` (the largest excess over the
radius per trajectory and epsilon), ``Checkpoints`` (the iterates and
states at given steps) and ``NoiseSums`` (the weighted martingale noise
sums for the tail-exponent fit, with each increment read from a table over
the transitions y -> y' built once per run, and the sum folded once per
block).  Every collector output is a row per trajectory.  A caller keeps
the collectors it lists and hands them to the ensemble, which sizes each
one's outputs for all n trajectories once, through ``size``.  Every lane
feeds the same collectors, block by block through ``update``, and a block
names the lane's ``rows``, so the lane writes its rows of each output in
place and every output is the same for any batch split.  One experiment
is one pass with ``StartError``, ``Excess`` and, only when D is fitted,
``NoiseSums``; its convergence diagnostics are read off the per-step
quantiles below.  A collector reads only the block, never another
collector, so which others ride along never changes its values.

The kernel and the sampler pay numpy's fixed cost once per call, about
ten calls a step per lane, whatever the lane's width, so a run takes as
few lanes as it can (``_split``): each worker gets one lane of its share
of the trajectories, cut into near-equal lanes only where a lane would
pass ``_LANE_MAX_CELLS`` features x trajectories, the size of a lane of
512 at 8 features, above which the block buffers raise the peak memory
of a run, or ``_DRAW`` trajectories, above which a lane at 2 features
costs more per trajectory-step again (83-89 ns at 2048 wide against 77 ns
at 1024, on a shared 2-core x86-64 host).  The lanes run in lockstep,
one window of L steps at a time (``_window``: L*n stays under
``_RING_MAX_CELLS`` for n trajectories, and L is a multiple of
``_BLOCK``, so every block starts where it would on a whole path).  A
lane (a ``_Lane``) is a batch of trajectories: its rows of the outputs,
its iterates and its stream of blocks of states, which ``_fill_rows`` runs
one window at a time.  ``simulate`` runs one lane of one trajectory the
same way, writing row 0 of a one-row ``Checkpoints`` of the window's
steps alone, and hands over each window's
states and iterates, with the comparison run continued over the same
steps, before the next window runs: its memory does not grow with the
horizon, but for the step sizes the kernel reads.  The lanes of a process
take turns, so they share one set of sampler and kernel buffers.  Every
lane runs window k before any runs window k+1, so a non-finite iterate is
reported at the earliest step of the run, and at that step the lowest
trajectory, for any batch split.
The per-step outputs (``StepStats``: the error quantiles and maxima, and
the violation counts of the primary cell) need every trajectory at once:
each lane writes its errors of the window into its columns of a ring of
(L+1, n) float64 rows, and after the window the ensemble sorts each row in
place, takes its percentiles and its largest entry, and counts its
excesses.  No process holds more than the ring of errors, whatever the
horizon.

With more than one worker, each worker process owns a contiguous run of
lanes.  The collectors' per-trajectory outputs and the ring live in
anonymous shared mappings made before the workers fork, so a worker
inherits the spec, the collectors and its lanes once and writes its rows
into the parent's memory.  Each worker has a pipe of its own: the parent
sends it each window's index and waits for its answer, None, so no worker
runs window k+1 before every worker has run window k; the ring has two
slots, so the parent reduces window k while the workers run window k+1.
A worker that fails answers with its error, and one that dies ends its
pipe, so the parent is never left waiting: the run raises the earliest
non-finite step of any worker, else names the exit code of a worker that
died, else re-raises the worker's error.

Reproducibility contract: every result is a pure function of the
experiment configuration, including the master seed.  Each trajectory
owns the stream ``rng.stream(master_seed, index)``; trajectories are
processed in lanes and assembled by index, so the outputs are
bit-identical for any batch split or worker count.

Grid sweeps over the radius parameters reuse one trajectory ensemble
(common random numbers); violation counts are therefore exactly, not
statistically, monotone across the grids.
"""

from __future__ import annotations

import contextlib
import math
import time
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, partial, reduce
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .analytic import AnalyticSolution, PoissonSolution, PolicyEvalProblem, noise_rows, noise_table
from .bounds import (
    build_query,
    decay_curve,
    evaluate_grid,
    floor_term,
    require_feasible,
    require_tail_start,
    tail_constant_source,
)
from .dynamics import TrajectoryRecord, run_deterministic
from .errors import InsufficientTailData, NonFinite, ValidationError, WorkerDied
from .rng import stream
from .schedule import StepSchedule

WILSON_Z = 1.959963984540054  # two-sided 95%
_BLOCK = 64  # steps per block of the TD kernel
_DRAW = 16 * _BLOCK  # most steps per lockstep window, and most trajectories per lane of the default split
_RING_MAX_CELLS = 1 << 19  # cap on the steps x trajectories of one lockstep window (4 MB of float64)
_TAKE_COLUMNS_MAX_S = 12  # largest state count sampled from CDF columns, not a guide table
_GUIDE_MAX_CELLS = 1 << 20  # cap on the buckets x states of a guide table
_NOISE_TABLE_MAX_CELLS = 1 << 22  # cap on the s^2 d^2 entries of a noise table (32 MB)
_FLOAT_MAX_D = 32  # most features a one-trajectory lane updates on Python floats, not numpy
_LANE_MAX_CELLS = 1 << 12  # cap on the features x trajectories of a lane of the default split (``_split``)


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
    p_init: float | None = None  # for the bound command; None: estimated from the ensemble
    batch_size: int | None = None  # None: the default split (``_split``); a size, lanes of it, for tests

    def __post_init__(self) -> None:
        """Every message starts with the name of the field at fault."""
        if self.n_trajectories < 1:
            raise ValidationError("n_trajectories: need at least one trajectory")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValidationError(f"batch_size: must be >= 1, got {self.batch_size}")
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
        if self.D_const is not None and not (math.isfinite(self.D_const) and self.D_const > 0.0):
            raise ValidationError(f"D_const: must be finite and > 0, got {self.D_const}")
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
            if grid is not None and len(set(grid)) < len(grid):
                raise ValidationError(f"{name}: entries must be distinct")
        if self.p_init is not None and not 0.0 <= self.p_init <= 1.0:
            raise ValidationError(f"p_init: must lie in [0, 1], got {self.p_init}")

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
    """The dynamics a batch runs; a pool worker inherits it once, at fork."""

    cum_rows: np.ndarray
    cum_pi: np.ndarray
    phi: np.ndarray
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
    window: int = _DRAW  # steps per lockstep window (``_windows``)

    @cached_property
    def buffers(self) -> dict[tuple[str, np.dtype], np.ndarray]:
        """The working buffers of the sampler and the kernel (``_buffer``),
        one set per spec in each process."""
        return {}

    @cached_property
    def guide(self) -> _Guide:
        """The guide table of the CDF rows (``_guide_table``), built once per
        spec: every batch of a run reads the same one, which stays in cache
        as the batches take turns."""
        return _guide_table(self.cum_rows[:, : self.phi.shape[0] - 1])


class _Block(NamedTuple):
    """One kernel block of the lane whose B trajectories fill the output
    ``rows``, over steps bs..bs+K: the states ``Y`` (K+1, B), the step sizes
    ``a`` (K,) and the iterates ``X`` (d, K+1, B); then ``xs`` (d, K', B),
    the iterates of the block's steps m0.. at or after n0, and ``err``
    (K', B), their distances to x*."""

    rows: slice
    bs: int
    Y: np.ndarray
    a: np.ndarray
    X: np.ndarray
    n0: int
    m0: int
    xs: np.ndarray
    err: np.ndarray


class _Collector:
    """One quantity an ensemble pass gathers (see the module docstring).

    ``size(n, alloc)`` allocates its per-trajectory outputs, a row per
    trajectory, for all n trajectories from ``alloc(shape, dtype)``;
    ``update(blk)`` reads one ``_Block`` and writes its ``rows`` of them.
    The lanes of a run take turns, so in each process they share the
    collector's working ``buffers`` (``_buffer``).
    """

    @cached_property
    def buffers(self) -> dict[tuple[str, np.dtype], np.ndarray]:
        return {}


@dataclass(eq=False)
class StartError(_Collector):
    """The error at step n0."""

    def size(self, n: int, alloc=np.empty) -> None:
        self.err = alloc((n,), float)

    def update(self, blk: _Block) -> None:
        if blk.m0 == blk.n0:
            self.err[blk.rows] = blk.err[0]


@dataclass(eq=False)
class Excess(_Collector):
    """The largest excess of the error over the decaying radius part
    ``decay * eps``, per trajectory and grid epsilon (``max_excess``)."""

    eps_grid: np.ndarray
    decay: np.ndarray

    def size(self, n: int, alloc=np.empty) -> None:
        self.max_excess = alloc((n, len(self.eps_grid)), float)
        self.max_excess[...] = -np.inf

    def update(self, blk: _Block) -> None:
        err = blk.err
        idx = slice(blk.m0 - blk.n0, blk.m0 - blk.n0 + len(err))
        excess = _buffer(self.buffers, "excess", err.shape, float)  # reused for every epsilon
        for i, eps in enumerate(self.eps_grid):
            np.subtract(err, (self.decay[idx] * eps)[:, None], out=excess)
            peak = self.max_excess[blk.rows, i]
            np.maximum(peak, excess.max(axis=0), out=peak)


@dataclass(eq=False)
class Checkpoints(_Collector):
    """The iterates ``x`` and the states ``y`` at the sorted distinct steps
    ``ms`` >= n0, in ``dim`` features."""

    ms: np.ndarray
    dim: int

    def size(self, n: int, alloc=np.empty) -> None:
        self.x = alloc((n, len(self.ms), self.dim), float)
        self.y = alloc((n, len(self.ms)), np.intp)

    def update(self, blk: _Block) -> None:
        ms, m0 = self.ms, blk.m0
        a, b = np.searchsorted(ms, [m0, m0 + blk.xs.shape[1]])
        self.x[blk.rows, a:b] = blk.xs[:, ms[a:b] - m0].transpose(2, 1, 0)
        self.y[blk.rows, a:b] = blk.Y[ms[a:b] - blk.bs].T


@dataclass(eq=False)
class NoiseSums(_Collector):
    """The norm of the weighted noise sum S_n = (1 - a_n) S_{n-1} + a_n xi_n,
    from S_{n0} = a_{n0} xi_{n0}, after each sorted distinct step of ``ms``.

    xi_n = C_{y,y'} x_n + c_{y,y'} is affine in the iterate, with the
    coefficients of ``analytic.noise_rows`` (from the features ``phi``,
    ``next_phi`` = E phi_y and the Poisson solutions ``poisson``).  Up to
    ``_NOISE_TABLE_MAX_CELLS`` entries, construction tabulates them once per
    run (``analytic.noise_table``), and a block's xi takes d + 1 gathers at
    the flat pairs y*s + y'; above it, each block takes ``noise_rows`` at its
    own transitions.  Both ways give the same xi bit for bit.

    The recursion is folded per block.  Over the steps p <= j < q,
    S_{q-1} = prod_j (1 - a_j) S_{p-1} + sum_j w_j a_j xi_j with
    w_j = prod_{j < i < q} (1 - a_i), from one reverse ``cumprod``; the sum
    over j is taken in the fixed order of ``_dsum``, so it is the same for
    any batch size.  A block is split after each step of ``ms`` in it, where
    the norm is taken, and the part that starts at n0 starts from S = 0.
    The running sums S are a (d, n) working array, not an output: each lane
    keeps its columns, ``[:, rows]``, and a forked worker holds its own copy.
    """

    ms: np.ndarray
    gamma: float
    phi: np.ndarray
    next_phi: np.ndarray
    poisson: PoissonSolution

    def __post_init__(self) -> None:
        s, d = self.phi.shape
        self.table = None
        if s * s * d * d <= _NOISE_TABLE_MAX_CELLS:
            self.table = noise_table(self.phi, self.next_phi, self.gamma, self.poisson)

    def size(self, n: int, alloc=np.empty) -> None:
        self.norms = alloc((n, len(self.ms)), float)
        self.S = np.empty((self.phi.shape[1], n))

    def _rows(self, y, y_next) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The rows of (C, c) at the transitions y -> y', as ``noise_rows``.
        From the table, every row is gathered into the same two buffers, so
        a row is valid until the next one is asked for."""
        if self.table is None:
            return noise_rows(self.phi, self.next_phi, self.gamma, self.poisson, y, y_next)
        pair = np.multiply(y, len(self.phi), out=_buffer(self.buffers, "pair", y.shape, np.intp))
        pair += y_next
        C = _buffer(self.buffers, "C", (self.phi.shape[1], *y.shape), float)
        c = _buffer(self.buffers, "c", y.shape, float)
        return (
            (np.take(C_i, pair, axis=1, out=C, mode="clip"), np.take(c_i, pair, out=c, mode="clip"))
            for C_i, c_i in zip(*self.table)
        )

    def _increments(self, Y: np.ndarray, X: np.ndarray) -> np.ndarray:
        """xi for the states ``Y`` (K+1, B) and iterates ``X`` (d, K, B) before
        each step; shape (d, K, B).  Without a table the rows are formed on
        tiles of ``_BLOCK`` trajectories, whose arrays stay in cache.  The
        result is the buffer ``xi``."""
        B = X.shape[-1]
        width = B if self.table is not None else _BLOCK
        xi = _buffer(self.buffers, "xi", X.shape, float)
        for cols in (slice(b, b + width) for b in range(0, B, width)):
            for i, (G, c_i) in enumerate(self._rows(Y[:-1, cols], Y[1:, cols])):
                G *= X[..., cols]
                _dsum(G, out=xi[i, :, cols])
                xi[i, :, cols] += c_i
        return xi

    def update(self, blk: _Block) -> None:
        bs, K, n0 = blk.bs, len(blk.a), blk.n0
        if bs + K <= n0:
            return
        j0 = max(n0 - bs, 0)
        first = bs + j0  # the step of a[0] and xi[:, 0]
        a = blk.a[j0:]
        xi = self._increments(blk.Y[j0:], blk.X[:, j0:K])
        lo, hi = np.searchsorted(self.ms, [first, bs + K])
        ends = (self.ms[lo:hi] + 1 - first).tolist()  # fold up to and including each step of ms
        if not ends or ends[-1] < len(a):
            ends.append(len(a))
        S = self.S[:, blk.rows]
        p = 0
        for k, q in enumerate(ends):
            keep = np.cumprod(1.0 - a[p:q][::-1])[::-1]  # keep[j] = prod over p+j <= i < q of (1 - a_i)
            xi[:, p:q] *= a[p:q, None] * np.append(keep[1:], 1.0)[:, None]  # w_j a_j xi_j
            fold = _dsum(xi[:, p:q].swapaxes(0, 1))
            if first + p == n0:
                S[...] = fold
            else:
                S *= keep[0]
                S += fold
            if lo + k < hi:
                self.norms[blk.rows, lo + k] = np.sqrt(_dsum(S * S))
            p = q


_PERCENTILES = (25, 50, 75, 90)


def _err_quantiles(window: np.ndarray) -> dict[str, np.ndarray]:
    """The 25/50/75/90th percentiles of each row of a (steps, n) window of
    errors, in float64.  The rows are sorted in place, and each percentile
    is read off the two columns of order statistics around the virtual index
    p/100 * (n-1), with the lerp of numpy's linear ``percentile`` (``a +
    (b-a) t``, or ``b - (b-a) (1-t)`` from t = 1/2 on), so the values equal
    ``np.percentile``'s bit for bit without its copy of the window."""
    window.sort(axis=1)
    n = window.shape[1]
    out = {}
    for p in _PERCENTILES:
        v = (n - 1) * (p / 100)
        i = min(int(v), n - 1)
        t = np.float64(v - i)  # a float64 scalar, so the lerp runs in float64 as numpy's does
        a, b = window[:, i], window[:, min(i + 1, n - 1)]
        diff = b - a
        out[f"q{p}"] = a + diff * t if t < 0.5 else b - diff * (1 - t)
    return out


@dataclass(eq=False)
class StepStats:
    """The per-step outputs over all trajectories at each step n0..horizon,
    taken one lockstep window at a time: the 25/50/75/90th percentiles of
    the error (``q``), the largest error (``err_max``) and the count of
    excesses ``err - eps * decay[m]`` above ``floor`` (``counts``).

    It is not a collector: its values depend on every trajectory at once,
    so no batch alone can give them.  ``ring(n, W, slots, alloc)`` gives it
    a ring of (slots, W+1, n) float64 errors for windows of W steps: window
    k (steps kW+1..(k+1)W, and step 0 as well in window 0) writes step kW +
    r to row r of slot k % slots.  ``update`` fills a block's columns, its
    ``rows`` of the trajectories.  After every batch has run window k,
    ``reduce(k)`` raises ``NonFinite`` at the earliest step, and then the
    lowest trajectory, whose distance overflows; else it sorts
    each row in place, takes its percentiles (``_err_quantiles``) and its
    last entry, the largest, and then turns the rows into their excesses in
    place and counts them, ``_BLOCK`` rows at a time, so no temporary is a
    window wide.  Each row holds the numbers of one step's column of the
    whole (n, span) error matrix, so the values are those of that matrix's
    ``np.percentile``, ``max`` and ``count_nonzero`` along the trajectories.
    """

    n0: int
    horizon: int
    decay: np.ndarray
    eps: float
    floor: float

    def ring(self, n: int, W: int, slots: int, alloc=np.empty) -> None:
        self.W = W
        self.rows = alloc((slots, W + 1, n), float)
        span = self.horizon - self.n0 + 1
        self.q = {f"q{p}": np.empty(span) for p in _PERCENTILES}
        self.err_max = np.empty(span)
        self.counts = np.empty(span, dtype=np.int64)

    def update(self, blk: _Block) -> None:
        k = blk.bs // self.W
        r = blk.m0 - k * self.W
        self.rows[k % len(self.rows), r : r + len(blk.err), blk.rows] = blk.err

    def reduce(self, k: int) -> None:
        W = self.W
        first, last = max(self.n0, k * W + (k > 0)), min((k + 1) * W, self.horizon)
        if first > last:
            return
        window = self.rows[k % len(self.rows), first - k * W : last - k * W + 1]
        if not np.isfinite(window.max()):  # the distances are >= 0 or NaN
            r, t = np.argwhere(~np.isfinite(window))[0]
            raise NonFinite(f"the distance to x* of trajectory {t} overflows at step {first + r}")
        steps = slice(first - self.n0, last - self.n0 + 1)
        for key, q in _err_quantiles(window).items():
            self.q[key][steps] = q
        self.err_max[steps] = window[:, -1]
        radius, counts = self.eps * self.decay[steps], self.counts[steps]
        for b in range(0, len(window), _BLOCK):  # the sorted rows are spent: their excesses, in place
            rows = window[b : b + _BLOCK]
            rows -= radius[b : b + _BLOCK, None]
            counts[b : b + _BLOCK] = np.count_nonzero(rows > self.floor, axis=1)


class _Guide(NamedTuple):
    """The guide table (indexed search) of an inverse-CDF lookup over the
    first s-1 CDF columns ``cdf`` (s, s-1), in ``G`` buckets of width 1/G.

    ``first`` (G, s) holds first[b, y] = #{j < s-1 : cdf[y, j] <= b/G}.
    ``rows`` (s, s-1+w) is ``cdf`` padded on the right with 2.0, and ``w``
    >= 1 is the largest count, over all (y, b), of entries of row y
    strictly inside (b/G, (b+1)/G).  For u in [b/G, (b+1)/G) the entries
    at or below u are the first[b, y] at or below b/G and those of
    rows[y, first[b, y]:][:w] at or below u, since every later one is at
    or above (b+1)/G > u; the padding is above every u.
    """

    G: int
    w: int
    first: np.ndarray
    rows: np.ndarray


def _guide_table(cdf: np.ndarray) -> _Guide:
    """The ``_Guide`` of nondecreasing CDF rows ``cdf`` (s, s-1).  G is the
    smallest power of two >= 4s unless G*s would pass ``_GUIDE_MAX_CELLS``,
    then the largest that does not (at least 1); a power of two makes b/G
    and floor(u*G) exact."""
    s = len(cdf)
    G = 1 << min((4 * s - 1).bit_length(), max((_GUIDE_MAX_CELLS // s).bit_length() - 1, 0))
    edges = np.arange(G + 1) / G
    first = np.empty((G, s), dtype=np.intp)
    w = 1
    for y, row in enumerate(cdf):
        at_or_below = np.searchsorted(row, edges[:-1], side="right")
        below_next = np.searchsorted(row, edges[1:], side="left")
        first[:, y] = at_or_below
        w = max(w, int((below_next - at_or_below).max()))
    rows = np.full((s, s - 1 + w), 2.0)
    rows[:, : s - 1] = cdf
    return _Guide(G, w, first, rows)


def _windows(spec: _EnsembleSpec) -> range:
    """The first steps of a run's lockstep windows, each one draw of
    uniforms: every ``spec.window`` steps, or one window when the horizon is
    shorter (one window of no steps at horizon 0)."""
    return range(0, max(spec.horizon, 1), max(min(spec.window, spec.horizon), 1))


def _window(n: int) -> int:
    """The window length L for n trajectories: the largest multiple of
    ``_BLOCK`` with L*n <= ``_RING_MAX_CELLS``, clamped to [``_BLOCK``,
    ``_DRAW``]."""
    return min(max(_RING_MAX_CELLS // n // _BLOCK * _BLOCK, _BLOCK), _DRAW)


def _path_segments(spec: _EnsembleSpec, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The states of trajectories [lo, hi) at steps 0..horizon, by inverse
    CDF on each trajectory's own stream, one block at a time.

    The uniforms of each window of ``_windows`` are drawn in one call per
    trajectory: the lane's B trajectories are at most the run's n, so the
    window's B*W*8 bytes stay within one slot of the ring.  The first
    window draws one more uniform per trajectory, which picks the start
    state (drawn even when it is fixed), and draws continue the stream
    exactly as one long draw would.  Each trajectory's generator is dropped
    after its last draw, and when the whole path is one draw, as soon as it
    has drawn, so the lane never holds them all at once.  The states are
    sampled one block of ``_BLOCK`` steps at a time: a block holds the
    states at steps bs..bs+K as a (K+1, B) array, with bs a multiple of
    ``_BLOCK`` (W is one) and K at most ``_BLOCK`` (no steps at horizon 0),
    and the next one starts at the state this one ends at.  The buffers are
    one window of uniforms and one block of everything else, and belong to
    the spec (``_buffer``): every batch of a run in one process reuses them,
    so a block is valid only until this batch or another asks for its next.

    The next state is the number of CDF entries of the current row at or
    below the uniform u.  Rows are nondecreasing, so counting only the first
    s-1 columns equals the count capped at s-1.  Up to ``_TAKE_COLUMNS_MAX_S``
    states each step compares u with the whole row, read from an (s-1, B)
    table of CDF columns.  Above it each step reads the guide table
    (``_Guide``): the bucket b = floor(u*G) of every step of a block is
    taken at once, and the step adds to first[b, y] the count of the w
    entries after it at or below u, from one (w, B) take of the padded rows.
    A batch of one trajectory reads neither: each step is one
    ``bisect_right`` of u on the current row's first s-1 entries, which a
    memoryview hands over as Python floats without a copy.  All three give
    the same count for every u and every s; with s = 1 the row is empty and
    the count is 0.
    """
    B = hi - lo
    T = spec.horizon
    s = spec.phi.shape[0]
    starts = _windows(spec)
    W = starts.step
    gens = (stream(spec.master_seed, i) for i in range(lo, hi))
    if T > W:  # more than one draw: each stream is kept until its last
        gens = list(gens)
    u = _buffer(spec.buffers, "u", (B, 1 + W), float)  # column 0 is the start-state draw
    ut = _buffer(spec.buffers, "ut", (_BLOCK, B), float)
    columns = s <= _TAKE_COLUMNS_MAX_S
    if B == 1:  # one bisect per step, on each row's entries read as Python floats
        cdf_rows = [memoryview(row) for row in spec.cum_rows[:, : s - 1]]
    elif columns:  # the CDF row of state y is column y
        table = np.ascontiguousarray(spec.cum_rows[:, : s - 1].T)
        cdf = np.empty((s - 1, B))
        hits = np.empty(cdf.shape, dtype=bool)
    else:
        guide = spec.guide
        first, rows = guide.first.ravel(), guide.rows.ravel()
        stride = guide.rows.shape[1]
        window = np.arange(guide.w)[:, None]
        bucket = _buffer(spec.buffers, "bucket", (_BLOCK, B), np.intp)  # b*s of each step's uniform
        at = np.empty(B, dtype=np.intp)
        below = np.empty(B, dtype=np.intp)
        idx = np.empty((guide.w, B), dtype=np.intp)
        cdf = np.empty((guide.w, B))
        hits = np.empty(cdf.shape, dtype=bool)
    Y = _buffer(spec.buffers, "Y", (_BLOCK + 1, B), np.intp)
    end = np.empty(B, dtype=np.intp)  # the state the last block ended at
    for start in starts:
        L = min(W, T - start)
        for g, row in zip(gens, u):
            g.random(out=row[0 if start == 0 else 1 : 1 + L])
        if start + L == T:
            gens = ()  # the streams are spent
        for b in range(0, max(L, 1), _BLOCK):  # at horizon 0, one block of no steps
            K = min(_BLOCK, L - b)
            if start + b > 0:
                Y[0] = end
            elif spec.init_policy == "fixed":
                Y[0] = spec.init_state
            elif spec.init_policy == "uniform":
                Y[0] = np.minimum((u[:, 0] * s).astype(np.intp), s - 1)
            else:
                Y[0] = np.minimum(np.searchsorted(spec.cum_pi, u[:, 0], side="right"), s - 1)
            ut[:K] = u[:, 1 + b : 1 + b + K].T
            if B == 1:
                y = int(Y[0, 0])
                Y[1 : K + 1, 0] = [y := bisect_right(cdf_rows[y], v) for v in ut[:K, 0].tolist()]
            elif columns:
                for n in range(K):
                    table.take(Y[n], axis=1, out=cdf, mode="clip")
                    np.less_equal(cdf, ut[n], out=hits)
                    np.add.reduce(hits, axis=0, dtype=np.intp, out=Y[n + 1])
            else:
                np.multiply(ut[:K], guide.G, out=bucket[:K], casting="unsafe")  # floor: u >= 0
                bucket[:K] *= s
                for n in range(K):
                    np.add(bucket[n], Y[n], out=at)
                    first.take(at, out=below, mode="clip")  # first[b, y]
                    np.multiply(Y[n], stride, out=at)
                    at += below  # the flat index of rows[y, first[b, y]]
                    np.add(at, window, out=idx)
                    rows.take(idx, out=cdf, mode="clip")
                    np.less_equal(cdf, ut[n], out=hits)
                    np.add.reduce(hits, axis=0, dtype=np.intp, out=Y[n + 1])
                    Y[n + 1] += below
            end[:] = Y[K]
            yield Y[: K + 1]


def _buffer(buffers: dict, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An array of ``shape`` over the working buffer ``name`` of ``dtype`` in
    ``buffers``, which grows to the largest size asked for.  Buffers are
    kept by name and dtype, so a name asked for in two dtypes is two
    buffers.  The batches of a run take turns, so one set per process
    serves them all: the spec's (``_EnsembleSpec.buffers``) for the sampler
    and the kernel, and each collector's (``_Collector.buffers``) for its
    own."""
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    buf = buffers.get((name, dtype))
    if buf is None or buf.size < size:
        buf = buffers[name, dtype] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _dsum(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over the leading axis in the order numpy's pairwise sum adds a
    contiguous row: term by term below 8 terms, else into eight accumulators
    folded as a tree.  A (d, ...) sum is then bit-identical to the
    ``sum(axis=-1)`` of the same numbers laid out as (..., d), and the order
    never depends on the other axes' lengths, such as the batch size.  The
    sum goes into ``out`` when it is given, else into a new array."""
    d = len(p)
    if d < 8:
        out = np.add(p[0], p[1], out=out) if d > 1 else np.positive(p[0], out=out)
        for i in range(2, d):
            out += p[i]
        return out
    if d > 128:
        half = d // 2 - (d // 2) % 8
        return np.add(_dsum(p[:half]), _dsum(p[half:]), out=out)
    r = p[:8]
    for i in range(8, d - d % 8, 8):
        r = r + p[i : i + 8]
    r = r[0::2] + r[1::2]
    r = r[0::2] + r[1::2]
    out = np.add(r[0], r[1], out=out)
    for i in range(d - d % 8, d):
        out += p[i]
    return out


def _fsum(p: Iterable[float]) -> float:
    """``_dsum`` of one column, on Python floats: the same additions in the
    same order, so the same sum bit for bit."""
    p = list(p)
    d = len(p)
    if d < 8:
        return reduce(add, p)
    if d > 128:
        half = d // 2 - (d // 2) % 8
        return _fsum(p[:half]) + _fsum(p[half:])
    r = p[:8]
    for i in range(8, d - d % 8, 8):
        r = list(map(add, r, p[i : i + 8]))
    out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in p[d - d % 8 :]:
        out += v
    return out


class _Lane:
    """Trajectories [lo, hi) of a lockstep run: the collectors, and the ring,
    they ``feeds``, and the ``rows`` of them they write, [lo, hi) unless the
    caller points them elsewhere; their iterates ``x`` (d, B) at step
    ``at``; and their ``blocks`` of states still to come
    (``_path_segments``)."""

    def __init__(self, spec: _EnsembleSpec, lo: int, hi: int, feeds: tuple):
        self.lo = lo
        self.rows = slice(lo, hi)
        self.feeds = feeds
        self.x = np.repeat(spec.initial_x[:, None], hi - lo, axis=1)
        self.at = 0
        self.blocks = _path_segments(spec, lo, hi)


def _non_finite(trajectory: int, step: int) -> NonFinite:
    """The error for the first non-finite iterate; ``at`` orders such errors
    by step, then trajectory."""
    exc = NonFinite(f"trajectory {trajectory} became non-finite at step {step}")
    exc.at = (step, trajectory)
    return exc


def _fill_rows(spec: _EnsembleSpec, lane: _Lane) -> None:
    """Run the next window of the batch ``lane``: the online TD(0) update of
    its trajectories along each (K+1, B) block of states from
    ``lane.blocks``, time-blocked over a (d, B) layout as the module
    docstring describes, writing its ``rows`` of the collectors' outputs and
    of the ring in place.  A block's arrays are the spec's buffers
    (``_buffer``), so the iterates after each block are copied into the
    lane's own ``x``.

    A lane of one trajectory with at most ``_FLOAT_MAX_D`` features runs
    each block's steps on Python floats instead: the same products, sums
    (``_fsum``, or a left fold below 8 features) and updates in the same
    order, written into the block's iterates once, before the finite
    check, so every output is the same bit for bit."""
    n0 = spec.n0
    lo, B = lane.lo, lane.x.shape[1]
    d = spec.phi.shape[1]
    buffers = spec.buffers
    phi_t = np.ascontiguousarray(spec.phi.T)
    gamma = spec.gamma
    x = lane.x
    stop = min(lane.at + _windows(spec).step, spec.horizon)
    P = np.empty((d, 2, B))
    t = np.empty(B)
    u = np.empty((d, B))
    floats = B == 1 and d <= _FLOAT_MAX_D  # one trajectory: each step on Python floats
    dot = partial(reduce, add) if d < 8 else _fsum  # _fsum, without its list below 8 terms
    with np.errstate(over="ignore", invalid="ignore"):
        for Y in lane.blocks:  # at horizon 0, one block of no steps
            bs, K = lane.at, len(Y) - 1
            F = _buffer(buffers, "F", (d, K + 1, B), float)
            np.take(phi_t, Y, axis=1, out=F, mode="clip")  # phi at the states of steps bs .. bs+K
            R = _buffer(buffers, "R", (K, B), float)
            np.take(spec.rewards, Y[:-1], out=R, mode="clip")
            a = spec.steps[bs : bs + K]
            AF = _buffer(buffers, "AF", (d, K, B), float)
            np.multiply(F[:, :-1], a[:, None], out=AF)
            X = _buffer(buffers, "X", (d, K + 1, B), float)
            X[:, 0] = x
            if floats:  # the operations of the loop below, in its order
                xj, f = x[:, 0].tolist(), F[:, :, 0].T.tolist()
                rows = []
                for f0, f1, af, r in zip(f, f[1:], AF[:, :, 0].T.tolist(), R[:, 0].tolist()):
                    tj = dot(map(mul, f1, xj)) * gamma + r - dot(map(mul, f0, xj))
                    xj = [v + c * tj for v, c in zip(xj, af)]
                    rows.append(xj)
                X[:, 1:, 0] = np.reshape(rows, (K, d)).T
            else:
                for j in range(K):
                    # x + a phi_y (r_y + gamma phi_y'·x - phi_y·x)
                    np.multiply(F[:, j : j + 2], X[:, j, None], out=P)
                    dots = _dsum(P)
                    np.multiply(dots[1], gamma, out=t)
                    t += R[j]
                    t -= dots[0]
                    np.multiply(AF[:, j], t, out=u)
                    np.add(X[:, j], u, out=X[:, j + 1])
            x[...] = X[:, K]

            finite = _buffer(buffers, "finite", (d, K, B), bool)
            finite = np.isfinite(X[:, 1:], out=finite).all(axis=0)
            if not finite.all():
                j, b = np.argwhere(~finite)[0]
                raise _non_finite(lo + int(b), bs + int(j) + 1)

            if bs + K >= n0:  # the iterates of steps bs+j.. are new and at or after n0
                j = max(n0 - bs, 1 if bs else 0)
                diff = _buffer(buffers, "AF", (d, K + 1 - j, B), float)  # AF is spent
                np.subtract(X[:, j:], spec.x_star[:, None, None], out=diff)
                diff *= diff
                err = _dsum(diff, out=_buffer(buffers, "err", diff.shape[1:], float))
                np.sqrt(err, out=err)
                blk = _Block(lane.rows, bs, Y, a, X, n0, bs + j, X[:, j:], err)
                for feed in lane.feeds:
                    feed.update(blk)
            lane.at = bs + K
            if lane.at >= stop:
                return


def _run_window(spec: _EnsembleSpec, lanes: list[_Lane]) -> None:
    """Run the next window of every lane; then, if any lane's iterates became
    non-finite, raise the error of the earliest step, and at that step of
    the lowest trajectory."""
    failures = []
    for lane in lanes:
        try:
            _fill_rows(spec, lane)
        except NonFinite as exc:
            failures.append(exc)
    if failures:
        raise min(failures, key=lambda exc: exc.at)


def _shared_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An array in a new anonymous shared mapping: a forked child writes the
    same memory the parent reads, and a page is resident only once touched."""
    import mmap

    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _work(spec: _EnsembleSpec, lanes: list[_Lane], conn, parent_ends: list) -> None:
    """A worker process: run ``lanes`` one window each time the parent sends
    on ``conn``, and answer None, or the error that stopped it.  It first
    closes the parent's ends of the pipes it inherited, so it ends if the
    parent does."""
    for end in parent_ends:
        end.close()
    try:
        for _ in _windows(spec):
            conn.recv()
            _run_window(spec, lanes)
            conn.send(None)
    except (EOFError, BrokenPipeError):  # the parent is gone
        pass
    except Exception as exc:  # the parent raises it
        conn.send(exc)


def _run_pool(spec: _EnsembleSpec, lanes: list[_Lane], workers: int, stats: StepStats | None) -> None:
    """Run ``lanes`` in lockstep on ``workers`` forked processes, each with a
    contiguous run of them and a pipe of its own.  The parent sends window
    k to every worker, reduces ``stats`` of window k-1 and then waits for
    each one's answer.

    If a window fails, the run raises the earliest non-finite iterate of any
    worker, else a ``WorkerDied`` naming the exit code of the first worker
    that died (its pipe ends early), else the first worker's error.  The
    workers still alive then are idle, and are stopped."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    ended = False
    try:
        for w in range(workers):
            conn, child = ctx.Pipe()
            conns.append(conn)
            run = lanes[w * len(lanes) // workers : (w + 1) * len(lanes) // workers]
            procs.append(ctx.Process(target=_work, args=(spec, run, child, conns)))
            procs[-1].start()
            child.close()
        windows = len(_windows(spec))
        for k in range(windows):
            for conn in conns:
                with contextlib.suppress(BrokenPipeError):  # a dead worker shows at recv
                    conn.send(k)
            if k and stats is not None:
                stats.reduce(k - 1)
            replies = [_reply(conn, proc) for conn, proc in zip(conns, procs)]
            errors = [r for r in replies if isinstance(r, BaseException)]
            if errors:
                non_finite = [e for e in errors if isinstance(e, NonFinite)]
                dead = [e for e in errors if isinstance(e, WorkerDied)]
                raise min(non_finite, key=lambda exc: exc.at) if non_finite else (dead or errors)[0]
        if stats is not None:
            stats.reduce(windows - 1)
        ended = True
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            if not ended:
                proc.terminate()
            proc.join()


def _reply(conn, proc):
    """A worker's answer for the window, or ``WorkerDied`` if it died."""
    try:
        return conn.recv()
    except EOFError:
        proc.join()
        return WorkerDied(f"a worker process ended abruptly with exit code {proc.exitcode}")


def _split(n: int, d: int, jobs: int, batch_size: int | None) -> list[tuple[int, int]]:
    """The lanes [lo, hi) of trajectories [0, n) in ``d`` features, for at
    most ``jobs`` workers.  Given ``batch_size``, lanes of that many
    trajectories, the last one shorter.  Else the fewest near-equal lanes
    [i*n//k, (i+1)*n//k) of at most ``_LANE_MAX_CELLS // d`` and at most
    ``_DRAW`` trajectories, with k a multiple of the worker count, so each
    worker runs as many lanes, and k at most n."""
    if batch_size is not None:
        return [(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]
    workers = min(jobs, n)
    k = -(-n // max(min(_LANE_MAX_CELLS // d, _DRAW), 1))  # the fewest lanes within the caps
    k = min(-(-k // workers) * workers, n)
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def _run_ensemble(
    spec: _EnsembleSpec,
    collectors: tuple[_Collector, ...],
    n: int,
    batch_size: int | None,
    jobs: int,
    stats: StepStats | None = None,
) -> None:
    """Fill ``collectors`` over trajectories [0, n), in the lanes of
    ``_split`` (one per worker within its caps, or lanes of ``batch_size``
    when it is given) run in lockstep windows on at most ``jobs`` worker
    processes and never more workers than lanes; with ``stats``, also the
    per-step outputs, into it.  Each collector is sized for the n
    trajectories once, and each lane writes its rows of the outputs and of
    the ring in place.  With workers, the outputs and the ring are shared
    mappings and the workers fork, so the spec, the collectors and the
    lanes reach a worker once, and nothing comes back but each window's
    answer."""
    if jobs < 1:
        raise ValidationError(f"jobs: must be >= 1, got {jobs}")
    batches = _split(n, spec.phi.shape[1], jobs, batch_size)
    workers = min(jobs, len(batches))
    spec = replace(spec, window=_window(n))
    alloc = _shared_empty if workers > 1 else np.empty
    for c in collectors:
        c.size(n, alloc)
    feeds = tuple(collectors)
    if stats is not None:
        stats.ring(n, _windows(spec).step, min(workers, 2), alloc)
        feeds += (stats,)
    lanes = [_Lane(spec, lo, hi, feeds) for lo, hi in batches]
    if workers > 1:
        _run_pool(spec, lanes, workers, stats)
    else:
        for k in range(len(_windows(spec))):
            _run_window(spec, lanes)
            if stats is not None:
                stats.reduce(k)


def _base_spec(config: ExperimentConfig, analytic: AnalyticSolution, horizon: int) -> _EnsembleSpec:
    problem = config.problem
    return _EnsembleSpec(
        cum_rows=problem.chain.cumulative_rows(),
        cum_pi=np.cumsum(analytic.stationary.pi),
        phi=problem.phi,
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
    config: ExperimentConfig, jobs: int = 1, *, analytic: AnalyticSolution
) -> PInitEstimate:
    """Fraction of trajectories whose error at the start index exceeds epsilon.

    Simulates from step 0 to n0 with the same streams the full experiment
    uses, so the estimate matches the full run exactly.
    """
    n, start = config.n_trajectories, StartError()
    _run_ensemble(_base_spec(config, analytic, config.n0), (start,), n, config.batch_size, jobs)
    exceed = int(np.count_nonzero(start.err > config.epsilon))
    return PInitEstimate(value=exceed / n, interval=wilson_interval(exceed, n), n_trajectories=n)


def simulate_trajectory(
    config: ExperimentConfig, index: int, analytic: AnalyticSolution
) -> Iterator[TrajectoryRecord]:
    """Trajectory ``index`` of the ensemble alone, from step 0 to the horizon,
    as one record per window of L = min(``_DRAW``, horizon) steps: window 0
    holds steps 0..L, and window k steps kL+1..(k+1)L.

    The engine runs one lane of that trajectory alone, window by window,
    with n0 = 0 on its own stream ``rng.stream(master_seed, index)``, so the
    start state, the states and the iterates are those of row ``index`` of
    any batched run; the lane writes row 0 of a one-row ``Checkpoints`` of
    every step of the window, a new one each window.  The comparison run is the averaged
    recursion from the same start, continued from the last iterate of the
    window before.  Distances are taken per window, and the running peak of
    the gap carries across windows.  Overflow in them is left as infinity
    or NaN, without a warning, for the caller to report.
    """
    config = replace(config, n0=0)
    T, d = config.horizon, config.problem.n_features
    spec = _base_spec(config, analytic, T)
    lane = _Lane(spec, index, index + 1, ())
    lane.rows = slice(0, 1)
    starts = _windows(spec)
    z, peak = config.initial_x, 0.0
    for start in starts:
        stop = min(start + starts.step, T)
        first = start + 1 if start else 0  # window k > 0 starts after the step window k-1 ends at
        chk = Checkpoints(np.arange(first, stop + 1), d)
        chk.size(1)
        lane.feeds = (chk,)
        _fill_rows(spec, lane)
        xs = chk.x[0]
        with np.errstate(over="ignore", invalid="ignore"):
            zs = run_deterministic(config.problem, config.schedule, start, stop, z)[first - start :]
            gap = np.linalg.norm(xs - zs, axis=1)
            record = TrajectoryRecord(
                states=chk.y[0],
                x=xs,
                z=zs,
                dist_to_target=np.linalg.norm(xs - analytic.x_star, axis=1),
                dist_to_comparison=gap,
                peak_deviation=np.maximum(np.maximum.accumulate(gap), peak),
            )
        z, peak = zs[-1], record.peak_deviation[-1]
        yield record


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

    ``primary`` is the row of ``grid`` at the config's epsilon and delta,
    the run's verdict; ``as_dict`` puts its values at the top level.

    ``D_source`` says where the tail-exponent constant came from:
    ``"given"`` by the config, ``"fitted"`` from the ensemble's noise sums,
    or ``"noiseless"`` when the problem has no noise and the tail is 0
    without any constant; ``D_used`` and ``fitted`` are then None.
    """

    n_trajectories: int
    n0: int
    horizon: int
    master_seed: int
    primary: GridRow
    empirical_p_init: float
    p_init_interval: tuple[float, float]
    p_init_source: str
    D_used: float | None
    D_source: str
    fitted: TailFit | None
    per_m_violation_counts: np.ndarray
    per_m_err_max: np.ndarray
    radius: np.ndarray
    grid: list[GridRow]
    err_quantiles: dict[str, np.ndarray]
    diagnostics: Diagnostics
    wall_time: float = field(default=0.0, compare=False)

    def as_dict(self) -> dict:
        return {
            "n_trajectories": self.n_trajectories,
            "n0": self.n0,
            "horizon": self.horizon,
            "master_seed": self.master_seed,
            "epsilon": self.primary.epsilon,
            "delta": self.primary.delta,
            "empirical_alltime_prob": self.primary.alltime_prob,
            "alltime_interval": list(self.primary.interval),
            "violations": self.primary.violations,
            "empirical_p_init": self.empirical_p_init,
            "p_init_interval": list(self.p_init_interval),
            "p_init_source": self.p_init_source,
            "theoretical_lower_bound": self.primary.theoretical_lower_bound,
            "tail_sum": self.primary.tail_sum,
            "vacuous": self.primary.vacuous,
            "floor": self.primary.floor,
            "D_used": self.D_used,
            "D_source": self.D_source,
            "fitted_D": None if self.fitted is None else self.fitted.value,
            "fit": None if self.fitted is None else asdict(self.fitted),
            "per_m_violation_counts": self.per_m_violation_counts.tolist(),
            "grid": [asdict(row) for row in self.grid],
            "diagnostics": self.diagnostics.as_dict(),
        }


def run_alltime_experiment(
    config: ExperimentConfig, jobs: int = 1, *, analytic: AnalyticSolution
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
    The same pass takes the per-step error quantiles, maxima and
    primary-cell violation counts, window by window (``StepStats``), and
    ``diagnostics`` reads the quartiles at the default convergence
    checkpoints off them.  A tail constant, given or fitted, needs n0 >= 1, and
    n0 must be feasible; both are checked before the ensemble runs.  Every
    grid cell's floor and tail come from
    ``evaluate_grid``; the run adds its violations and Wilson interval from
    ``Excess``.  The primary cell is the ``primary`` row of the grid.
    """
    t0 = time.monotonic()
    problem = config.problem
    constants = analytic.constants
    sched = config.schedule
    n0, horizon = config.n0, config.horizon
    dims = problem.n_features
    d_source = tail_constant_source(constants, config.D_const)
    require_tail_start(n0, d_source)
    require_feasible(constants, sched, n0)

    eps_grid = list(config.epsilon_grid) if config.epsilon_grid else []
    if config.epsilon not in eps_grid:
        eps_grid = [config.epsilon] + eps_grid
    delta_grid = list(config.delta_grid) if config.delta_grid else []
    if config.delta not in delta_grid:
        delta_grid = [config.delta] + delta_grid

    decay = decay_curve(constants, sched, n0, horizon)
    primary_floor = floor_term(constants, sched, n0, config.epsilon, config.delta)
    need_fit = d_source == "fitted"
    n = config.n_trajectories

    start, excess = StartError(), Excess(np.asarray(eps_grid), decay)
    collectors = (start, excess)
    if need_fit:
        # tail indices m in [n0+1, horizon]; the sum bounded at m ends at m-1, where it is recorded
        fit_ms = np.unique(np.geomspace(n0 + 1, horizon, 16).astype(np.int64))
        fit_ms = fit_ms[fit_ms > n0]
        noise = NoiseSums(fit_ms - 1, problem.gamma, problem.phi, problem.next_phi, analytic.poisson)
        collectors += (noise,)
    stats = StepStats(n0, horizon, decay, config.epsilon, primary_floor)
    _run_ensemble(_base_spec(config, analytic, horizon), collectors, n, config.batch_size, jobs, stats)

    p_init_exceed = int(np.count_nonzero(start.err > config.epsilon))

    fitted: TailFit | None = None
    d_used = None if config.D_const is None else float(config.D_const)
    if need_fit:
        noise_sums = noise.norms
        fit_deltas = np.unique(np.quantile(noise_sums.ravel(), DEFAULT_FIT_QUANTILES))
        fit_deltas = fit_deltas[fit_deltas > 0.0].tolist()
        fitted = fit_tail_exponent(
            (np.count_nonzero(col > dlt) / n, dlt, sched.tail_weight(n0, m), dims)
            for m, col in zip(fit_ms.tolist(), noise_sums.T)
            for dlt in fit_deltas
        )
        d_used = fitted.value
    query = build_query(
        constants,
        sched,
        epsilon=config.epsilon,
        delta=config.delta,
        n0=n0,
        horizon=horizon,
        D_const=d_used,
        p_init=p_init_exceed / n,
        p_init_source="fitted-ensemble" if need_fit else "empirical",
    )

    p_inits = [int(np.count_nonzero(start.err > eps)) / n for eps in eps_grid]
    cells = evaluate_grid(query, dims, sched, constants, eps_grid, delta_grid, p_inits)
    grid_rows: list[GridRow] = []
    for i, cell in enumerate(cells):
        vio = int(np.count_nonzero(excess.max_excess[:, i // len(delta_grid)] > cell.floor))
        grid_rows.append(
            GridRow(
                epsilon=cell.epsilon,
                delta=cell.delta,
                floor=cell.floor,
                violations=vio,
                alltime_prob=1.0 - vio / n,
                interval=wilson_interval(n - vio, n),
                tail_sum=cell.tail.tail_sum,
                theoretical_lower_bound=cell.tail.prob_lower_bound,
                vacuous=cell.tail.vacuous,
            )
        )
    # the primary (epsilon, delta) is one of the cells; its row is the verdict
    primary = next(r for r in grid_rows if (r.epsilon, r.delta) == (config.epsilon, config.delta))

    return ExperimentResult(
        n_trajectories=n,
        n0=n0,
        horizon=horizon,
        master_seed=config.master_seed,
        primary=primary,
        empirical_p_init=p_init_exceed / n,
        p_init_interval=wilson_interval(p_init_exceed, n),
        p_init_source=query.p_init_source,
        D_used=d_used,
        D_source=d_source,
        fitted=fitted,
        per_m_violation_counts=stats.counts,
        per_m_err_max=stats.err_max,
        radius=decay * config.epsilon + primary.floor,
        grid=grid_rows,
        err_quantiles=stats.q,
        diagnostics=_diagnostics(stats, sched, n),
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
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(self).items()}


def _diagnostics(stats: StepStats, schedule: StepSchedule, n: int) -> Diagnostics:
    """The error quartiles over the n trajectories at the 8 geometric steps
    from max(n0, 1) to the horizon, read off the per-step quantiles of
    ``stats``, and, for a harmonic schedule, the log-log slope of the
    median."""
    ms = np.unique(np.geomspace(max(stats.n0, 1), stats.horizon, 8).astype(np.int64))
    at = ms - stats.n0
    med, q25, q75 = (stats.q[key][at] for key in ("q50", "q25", "q75"))
    slope = None
    if schedule.kind == "harmonic" and len(ms) >= 2 and np.all(med > 0):
        slope = float(np.polyfit(np.log(ms.astype(float)), np.log(med), 1)[0])
    return Diagnostics(
        checkpoints=ms,
        median=med,
        q25=q25,
        q75=q75,
        loglog_slope=slope,
        n_trajectories=n,
    )

