"""Monte Carlo verification of the all-time bound.

One engine serves ``experiment``, ``bound`` and ``simulate``:
``_path_segments`` draws a batch's states by inverse CDF, one segment of
at most ``_DRAW`` steps at a time, and ``_simulate_chunk`` runs the online
TD(0) update along each segment before the next is drawn.  The
experiment simulates many independent trajectories, estimates the
initial-condition term, fits the tail-exponent constant from simulated
weighted noise sums when none is supplied, and compares the empirical
all-time event frequency against the closed-form lower bound; ``bound``
runs the same engine up to the start index for the initial-condition
term; ``simulate_trajectory`` runs it on one trajectory alone.

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

The kernel keeps the batch's iterates in a (d, B) layout and runs each
segment's steps in blocks of ``_BLOCK``.  Per block it gathers the
features, rewards and scaled features of that block's (K+1, B) slice of
the segment once and runs only the update per step; after the block it
checks the new iterates for non-finite values, takes the distances to x*
of those at steps from n0 on, and hands the block (a ``_Block``) to every
collector.  Feature-axis sums follow numpy's pairwise order (``_dsum``),
so the iterates equal those of a per-step update in the (B, d) layout
bit for bit.

A collector is one quantity the pass gathers, built from its own inputs:
``StartError`` (the error at n0), ``Excess`` (the largest excess over the
radius per trajectory and epsilon, and the per-step violation counts and
error maxima), ``Checkpoints`` (the iterates at given steps) and
``NoiseSums`` (the weighted martingale noise sums for the tail-exponent
fit, with each increment read from a table over the transitions y -> y'
built once per run, and the sum folded once per block).  The spec carries
the collectors a caller lists; the ensemble allocates each one's total for
all trajectories once, through ``empty``.  A batch feeds, block by block
through ``update``, the ``part`` of each total for its rows: the
per-trajectory outputs are views of the total's rows, so the batch writes
them in place, and only the per-step outputs it folds (``Excess``'s counts
and maxima) are its own, which the ensemble ``merge``s into the total.
Integer sums and maxima do not depend on the order they are taken in, so
every output is the same for any batch split.  One experiment is one pass
with all four (the noise sums only when D is fitted).  A collector reads
only the block, never another collector, so which others ride along never
changes its values.

The batches run in lockstep, one window of L steps at a time (``_window``:
L*n stays under ``_RING_MAX_CELLS`` for n trajectories, and L is a multiple
of ``_BLOCK``, so every block starts where it would on a whole path).  A
batch is a ``_Lane``: its iterates, its parts and its stream of path
segments, one segment per window.  The lanes of a process take turns, so
they share one set of sampler buffers (``_buffer``).  Every lane runs
window k before any runs window k+1, so a non-finite iterate is reported
at the earliest step of the run, and at that step the lowest trajectory,
for any batch split.
The per-step error quantiles (``ErrQuantiles``) need every trajectory at
once: each lane writes its errors of the window into its columns of a ring
of (L+1, n) float32 rows, and after the window the ensemble sorts each row
in place and takes its percentiles.  No process holds more than the ring
of errors, whatever the horizon.

With more than one worker, each worker process owns a contiguous run of
batches.  The totals' per-trajectory outputs and the ring live in
anonymous shared mappings made before the workers fork, so a worker
inherits the spec, the totals and its batches once, writes its rows into
the parent's memory and sends back only the folded outputs.  Each worker
has a pipe of its own: the parent sends it each window's index and waits
for its answer, so no worker runs window k+1 before every worker has run
window k; the ring has two slots, so the parent reduces window k while the
workers run window k+1.  A worker that fails answers with its error, and
one that dies ends its pipe, so the parent is never left waiting: the run
raises the earliest non-finite step of any worker, else names the exit
code of a worker that died, else re-raises the worker's error.

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

import contextlib
import copy
import itertools
import math
import time
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .analytic import AnalyticSolution, PoissonSolution, PolicyEvalProblem, noise_rows, noise_table
from .bounds import (
    TailSummary,
    build_query,
    decay_curve,
    floor_term,
    require_feasible,
    require_tail_start,
    tail_constant_source,
    tail_probability,
)
from .dynamics import TrajectoryRecord, run_deterministic
from .errors import InsufficientTailData, NonFinite, ValidationError, WorkerDied
from .rng import stream
from .schedule import StepSchedule

WILSON_Z = 1.959963984540054  # two-sided 95%
_BLOCK = 64  # steps per block of the TD kernel
_DRAW = 16 * _BLOCK  # most steps per sampled path segment
_RING_MAX_CELLS = 1 << 20  # cap on the steps x trajectories of one lockstep window (4 MB of float32)
_TAKE_COLUMNS_MAX_S = 12  # largest state count sampled from CDF columns, not a guide table
_GUIDE_MAX_CELLS = 1 << 20  # cap on the buckets x states of a guide table
_NOISE_TABLE_MAX_CELLS = 1 << 22  # cap on the s^2 d^2 entries of a noise table (32 MB)


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
        if self.batch_size < 1:
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
    """The dynamics a batch runs, and its collectors; a pool worker inherits
    it once, at fork."""

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
    collectors: tuple[_Collector, ...] = ()
    window: int = _DRAW  # steps per path segment: one lockstep window (``_windows``)

    @cached_property
    def buffers(self) -> dict[str, np.ndarray]:
        """The sampler's working buffers by name (``_buffer``), one set per
        spec in each process."""
        return {}

    @cached_property
    def guide(self) -> _Guide:
        """The guide table of the CDF rows (``_guide_table``), built once per
        spec: every batch of a run reads the same one, which stays in cache
        as the batches take turns."""
        return _guide_table(self.cum_rows[:, : self.phi.shape[0] - 1])


class _Block(NamedTuple):
    """One kernel block over steps bs..bs+K: the states ``Y`` (K+1, B), the
    step sizes ``a`` (K,) and the iterates ``X`` (d, K+1, B); then ``xs``
    (d, K', B), the iterates of the block's steps m0.. at or after n0, and
    ``err`` (K', B), their distances to x*."""

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

    ``empty(lo, hi, alloc)`` is a copy with the arrays named in ``outputs``
    sized for trajectories [lo, hi), the per-trajectory ones from
    ``alloc(shape, dtype)``; ``part(lo, hi)`` is the part of such a total
    for a batch's rows [lo, hi), whose per-trajectory outputs are views of
    the total's rows and whose ``folded`` outputs (per step) are new;
    ``update(blk)`` reads one ``_Block``, and ``merge(*folded)`` folds a
    part's ``folded`` outputs, in that order, into the total.
    """

    outputs: tuple[str, ...]
    folded: tuple[str, ...] = ()

    def _sized(self, lo: int, hi: int, **arrays: np.ndarray) -> _Collector:
        part = copy.copy(self)
        part.lo, part.hi = lo, hi
        vars(part).update(arrays)
        return part

    def _new_folded(self) -> dict[str, np.ndarray]:
        return {}

    def part(self, lo: int, hi: int) -> _Collector:
        rows = slice(lo - self.lo, hi - self.lo)
        views = {name: getattr(self, name)[rows] for name in self.outputs if name not in self.folded}
        return self._sized(lo, hi, **views, **self._new_folded())

    def merge(self) -> None:
        """Nothing to fold: every output is per trajectory."""


@dataclass(eq=False)
class StartError(_Collector):
    """The error at step n0."""

    outputs = ("err",)

    def empty(self, lo: int, hi: int, alloc=np.empty) -> StartError:
        return self._sized(lo, hi, err=alloc((hi - lo,), float))

    def update(self, blk: _Block) -> None:
        if blk.m0 == blk.n0:
            self.err[:] = blk.err[0]


@dataclass(eq=False)
class Excess(_Collector):
    """The largest excess of the error over the decaying radius part
    ``decay * eps``, per trajectory and grid epsilon (``max_excess``), and
    per step from n0, the count of excesses at the primary ``eps`` above
    ``floor`` and the largest error (``counts``, ``err_max``)."""

    eps_grid: np.ndarray
    decay: np.ndarray
    eps: float
    floor: float
    outputs = ("max_excess", "counts", "err_max")
    folded = ("counts", "err_max")

    def empty(self, lo: int, hi: int, alloc=np.empty) -> Excess:
        max_excess = alloc((hi - lo, len(self.eps_grid)), float)
        max_excess[...] = -np.inf
        return self._sized(lo, hi, max_excess=max_excess, **self._new_folded())

    def _new_folded(self) -> dict[str, np.ndarray]:
        span = len(self.decay)
        return {"counts": np.zeros(span, dtype=np.int64), "err_max": np.zeros(span)}

    def update(self, blk: _Block) -> None:
        err = blk.err
        idx = slice(blk.m0 - blk.n0, blk.m0 - blk.n0 + len(err))
        excess = np.empty_like(err)  # one (K', B) buffer, reused for every epsilon
        for i, eps in enumerate(self.eps_grid):
            np.subtract(err, (self.decay[idx] * eps)[:, None], out=excess)
            np.maximum(self.max_excess[:, i], excess.max(axis=0), out=self.max_excess[:, i])
        np.subtract(err, (self.eps * self.decay[idx])[:, None], out=excess)
        self.counts[idx] += np.count_nonzero(excess > self.floor, axis=1)
        np.maximum(self.err_max[idx], err.max(axis=1), out=self.err_max[idx])

    def merge(self, counts: np.ndarray, err_max: np.ndarray) -> None:
        self.counts += counts
        np.maximum(self.err_max, err_max, out=self.err_max)


@dataclass(eq=False)
class Checkpoints(_Collector):
    """The iterates at the sorted distinct steps ``ms`` >= n0, in ``dim``
    features."""

    ms: np.ndarray
    dim: int
    outputs = ("x",)

    def empty(self, lo: int, hi: int, alloc=np.empty) -> Checkpoints:
        return self._sized(lo, hi, x=alloc((hi - lo, len(self.ms), self.dim), float))

    def update(self, blk: _Block) -> None:
        ms, m0 = self.ms, blk.m0
        a, b = np.searchsorted(ms, [m0, m0 + blk.xs.shape[1]])
        self.x[:, a:b] = blk.xs[:, ms[a:b] - m0].transpose(2, 1, 0)


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
    """

    ms: np.ndarray
    gamma: float
    phi: np.ndarray
    next_phi: np.ndarray
    poisson: PoissonSolution
    outputs = ("norms",)

    def __post_init__(self) -> None:
        s, d = self.phi.shape
        self.table = None
        if s * s * d * d <= _NOISE_TABLE_MAX_CELLS:
            self.table = noise_table(self.phi, self.next_phi, self.gamma, self.poisson)

    def empty(self, lo: int, hi: int, alloc=np.empty) -> NoiseSums:
        return self._sized(lo, hi, norms=alloc((hi - lo, len(self.ms)), float), S=None)

    def _rows(self, y, y_next) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The rows of (C, c) at the transitions y -> y', as ``noise_rows``."""
        if self.table is None:
            return noise_rows(self.phi, self.next_phi, self.gamma, self.poisson, y, y_next)
        pair = y * len(self.phi) + y_next
        return ((np.take(C_i, pair, axis=1), np.take(c_i, pair)) for C_i, c_i in zip(*self.table))

    def _increments(self, Y: np.ndarray, X: np.ndarray) -> np.ndarray:
        """xi for the states ``Y`` (K+1, B) and iterates ``X`` (d, K, B) before
        each step; shape (d, K, B).  Without a table the rows are formed on
        tiles of ``_BLOCK`` trajectories, whose arrays stay in cache."""
        B = X.shape[-1]
        width = B if self.table is not None else _BLOCK
        xi = np.empty(X.shape)
        for cols in (slice(b, b + width) for b in range(0, B, width)):
            for i, (G, c_i) in enumerate(self._rows(Y[:-1, cols], Y[1:, cols])):
                G *= X[..., cols]
                np.add(c_i, _dsum(G), out=xi[i, :, cols])
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
        p = 0
        for k, q in enumerate(ends):
            keep = np.cumprod(1.0 - a[p:q][::-1])[::-1]  # keep[j] = prod over p+j <= i < q of (1 - a_i)
            xi[:, p:q] *= a[p:q, None] * np.append(keep[1:], 1.0)[:, None]  # w_j a_j xi_j
            part = _dsum(xi[:, p:q].swapaxes(0, 1))
            if first + p == n0:
                self.S = part
            else:
                self.S *= keep[0]
                self.S += part
            if lo + k < hi:
                self.norms[:, lo + k] = np.sqrt(_dsum(self.S * self.S))
            p = q


_PERCENTILES = (25, 50, 75, 90)


def _err_quantiles(window: np.ndarray) -> dict[str, np.ndarray]:
    """The 25/50/75/90th percentiles of each row of a (steps, n) window of
    errors.  The rows are sorted in place first, so the percentile selects
    from sorted rows."""
    window.sort(axis=1)
    qs = np.percentile(window, _PERCENTILES, axis=1)
    return {f"q{p}": q for p, q in zip(_PERCENTILES, qs)}


@dataclass(eq=False)
class ErrQuantiles:
    """The 25/50/75/90th percentiles over all trajectories of the error at
    each step n0..horizon (``q``), taken one lockstep window at a time.

    It is not a collector: its values depend on every trajectory at once,
    so no batch alone can give them, and there is nothing to merge.
    ``ring(n, W, slots, alloc)`` gives it a ring of (slots, W+1, n) float32
    errors for windows of W steps: window k (steps kW+1..(k+1)W, and step 0
    as well in window 0) writes step kW + r to row r of slot k % slots.  A
    batch's ``part`` is a view of its columns, which ``update`` fills block
    by block.  After every batch has run window k, ``reduce(k)`` takes the
    percentiles of the window's rows (``_err_quantiles``).  Each row holds
    the numbers of one step's column of the whole (n, span) error matrix,
    so the values are those of one whole-matrix ``np.percentile``.
    """

    n0: int
    horizon: int

    def ring(self, n: int, W: int, slots: int, alloc=np.empty) -> None:
        self.W = W
        self.rows = alloc((slots, W + 1, n), np.float32)
        self.q = {f"q{p}": np.empty(self.horizon - self.n0 + 1) for p in _PERCENTILES}

    def part(self, lo: int, hi: int) -> ErrQuantiles:
        part = copy.copy(self)
        part.rows = self.rows[..., lo:hi]
        return part

    def update(self, blk: _Block) -> None:
        k = blk.bs // self.W
        r = blk.m0 - k * self.W
        self.rows[k % len(self.rows), r : r + len(blk.err)] = blk.err

    def reduce(self, k: int) -> None:
        W = self.W
        first, last = max(self.n0, k * W + (k > 0)), min((k + 1) * W, self.horizon)
        if first <= last:
            window = self.rows[k % len(self.rows), first - k * W : last - k * W + 1]
            for key, q in _err_quantiles(window).items():
                self.q[key][first - self.n0 : last - self.n0 + 1] = q


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
    """The first steps of a run's path segments, one lockstep window each:
    every ``spec.window`` steps, or one segment when the horizon is shorter
    (one segment of no steps at horizon 0)."""
    return range(0, max(spec.horizon, 1), max(min(spec.window, spec.horizon), 1))


def _window(n: int) -> int:
    """The window length L for n trajectories: the largest multiple of
    ``_BLOCK`` with L*n <= ``_RING_MAX_CELLS``, clamped to [``_BLOCK``,
    ``_DRAW``]."""
    return min(max(_RING_MAX_CELLS // n // _BLOCK * _BLOCK, _BLOCK), _DRAW)


def _path_segments(spec: _EnsembleSpec, lo: int, hi: int) -> Iterator[np.ndarray]:
    """The states of trajectories [lo, hi) at steps 0..horizon, by inverse
    CDF on each trajectory's own stream, one segment at a time.

    A segment holds the states at steps start..start+L as an (L+1, B) array,
    one per start of ``_windows``, so L is at most ``spec.window`` and the
    horizon; the next one starts at the state this one ends at.  The buffers
    are that wide and belong to the spec (``_buffer``): every batch of a
    run in one process reuses them, so a segment is valid only until this
    batch or another asks for its next.  Segment 0 draws 1 + L uniforms per
    trajectory (the first picks the start state, drawn even when it is
    fixed), the others L; chunked draws continue the stream exactly as one
    long draw would.

    The next state is the number of CDF entries of the current row at or
    below the uniform u.  Rows are nondecreasing, so counting only the first
    s-1 columns equals the count capped at s-1.  Up to ``_TAKE_COLUMNS_MAX_S``
    states each step compares u with the whole row, read from an (s-1, B)
    table of CDF columns.  Above it each step reads the guide table
    (``_Guide``): the bucket b = floor(u*G) of every step of a segment is
    taken at once, and the step adds to first[b, y] the count of the w
    entries after it at or below u, from one (w, B) take of the padded rows.
    Both give the same count for every u.
    """
    B = hi - lo
    T = spec.horizon
    s = spec.phi.shape[0]
    starts = _windows(spec)
    W = starts.step
    gens = [stream(spec.master_seed, i) for i in range(lo, hi)]
    u = _buffer(spec, "u", (B, 1 + W), float)  # column 0 is the start-state draw
    ut = _buffer(spec, "ut", (W, B), float)
    columns = s <= _TAKE_COLUMNS_MAX_S
    if columns:  # the CDF row of state y is column y
        table = np.ascontiguousarray(spec.cum_rows[:, : s - 1].T)
        cdf = np.empty((s - 1, B))
        hits = np.empty(cdf.shape, dtype=bool)
    else:
        guide = spec.guide
        first, rows = guide.first.ravel(), guide.rows.ravel()
        stride = guide.rows.shape[1]
        window = np.arange(guide.w)[:, None]
        bucket = _buffer(spec, "bucket", (W, B), np.intp)  # b*s of each step's uniform
        at = np.empty(B, dtype=np.intp)
        below = np.empty(B, dtype=np.intp)
        idx = np.empty((guide.w, B), dtype=np.intp)
        cdf = np.empty((guide.w, B))
        hits = np.empty(cdf.shape, dtype=bool)
    Y = _buffer(spec, "Y", (W + 1, B), np.intp)
    end = np.empty(B, dtype=np.intp)  # the states the last segment ended at
    for start in starts:
        L = min(W, T - start)
        for g, row in zip(gens, u):
            g.random(out=row[0 if start == 0 else 1 : 1 + L])
        if start > 0:
            Y[0] = end
        elif spec.init_policy == "fixed":
            Y[0] = spec.init_state
        elif spec.init_policy == "uniform":
            Y[0] = np.minimum((u[:, 0] * s).astype(np.intp), s - 1)
        else:
            Y[0] = np.minimum(np.searchsorted(spec.cum_pi, u[:, 0], side="right"), s - 1)
        ut[:L] = u[:, 1 : 1 + L].T
        if columns:
            for n in range(L):
                table.take(Y[n], axis=1, out=cdf, mode="clip")
                np.less_equal(cdf, ut[n], out=hits)
                np.add.reduce(hits, axis=0, dtype=np.intp, out=Y[n + 1])
        else:
            np.multiply(ut[:L], guide.G, out=bucket[:L], casting="unsafe")  # floor: u >= 0
            bucket[:L] *= s
            for n in range(L):
                np.add(bucket[n], Y[n], out=at)
                first.take(at, out=below, mode="clip")  # first[b, y]
                np.multiply(Y[n], stride, out=at)
                at += below  # the flat index of rows[y, first[b, y]]
                np.add(at, window, out=idx)
                rows.take(idx, out=cdf, mode="clip")
                np.less_equal(cdf, ut[n], out=hits)
                np.add.reduce(hits, axis=0, dtype=np.intp, out=Y[n + 1])
                Y[n + 1] += below
        end[:] = Y[L]
        yield Y[: L + 1]


def _buffer(spec: _EnsembleSpec, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An array of ``shape`` over the spec's working buffer ``name``, which
    grows to the largest size asked for.  The batches of a run take turns,
    so one set of buffers per process serves them all."""
    size = math.prod(shape)
    buf = spec.buffers.get(name)
    if buf is None or buf.size < size:
        buf = spec.buffers[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _sample_paths(spec: _EnsembleSpec, lo: int, hi: int) -> np.ndarray:
    """The states of ``_path_segments`` joined into one (B, horizon+1) array."""
    states = np.empty((hi - lo, spec.horizon + 1), dtype=np.intp)
    start = 0
    for seg in _path_segments(spec, lo, hi):
        states[:, start : start + len(seg)] = seg.T
        start += len(seg) - 1
    return states


def _dsum(p: np.ndarray) -> np.ndarray:
    """Sum over the leading axis in the order numpy's pairwise sum adds a
    contiguous row: term by term below 8 terms, else into eight accumulators
    folded as a tree.  A (d, ...) sum is then bit-identical to the
    ``sum(axis=-1)`` of the same numbers laid out as (..., d), and the order
    never depends on the other axes' lengths, such as the batch size."""
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


class _Lane:
    """Trajectories [lo, hi) of a lockstep run: the collector ``parts`` they
    fill and, with the per-step quantiles, the ring's ``part`` as well
    (together, the ``feeds``); their iterates ``x`` (d, B) at step ``at``;
    and their path segments still to come.  Iterating a lane yields only its
    next segment, so ``_simulate_chunk`` given a lane as its segments runs
    one window and leaves the lane where the window ends."""

    def __init__(self, spec: _EnsembleSpec, lo: int, hi: int, parts=(), ring=None, segments=None):
        self.lo, self.hi, self.parts = lo, hi, parts
        self.feeds = parts if ring is None else (*parts, ring)
        self.x = np.repeat(spec.initial_x[:, None], hi - lo, axis=1)
        self.at = 0
        self.segments = iter(_path_segments(spec, lo, hi) if segments is None else segments)

    def __iter__(self) -> Iterator[np.ndarray]:
        return itertools.islice(self.segments, 1)

    def folded(self) -> list[list[np.ndarray]]:
        """The folded outputs of each collector part, to ``merge``."""
        return [[getattr(part, name) for name in part.folded] for part in self.parts]


def _non_finite(trajectory: int, step: int) -> NonFinite:
    """The error for the first non-finite iterate; ``at`` orders such errors
    by step, then trajectory."""
    exc = NonFinite(f"trajectory {trajectory} became non-finite at step {step}")
    exc.at = (step, trajectory)
    return exc


def _simulate_chunk(
    spec: _EnsembleSpec,
    lo: int,
    hi: int,
    segments: Iterable[np.ndarray],
    parts: tuple | None = None,
) -> tuple:
    """The online TD(0) update of trajectories [lo, hi) along their sampled
    states, feeding ``parts`` (by default an empty copy of each of the spec's
    collectors); time-blocked over a (d, B) layout as the module docstring
    describes.  ``segments`` are the states in order as (L+1, B) arrays, each
    starting at the state the one before ended at (``_path_segments``); any
    L will do.  They start at step 0 from the spec's initial iterate, unless
    ``segments`` is a ``_Lane``: then its next window runs from where the
    last one ended."""
    n0 = spec.n0
    B = hi - lo
    d = spec.phi.shape[1]
    if parts is None:
        parts = tuple(c.empty(lo, hi) for c in spec.collectors)
    lane = segments if isinstance(segments, _Lane) else _Lane(spec, lo, hi, segments=())
    phi_t = np.ascontiguousarray(spec.phi.T)
    gamma = spec.gamma
    x, start = lane.x, lane.at
    P = np.empty((d, 2, B))
    t = np.empty(B)
    u = np.empty((d, B))
    with np.errstate(over="ignore", invalid="ignore"):
        for seg in segments:
            end = start + len(seg) - 1
            for bs in range(start, max(end, 1), _BLOCK):  # at horizon 0, one block of no steps
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
                    raise _non_finite(lo + int(b), bs + int(j) + 1)

                if bs + K >= n0:  # the iterates of steps bs+j.. are new and at or after n0
                    j = max(n0 - bs, 1 if bs else 0)
                    diff = X[:, j:] - spec.x_star[:, None, None]
                    err = np.sqrt(_dsum(diff * diff))
                    blk = _Block(bs, Y, a, X, n0, bs + j, X[:, j:], err)
                    for part in parts:
                        part.update(blk)
            start = end
    lane.x, lane.at = x, start
    return parts


def _fill_rows(spec: _EnsembleSpec, lane: _Lane) -> None:
    """Run the next window of the batch ``lane``, writing its rows of the
    totals and of the ring in place."""
    _simulate_chunk(spec, lane.lo, lane.hi, lane, lane.feeds)


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


def _lanes(spec: _EnsembleSpec, totals: tuple, quantiles: ErrQuantiles | None, batches) -> list[_Lane]:
    """One lane per batch, filling its rows of ``totals`` and, with
    ``quantiles``, its columns of the ring."""
    return [
        _Lane(
            spec, lo, hi, tuple(t.part(lo, hi) for t in totals),
            None if quantiles is None else quantiles.part(lo, hi),
        )
        for lo, hi in batches
    ]


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
    on ``conn``, and answer None, after the last window the folded outputs
    of each lane, or the error that stopped it.  It first closes the
    parent's ends of the pipes it inherited, so it ends if the parent does."""
    for end in parent_ends:
        end.close()
    windows = len(_windows(spec))
    try:
        for k in range(windows):
            conn.recv()
            _run_window(spec, lanes)
            conn.send(None if k < windows - 1 else [lane.folded() for lane in lanes])
    except (EOFError, BrokenPipeError):  # the parent is gone
        pass
    except Exception as exc:  # the parent raises it
        conn.send(exc)


def _run_pool(spec: _EnsembleSpec, lanes: list[_Lane], workers: int, quantiles: ErrQuantiles | None) -> list:
    """Run ``lanes`` in lockstep on ``workers`` forked processes, each with a
    contiguous run of them and a pipe of its own; the folded outputs of
    every lane.  The parent sends window k to every worker, reduces
    ``quantiles`` of window k-1 and then waits for each one's answer.

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
            if k and quantiles is not None:
                quantiles.reduce(k - 1)
            replies = [_reply(conn, proc) for conn, proc in zip(conns, procs)]
            errors = [r for r in replies if isinstance(r, BaseException)]
            if errors:
                non_finite = [e for e in errors if isinstance(e, NonFinite)]
                dead = [e for e in errors if isinstance(e, WorkerDied)]
                raise min(non_finite, key=lambda exc: exc.at) if non_finite else (dead or errors)[0]
        if quantiles is not None:
            quantiles.reduce(windows - 1)
        ended = True
        return [out for reply in replies for out in reply]
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


def _run_ensemble(
    spec: _EnsembleSpec,
    n: int,
    batch_size: int,
    jobs: int,
    quantiles: ErrQuantiles | None = None,
) -> tuple[_Collector, ...]:
    """The spec's collectors over trajectories [0, n), in batches run in
    lockstep windows on at most ``jobs`` worker processes and never more
    workers than batches; with ``quantiles``, also the per-step error
    quantiles, into it.  Each batch writes its rows of the totals in place;
    its folded outputs are merged into them at the end.  With workers, the
    totals' rows and the ring are shared mappings and the workers fork, so
    the spec, the totals and the batches reach a worker once."""
    if jobs < 1:
        raise ValidationError(f"jobs: must be >= 1, got {jobs}")
    batches = [(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]
    workers = min(jobs, len(batches))
    spec = replace(spec, window=_window(n))
    alloc = _shared_empty if workers > 1 else np.empty
    totals = tuple(c.empty(0, n, alloc) for c in spec.collectors)
    if quantiles is not None:
        quantiles.ring(n, _windows(spec).step, min(workers, 2), alloc)
    lanes = _lanes(spec, totals, quantiles, batches)
    if workers > 1:
        folded = _run_pool(spec, lanes, workers, quantiles)
    else:
        for k in range(len(_windows(spec))):
            _run_window(spec, lanes)
            if quantiles is not None:
                quantiles.reduce(k)
        folded = [lane.folded() for lane in lanes]
    for outs in folded:
        for total, out in zip(totals, outs):
            total.merge(*out)
    return totals


def _base_spec(
    config: ExperimentConfig,
    analytic: AnalyticSolution,
    horizon: int,
    collectors: tuple[_Collector, ...] = (),
) -> _EnsembleSpec:
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
        collectors=collectors,
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
    spec = _base_spec(config, analytic, config.n0, (StartError(),))
    (start,) = _run_ensemble(spec, config.n_trajectories, config.batch_size, jobs)
    exceed = int(np.count_nonzero(start.err > config.epsilon))
    return PInitEstimate(
        value=exceed / config.n_trajectories,
        interval=wilson_interval(exceed, config.n_trajectories),
        n_trajectories=config.n_trajectories,
    )


def simulate_trajectory(
    config: ExperimentConfig, index: int, analytic: AnalyticSolution
) -> TrajectoryRecord:
    """Trajectory ``index`` of the ensemble alone, from step 0 to the horizon.

    The engine runs with n0 = 0 on the trajectory's own stream
    ``rng.stream(master_seed, index)``, so the start state, the states and
    the iterates are those of row ``index`` of any batched run; every step
    is a checkpoint.  The comparison run is the averaged recursion from the
    same start.  Distances and the running peak of the gap are taken from
    the recorded iterates after the loop.
    """
    config = replace(config, n0=0)
    T = config.horizon
    every_step = Checkpoints(np.arange(T + 1), config.problem.n_features)
    spec = _base_spec(config, analytic, T, (every_step,))
    states = _sample_paths(spec, index, index + 1)
    (chk,) = _simulate_chunk(spec, index, index + 1, [states.T])
    xs = chk.x[0]
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
    err_quantiles: dict[str, np.ndarray]
    diagnostics: Diagnostics
    wall_time: float = field(default=0.0, compare=False)

    def as_dict(self) -> dict:
        return {
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
    The same pass collects the errors at the default convergence
    checkpoints, reduced into ``diagnostics``, and the per-step error
    quantiles, window by window (``ErrQuantiles``).  A tail constant, given or
    fitted, needs n0 >= 1, and n0 must be feasible; both are checked before
    the ensemble runs.  Every grid cell's tail is the primary query with
    that cell's epsilon, delta and p_init.
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
    eps_arr = np.asarray(eps_grid)

    decay = decay_curve(constants, sched, n0, horizon)
    primary_floor = floor_term(constants, sched, n0, config.epsilon, config.delta)
    need_fit = d_source == "fitted"
    checkpoints = np.unique(np.geomspace(max(n0, 1), horizon, 8).astype(np.int64))

    collectors = [
        StartError(),
        Excess(eps_arr, decay, config.epsilon, primary_floor),
        Checkpoints(checkpoints, dims),
    ]
    if need_fit:
        # tail indices m in [n0+1, horizon]; the sum bounded at m ends at m-1, where it is recorded
        fit_ms = np.unique(np.geomspace(n0 + 1, horizon, 16).astype(np.int64))
        fit_ms = fit_ms[fit_ms > n0]
        collectors.append(
            NoiseSums(fit_ms - 1, problem.gamma, problem.phi, problem.next_phi, analytic.poisson)
        )
    quantiles = ErrQuantiles(n0, horizon)
    spec = _base_spec(config, analytic, horizon, tuple(collectors))
    totals = _run_ensemble(spec, config.n_trajectories, config.batch_size, jobs, quantiles)
    out = {type(c): c for c in totals}
    err_n0, max_excess = out[StartError].err, out[Excess].max_excess

    n = config.n_trajectories
    p_init_exceed = int(np.count_nonzero(err_n0 > config.epsilon))

    fitted: TailFit | None = None
    d_used = None if config.D_const is None else float(config.D_const)
    if need_fit:
        noise_sums = out[NoiseSums].norms
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

    # the primary (epsilon, delta) is one of the cells; its row is the verdict
    grid_rows: list[GridRow] = []
    for i_eps, eps in enumerate(eps_grid):
        p_init_eps = int(np.count_nonzero(err_n0 > eps)) / n
        for dlt in delta_grid:
            flr = floor_term(constants, sched, n0, eps, dlt)
            vio = int(np.count_nonzero(max_excess[:, i_eps] > flr))
            t = tail_probability(
                replace(query, epsilon=eps, delta=dlt, p_init=p_init_eps), dims, sched, constants
            )
            row = GridRow(
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
            grid_rows.append(row)
            if (eps, dlt) == (config.epsilon, config.delta):
                primary, tail = row, t

    return ExperimentResult(
        n_trajectories=n,
        n0=n0,
        horizon=horizon,
        master_seed=config.master_seed,
        epsilon=config.epsilon,
        delta=config.delta,
        empirical_alltime_prob=primary.alltime_prob,
        alltime_interval=primary.interval,
        violations=primary.violations,
        empirical_p_init=p_init_exceed / n,
        p_init_interval=wilson_interval(p_init_exceed, n),
        p_init_source=query.p_init_source,
        theoretical_lower_bound=primary.theoretical_lower_bound,
        tail=tail,
        floor=primary_floor,
        D_used=d_used,
        D_source=d_source,
        fitted=fitted,
        per_m_violation_counts=out[Excess].counts,
        per_m_err_max=out[Excess].err_max,
        radius=decay * config.epsilon + primary_floor,
        grid=grid_rows,
        err_quantiles=quantiles.q,
        diagnostics=_diagnostics(checkpoints, out[Checkpoints].x, analytic.x_star, sched),
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

