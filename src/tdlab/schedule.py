"""Step-size schedules and the step sums built on them.

A schedule is pinned inside the envelope

    d1 / (n+1)  <=  a(n)  <=  d3 / (n+1)^d2,      d1 > 0,  0 < d2 <= 1,

must be non-increasing, and must stay strictly below one.  Each kind's
formula lives in ``StepSchedule.steps`` alone, and ``step(n)`` is its entry
n, bit for bit.  The derived quantities used by the bound evaluator are

    step_sum(k, n)            sum of a(m) for m in [k, n]   (0 when n < k)
    tail_weight(k, n)         1 / (k^(d2-d1) n^d1)  if d1 <= d2, else 1 / n^d2
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def tail_weight(d1: float, d2: float, k: int, n: int) -> float:
    """Envelope-driven weight controlling the per-step tail terms; k, n >= 1."""
    if k < 1 or n < 1:
        raise ValidationError(f"tail weight needs indices >= 1, got k={k}, n={n}")
    if d1 <= d2:
        return 1.0 / (float(k) ** (d2 - d1) * float(n) ** d1)
    return 1.0 / float(n) ** d2


@dataclass(frozen=True)
class StepSchedule:
    """A validated step-size sequence with its envelope parameters.

    kind is one of ``harmonic`` (a(n) = d1/(n+1)), ``polynomial``
    (a(n) = d3/(n+1)^d2) or ``table`` (explicit values, validated
    pointwise; evaluation past the table raises).  Each validation message
    starts with the field at fault: ``kind``, ``d1``, ``d2``, ``d3`` or
    ``values``.
    """

    kind: str
    d1: float
    d2: float
    d3: float
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("harmonic", "polynomial", "table"):
            raise ValidationError(f"kind: unknown schedule kind {self.kind!r}")
        if not self.d1 > 0:
            raise ValidationError(f"d1: must be positive, got {self.d1}")
        if not 0.0 < self.d2 <= 1.0:
            raise ValidationError(f"d2: must lie in (0, 1], got {self.d2}")
        if not self.d3 > 0:
            raise ValidationError(f"d3: must be positive, got {self.d3}")
        if self.kind == "harmonic":
            if self.d1 >= 1.0:
                raise ValidationError(
                    f"d1: harmonic schedule needs d1 < 1 so that a(0) < 1, got d1={self.d1}"
                )
            if self.d1 > self.d3:
                raise ValidationError("d3: harmonic schedule violates its upper envelope at n=0")
        elif self.kind == "polynomial":
            if self.d3 >= 1.0:
                raise ValidationError(
                    f"d3: polynomial schedule needs d3 < 1 so that a(0) < 1, got d3={self.d3}"
                )
            if self.d1 > self.d3:
                raise ValidationError(
                    f"d1: lower envelope fails at n=0: d1={self.d1} > d3={self.d3}"
                )
        else:
            if self.values is None or len(self.values) == 0:
                raise ValidationError("values: table schedule needs a non-empty value list")
            vals = np.asarray(self.values, dtype=float)
            if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
                raise ValidationError("values: table entries must be finite and positive")
            if np.any(vals >= 1.0):
                raise ValidationError("values: table entries must be strictly below 1")
            if np.any(np.diff(vals) > 0.0):
                raise ValidationError("values: table entries must be non-increasing")
            n = np.arange(len(vals), dtype=float)
            low = self.d1 / (n + 1.0)
            high = self.d3 / (n + 1.0) ** self.d2
            if np.any(vals < low - 1e-15) or np.any(vals > high + 1e-15):
                raise ValidationError("values: table entries leave the (d1, d2, d3) envelope")

    @classmethod
    def harmonic(cls, d1: float) -> "StepSchedule":
        return cls(kind="harmonic", d1=d1, d2=1.0, d3=d1)

    @classmethod
    def polynomial(cls, d3: float, d2: float, d1: float | None = None) -> "StepSchedule":
        return cls(kind="polynomial", d1=d3 if d1 is None else d1, d2=d2, d3=d3)

    @classmethod
    def table(cls, values, d1: float, d2: float, d3: float) -> "StepSchedule":
        return cls(kind="table", d1=d1, d2=d2, d3=d3, values=tuple(float(v) for v in values))

    # -- evaluation ---------------------------------------------------------

    def step(self, n: int) -> float:
        """Step size at index n: entry n of :meth:`steps`, bit for bit."""
        if n < 0:
            raise ValidationError(f"step index must be >= 0, got {n}")
        return float(self.steps(n, n + 1)[0])

    def steps(self, start: int, stop: int) -> np.ndarray:
        """Vector of step sizes for indices in [start, stop)."""
        if start < 0 or stop < start:
            raise ValidationError(f"bad step range [{start}, {stop})")
        if stop == start:
            return np.empty(0)
        idx = np.arange(start, stop, dtype=float)
        if self.kind == "harmonic":
            return self.d1 / (idx + 1.0)
        if self.kind == "polynomial":
            return self.d3 / (idx + 1.0) ** self.d2
        assert self.values is not None
        if stop > len(self.values):
            raise ValidationError(
                f"step range [{start}, {stop}) beyond table of length {len(self.values)}"
            )
        return np.asarray(self.values[start:stop], dtype=float)

    def step_sum(self, k: int, n: int) -> float:
        """Sum of step sizes over [k, n]; the empty sum (n < k) is 0."""
        if n < k:
            return 0.0
        return float(self.steps(k, n + 1).sum())

    def cumulative_step_sums(self, k: int, n: int) -> np.ndarray:
        """Array of partial sums over [k, j] for j = k .. n."""
        return np.cumsum(self.steps(k, n + 1))

    def tail_weight(self, k: int, n: int) -> float:
        return tail_weight(self.d1, self.d2, k, n)
