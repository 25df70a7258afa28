"""In-memory spans and pass-through timing wrappers for the traced replay.

The wrappers are installed on the names ``tdlab.cli`` imports, so a
``tdlab.cli.main(argv)`` call records one span per call into a layer.  A
name that ``tdlab.cli`` no longer has is skipped: its span is absent and
the metrics built on it read 0.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans (name, start, end, parent) of one thread of calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span and return exactly its result."""
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter(), attrs=dict(attrs or {}))
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["raised"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, steps=None):
        """A pass-through wrapper; ``steps(arguments)`` sizes the call, if it can."""
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if steps is not None and signature is not None:
                try:
                    attrs["steps"] = int(steps(signature.bind(*args, **kwargs).arguments))
                except (TypeError, KeyError, AttributeError, ValueError):
                    pass  # a changed signature leaves the span unsized
            return self.call(name, fn, *args, attrs=attrs, **kwargs)

        return wrapper

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_time(self, span: Span) -> float:
        """The span's duration minus the part of it that its children cover."""
        children = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.spans
            if c.parent == span.id
        )
        covered, reach = 0.0, span.start
        for lo, hi in children:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span.duration - covered

    def as_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end, **s.attrs}
            for s in self.spans
        ]


def _ensemble(field_name: str):
    def steps(arguments: dict) -> int:
        config = arguments["config"]
        return config.n_trajectories * getattr(config, field_name)

    return steps


# The names tdlab.cli imports, with how to size a call from its arguments.
WRAPPED = {
    "load_config": None,
    "run_alltime_experiment": _ensemble("horizon"),
    "convergence_diagnostics": _ensemble("horizon"),
    "estimate_p_init": _ensemble("n0"),
    "evaluate_bound": None,
    "run_online": lambda a: a["horizon"] - a["start"],
}
ENSEMBLE_SPANS = ("run_alltime_experiment", "convergence_diagnostics", "estimate_p_init")


def install(tracer: Tracer, module) -> dict:
    """Replace the wrapped names on ``module``; returns the originals for ``restore``."""
    originals = {name: getattr(module, name) for name in WRAPPED if hasattr(module, name)}
    for name, fn in originals.items():
        setattr(module, name, tracer.wrap(name, fn, WRAPPED[name]))
    return originals


def restore(module, originals: dict) -> None:
    for name, fn in originals.items():
        setattr(module, name, fn)
