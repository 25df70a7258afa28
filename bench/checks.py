"""Output checks.  Every problem found is returned as a message; none raises.

* Every JSON file a command writes must parse, and ``NaN``/``Infinity``
  tokens are rejected.
* ``experiment`` results are compared with a reference record taken when
  the benchmark was defined: integers, booleans and strings exactly, floats within
  ``ATOL + RTOL * |reference|``, which admits last-ulp drift from reordered
  arithmetic, also for values near 0 such as the Wilson endpoints.
* An infinite-horizon ``tail_sum`` must be at least the finite-horizon one
  at the same D: the reported probability is a certified lower bound.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ATOL = 1e-12
RTOL = 1e-7
# Long integer arrays stored sparsely in reference records: {"length": n, "nonzero": {i: v}}.
SPARSE_KEYS = ("per_m_violation_counts",)


class _NonStandardNumber(ValueError):
    pass


def _reject_constant(token: str):
    raise _NonStandardNumber(f"non-standard JSON number {token}")


def load_json(path: Path):
    """Parse ``path`` strictly; raises ValueError on NaN/Infinity or bad JSON."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def check_json_files(out_dir: Path) -> list[str]:
    problems = []
    for path in sorted(out_dir.rglob("*.json")):
        try:
            load_json(path)
        except (ValueError, OSError) as exc:
            problems.append(f"{path.name}: {exc}")
    return problems


def record(result: dict) -> dict:
    """The flat reference record of a ``result.json``: path -> leaf value."""
    flat: dict = {}

    def walk(obj, path: str) -> None:
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(v, f"{path}.{k}" if path else k)
        elif isinstance(obj, list) and path in SPARSE_KEYS:
            flat[path] = {"length": len(obj), "nonzero": {str(i): v for i, v in enumerate(obj) if v}}
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                walk(v, f"{path}[{i}]")
        else:
            flat[path] = obj

    walk(result, "")
    return flat


def _same(ref, got) -> bool:
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
            return False
        return math.isclose(got, ref, rel_tol=RTOL, abs_tol=ATOL)
    return type(ref) is type(got) and ref == got


def compare_with_reference(result: dict, reference: dict) -> list[str]:
    """Every field of the reference record must be present and agree."""
    got = record(result)
    problems = []
    for path, ref in reference.items():
        if path not in got:
            problems.append(f"result.json: {path} missing")
        elif isinstance(ref, dict):  # sparse integer array: exact
            if got[path] != ref:
                problems.append(f"result.json: {path} differs from the reference")
        elif not _same(ref, got[path]):
            problems.append(f"result.json: {path} = {got[path]!r}, reference {ref!r}")
    return problems


def same_files(a: Path, b: Path) -> list[str]:
    """Byte-for-byte comparison of two output trees."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    problems = [f"{n} only in {a.name}" for n in sorted(names_a - names_b)]
    problems += [f"{n} only in {b.name}" for n in sorted(names_b - names_a)]
    problems += [
        f"{n} differs between {a.name} and {b.name}"
        for n in sorted(names_a & names_b)
        if (a / n).read_bytes() != (b / n).read_bytes()
    ]
    return problems
