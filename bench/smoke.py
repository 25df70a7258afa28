"""Smoke test of the benchmark itself (not part of the tier-1 suite).

Run from the root of a checkout:

    python3 bench/smoke.py

It runs every workload at tiny sizes with tracing off and on, and checks
that the result line names every metric of BENCHMARK.json exactly once,
with its unit.  It also checks the pieces the metrics rest on: wait4
rusage covers reaped pool workers, the timing wrappers pass results
through, span self time, and that the benchmark refuses to run without
the program's sources.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import run
from procs import spawn
from tracing import Tracer

FAILURES: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        FAILURES.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def _no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    expect(len(keys) == len(set(keys)), f"duplicate keys in result: {keys}")
    return dict(pairs)


def check_workload(spec: dict, name: str, trace: int) -> None:
    argv = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    where = f"{name} --trace {trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1], object_pairs_hook=_no_duplicates)
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{where}: keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0, f"{where}: {proc.stderr[-2000:]}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == wanted, f"{where}: metrics {got} != {wanted}")
    for k, v in result["metrics"].items():
        expect(isinstance(v["value"], float) and math.isfinite(v["value"]), f"{where}: {k} = {v}")
    print(f"ok {where}", file=sys.stderr)


def check_rusage_covers_workers(work) -> None:
    """A 200 MB worker under a small parent: wait4 must report the worker's peak."""
    code = (
        "import multiprocessing as mp\n"
        "def grow():\n    b = bytearray(200 * 2**20)\n    b[::4096] = b'x' * len(b[::4096])\n"
        "p = mp.get_context('fork').Process(target=grow); p.start(); p.join()\n"
        "raise SystemExit(p.exitcode)\n"
    )
    proc = spawn([sys.executable, "-c", code], dict(os.environ), work / "rusage", 60.0)
    expect(proc.exit_code == 0 and proc.peak_rss_mb >= 190, f"worker RSS not covered: {proc}")


def check_tracer() -> None:
    tracer = Tracer()
    payload = object()
    wrapped = tracer.wrap("inner", lambda: payload)

    def outer():
        time.sleep(0.02)
        out = wrapped()
        time.sleep(0.02)
        return out

    expect(tracer.call("outer", outer) is payload, "wrapper did not pass its result through")
    root, inner = tracer.spans
    expect(inner.parent == root.id, "child span lost its parent")
    expect(abs(tracer.self_time(root) - (root.duration - inner.duration)) < 1e-9, "self time")


def check_refuses_without_sources(work) -> None:
    bare = work / "bare"
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode != 0 and "{" not in proc.stdout, f"ran without sources: {proc.stdout!r}")
    expect(time.perf_counter() - t0 < 180, "refusal took too long")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.ROOT / ".bench_work" / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    check_tracer()
    check_rusage_covers_workers(work)
    check_refuses_without_sources(work)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
    print("smoke: FAILED" if FAILURES else "smoke: ok", file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
