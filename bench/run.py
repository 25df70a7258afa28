"""Benchmark of the `tdlab` command-line program.

Run from the root of a checkout:

    python3 bench/run.py --workload {ref-fit,wide-jobs2,cli-mix} --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload's command sequence as fresh processes,
repeating it while another pass fits in S seconds, and prints the
end-to-end metrics (medians over the passes).  ``--trace 1`` runs the
sequence once the same way, then replays it in-process under timing
wrappers, makes the direct layer calls, and prints the per-layer metrics.
Every output is checked.  The last line of stdout is the result object;
progress, the run manifest and any problems go to stderr.  Scratch files
live under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from layers import PER_LAYER, finite_tails, traced
from sequence import Context, judge, run_command, run_sequence, tdlab_argv

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# name -> unit; BENCHMARK.json lists the same names and units.
END_TO_END = {
    "wall_s": "s",
    "traj_steps_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    return p.parse_args(argv)


def manifest(wl, args) -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": wl.seed,
        "master_seed": wl.master_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": nproc,
        "max_workers": wl.max_jobs,
        "workers_within_nproc": wl.max_jobs <= nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_vars": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


def make_context(wl, work: Path, use_reference: bool):
    """Child environment, log directory, reference record and tail sums for the checks."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env["TMPDIR"] = str(work / "tmp")
    (work / "tmp").mkdir(exist_ok=True)
    (work / "logs").mkdir(exist_ok=True)
    ctx = Context(env=env, logs=work / "logs")
    ref_file = BENCH_DIR / "reference" / f"{wl.name}.json"
    if use_reference and ref_file.is_file():
        ctx.reference = json.loads(ref_file.read_text())[str(wl.master_seed)]
    if wl.name == "cli-mix":
        ctx.finite_tails = {D: tail for D, (tail, _) in finite_tails(wl).items()}
    return ctx


def end_to_end(wl, ctx, work: Path, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Set up several times, then run passes of the sequence for about ``seconds``."""
    validate = workloads.Command(("validate", str(wl.config)), None)
    setup = [run_command(tdlab_argv(validate.argv(work)), ctx, f"setup-{i}") for i in range(SETUP_REPEATS)]
    setup_outcomes = [judge(wl, validate, p.exit_code, p.stderr, work, ctx) for p in setup]
    passes = []
    t0 = time.perf_counter()
    while True:
        it = run_sequence(wl, work / "out", ctx)
        passes.append(it)
        print(f"pass {len(passes)}: {it.wall_s:.3f} s, {it.ok}/{len(it.outcomes)} ok", file=sys.stderr)
        if time.perf_counter() - t0 + it.wall_s > seconds:
            break
    attempted = len(setup) + sum(len(it.outcomes) for it in passes)
    failed = sum(o.failed for o in setup_outcomes) + sum(it.failed for it in passes)
    problems = [p for o in setup_outcomes for p in o.problems] + [p for it in passes for p in it.problems]
    med = statistics.median
    values = {
        "wall_s": med(it.wall_s for it in passes),
        "traj_steps_per_s": med(wl.requested_steps / it.wall_s for it in passes),
        "cpu_s": med(it.cpu_s for it in passes),
        "setup_s": med(p.wall_s for p in setup),
        "peak_rss_mb": med(it.peak_rss_mb for it in passes),
        "success_rate": sum(it.ok for it in passes) / sum(len(it.outcomes) for it in passes),
    }
    return values, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tdlab" / "cli.py").is_file():
        print(f"error: no tdlab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import tdlab

    if not Path(tdlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported tdlab from {tdlab.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = workloads.prepare(args.workload, args.seed, work, tiny=args.tiny)
    info = manifest(wl, args)
    (work / "manifest.json").write_text(json.dumps(info, indent=2) + "\n")
    print(f"manifest {json.dumps(info)}", file=sys.stderr)
    ctx = make_context(wl, work, use_reference=not args.tiny)

    if args.trace:
        values, attempted, failed, problems = traced(wl, ctx, work)
        units = PER_LAYER
    else:
        values, attempted, failed, problems = end_to_end(wl, ctx, work, args.seconds)
        units = END_TO_END
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
