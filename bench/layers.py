"""The traced run: per-layer metrics of one workload.

1. Run the command sequence once as fresh processes (tracing off).
2. Replay it in-process: ``tdlab.cli.main(argv)`` per command, with
   pass-through timing wrappers on the names ``tdlab.cli`` imports.  The
   replay must write byte-identical outputs.
3. Make the direct calls into public functions that the spans cannot
   separate (analytic build and solve, stream draws, given-D experiment,
   tail sums).

A metric whose span or direct call does not apply to the workload reads 0.
"""

from __future__ import annotations

import io
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
from sequence import judge, run_command, run_sequence
from tracing import ENSEMBLE_SPANS, Tracer, install, restore
from workloads import CLI_MIX_DS, Workload

DIRECT_REPEATS = 3

# name -> unit; BENCHMARK.json lists the same names and units.
PER_LAYER = {
    "cli.import_s": "s",
    "config.load_s": "s",
    "analytic.problem_build_s": "s",
    "analytic.solve_s": "s",
    "cli.self_s": "s",
    "harness.experiment_s": "s",
    "harness.diagnostics_s": "s",
    "harness.p_init_s": "s",
    "harness.traj_steps": "count",
    "harness.useful_step_ratio": "ratio",
    "harness.ns_per_traj_step": "ns",
    "harness.noise_sum_s": "s",
    "harness.collect_reduce_s": "s",
    "harness.alloc_peak_mb": "MB",
    "harness.jobs2_speedup": "ratio",
    "rng.draw_ns_per_step": "ns",
    "dynamics.run_online_ns_per_step": "ns",
    "bounds.evaluate_s": "s",
    "bounds.tail_finite_s": "s",
    "bounds.tail_infinite_s": "s",
    "bounds.tail_terms": "count",
    "bounds.tail_failures": "count",
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}

_IMPORT_PROBE = "import time; t = time.perf_counter(); import tdlab.cli; print(time.perf_counter() - t)"


def _timed(fn, *args, **kwargs) -> tuple[object, float]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _median_time(fn, *args) -> float:
    return statistics.median(_timed(fn, *args)[1] for _ in range(DIRECT_REPEATS))


def _tail_query(wl: Workload, D: str, infinite: bool):
    from tdlab.bounds import build_query
    from tdlab.config import load_config

    cfg = load_config(wl.config)
    exp = cfg.require_experiment()
    constants = cfg.require_analytic().constants
    query = build_query(
        constants, cfg.schedule, epsilon=exp.epsilon, delta=exp.delta, n0=exp.n0,
        horizon=None if infinite else exp.horizon, D_const=float(D), p_init=0.0,
    )
    return query, cfg.problem.n_features, cfg.schedule, constants


def finite_tails(wl: Workload) -> dict[str, tuple[float, float]]:
    """D -> (finite-horizon tail_sum, seconds) by direct ``tail_probability`` calls."""
    from tdlab.bounds import tail_probability

    out = {}
    for D in CLI_MIX_DS:
        summary, seconds = _timed(tail_probability, *_tail_query(wl, D, infinite=False))
        out[D] = (summary.tail_sum, seconds)
    return out


def _infinite_tails(wl: Workload) -> tuple[float, int, int]:
    """Seconds, exact terms summed, and SeriesDivergence count over the infinite tails."""
    from tdlab.bounds import tail_probability
    from tdlab.errors import SeriesDivergence

    seconds, terms, failures = 0.0, 0, 0
    for D in CLI_MIX_DS:
        args = _tail_query(wl, D, infinite=True)
        t0 = time.perf_counter()
        try:
            summary = tail_probability(*args)
        except SeriesDivergence:
            failures += 1
        else:
            terms += summary.truncated_at - args[0].n0
        seconds += time.perf_counter() - t0
    return seconds, terms, failures


def _replay(tracer: Tracer, cli, argv: list[str]) -> tuple[int | None, str]:
    """One traced ``tdlab.cli.main`` call: its exit code and captured stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = tracer.call("cli.main", cli.main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is counted, never fatal to the benchmark
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = None
    return code, err.getvalue()


def _replay_all(wl: Workload, cmds, out_root: Path, ctx) -> tuple[Tracer, list]:
    import tdlab.cli as cli

    tracer = Tracer()
    outcomes = []
    originals = install(tracer, cli)
    try:
        for cmd in cmds:
            code, err = _replay(tracer, cli, cmd.argv(out_root))
            outcomes.append(judge(wl, cmd, code, err, out_root, ctx))
    finally:
        restore(cli, originals)
    return tracer, outcomes


def _import_probe(ctx) -> tuple[float, float]:
    """Median import time of ``tdlab.cli`` and median wall of the whole fresh process."""
    imports, walls = [], []
    for i in range(DIRECT_REPEATS):
        proc = run_command([sys.executable, "-c", _IMPORT_PROBE], ctx, f"import-{i}")
        if proc.exit_code == 0:
            imports.append(float(proc.stdout.split()[-1]))
            walls.append(proc.wall_s)
    return (statistics.median(imports), statistics.median(walls)) if imports else (0.0, 0.0)


def traced(wl: Workload, ctx, work: Path) -> tuple[dict, int, int, list[str]]:
    from tdlab.analytic import PolicyEvalProblem, solve_problem
    from tdlab.config import load_config
    from tdlab.harness import run_alltime_experiment
    from tdlab.rng import stream

    untraced = run_sequence(wl, work / "untraced", ctx)
    import_s, startup_s = _import_probe(ctx)

    tracer, outcomes = _replay_all(wl, wl.commands, work / "traced", ctx)
    problems = untraced.problems + [p for o in outcomes for p in o.problems]
    problems += checks.same_files(work / "untraced", work / "traced")
    jobs1 = None
    if wl.jobs1_replay is not None:
        jobs1, j1_outcomes = _replay_all(wl, [wl.jobs1_replay], work / "traced", ctx)
        outcomes += j1_outcomes
        problems += [p for o in j1_outcomes for p in o.problems]
        a = work / "untraced" / wl.commands[0].out / "result.json"
        b = work / "traced" / wl.jobs1_replay.out / "result.json"
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            problems.append("result.json at jobs=2 is not byte-identical to the jobs=1 replay")
    attempted = len(untraced.outcomes) + len(outcomes)
    failed = untraced.failed + sum(o.failed for o in outcomes)
    (work / "spans.json").write_text(json.dumps(
        {"replay": tracer.as_json(), "jobs1_replay": jobs1.as_json() if jobs1 else []}, indent=1))

    v = dict.fromkeys(PER_LAYER, 0.0)
    roots = tracer.named("cli.main")
    v["cli.import_s"] = import_s
    v["config.load_s"] = tracer.total("load_config")
    v["cli.self_s"] = sum(tracer.self_time(s) for s in roots)
    v["harness.experiment_s"] = tracer.total("run_alltime_experiment")
    v["harness.diagnostics_s"] = tracer.total("convergence_diagnostics")
    v["harness.p_init_s"] = tracer.total("estimate_p_init")
    ensemble = [s for name in ENSEMBLE_SPANS for s in tracer.named(name)]
    steps = sum(s.attrs.get("steps", 0) for s in ensemble)
    v["harness.traj_steps"] = steps
    if steps:
        v["harness.useful_step_ratio"] = wl.requested_ensemble_steps / steps
        v["harness.ns_per_traj_step"] = 1e9 * sum(s.duration for s in ensemble) / steps
    online = tracer.named("run_online")
    online_steps = sum(s.attrs.get("steps", 0) for s in online)
    if online_steps:
        v["dynamics.run_online_ns_per_step"] = 1e9 * sum(s.duration for s in online) / online_steps
    v["bounds.evaluate_s"] = tracer.total("evaluate_bound")
    v["trace.overhead_s"] = sum(s.duration for s in roots) + len(roots) * startup_s - untraced.wall_s
    v["error_rate"] = 1.0 - untraced.ok / len(untraced.outcomes)

    cfg = load_config(wl.config)
    problem = cfg.problem
    v["analytic.problem_build_s"] = _median_time(
        PolicyEvalProblem, problem.chain, problem.rewards, problem.gamma, problem.features)
    v["analytic.solve_s"] = _median_time(solve_problem, problem)

    if wl.name in ("ref-fit", "wide-jobs2"):
        exp = cfg.require_experiment()
        exp.master_seed = wl.master_seed
        t0 = time.perf_counter()
        for i in range(exp.n_trajectories):
            stream(exp.master_seed, i).random(exp.horizon + 1)
        v["rng.draw_ns_per_step"] = (
            1e9 * (time.perf_counter() - t0) / (exp.n_trajectories * (exp.horizon + 1)))
        result_file = work / "traced" / wl.commands[0].out / "result.json"
        result = checks.load_json(result_file) if result_file.is_file() else None
        given_d_s = v["harness.experiment_s"]
        if result is not None and result.get("fitted_D") is not None:
            # ref-fit: the same experiment with D given skips the noise-sum tracking.
            exp.D_const = result["D_used"]
            _, given_d_s = _timed(run_alltime_experiment, exp, jobs=1, analytic=cfg.analytic)
            v["harness.noise_sum_s"] = v["harness.experiment_s"] - given_d_s
            tracemalloc.start()
            try:
                run_alltime_experiment(exp, jobs=1, analytic=cfg.analytic)
                v["harness.alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        if v["harness.experiment_s"]:
            v["harness.collect_reduce_s"] = given_d_s - v["harness.diagnostics_s"]
        if jobs1 is not None and v["harness.experiment_s"]:
            v["harness.jobs2_speedup"] = jobs1.total("run_alltime_experiment") / v["harness.experiment_s"]

    if wl.name == "cli-mix":
        v["bounds.tail_finite_s"] = sum(s for _, s in finite_tails(wl).values())
        inf_s, terms, failures = _infinite_tails(wl)
        v["bounds.tail_infinite_s"] = inf_s
        v["bounds.tail_terms"] = terms
        v["bounds.tail_failures"] = failures
    return v, attempted, failed, problems
