"""Command-line entry point, and the one module that writes files.

Subcommands: ``validate`` a config, ``solve`` the analytic ground truth,
``simulate`` one trajectory to CSV, ``bound`` evaluate the radius curve
and probability bound, and ``experiment`` run the Monte Carlo all-time
verification.  Every command is deterministic given (config, flags).

Every file format lives here.  JSON goes through ``_write_json``: sorted
keys, no NaN or infinity.  Every CSV has a header, then one row per step
or grid cell, floats as their ``repr``, so each cell reads back as the
same double.  ``_write_rows`` writes the rows of every CSV;
``_write_csv`` writes whole files, all but ``simulate``'s.  That one is
written a window of steps at a time, as the engine yields them, into a
temporary file beside the output that is renamed to it when the last row
is written: a failed run leaves no file, and a non-finite cell is a
numerical failure.  Reruns are byte-identical.  Timings go to stderr only.

``output.formats`` picks the files of ``solve``, ``bound`` and
``experiment``: ``"json"`` their JSON file, ``"csv"`` their CSVs
(``simulate`` always writes its one).  A format left out is not written,
and ``solve`` and ``bound`` print the JSON path only when they write it.

``--seed``, ``--horizon`` and ``--D`` set their experiment field with
``dataclasses.replace``, so ``ExperimentConfig`` checks them; an error
names the flag (``--D: must be finite and > 0, got 0.0``).

Exit codes: 0 success, 1 validation failure, 2 numerical failure or out of memory.
A config file that cannot be read, or an output directory or file that
cannot be made or written, is a validation failure that names it.
The only environment override is ``OUTPUT_DIR``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bounds import build_query, check_n0, evaluate_bound
from .config import LoadedConfig, experiment_errors, load_config
from .errors import ComputeError, NonFinite, ValidationError
from .harness import estimate_p_init, run_alltime_experiment, simulate_trajectory


def _create(path: Path):
    """Open ``path`` for writing; a path that cannot be written is a bad input."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror}") from exc


def _write_json(path: Path, obj) -> None:
    """Write strict JSON: a NaN or infinity is a numerical failure, not a token."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFinite(f"{path.name}: {exc}") from exc
    with _create(path) as fh:
        fh.write(text + "\n")


def _out_dir(args, cfg: LoadedConfig) -> Path:
    if getattr(args, "out", None):
        source, d = "--out", Path(args.out)
    elif os.environ.get("OUTPUT_DIR"):
        source, d = "OUTPUT_DIR", Path(os.environ["OUTPUT_DIR"])
    else:
        source, d = "output.dir", Path(cfg.output_dir)
    try:
        d.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"{source}: cannot make directory {d}: {exc.strerror}") from exc
    return d


_FLAG_FIELDS = {"seed": "master_seed", "horizon": "horizon", "D": "D_const"}


def _load(args) -> LoadedConfig:
    """The config, with the flags of ``_FLAG_FIELDS`` set on its experiment;
    ``simulate`` runs from step 0, so it sets n0 to 0 first."""
    cfg = load_config(args.config)
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ValidationError(f"--jobs: must be >= 1, got {jobs}")
    if cfg.experiment is not None and args.command == "simulate":
        cfg.experiment = replace(cfg.experiment, n0=0)
    for flag, name in _FLAG_FIELDS.items():
        value = getattr(args, flag, None)
        if value is None or cfg.experiment is None:
            continue
        try:
            cfg.experiment = replace(cfg.experiment, **{name: value})
        except ValidationError as exc:
            raise ValidationError(f"--{flag}: {str(exc).removeprefix(f'{name}: ')}") from exc
    return cfg


def cmd_validate(args) -> int:
    cfg = _load(args)
    rep = cfg.problem.assumption
    print(f"chain: {cfg.problem.n_states} states, valid")
    pi = cfg.problem.stationary.pi
    print(f"stationary: residual ok, min {pi.min():.6g}, max {pi.max():.6g}")
    print(f"features: {cfg.problem.n_features} columns, full rank")
    print(f"feature gain: {rep.feature_gain:.10g}")
    print(f"threshold: {rep.threshold:.10g}")
    print(f"scaling condition: {'pass' if rep.satisfied else 'FAIL'}")
    if not rep.satisfied:
        print(f"suggested rescaling factor: {rep.rescaling_factor:.10g}")
    print(
        f"row-norm condition: {'pass' if rep.row_condition_satisfied else 'not met'} "
        f"(max row norm {rep.max_row_norm:.10g})"
    )
    sched = cfg.schedule
    print(f"schedule: {sched.kind} (d1={sched.d1:g}, d2={sched.d2:g}, d3={sched.d3:g})")
    if cfg.analytic is not None:
        print(f"contraction factor: {cfg.analytic.constants.alpha:.10g}")
        if cfg.experiment is not None:
            chk = check_n0(cfg.analytic.constants, sched, cfg.experiment.n0)
            print(
                f"start index {cfg.experiment.n0}: "
                f"{'feasible' if chk.feasible else 'INFEASIBLE'} "
                f"(margin {chk.margin:.6g}, smallest feasible {chk.smallest_feasible})"
            )
    for issue in cfg.issues:
        print(f"issue: {issue}")
    return 1 if cfg.issues else 0


def cmd_solve(args) -> int:
    cfg = _load(args)
    analytic = cfg.require_analytic()
    out = _out_dir(args, cfg)
    if "json" in cfg.formats:
        _write_json(out / "analytic.json", analytic.as_dict())
        print(out / "analytic.json")
    return 0


def cmd_simulate(args) -> int:
    if args.trajectory < 0:
        raise ValidationError(f"--trajectory: must be >= 0, got {args.trajectory}")
    cfg = _load(args)
    analytic = cfg.require_analytic()
    windows = simulate_trajectory(cfg.require_experiment(), args.trajectory, analytic)
    out = _out_dir(args, cfg)
    path = out / f"trajectory_{args.trajectory}.csv"
    _write_trajectory_csv(path, windows, args.components)
    print(path)
    return 0


def cmd_bound(args) -> int:
    cfg = _load(args)
    analytic = cfg.require_analytic()
    exp = cfg.require_experiment()
    # the query is checked in full before the initial-error ensemble runs
    with experiment_errors():
        query = build_query(
            analytic.constants, cfg.schedule, epsilon=exp.epsilon, delta=exp.delta, n0=exp.n0,
            horizon=None if args.infinite else exp.horizon, D_const=exp.D_const,
            p_init=0.0 if exp.p_init is None else exp.p_init,
            p_init_source="user" if exp.p_init is not None else "empirical",
        )
    if exp.p_init is None:
        est = estimate_p_init(exp, jobs=args.jobs, analytic=analytic)
        query = replace(query, p_init=est.value)
    report = evaluate_bound(
        query, cfg.problem.n_features, cfg.schedule, analytic.constants,
        curve_horizon=exp.horizon,
    )
    out = _out_dir(args, cfg)
    if "json" in cfg.formats:
        _write_json(out / "bound.json", report.as_dict())
    if "csv" in cfg.formats:
        _write_bound_csv(out / "bound.csv", report, cfg.schedule)
    if report.tail.vacuous:
        print("warning: vacuous bound (tail sum and initial term exceed 1)", file=sys.stderr)
    if "json" in cfg.formats:
        print(out / "bound.json")
    return 0


def cmd_experiment(args) -> int:
    cfg = _load(args)
    analytic = cfg.require_analytic()
    exp = cfg.require_experiment()
    t0 = time.monotonic()
    with experiment_errors():
        result = run_alltime_experiment(exp, jobs=args.jobs, analytic=analytic)
    out = _out_dir(args, cfg)
    if "json" in cfg.formats:
        _write_json(out / "result.json", result.as_dict())
    if "csv" in cfg.formats:
        _write_per_m_csv(out / "per_m.csv", result)
        _write_summary_csv(out / "summary.csv", result)
    row = result.primary
    sign = ">=" if row.alltime_prob >= row.theoretical_lower_bound else "<"
    print(f"alltime {row.alltime_prob:.6f} {sign} bound {row.theoretical_lower_bound:.6f}")
    print(f"elapsed {time.monotonic() - t0:.1f}s", file=sys.stderr)
    return 0


_ROWS = 1024  # most rows a CSV write joins, and a column converts per tolist


def _write_rows(fh, header: list[str] | None, rows: Iterable) -> None:
    """Write the ``header`` (when given) with the csv module, then ``rows`` of
    Python ints and floats, at most ``_ROWS`` a write.  Each cell is its
    ``str``, a float's ``repr``, so it reads back as the same double; no
    number needs the csv module's quoting, so a row joined with commas and
    ended by ``\r\n`` is the line ``csv.writer`` writes, without its cost
    per cell."""
    if header is not None:
        csv.writer(fh).writerow(header)
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _ROWS)):
        fh.write("".join(",".join(map(str, row)) + "\r\n" for row in chunk))


def _write_csv(path: Path, header: list[str], rows: Iterable) -> None:
    """Every CSV but ``simulate``'s: a header, then one row per step or grid cell."""
    with _create(path) as fh:
        _write_rows(fh, header, rows)


def _column_rows(*columns) -> Iterator[tuple]:
    """The rows of numpy ``columns``, as ``zip`` of their ``tolist()`` would
    give them, converted ``_ROWS`` rows at a time, as many as
    ``_write_rows`` joins: no column is ever a whole Python list."""
    n = min(map(len, columns))
    for lo in range(0, n, _ROWS):
        yield from zip(*(c[lo : lo + _ROWS].tolist() for c in columns))


def _write_per_m_csv(path: Path, result) -> None:
    keys = ("q25", "q50", "q75", "q90")
    header = ["m", "radius", "err_max", *(f"err_{k}" for k in keys), "violations"]
    columns = [np.arange(result.n0, result.horizon + 1), result.radius, result.per_m_err_max,
               *(result.err_quantiles[k] for k in keys), result.per_m_violation_counts]
    _write_csv(path, header, _column_rows(*columns))


def _write_summary_csv(path: Path, result) -> None:
    header = ["epsilon", "delta", "floor", "violations", "alltime_prob", "wilson_lo",
              "wilson_hi", "tail_sum", "theoretical_lower_bound", "vacuous"]
    rows = ([r.epsilon, r.delta, r.floor, r.violations, r.alltime_prob, *r.interval,
             r.tail_sum, r.theoretical_lower_bound, int(r.vacuous)] for r in result.grid)
    _write_csv(path, header, rows)


def _write_bound_csv(path: Path, report, schedule) -> None:
    terms = report.tail_terms(schedule)
    rows = zip(report.ms.tolist(), report.radius.tolist(), terms, itertools.accumulate(terms))
    _write_csv(path, ["m", "radius", "tail_term", "cumulative_tail"], rows)


def _write_trajectory_csv(path: Path, windows: Iterable, include_components: bool) -> None:
    """The ``simulate`` CSV, one window (a ``TrajectoryRecord``) of rows at a
    time, each written before the next window is computed.  The rows go to
    a temporary file beside ``path``, renamed to it after the last one; any
    failure removes it, so ``path`` is left whole or as it was.  A
    non-finite cell is a numerical failure that names its step and column."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            n = 0
            for rec in windows:
                header = ["n", "state", "dist_to_target", "dist_to_comparison", "peak_deviation"]
                columns = [rec.states, rec.dist_to_target, rec.dist_to_comparison,
                           rec.peak_deviation]
                if include_components:
                    header += [f"x{j}" for j in range(rec.x.shape[1])]
                    columns += list(rec.x.T)
                bad = [(int(np.argmin(ok)), j) for j, c in enumerate(columns)
                       if not (ok := np.isfinite(c)).all()]
                if bad:
                    i, j = min(bad)  # the earliest step, then the leftmost column
                    raise NonFinite(
                        f"{path.name}: {header[j + 1]} is {columns[j][i]} at step {n + i}"
                    )
                rows = _column_rows(np.arange(n, n + len(rec.states)), *columns)
                _write_rows(fh, None if n else header, rows)
                n += len(rec.states)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise ValidationError(f"{path}: {exc.strerror}") from exc
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdlab",
        description="Analytic ground truth and concentration-bound verification "
        "for linear TD(0) on finite Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to the problem configuration JSON")
        p.add_argument("--out", help="output directory (overrides OUTPUT_DIR and the config)")

    p = sub.add_parser("validate", help="validate a config and print verdicts")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="write the analytic ground-truth JSON")
    add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="write one trajectory CSV")
    add_common(p)
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--horizon", type=int, help="override the horizon")
    p.add_argument("--trajectory", type=int, default=0, help="trajectory index (default 0)")
    p.add_argument("--components", action="store_true", help="include iterate components")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bound", help="evaluate the radius curve and probability bound")
    add_common(p)
    p.add_argument("--D", type=float, help="tail-exponent constant (overrides the config)")
    p.add_argument("--infinite", action="store_true", help="sum the tail over all steps")
    p.add_argument("--jobs", type=int, default=1, help="workers for the initial-error estimate")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("experiment", help="run the Monte Carlo all-time verification")
    add_common(p)
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--horizon", type=int, help="override the horizon")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (results invariant)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ComputeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an array for the given horizon or n0 does not fit
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
