"""Run a workload's command sequence as fresh processes and check every output."""

from __future__ import annotations

import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

import checks
from procs import ProcResult, spawn
from workloads import Command, Workload

COMMAND_TIMEOUT_S = 170.0


@dataclass
class Context:
    """What the checks need besides the outputs themselves."""

    env: dict[str, str]
    logs: Path
    reference: dict | None = None  # the reference record for this master seed
    finite_tails: dict[str, float] = field(default_factory=dict)  # cli-mix: D -> finite tail_sum


@dataclass(frozen=True)
class Outcome:
    ok: bool  # exit 0 and every output check passed
    failed: bool  # neither ok nor the command's known, accepted defect
    problems: tuple[str, ...]


@dataclass
class Iteration:
    procs: list[ProcResult]
    outcomes: list[Outcome]

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.peak_rss_mb for p in self.procs)

    @property
    def ok(self) -> int:
        return sum(o.ok for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    @property
    def problems(self) -> list[str]:
        return [p for o in self.outcomes for p in o.problems]


def tdlab_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "tdlab.cli", *args]


def _output_problems(wl: Workload, cmd: Command, out_root: Path, ctx: Context) -> list[str]:
    kind = cmd.args[0]
    if cmd.out is None:  # validate: its exit code is its verdict
        return []
    out = out_root / cmd.out
    expected = {
        "solve": "analytic.json",
        "simulate": f"trajectory_{wl.seed}.csv",
        "bound": "bound.json",
        "experiment": "result.json",
    }[kind]
    if not (out / expected).is_file():
        return [f"{expected} not written"]
    problems = checks.check_json_files(out)
    if problems:
        return problems
    if kind == "simulate":
        horizon = int(cmd.args[cmd.args.index("--horizon") + 1])
        with open(out / expected) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != horizon + 1:
            problems.append(f"{expected}: {rows} rows, expected {horizon + 1}")
    elif kind == "bound" and "--infinite" in cmd.args:
        D = cmd.args[cmd.args.index("--D") + 1]
        tail, finite = checks.load_json(out / expected)["tail_sum"], ctx.finite_tails[D]
        if not tail >= finite:  # the infinite-horizon sum certifies a lower bound
            problems.append(f"infinite-horizon tail_sum {tail!r} < finite-horizon {finite!r}")
    elif kind == "experiment" and ctx.reference is not None:
        problems += checks.compare_with_reference(checks.load_json(out / expected), ctx.reference)
    return problems


def judge(wl: Workload, cmd: Command, exit_code: int | None, stderr: str, out_root: Path,
          ctx: Context) -> Outcome:
    if exit_code == 0:
        problems = [f"{cmd.label}: {p}" for p in _output_problems(wl, cmd, out_root, ctx)]
        return Outcome(ok=not problems, failed=bool(problems), problems=tuple(problems))
    if cmd.known_defect and exit_code == 2 and stderr.startswith("numerical failure:"):
        return Outcome(ok=False, failed=False, problems=())
    last = stderr.strip().splitlines()[-1:] or [""]
    return Outcome(ok=False, failed=True, problems=(f"{cmd.label}: exit {exit_code}: {last[0]}",))


def run_command(argv: list[str], ctx: Context, stem: str) -> ProcResult:
    return spawn(argv, ctx.env, ctx.logs / stem, COMMAND_TIMEOUT_S)


def run_sequence(wl: Workload, out_root: Path, ctx: Context) -> Iteration:
    """Run every command of ``wl`` once, in order, writing under a fresh ``out_root``."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    it = Iteration([], [])
    for i, cmd in enumerate(wl.commands):
        proc = run_command(tdlab_argv(cmd.argv(out_root)), ctx, f"{out_root.name}-{i}")
        it.procs.append(proc)
        it.outcomes.append(judge(wl, cmd, proc.exit_code, proc.stderr, out_root, ctx))
    return it
