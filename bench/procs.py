"""Run one command as a fresh process and account for everything it used.

Each command is started with ``posix_spawn`` and reaped with ``os.wait4``.
The rusage that ``wait4`` returns covers the child and every descendant it
reaped itself, so the CPU time and peak RSS of a ``tdlab experiment
--jobs 2`` include its pool workers.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class ProcResult:
    exit_code: int
    wall_s: float  # spawn to exit
    cpu_s: float  # user + system, the child and its reaped descendants
    peak_rss_mb: float  # largest RSS of the child or any reaped descendant
    stdout: str
    stderr: str


def spawn(argv: list[str], env: dict[str, str], log_stem: Path, timeout_s: float) -> ProcResult:
    """Run ``argv`` to completion; stdout and stderr go to ``log_stem``.out/.err.

    The child stays in the caller's process group, so a signal to the group
    reaches it too; if it outlives ``timeout_s`` it is killed (exit code -9).
    """
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        watchdog = threading.Timer(timeout_s, os.kill, (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    return ProcResult(
        exit_code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )
