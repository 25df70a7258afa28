"""Regenerate the reference records that `experiment` outputs are compared with.

Run from the root of a checkout whose results are trusted:

    python3 bench/make_reference.py

For each experiment workload and each master seed in
``range(REFERENCE_SEEDS)`` it runs the workload's ``tdlab experiment`` at
jobs=2 (results do not depend on the worker count) and writes the flat
record of ``result.json`` to ``bench/reference/<workload>.json``.  It takes
about five minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import run
from sequence import run_command, tdlab_argv
from workloads import REFERENCE_SEEDS, prepare


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    work = run.ROOT / ".bench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for name in ("ref-fit", "wide-jobs2"):
        records = {}
        for seed in range(REFERENCE_SEEDS):
            wl = prepare(name, seed, work)
            ctx = run.make_context(wl, work, use_reference=False)
            cmd = wl.commands[0]
            argv = cmd.argv(work / "out")
            argv[argv.index("--jobs") + 1] = "2"
            proc = run_command(tdlab_argv(argv), ctx, f"{name}-{seed}")
            if proc.exit_code != 0:
                print(f"{name} seed {seed}: exit {proc.exit_code}\n{proc.stderr}", file=sys.stderr)
                return 1
            records[str(wl.master_seed)] = checks.record(checks.load_json(work / "out" / cmd.out / "result.json"))
            print(f"{name} seed {seed}: {proc.wall_s:.1f} s", file=sys.stderr)
        path = run.BENCH_DIR / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        lines = [f"{json.dumps(seed)}: {json.dumps(rec, sort_keys=True)}" for seed, rec in records.items()]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
