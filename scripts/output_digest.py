"""Digest of the CLI's output over the benchmark's job lists.

Runs, in this process and through `mipoly.cli.main`, every job of

  - `verify-matrix` (all suites, JSON, over the acceptance matrix),
  - `verify --format csv` over the acceptance matrix,
  - `multi-ladder` (`verify --suite multi`), each distinct job once,
  - `verify --format csv --suite base,virtual` over the ladder points,
  - `tabulate-ladder`, in JSON and in CSV,

and prints one line per job, the sha256 of its stdout, stderr and exit code
and a description, then a total: the sha256 of all the job digests in order.
Two trees whose totals agree produce byte-identical output on every job, so a
refactor that must not change output can be checked with

    python3 scripts/output_digest.py            # in each tree, then compare

The committed tree's total is kept in scripts/output_digest.total, and CI
fails when the printed total differs from it; a change that alters output
on purpose updates that file.

The job lists are read from bench/workloads.py of the same tree; the code
under test is the tree's own src/.  Standard library only.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave bench/ as it is: no __pycache__ there

import workloads as wl  # noqa: E402
from mipoly.cli import main as cli_main  # noqa: E402


def job_argvs() -> list[tuple[str, ...]]:
    distinct = lambda jobs: list(dict.fromkeys(tuple(job.argv()) for job in jobs))
    matrix = distinct(wl.jobs("verify-matrix", 0))
    ladder = distinct(wl.jobs("multi-ladder", 0))
    tabulate = distinct(wl.jobs("tabulate-ladder", 0))
    ladder_points = distinct(
        wl.Job("verify", f, p, d, ("--format", "csv", "--suite", "base,virtual"))
        for f, p in wl.LADDER_POINTS
        for d in wl.MULTI_LADDER
    )
    return [
        *matrix,
        *(argv + ("--format", "csv") for argv in matrix),
        *ladder,
        *ladder_points,
        *tabulate,
        *(argv + ("--format", "csv") for argv in tabulate),
    ]


def run(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    h = hashlib.sha256()
    for part in (out.getvalue(), err.getvalue(), str(code)):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def main() -> int:
    total = hashlib.sha256()
    for argv in job_argvs():
        digest = run(argv)
        total.update(digest.encode())
        print(f"{digest}  {' '.join(argv)}", flush=True)
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
