"""Digest of the CLI's output over the benchmark's job lists.

Runs, in this process and through `mipoly.cli.main`, every job of

  - `verify-matrix` (all suites, JSON, over the acceptance matrix),
  - `verify --format csv` over the acceptance matrix,
  - `multi-ladder` (`verify --suite multi`), each distinct job once,
  - `verify --format csv --suite base,virtual` over the ladder points,
  - `verify --suite chain` over the ladder points, chains of up to four labels,
  - `tabulate-ladder`, in JSON and in CSV,

and prints one line per job, the sha256 of its stdout, stderr and exit code
and a description, then a total: the sha256 of all the job digests in order.
Two trees whose totals agree produce byte-identical output on every job, so a
refactor that must not change output can be checked with

    python3 scripts/output_digest.py            # in each tree, then compare

The committed tree's whole listing, every job line and the total, is kept in
scripts/output_digest.total, and CI diffs the printed listing against it.  A
change that alters output on purpose updates that file, and its diff shows
exactly which jobs the change alters.

With --verdicts it prints, instead, what each `verify` job decided: a line
per job (its arguments and exit code), then one line per suite of the job,
from the Reports in this process,

    <id>  <status>  checked=<n>  names=<8 hex>  <witnesses>

where names is a short sha256 of the suite's sorted check names and the
witnesses are the failing checks as "name [witness]", joined by "; ".  A job
in CSV runs the same suites as in JSON, so each `verify` configuration is
listed once.  The committed listing is scripts/output_verdicts.txt, which CI
diffs too: a change that renames, drops or adds rows, or moves a status or
a witness, shows there as exactly those suites' lines.

    python3 scripts/output_digest.py --verdicts

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
from mipoly.report import Report  # noqa: E402


def job_argvs() -> list[tuple[str, ...]]:
    distinct = lambda jobs: list(dict.fromkeys(tuple(job.argv()) for job in jobs))
    matrix = distinct(wl.jobs("verify-matrix", 0))
    ladder = distinct(wl.jobs("multi-ladder", 0))
    tabulate = distinct(wl.jobs("tabulate-ladder", 0))
    ladder_points = lambda flags: distinct(
        wl.Job("verify", f, p, d, flags) for f, p in wl.LADDER_POINTS for d in wl.MULTI_LADDER
    )
    return [
        *matrix,
        *(argv + ("--format", "csv") for argv in matrix),
        *ladder,
        *ladder_points(("--format", "csv", "--suite", "base,virtual")),
        *ladder_points(("--suite", "chain")),
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


def verdicts(argv: tuple[str, ...]) -> list[str]:
    """The job's line and one line per suite report the run serialised."""
    reports, to_dict = [], Report.to_dict

    def recording(rep):
        reports.append(rep)
        return to_dict(rep)

    Report.to_dict = recording
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli_main(list(argv))
    finally:
        Report.to_dict = to_dict
    lines = [f"{' '.join(argv)}  (exit {code})"]
    for rep in reports:
        names = hashlib.sha256("\n".join(sorted(c.name for c in rep.checks)).encode()).hexdigest()[:8]
        witnesses = "; ".join(c.name + (f" [{c.witness}]" if c.witness else "") for c in rep.failures())
        status = "pass" if rep.passed else "fail"
        lines.append(f"  {rep.suite}  {status}  checked={len(rep.checks)}  names={names}  {witnesses}".rstrip())
    return lines


def main(args: list[str]) -> int:
    if args == ["--verdicts"]:
        csv = ("--format", "csv")
        jobs = [argv for argv in job_argvs() if argv[0] == "verify"]
        for argv in dict.fromkeys(tuple(a for a in argv if a not in csv) for argv in jobs):
            print("\n".join(verdicts(argv)), flush=True)
        return 0
    if args:
        sys.stderr.write("usage: output_digest.py [--verdicts]\n")
        return 2
    total = hashlib.sha256()
    for argv in job_argvs():
        digest = run(argv)
        total.update(digest.encode())
        print(f"{digest}  {' '.join(argv)}", flush=True)
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
