"""The benchmark's workloads: fixed job lists, ordered by a seed.

A job is one operation the benchmark times and checks.  The CLI workloads
run one fresh `mipoly` process per job; `library-session` runs its requests
inside one long-lived process (see session.py).  The seed only permutes the
jobs, so every round of a workload does the same work whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# README acceptance matrix: 5 parameter points x 6 label sets.
MATRIX_POINTS = (
    ("M", "1,1/2"),
    ("M", "5/2,1/3"),
    ("lqJ", "1/32,1/3,1/2"),
    ("lqJ", "1/32,-1/2,1/2"),
    ("lqL", "1/32,1/2"),
)
MATRIX_LABELS = ((1,), (2,), (1, 2), (1, 3), (2, 4), (1, 2, 3))

# Points with a = 2^-20, which admits labels up to 18 for the q families.
LADDER_POINTS = (
    ("M", "1,1/2"),
    ("lqJ", "1/1048576,1/3,1/2"),
    ("lqL", "1/1048576,1/2"),
)
# Up to ell_D = 10.  The rung D = {1,3,5,7,9} (ell_D = 15) takes 6-18 s per
# family, and one sample of a job varies by about 20% from run to run on a
# shared 2-core machine; two passes over the rungs up to {1,3,5,7} give a
# steadier sum and median in the same time.
MULTI_LADDER = ((1,), (1, 2), (2, 4), (1, 2, 3), (2, 4, 6), (1, 3, 5, 7))
MULTI_LADDER_PASSES = 2
# tabulate-ladder runs by hand; it is not in BENCHMARK.json (see README.md).
TABULATE_LADDER = ((2,), (2, 4), (2, 4, 6), (2, 4, 6, 8), (2, 4, 6, 8, 10), (2, 4, 6, 8, 10, 12))
TABULATE_FLAGS = ("--nmax", "10", "--xmax", "40")

# library-session: each acceptance configuration is requested this often.
SESSION_REPEATS = 6
# ... and a reference sample is taken after every block of this many requests.
SESSION_BLOCK = 4
SESSION_NMAX = 3
SESSION_XMAX = 12
SESSION_CHAIN = {"n_max": 2, "x_max": 8}

WORKLOADS = ("verify-matrix", "multi-ladder", "tabulate-ladder", "library-session")


@dataclass(frozen=True)
class Job:
    """One operation: a CLI invocation or one library-session request."""

    command: str  # "verify", "tabulate" or "session"
    family: str
    params: str
    labels: tuple
    flags: tuple = ()

    def argv(self) -> list[str]:
        """Arguments for `mipoly` (CLI jobs only)."""
        return [
            self.command,
            "--family",
            self.family,
            "--params",
            self.params,
            "--deletions",
            ",".join(str(d) for d in self.labels),
            *self.flags,
        ]

    def describe(self) -> str:
        labels = "{" + ",".join(str(d) for d in self.labels) + "}"
        extra = (" " + " ".join(self.flags)) if self.flags else ""
        return f"{self.command} {self.family} {self.params} D={labels}{extra}"


def _base_jobs(workload: str) -> list[Job]:
    if workload == "verify-matrix":
        return [Job("verify", f, p, d) for f, p in MATRIX_POINTS for d in MATRIX_LABELS]
    if workload == "multi-ladder":
        return [
            Job("verify", f, p, d, ("--suite", "multi"))
            for f, p in LADDER_POINTS
            for d in MULTI_LADDER
            for _ in range(MULTI_LADDER_PASSES)
        ]
    if workload == "tabulate-ladder":
        return [Job("tabulate", f, p, d, TABULATE_FLAGS) for f, p in LADDER_POINTS for d in TABULATE_LADDER]
    if workload == "library-session":
        return [
            Job("session", f, p, d)
            for f, p in MATRIX_POINTS
            for d in MATRIX_LABELS
            for _ in range(SESSION_REPEATS)
        ]
    raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")


def jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in the order given by the seed.

    In library-session the order also decides which request of a
    configuration comes first (cold) and which ones repeat it (warm).
    """
    out = _base_jobs(workload)
    random.Random(seed).shuffle(out)
    return out
