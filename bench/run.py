"""Benchmark of mipoly: four workloads, times in units of a reference computation.

Run from the root of a checkout:

    python3 bench/run.py --workload verify-matrix --seed 1 --seconds 10 --trace 0

Workloads (see README.md): verify-matrix, multi-ladder, tabulate-ladder,
library-session.  Jobs run serially, one process at a time.  A reference
sample (bench/reference.py, a fresh process) is taken before the first job
and after every job, or every block of session requests; each job's wall
time is divided by the mean of the samples on either side of it, so the
timed metrics are in `ref` units and a slow phase of the machine cancels.
Rounds of the whole job list repeat until --seconds have passed (at least
one round); the timed metrics are medians over rounds.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same jobs with
bench/tracer.py wrapped around the mipoly layers and prints the per-layer
metrics instead.  Either way every output is checked (bench/checks.py) and
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import checks
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 7
# setup_s is reported in seconds at a fixed reference speed: a normalised
# set-up time times REF_SECONDS, the duration of one reference pass in quiet
# phases of the 2-core virtual machine the benchmark was calibrated on.  Raw
# set-up seconds move with the machine's phase, by up to half between sets.
REF_SECONDS = 0.03


def child_env() -> dict:
    """Children use the checkout's sources and cache byte code under .bench_build,
    as an installed mipoly would have it cached, whatever the caller's settings."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Runs job processes through bench/launcher.py, which reports each one's
    wall time, exit code and own peak resident set."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            text=True,
        )

    def run(self, argv: list[str], out_path: Path) -> tuple[float, int, int, str]:
        """(wall seconds, exit code, peak RSS in KiB, stdout) of one job."""
        err_path = out_path.with_suffix(".err")
        self.proc.stdin.write(json.dumps([argv, str(out_path), str(err_path)]) + "\n")
        self.proc.stdin.flush()
        wall, code, rss = json.loads(self.proc.stdout.readline())
        return wall, code, rss, out_path.read_text()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def reference_sample() -> float:
    """Duration of the reference computation, in a fresh isolated interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", str(HERE / "reference.py")],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


def setup_argv(workload: str) -> list[str]:
    """A fresh interpreter up to a ready CLI (or library), with no suite work."""
    if workload == "library-session":
        return [sys.executable, "-c", "import mipoly"]
    cli = ["verify", "--family", "M", "--params", "1,1/2", "--suite", ","]
    return [sys.executable, "-m", "mipoly.cli", *cli]


def measure_setup(workload: str, launcher: Launcher) -> list[float]:
    """Set-up samples in seconds at the reference speed, each normalised by
    the mean of the reference samples on either side of it."""
    argv = setup_argv(workload)
    launcher.run(argv, OUT / "setup.out")  # warm-up: compiles the byte code
    refs, walls = [reference_sample()], []
    for _ in range(SETUP_SAMPLES):
        walls.append(launcher.run(argv, OUT / "setup.out")[0])
        refs.append(reference_sample())
    return [wall / statistics.fmean(refs[i : i + 2]) * REF_SECONDS for i, wall in enumerate(walls)]


# -- rounds -------------------------------------------------------------------------


def cli_round(jobs: list, launcher: Launcher, spans_dir: Path | None) -> list[dict]:
    records = []
    before = reference_sample()
    for i, job in enumerate(jobs):
        if spans_dir is None:
            argv = [sys.executable, "-m", "mipoly.cli", *job.argv()]
        else:
            spans = spans_dir / f"job-{i:02d}.jsonl.gz"
            argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--", *job.argv()]
        wall, code, rss, text = launcher.run(argv, OUT / "job.out")
        after = reference_sample()
        record = {
            "job": job, "wall": wall, "refs": (before, after), "rss_kb": rss, "code": code, "text": text
        }
        if spans_dir is not None:
            traced = json.loads(text)
            record.update(code=traced["code"], text=traced["output"], metrics=traced["metrics"])
        records.append(record)
        before = after
    return records


def session_round(jobs: list, seed: int, env: dict, spans_dir: Path | None) -> list[dict]:
    argv = [sys.executable, str(HERE / "session.py"), "--seed", str(seed)]
    if spans_dir is not None:
        argv += ["--spans", str(spans_dir / "session.jsonl.gz")]
    records = []
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        before = reference_sample()
        for k in range(math.ceil(len(jobs) / workloads.SESSION_BLOCK)):
            proc.stdin.write(f"block {k}\n")
            proc.stdin.flush()
            reply = json.loads(proc.stdout.readline())
            after = reference_sample()
            block = jobs[k * workloads.SESSION_BLOCK : (k + 1) * workloads.SESSION_BLOCK]
            for job, wall, result in zip(block, reply["timings"], reply["results"]):
                records.append({"job": job, "wall": wall, "refs": (before, after), "result": result})
            before = after
        proc.stdin.write("quit\n")
        proc.stdin.flush()
        final = json.loads(proc.stdout.readline())
        proc.stdin.close()
        proc.stdout.close()
    finally:
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"session process exited with {proc.returncode}")
    for record in records:
        record["rss_kb"] = final["peak_rss_kb"]
    if spans_dir is not None:
        records[0]["metrics"] = final["metrics"]
    return records


# -- checking -------------------------------------------------------------------------


def check_round(records: list[dict], verified: set) -> tuple[int, list[str]]:
    """(failed operations, problems); identical outputs are checked once per run."""
    failed, problems = 0, []
    for r in records:
        job = r["job"]
        if job.command == "session":
            payload = json.dumps(r["result"], sort_keys=True)
        else:
            payload = f"{r['code']}\n{r['text']}"
        key = (job, hashlib.sha256(payload.encode()).hexdigest())
        if job.command == "verify":
            bad, found = checks.check_verify(job, r["code"], r["text"])
        elif key in verified:
            bad, found = False, []
        elif job.command == "tabulate":
            bad, found = checks.check_tabulate(job, r["code"], r["text"])
        else:
            bad, found = checks.check_session(
                job, r["result"], workloads.SESSION_NMAX, workloads.SESSION_XMAX
            )
        if not bad and not found:
            verified.add(key)
        failed += bad
        problems += [f"{job.describe()}: {p}" for p in found]
        r["failed"] = bool(bad)
    return failed, problems


# -- metrics ------------------------------------------------------------------------------


def normalised(record: dict) -> float:
    return record["wall"] / statistics.fmean(record["refs"])


def end_to_end(rounds: list[list[dict]], setup: list[float]) -> dict:
    jobs_ref = [normalised(r) for records in rounds for r in records]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "run_ref": (statistics.median(sum(normalised(r) for r in records) for records in rounds), "ref"),
        "job_ref.p50": (statistics.median(jobs_ref), "ref"),
        "peak_rss_mb": (max(r["rss_kb"] for records in rounds for r in records) / 1024, "MB"),
    }


def context(rounds: list[list[dict]]) -> dict:
    refs = [x for records in rounds for r in records for x in r["refs"]]
    return {
        "bench.wall_s": (statistics.median(sum(r["wall"] for r in records) for records in rounds), "s"),
        "bench.ref_s": (statistics.median(refs), "s"),
    }


def per_layer(rounds: list[list[dict]]) -> dict:
    totals = {name: 0.0 for name, _ in tracing.per_layer_names()}
    for records in rounds:
        for r in records:
            for name, value in r.get("metrics", {}).items():
                totals[name] += value
    units = dict(tracing.per_layer_names())
    return {name: (value / len(rounds), units[name]) for name, value in totals.items()}


# -- entry point ------------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mipoly benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mipoly" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mipoly sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and every child: jobs and reference samples
    # then run on the same CPU and see the same contention from outside.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    jobs = workloads.jobs(args.workload, args.seed)
    spans_dir = None
    if args.trace:
        spans_dir = OUT / f"trace-{args.workload}-seed{args.seed}"
        spans_dir.mkdir(exist_ok=True)

    rounds, failed, problems, verified = [], 0, [], set()
    launcher = Launcher(env)
    try:
        setup = measure_setup(args.workload, launcher)
        start = perf_counter()
        while not rounds or perf_counter() - start < args.seconds:
            if args.workload == "library-session":
                records = session_round(jobs, args.seed, env, spans_dir)
            else:
                records = cli_round(jobs, launcher, spans_dir)
            round_failed, round_problems = check_round(records, verified)
            failed += round_failed
            problems += round_problems
            rounds.append(records)
    finally:
        launcher.close()

    drift = context(rounds)
    metrics = {**per_layer(rounds), **drift} if args.trace else end_to_end(rounds, setup)
    shown = {**metrics, **drift}
    attempted = sum(len(records) for records in rounds)
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
        f"  rounds {len(rounds)}  jobs per round {len(jobs)}"
    )
    for name, (value, unit) in shown.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    log = {
        "args": vars(args),
        "result": result,
        "jobs": [
            {
                "round": i,
                "job": r["job"].describe(),
                "wall_s": r["wall"],
                "refs_s": r["refs"],
                "job_ref": normalised(r),
                "rss_kb": r["rss_kb"],
                "failed": r["failed"],
            }
            for i, records in enumerate(rounds)
            for r in records
        ],
        "problems": problems,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(log, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
