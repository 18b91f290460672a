"""Quick self-check of the benchmark's correctness checkers (bench/checks.py).

Run from the root of a checkout:

    python3 bench/selfcheck.py

It runs a few small real jobs and shows that the checkers accept their
outputs, reject a tabulate document with one altered coefficient, and count
a verify report with status `fail` as a failed operation rather than an
incorrect one.  Exit code 0 when every expectation holds.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
from workloads import Job

ROOT = Path(__file__).resolve().parent.parent


def mipoly(argv: list[str]) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "mipoly.cli", *argv], capture_output=True, text=True, env=env, cwd=ROOT
    )
    return done.returncode, done.stdout


def bump(value: str) -> str:
    return str(Fraction(value) + 1)


def main() -> int:
    results = []

    def expect(what: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {what}")

    # tabulate: the real document passes, single alterations are rejected
    tab = Job("tabulate", "M", "1,1/2", (1, 2), ("--nmax", "3", "--xmax", "12"))
    code, text = mipoly(tab.argv())
    failed, problems = checks.check_tabulate(tab, code, text)
    expect("real M tabulate document is accepted", code == 0 and not failed and not problems)
    doc = json.loads(text)
    for what, path in (
        ("P_D,2 coefficient of eta^1", ("levels", 2, "coefficients", 1)),
        ("Xi_D coefficient of eta^1", ("denominator", "coefficients", 1)),
        ("energy E_3", ("levels", 3, "energy")),
    ):
        altered = copy.deepcopy(doc)
        *parents, last = path
        node = altered
        for key in parents:
            node = node[key]
        node[last] = bump(node[last])
        failed, problems = checks.check_tabulate(tab, 0, json.dumps(altered))
        expect(f"altered {what} is rejected ({problems[:1]})", not failed and bool(problems))
    altered = copy.deepcopy(doc)
    altered["weights"][5]["value"] = "-" + altered["weights"][5]["value"]
    expect("a negative weight is rejected", bool(checks.check_tabulate(tab, 0, json.dumps(altered))[1]))

    # verify: pass is a success, fail is a failed operation, not a problem
    ver = Job("verify", "lqL", "1/32,1/2", (1,), ("--suite", "multi"))
    code, text = mipoly(ver.argv())
    failed, problems = checks.check_verify(ver, code, text)
    expect("real passing verify report is a success", code == 0 and not failed and not problems)
    doc = json.loads(text)
    doc["summary"]["status"] = "fail"
    doc["summary"]["failed_suites"] = 1
    doc["suites"][0]["status"] = "fail"
    failed, problems = checks.check_verify(ver, 1, json.dumps(doc))
    expect("a report with status fail counts as failed, not incorrect", failed and not problems)
    failed, problems = checks.check_verify(ver, 0, json.dumps(doc))
    expect("status fail with exit 0 is a problem", bool(problems))

    # the known node-count fault: a real failing job is counted as failed
    node = Job("verify", "M", "1,1/2", (1, 2, 3), ("--suite", "multi"))
    code, text = mipoly(node.argv())
    failed, problems = checks.check_verify(node, code, text)
    witness = "node count = 3" in text and "got 2" in text
    expect(
        "M 1,1/2 D={1,2,3} node-count fault counts as one failed operation",
        failed and not problems and witness,
    )

    print(f"{sum(results)}/{len(results)} expectations hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
