"""Correctness checks for everything the benchmark's jobs produce.

Nothing here compares against a stored copy of an earlier output.  Each
check is a property the paper proves or an independent recomputation:

- a verify report must be well formed and say `pass`; a report that says
  `fail` (or a job that exits non-zero) is a failed operation, not an
  incorrect one;
- tabulate documents and library-session results must have
  deg Xi_D = ell_D and deg P_{D,n} = ell_D + n, with ell_D computed here from
  the labels, unit constant terms, positive weights and norm factors, and
  energies equal to the closed forms written below;
- for Meixner, Xi_D and P_{D,n} must equal the normalised Casoratians
      Xi_D(x)    = W[xi_d1..xi_dM](x) / W[xi_d1..xi_dM](0)
      P_{D,n}(x) = c^-x W[xi_d1..xi_dM, c^y P_n](x) / W[xi_d1..xi_dM, c^y P_n](0)
  at several lattice points, where xi_v = 2F1(-v, -x; beta; 1 - c) and
  P_n = 2F1(-n, -x; beta; 1 - 1/c), recomputed with sympy.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Lattice points and levels of the Meixner Casoratian check.
CASORATIAN_XS = (1, 4, 9)
SUITES_ALL = ("base", "virtual", "casoratian", "chain", "multi", "limits")


def ell_of(labels) -> int:
    m = len(labels)
    return sum(labels) - m * (m - 1) // 2


def parse_params(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",")]


def closed_form_energy(family: str, params: list[Fraction], n: int) -> Fraction:
    """E_n of the base system (the deformation keeps the spectrum)."""
    if family == "M":
        _beta, c = params
        return n * (1 - c)
    if family == "lqJ":
        a, b, q = params
        return (q**-n - 1) * (1 - a * b * q ** (n + 1))
    if family == "lqL":
        _a, q = params
        return q**-n - 1
    raise ValueError(f"unknown family {family!r}")


# -- verify reports ---------------------------------------------------------------


def check_verify(job, code: int, text: str) -> tuple[bool, list[str]]:
    """(failed, problems) for one `mipoly verify` job.

    `failed` marks an operation that did not succeed: a non-zero exit or a
    report whose status is not `pass`.  `problems` lists ways the output
    contradicts itself or the request, which make the run incorrect.
    """
    try:
        doc = json.loads(text)
    except ValueError:
        return True, [] if code != 0 else ["exit 0 without a JSON report"]
    if code not in (0, 1):
        return True, []
    problems = []
    summary = doc.get("summary", {})
    suites = doc.get("suites", [])
    status = summary.get("status")
    if doc.get("schema") != "mipoly-report/1":
        problems.append(f"schema {doc.get('schema')!r}")
    config = doc.get("config", {})
    if config.get("family") != job.family or config.get("deletions") != list(job.labels):
        problems.append(f"config echo {config.get('family')} {config.get('deletions')}")
    wanted = {"multi"} if "--suite" in job.flags else set(SUITES_ALL)
    if {s.get("suite") for s in suites} != wanted:
        problems.append(f"suites {sorted({s.get('suite') for s in suites})} != {sorted(wanted)}")
    if summary.get("checks", 0) <= 0 or summary.get("checks") != sum(s.get("checked", 0) for s in suites):
        problems.append(f"summary counts {summary.get('checks')} checks")
    any_fail = any(s.get("status") != "pass" for s in suites)
    if (status == "pass") == any_fail or (code == 0) != (status == "pass"):
        problems.append(f"status {status!r} with exit {code}")
    return status != "pass" or code != 0, problems


# -- tables (tabulate documents and session results) ----------------------------------


def _coeffs(strings) -> list[Fraction]:
    return [Fraction(s) for s in strings]


def _horner(coeffs: list[Fraction], x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def check_table(job, doc: dict, n_max: int, x_max: int) -> list[str]:
    """Problems found in Xi_D, P_{D,n}, energies and weights of one system."""
    problems = []
    params = parse_params(job.params)
    ell = ell_of(job.labels)
    xi = _coeffs(doc["denominator"]["coefficients"])
    if len(xi) != ell + 1 or doc["denominator"].get("degree", ell) != ell:
        problems.append(f"deg Xi_D = {len(xi) - 1}, expected ell_D = {ell}")
    if not xi or xi[0] != 1 or xi[-1] == 0:
        problems.append("Xi_D(0) != 1 or zero leading coefficient")
    levels = doc["levels"]
    if [lv["n"] for lv in levels] != list(range(n_max + 1)):
        problems.append(f"levels {[lv['n'] for lv in levels]}")
    polys = {}
    for lv in levels:
        n = lv["n"]
        pn = _coeffs(lv["coefficients"])
        polys[n] = pn
        if len(pn) != ell + n + 1 or pn[-1] == 0:
            problems.append(f"deg P_D,{n} = {len(pn) - 1}, expected {ell + n}")
        if not pn or pn[0] != 1:
            problems.append(f"P_D,{n}(0) != 1")
        if Fraction(lv["energy"]) != closed_form_energy(job.family, params, n):
            problems.append(f"E_{n} = {lv['energy']} differs from the closed form")
        if not Fraction(lv["dt_sq"]) > 0:
            problems.append(f"dt_sq({n}) = {lv['dt_sq']} is not positive")
    weights = doc["weights"]
    if [w["x"] for w in weights] != list(range(x_max + 1)):
        problems.append("weights are not given on 0..x_max")
    bad = [w["x"] for w in weights if not Fraction(w["value"]) > 0]
    if bad:
        problems.append(f"weights not positive at x = {bad}")
    if job.family == "M" and not problems:
        problems.extend(meixner_casoratian_problems(job, xi, polys, n_max))
    return problems


def meixner_casoratian_problems(job, xi: list[Fraction], polys: dict, n_max: int) -> list[str]:
    """Compare Xi_D and P_{D,n} with Casoratians recomputed by sympy."""
    import sympy

    beta, c = (sympy.Rational(v.numerator, v.denominator) for v in parse_params(job.params))

    def f21(n, x, z):
        # terminating 2F1(-n, -x; beta; z) as a finite sum
        return sum(
            sympy.rf(-n, k) * sympy.rf(-x, k) / (sympy.rf(beta, k) * sympy.factorial(k)) * z**k
            for k in range(n + 1)
        )

    def xi_fn(v):
        return lambda x: f21(v, x, 1 - c)

    def nu_p_fn(n):
        return lambda x: c**x * f21(n, x, 1 - 1 / c)

    def cas(fs, x):
        m = len(fs)
        return sympy.Matrix(m, m, lambda j, k: fs[k](x + j)).det(method="bareiss")

    def rational(v: Fraction):
        return sympy.Rational(v.numerator, v.denominator)

    problems = []
    xis = [xi_fn(d) for d in job.labels]
    w0 = cas(xis, 0)
    for x in CASORATIAN_XS:
        if rational(_horner(xi, x)) != cas(xis, x) / w0:
            problems.append(f"Xi_D({x}) differs from the sympy Casoratian")
    for n in range(n_max + 1):
        fs = xis + [nu_p_fn(n)]
        wn0 = cas(fs, 0)
        for x in CASORATIAN_XS:
            if rational(_horner(polys[n], x)) != cas(fs, x) / (c**x * wn0):
                problems.append(f"P_D,{n}({x}) differs from the sympy Casoratian")
    return problems


def check_tabulate(job, code: int, text: str) -> tuple[bool, list[str]]:
    """(failed, problems) for one `mipoly tabulate` job."""
    if code != 0:
        return True, []
    try:
        doc = json.loads(text)
    except ValueError:
        return True, ["exit 0 without a JSON table"]
    problems = []
    if doc.get("schema") != "mipoly-table/1":
        problems.append(f"schema {doc.get('schema')!r}")
    config = doc.get("config", {})
    if config.get("family") != job.family or config.get("deletions") != list(job.labels):
        problems.append(f"config echo {config.get('family')} {config.get('deletions')}")
    n_max = int(job.flags[job.flags.index("--nmax") + 1])
    x_max = int(job.flags[job.flags.index("--xmax") + 1])
    try:
        problems.extend(check_table(job, doc, n_max, x_max))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed table: {exc!r}")
    return False, problems


def check_session(job, result: dict, n_max: int, x_max: int) -> tuple[bool, list[str]]:
    """(failed, problems) for one library-session request."""
    if "error" in result:
        return True, []
    failed = not (result["orthogonality_passed"] and result["chain_passed"])
    try:
        problems = check_table(job, result, n_max, x_max)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems = [f"malformed result: {exc!r}"]
    return failed, problems
