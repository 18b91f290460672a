"""Command-line front-end: configuration-driven verification and tabulation.

`mipoly verify` builds the configured system, runs the selected verification
suites (base, virtual, casoratian, chain, multi, limits), and writes a
machine-readable report; the exit code is 0 only if every check passes, 1 on
any identity failure, and 2 for an invalid configuration (with a diagnostic
naming the violated condition).  A suite whose construction raises an
ArithmeticError reports one failing check, `construction`, with the message
as its witness.  `mipoly tabulate` emits the exact data of the configured
system: denominator and eigenpolynomial coefficients, energies, norm
constants, and weight values.

All rationals are serialized as decimal-free "p/q" strings, in full (a
run lifts CPython's int-to-string digit limit and restores it on return);
certified irrational quantities appear as exact enclosure endpoints.  Output is
byte-deterministic for identical configurations: fixed suite order, sorted
JSON keys, no timestamps.

The limits suite depends only on the family (the limit statements replace
the configured parameter values by q-powers or a symbolic c), so it runs a
canonical integer/rational exponent set for the configured family.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from fractions import Fraction

from .casoratian import verify_identities
from .chain import chain_verify
from .families import FAMILIES, verify_difference_equation, verify_shift_relations
from .limits import q_limit_numeric, verify_meixner_limits, verify_q_limits
from .multi import (
    _validate_labels,
    system,
    verify_eigen_equation,
    verify_multi_structure,
    verify_orthogonality,
    verify_shape_invariance,
    verify_special_identities,
)
from .report import Report
from .series import DEFAULT_EPS, Interval
from .virtual import index_set, positivity_certificate, verify_linear_relation

SUITES = ("base", "virtual", "casoratian", "chain", "multi", "limits")

# Ceilings on the size of a run, checked before anything is built.  Every
# configuration the README, the tests and the benchmark use lies below them
# (the largest: --nmax 10 --xmax 40 and ell_D = 48 for M D = {3,6,...,18}).
NMAX_CEILING = 20
XMAX_CEILING = 200
ELL_CEILING = 64


class ConfigError(ValueError):
    """Invalid run configuration; the message names the violated condition."""


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"invalid rational {text!r} (expected p/q)") from None


_ENCLOSURE_DEN = DEFAULT_EPS.denominator


def _enclosure(v: Interval) -> tuple[Fraction, Fraction]:
    """Outward-round enclosure endpoints to the denominator of DEFAULT_EPS,
    the enclosure precision.

    The certified endpoints are exact rationals whose numerators can run to
    thousands of digits (partial products of infinite q-products); widening
    the enclosure outward preserves the containment guarantee while keeping
    the serialized report readable and byte-deterministic.
    """
    lo = Fraction(v.lo.numerator * _ENCLOSURE_DEN // v.lo.denominator, _ENCLOSURE_DEN)
    hi = Fraction(-((-v.hi.numerator * _ENCLOSURE_DEN) // v.hi.denominator), _ENCLOSURE_DEN)
    return lo, hi


def _scalar(v) -> str | dict:
    """An exact scalar as its "p/q" string, or a certified enclosure of
    positive width as its outward-rounded endpoints {"lo": ..., "hi": ...};
    JSON writes the object and CSV writes "lo..hi"."""
    if not isinstance(v, Interval):
        return str(v)
    if v.lo == v.hi:
        return str(v.lo)
    lo, hi = _enclosure(v)
    return {"lo": str(lo), "hi": str(hi)}


def build_config(args: argparse.Namespace) -> dict:
    """Parse and validate; raises ConfigError with a diagnostic on bad input."""
    family = args.family
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r} (choose from {', '.join(FAMILIES)})")
    names = FAMILIES[family].param_names
    raw = [part for part in args.params.split(",") if part.strip()]
    if len(raw) != len(names):
        raise ConfigError(
            f"family {family} requires {len(names)} parameters ({', '.join(names)}), got {len(raw)}"
        )
    values = [_fraction(part) for part in raw]
    try:
        p = FAMILIES[family](*values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    deletions_text = args.deletions.strip()
    try:
        deletions = tuple(int(part) for part in deletions_text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"invalid deletion list {args.deletions!r} (expected integers)") from None
    ell = sum(deletions) - len(deletions) * (len(deletions) - 1) // 2
    if ell > ELL_CEILING:
        raise ConfigError(f"ell_D {ell} of labels {list(deletions)} exceeds the ceiling {ELL_CEILING}")
    try:
        deletions = _validate_labels(p, deletions)
        if any(d == 0 for d in deletions):
            raise ValueError("labels must be >= 1")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    suites = ()
    if hasattr(args, "suite"):  # a verify flag: tabulate runs no suite
        suites = tuple(part.strip() for part in args.suite.split(",") if part.strip())
        if not suites:
            raise ConfigError(f"no suite selected (choose from {', '.join(SUITES)})")
        for name in suites:
            if name not in SUITES:
                raise ConfigError(f"unknown suite {name!r} (choose from {', '.join(SUITES)})")
    if args.nmax < 0 or args.xmax < 0:
        raise ConfigError("nmax and xmax must be nonnegative")
    if args.nmax > NMAX_CEILING:
        raise ConfigError(f"nmax {args.nmax} exceeds the ceiling {NMAX_CEILING}")
    if args.xmax > XMAX_CEILING:
        raise ConfigError(f"xmax {args.xmax} exceeds the ceiling {XMAX_CEILING}")
    echo = {
        "family": family,
        "parameters": {name: str(v) for name, v in zip(names, values)},
        "deletions": list(deletions),
        "n_max": args.nmax,
        "x_max": args.xmax,
    }
    rel_tol = None
    if hasattr(args, "rtol"):  # a verify flag: tabulate sums no orthogonality
        rel_tol = _fraction(args.rtol)
        if not rel_tol > 0:
            raise ConfigError("rtol must be positive")
        echo["rel_tol"] = str(rel_tol)
    return {
        "family": family,
        "p": p,
        "deletions": deletions,
        "n_max": args.nmax,
        "x_max": args.xmax,
        "rel_tol": rel_tol,
        "suites": suites,
        "format": args.format,
        "echo": echo,
    }


# -- verify ------------------------------------------------------------------------


def _suite_reports(cfg: dict, suite: str) -> list[Report]:
    p, deletions = cfg["p"], cfg["deletions"]
    n_max, x_max, rel_tol = cfg["n_max"], cfg["x_max"], cfg["rel_tol"]
    if suite == "base":
        return [
            verify_difference_equation(p, n_max, x_max),
            verify_shift_relations(p, n_max, x_max),
        ]
    if suite == "virtual":
        reports = [verify_linear_relation(p, x_max)]
        for v in index_set(p, 8):
            reports.append(positivity_certificate(p, v, x_max))
        return reports
    if suite == "casoratian":
        return [verify_identities()]
    if suite == "chain":
        return [chain_verify(p, deletions, n_max=min(n_max, 3), x_max=min(x_max, 12))]
    if suite == "multi":
        return [
            verify_multi_structure(p, deletions, n_max, x_max),
            verify_eigen_equation(p, deletions, n_max, x_max),
            verify_shape_invariance(p, deletions, min(n_max, 3), min(x_max, 12)),
            verify_special_identities(p, deletions, min(n_max, 3)),
            verify_orthogonality(p, deletions, rel_tol),
        ]
    if suite == "limits":
        if cfg["family"] == "M":
            return [verify_meixner_limits(Fraction(3, 2))]
        if cfg["family"] == "lqJ":
            return [verify_q_limits("lqJ", 4, 5), q_limit_numeric("lqJ", 4, 5)]
        return [verify_q_limits("lqL", 4), q_limit_numeric("lqL", 4)]
    raise ConfigError(f"unknown suite {suite!r}")


def run_verify(cfg: dict) -> tuple[int, str]:
    suites = []
    all_passed = True
    total_checks = 0
    for name in SUITES:
        if name not in cfg["suites"]:
            continue
        try:
            reports = _suite_reports(cfg, name)
        except ArithmeticError as exc:
            # a construction defect fails this suite's one check; the other suites still run
            failed = Report(f"{name}[{cfg['p']!r}]", "construction of the suite's objects")
            failed.add("construction", False, str(exc))
            reports = [failed]
        for rep in reports:
            d = rep.to_dict()
            d["suite"] = name
            suites.append(d)
            total_checks += d["checked"]
            all_passed = all_passed and rep.passed
    summary = {
        "suites": len(suites),
        "checks": total_checks,
        "failed_suites": sum(1 for d in suites if d["status"] != "pass"),
        "status": "pass" if all_passed else "fail",
    }
    if cfg["format"] == "json":
        doc = {"schema": "mipoly-report/1", "config": cfg["echo"], "suites": suites, "summary": summary}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "id", "identity", "status", "checked", "witnesses"])
        for d in suites:
            notes = "; ".join(
                w["name"] + (f" [{w['witness']}]" if "witness" in w else "")
                for w in d["witnesses"]
            )
            writer.writerow(
                [d["suite"], d["id"], d["identity"], d["status"], d["checked"], notes]
            )
        writer.writerow(["summary", "", "", summary["status"], summary["checks"], ""])
        text = buf.getvalue()
    return (0 if all_passed else 1), text


# -- tabulate ----------------------------------------------------------------------


def run_tabulate(cfg: dict) -> str:
    p, deletions = cfg["p"], cfg["deletions"]
    n_max, x_max = cfg["n_max"], cfg["x_max"]
    sys_obj = system(p, deletions)
    xi = sys_obj.Xi()
    levels = []
    for n in range(n_max + 1):
        pn = sys_obj.multi_poly(n)
        levels.append(
            {
                "n": n,
                "coefficients": [str(c) for c in pn.coeffs],
                "energy": str(p.energy(n)),
                "dn_sq": _scalar(p.dn_sq(n)),
                "dt_sq": str(sys_obj.dt_sq(n)),
            }
        )
    weights = [{"x": x, "value": str(sys_obj.weight(x))} for x in range(x_max + 1)]
    if cfg["format"] == "json":
        doc = {
            "schema": "mipoly-table/1",
            "config": cfg["echo"],
            "denominator": {
                "coefficients": [str(c) for c in xi.coeffs],
                "degree": sys_obj.ell,
            },
            "levels": levels,
            "weights": weights,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["record", "n", "k_or_x", "value"])
    for k, c in enumerate(xi.coeffs):
        writer.writerow(["denominator_coeff", "", k, str(c)])
    for lv in levels:
        for k, c in enumerate(lv["coefficients"]):
            writer.writerow(["poly_coeff", lv["n"], k, c])
        writer.writerow(["energy", lv["n"], "", lv["energy"]])
        dn = lv["dn_sq"]
        writer.writerow(["dn_sq", lv["n"], "", dn if isinstance(dn, str) else f"{dn['lo']}..{dn['hi']}"])
        writer.writerow(["dt_sq", lv["n"], "", lv["dt_sq"]])
    for w in weights:
        writer.writerow(["weight", "", w["x"], w["value"]])
    return buf.getvalue()


# -- entry point --------------------------------------------------------------------


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", default="M", help="M, lqJ, or lqL (default M)")
    sub.add_argument(
        "--params",
        default="1,1/2",
        help='comma-separated exact rationals, e.g. "1,1/2" for M or "1/32,1/3,1/2" for lqJ',
    )
    sub.add_argument("--deletions", default="1", help='comma-separated labels, e.g. "1,2" (may be empty)')
    sub.add_argument("--nmax", type=int, default=3, help="largest polynomial level (default 3)")
    sub.add_argument("--xmax", type=int, default=12, help="largest lattice point (default 12)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def _open_out(path: str | None):
    """The output stream: stdout, or the --out file, opened before any suite
    runs so that an unwritable path is refused as a configuration error."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc.strerror}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mipoly",
        description="Exact verification and tabulation of multi-indexed orthogonal polynomial systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    verify = commands.add_parser("verify", help="run verification suites")
    _add_common_flags(verify)
    verify.add_argument("--suite", default=",".join(SUITES), help=f"comma-separated: {', '.join(SUITES)}")
    verify.add_argument(
        "--rtol",
        default="1/100000000000000000000",
        help="certified relative tolerance for orthogonality sums (default 1/10^20)",
    )
    _add_common_flags(commands.add_parser("tabulate", help="emit exact system data"))
    args = parser.parse_args(argv)
    # Exact values outgrow CPython's int-to-str limit (4 300 digits by
    # default) inside the ceilings: the lqL weight passes it near x = 165.
    # The run lifts it and restores it; builds without the limit skip both.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        cfg = build_config(args)
        with _open_out(args.out) as out:
            if args.command == "verify":
                code, text = run_verify(cfg)
            else:
                code, text = 0, run_tabulate(cfg)
            out.write(text)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
