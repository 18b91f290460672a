"""The mutation matrix of the `multi` reports: every row can fail.

Each mutation spoils one value, or one polynomial coefficient, of a system
in a fresh store, and the test names the exact set of checks that
`mipoly verify --suite multi` then fails at the defaults (n_max 3, x_max
12), as "report: check".  Together the mutations fail every row of the
five reports, so none of them is a row that no defect can fail.  Value
mutations add 1/7 or negate; coefficient mutations add 10^-30 to the top
coefficient, too little to move a sign or to leave the orthogonality
tolerance (10^-20 relative), so the exact checks alone see it.
"""

import argparse
import json
from fractions import Fraction as F

import pytest

from mipoly import cli, multi
from mipoly.multi import MultiIndexedSystem, system
from mipoly.polynomials import Polynomial

SYSTEMS = {"M": ("M", "1,1/2"), "lqJ": ("lqJ", "1/32,1/3,1/2")}  # D = {1,2}
LEVELS = range(4)  # n = 0..n_max
TINY = F(1, 10**30)


def config(family, params):
    args = argparse.Namespace(
        family=family, params=params, deletions="1,2", nmax=3, xmax=12, suite="multi", format="json", out=None
    )
    return cli.build_config(args)


def _report(suite_id):
    """"multi.eigen-equation[...]" -> "eigen-equation"; a construction failure is "multi"."""
    return suite_id.split("[")[0].removeprefix("multi.")


def failing_checks(cfg):
    _, text = cli.run_verify(cfg)
    return {f"{_report(s['id'])}: {w['name']}" for s in json.loads(text)["suites"] for w in s["witnesses"]}


# -- mutations: each is f(monkeypatch, s, cfg), s the freshly stored system -------------


def at_point(name, change, *point, of=lambda s: s):
    """of(s).name(*args) changed by `change` at args == point, on that object only."""

    def mutate(monkeypatch, s, cfg):
        obj = of(s)
        original = getattr(obj, name)
        spoilt = lambda *args: change(original(*args)) if args == point else original(*args)
        monkeypatch.setattr(obj, name, spoilt)

    return mutate


def top_coefficient(key, of=lambda s: s):
    """Construct of(s)'s polynomial memo `key`, then add TINY to its top coefficient."""

    def mutate(monkeypatch, s, cfg):
        obj = of(s)
        poly = getattr(obj, key[0])(*key[1:])
        obj._cache[key] = Polynomial(poly.coeffs[:-1] + (poly.coeffs[-1] + TINY,))

    return mutate


def base_top_coefficient(n):
    """The base P_n's top coefficient, after the suite has constructed every
    system from the sound P_n."""

    def mutate(monkeypatch, s, cfg):
        cli._suite_reports(cfg, "multi")
        top_coefficient(("poly", n), of=lambda s: s.p)(monkeypatch, s, cfg)

    return mutate


def doubled_C_D(monkeypatch, s, cfg):
    # before construction, which is the only reader of C_D
    original = MultiIndexedSystem.C_D
    monkeypatch.setattr(MultiIndexedSystem, "C_D", lambda self: 2 * original(self))


def tilde_B_at_3(monkeypatch, s, cfg):
    tilde = s.p.tilde_shifted(s.M)
    original = type(tilde).B
    spoilt = lambda self, x: original(self, x) + (F(1, 7) if self is tilde and x == 3 else 0)
    monkeypatch.setattr(type(tilde), "B", spoilt)


plus = lambda v: v + F(1, 7)
negated = lambda v: -v
shifted = lambda s: s.shifted_system()
label_0 = lambda s: system(s.p, s.labels[:-1] + (0,))

MUTATIONS = {
    "Xi_D(3) + 1/7": at_point("Xi_at", plus, 3),
    "Xi_D(3) negated": at_point("Xi_at", negated, 3),
    "P_D,0(3) + 1/7": at_point("multi_poly_at", plus, 0, 3),
    "P_D,2(3) + 1/7": at_point("multi_poly_at", plus, 2, 3),
    "P_D,1(3) + 1/7 at lambda + delta": at_point("multi_poly_at", plus, 1, 3, of=shifted),
    "C_D doubled": doubled_C_D,
    "tilde-shifted B(3) + 1/7": tilde_B_at_3,
    "Xi_D top coefficient": top_coefficient(("Xi",)),
    "label-0 Xi_D top coefficient": top_coefficient(("Xi",), of=label_0),
    "weight(0) + 1/7": at_point("weight", plus, 0),
}
for n in LEVELS:
    MUTATIONS[f"P_D,{n} top coefficient"] = top_coefficient(("multi_poly", n))
    MUTATIONS[f"P_D,{n}(12) negated"] = at_point("multi_poly_at", negated, n, 12)
    MUTATIONS[f"base P_{n} top coefficient"] = base_top_coefficient(n)
    MUTATIONS[f"label-0 P_D,{n} top coefficient"] = top_coefficient(("multi_poly", n), of=label_0)


# -- what each mutation fails, the same for both systems ------------------------------------


def eigen(*ns):
    return {f"eigen-equation: n={n}" for n in ns}


def shifts(*ns, ways=("forward", "backward")):
    return {f"shape-invariance: {way} n={n}" for n in ns for way in ways}


def orthogonality(*pairs):
    return {f"orthogonality: (n,m)=({n},{m})" for n, m in pairs}


ALL_PAIRS = ((0, 0), (0, 1), (1, 1))
DIAGONAL = "shape-invariance: operator shape-invariance diagonal"
OFF_DIAGONAL = "shape-invariance: operator shape-invariance off-diagonal"
XI = eigen(1, 2, 3) | shifts(1, 2, 3) | {DIAGONAL}  # the exact checks that read Xi_D

EXPECTED = {
    # Xi_D cancels from the off-diagonal product B_D(x+1) D_D(x+1), and from
    # the n = 0 eigen-equation: there P_D,0, Xi_D at lambda + delta, zeroes
    # both of its differences
    "Xi_D(3) + 1/7": XI | orthogonality(*ALL_PAIRS),
    "Xi_D(3) negated": XI
    | orthogonality(*ALL_PAIRS)
    | {"shape-invariance: B_D > 0", "shape-invariance: D_D sign", "structure: Xi > 0 on 0..12"},
    "P_D,0(3) + 1/7": eigen(0) | orthogonality((0, 0), (0, 1)),
    "P_D,2(3) + 1/7": eigen(2) | shifts(2),
    "P_D,1(3) + 1/7 at lambda + delta": shifts(2),
    "C_D doubled": {"multi: construction"},
    # the forward shift's coefficients read B~ at 0 only
    "tilde-shifted B(3) + 1/7": eigen(1, 2, 3)
    | shifts(1, 2, 3, ways=("backward",))
    | orthogonality(*ALL_PAIRS)
    | {DIAGONAL, OFF_DIAGONAL},
    "Xi_D top coefficient": XI | {"structure: Xi leading coefficient"},
    "label-0 Xi_D top coefficient": {"special-identities: label-0 denominator reduction"},
    "weight(0) + 1/7": orthogonality(*ALL_PAIRS),
}
for n in LEVELS:
    EXPECTED[f"P_D,{n} top coefficient"] = (
        eigen(n)
        | shifts(*{n} - {0})
        | {f"structure: P_D,{n} leading coefficient"}
        | ({"special-identities: P_D,0 equals shifted denominator"} if n == 0 else set())
    )
    # a squared value keeps its sign, so only (0,1) reads the negation
    EXPECTED[f"P_D,{n}(12) negated"] = (
        eigen(n)
        | shifts(*{n} - {0})
        | orthogonality(*(((0, 1),) if n <= 1 else ()))
        | {f"structure: P_D,{n} node count = {n}"}
    )
    EXPECTED[f"base P_{n} top coefficient"] = {f"structure: P_{n} base leading coefficient"}
    EXPECTED[f"label-0 P_D,{n} top coefficient"] = {f"special-identities: label-0 reduction n={n}"}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name", SYSTEMS)
def test_each_mutation_fails_exactly_its_checks(monkeypatch, name, mutation):
    monkeypatch.setattr(multi, "_SYSTEMS", {})
    cfg = config(*SYSTEMS[name])
    MUTATIONS[mutation](monkeypatch, system(cfg["p"], cfg["deletions"]), cfg)
    assert failing_checks(cfg) == EXPECTED[mutation]


@pytest.mark.parametrize("name", SYSTEMS)
def test_every_row_fails_under_some_mutation(monkeypatch, name):
    monkeypatch.setattr(multi, "_SYSTEMS", {})
    cfg = config(*SYSTEMS[name])
    reports = cli._suite_reports(cfg, "multi")
    assert all(rep.passed for rep in reports)
    rows = {f"{_report(rep.suite)}: {check.name}" for rep in reports for check in rep.checks}
    caught = set().union(*EXPECTED.values())
    assert rows == caught - {"multi: construction"}
