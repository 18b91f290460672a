"""The mutation matrix of the `multi` and `chain` reports: every row can fail.

Each mutation spoils one value, or one polynomial coefficient, of a system
in a fresh store, and the test names the exact set of checks that
`mipoly verify --suite multi` (or `--suite chain`) then fails at the
defaults (n_max 3, x_max 12), as "report: check".  Together the mutations
fail every row of the five `multi` reports and of the chain report, so none
of them is a row that no defect can fail.  Value mutations add 1/7 or
negate; coefficient mutations add 10^-30 to the top coefficient, too little
to move a sign or to leave the orthogonality tolerance (10^-20 relative),
so the exact checks alone see it.
"""

import argparse
import json
from fractions import Fraction as F

import pytest

from mipoly import chain, cli, multi
from mipoly.multi import MultiIndexedSystem, system
from mipoly.polynomials import Polynomial

SYSTEMS = {"M": ("M", "1,1/2"), "lqJ": ("lqJ", "1/32,1/3,1/2")}  # D = {1,2}
LEVELS = range(4)  # n = 0..n_max
TINY = F(1, 10**30)


def config(family, params, suite="multi"):
    args = argparse.Namespace(
        family=family, params=params, deletions="1,2", nmax=3, xmax=12, suite=suite, format="json", out=None
    )
    return cli.build_config(args)


def _report(suite_id):
    """"multi.eigen-equation[...]" -> "eigen-equation", "chain[...]" -> "chain"; a
    construction failure is "multi" or "chain"."""
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


# -- the chain report: D = {1,2} is deleted in the order 1, 2 -----------------------------
#
# Level s reads w_s = W[xi_1..xi_s], w''_{s,n} = W[xi_1..xi_s, nu P_n] and the
# virtual columns w'_{s,v} = W[xi_1..xi_s, xi_v]; so w'_{0,1} is w_1 and w'_{1,2}
# is w_2.  Stored values are spoilt after a first sound run, so construction,
# which reads C_D and dt_sq to normalize Xi_D and P_D,n, has already passed.


def grid_at_3(change, of):
    """The lattice table of(s) changed by `change` at x = 3."""

    def mutate(monkeypatch, s, cfg):
        table = of(s)
        table.cache[3] = change(table.fn(3))

    return mutate


def stored(key, change):
    """The final system's memo `key` changed by `change` after a sound run."""

    def mutate(monkeypatch, s, cfg):
        cli._suite_reports(cfg, "chain")
        s._cache[key] = change(s._cache[key])

    return mutate


def twisted_B_at_3(monkeypatch, s, cfg):
    twisted = s.p.twisted()
    original = type(twisted).B
    spoilt = lambda self, x: original(self, x) + (F(1, 7) if self is twisted and x == 3 else 0)
    monkeypatch.setattr(type(twisted), "B", spoilt)


negated_pair = lambda v: (-v[0], v[1])
w_grid = lambda *labels: lambda s: system(s.p, labels).w_grid  # w_s, or w'_{s,v} of the labels (d_1..d_s, v)

CHAIN_MUTATIONS = {
    "w_1(3) negated": grid_at_3(negated, w_grid(1)),
    "w_2(3) negated": grid_at_3(negated, w_grid(1, 2)),
    "w''_1,0(3) negated": grid_at_3(negated, lambda s: system(s.p, (1,)).wpp_grid(0)),
    "w''_2,0(3) negated": grid_at_3(negated, lambda s: s.wpp_grid(0)),
    "w''_2,2(3) + 1/7": grid_at_3(plus, lambda s: s.wpp_grid(2)),
    "twisted B(3) + 1/7": twisted_B_at_3,
    "Bhat_1(3) negated": grid_at_3(negated_pair, lambda s: chain._level(system(s.p, (1,))).Bhat),
    "B_std_2(3) negated": grid_at_3(negated_pair, lambda s: chain._level(s).B_std),
    "stored C_D doubled": stored(("C_D",), lambda v: 2 * v),
}
for s, v in ((1, 3), (2, 3), (2, 4)):
    CHAIN_MUTATIONS[f"w'_{s},{v}(3) negated"] = grid_at_3(negated, w_grid(*(1, 2)[:s], v))
for n in LEVELS:
    CHAIN_MUTATIONS[f"stored dt_sq({n}) doubled"] = stored(("dt_sq", n), lambda v: 2 * v)


def rows(*names):
    return {f"chain: {name}" for name in names}


def eigen_identities(s, virtual, ns=(1, 2, 3)):
    """Level s's eigen-identities: the virtual companions, and w''_{s,n} for n >= 1."""
    return rows(*[f"virtual eigen-identity s={s},v={v}" for v in virtual], *[f"eigen eigen-identity s={s},n={n}" for n in ns])


def between(s, ns=LEVELS, virtual=(), kinds=("nesting", "contiguity")):
    """The nesting and contiguity identities from level s to s + 1."""
    names = [f"{kind} (eigen) s={s},n={n}" for n in ns for kind in kinds]
    return rows(*names, *[f"{kind} (virtual) s={s},v={v}" for v in virtual for kind in kinds])


def signs(*names):
    """Definite-sign rows: "w_1" -> "w_1 definite sign"; potentials by their own rows."""
    out = set()
    for name in names:
        if name.startswith(("Bhat", "B_std")):
            out |= rows(f"{name} > 0")
        elif name.startswith(("Dhat", "D_std")):
            out |= rows(f"{name} sign")
        else:
            out |= rows(f"{name} definite sign")
    return out


def chain_expected(name):
    """The failing rows of each chain mutation.  The level companions are
    v = 1..3, 2..4 and 3..5, but the lqJ point admits labels up to 4; the
    nesting and contiguity companions are v = 2, 3 and v = 3, 4."""
    virtual = ((1, 2, 3), (2, 3, 4), (3, 4, 5) if name == "M" else (3, 4))
    every_eigen = set().union(*(eigen_identities(s, vs) for s, vs in enumerate(virtual)))
    every_between = between(0, virtual=(2, 3)) | between(1, virtual=(3, 4))
    contiguity = between(0, virtual=(2, 3), kinds=("contiguity",)) | between(1, virtual=(3, 4), kinds=("contiguity",))
    # w_1(3) meets the level-0 eigen columns in contiguity at x = 3 only as a
    # factor of nu(3) P_n(3), and Meixner(1, 1/2) has P_3(3) = 0
    p3_vanishes = between(0, ns=(3,), kinds=("contiguity",)) if name == "M" else set()
    squared = rows(*[f"squared eigenvector match n={n}" for n in LEVELS])
    out = {
        # every identity that reads w_1: level 1's eigen table reads it as Xi,
        # w'_{0,1} is w_1, and w_1 cancels from every off-diagonal product
        "w_1(3) negated": eigen_identities(0, (1,), ns=())
        | eigen_identities(1, virtual[1])
        | (every_between - p3_vanishes)
        | rows("re-factorization s=0 diagonal", "re-factorization s=1 diagonal")
        | rows("standard form s=1 diagonal", "standard form s=2 diagonal")
        | signs("w_1", "Bhat_1", "Dhat_1", "B_std_1", "D_std_1", "Bhat_2", "Dhat_2"),
        # w_2 is also w'_{1,2}, and the final level's w_M of the eigenvectors
        "w_2(3) negated": eigen_identities(1, (2,), ns=())
        | eigen_identities(2, virtual[2])
        | between(0, ns=(), virtual=(2,))
        | between(1, virtual=(3, 4))
        | rows("re-factorization s=1 diagonal", "standard form s=2 diagonal", "final potentials match denominator form")
        | squared
        | signs("w_2", "w'_1,2", "Bhat_2", "Dhat_2", "B_std_2", "D_std_2"),
        # a spoilt w''_{s,0} fails standard form s: it is Xi' of level s
        "w''_1,0(3) negated": eigen_identities(1, virtual[1])
        | between(0, ns=(0,))
        | between(1, ns=(0,))
        | rows("standard form s=1 diagonal")
        | signs("w''_1,0", "B_std_1", "D_std_1"),
        # the squared eigenvector match reads w''_{2,0} squared
        "w''_2,0(3) negated": eigen_identities(2, virtual[2])
        | between(1, ns=(0,))
        | rows("standard form s=2 diagonal", "final potentials match denominator form")
        | signs("w''_2,0", "B_std_2", "D_std_2"),
        "w''_2,2(3) + 1/7": eigen_identities(2, (), ns=(2,))
        | between(1, ns=(2,))
        | rows("squared eigenvector match n=2"),
        # every table built on aB' = alpha B'(x): the eigen and contiguity
        # coefficients and the potentials; the base system reads B, not B'
        "twisted B(3) + 1/7": every_eigen
        | contiguity
        | rows("re-factorization s=0 product", "re-factorization s=0 diagonal", "re-factorization s=1 diagonal")
        | rows("standard form s=0 is the base system", "standard form s=1 diagonal", "standard form s=2 diagonal")
        | rows("final potentials match denominator form")
        | squared,
        # a potential table itself: the products compare two codings of it
        "Bhat_1(3) negated": rows(*[f"re-factorization s={s} {part}" for s in (0, 1) for part in ("product", "diagonal")])
        | rows("standard form s=1 product", "standard form s=1 diagonal")
        | signs("Bhat_1"),
        "B_std_2(3) negated": rows("standard form s=2 product", "standard form s=2 diagonal")
        | rows("final potentials match denominator form")
        | signs("B_std_2"),
        # C_Dn/C_D cancels C_D from the norm bookkeeping; only the swap reads it
        "stored C_D doubled": rows("order independence, swap 1,2"),
    }
    for s, v in ((1, 3), (2, 3), (2, 4)):
        upper = between(s - 1, ns=(), virtual=(v,))
        lower = between(s, ns=(), virtual=(v,)) if s < 2 else set()
        out[f"w'_{s},{v}(3) negated"] = eigen_identities(s, (v,), ns=()) | upper | lower | signs(f"w'_{s},{v}")
    for n in LEVELS:
        out[f"stored dt_sq({n}) doubled"] = rows(
            f"norm bookkeeping n={n}", f"squared eigenvector match n={n}", "order independence, swap 1,2"
        )
    return out


@pytest.mark.parametrize("mutation", CHAIN_MUTATIONS)
@pytest.mark.parametrize("name", SYSTEMS)
def test_each_chain_mutation_fails_exactly_its_checks(monkeypatch, name, mutation):
    monkeypatch.setattr(multi, "_SYSTEMS", {})
    cfg = config(*SYSTEMS[name], suite="chain")
    CHAIN_MUTATIONS[mutation](monkeypatch, system(cfg["p"], cfg["deletions"]), cfg)
    assert failing_checks(cfg) == chain_expected(name)[mutation]


@pytest.mark.parametrize("name", SYSTEMS)
def test_every_chain_row_fails_under_some_mutation(monkeypatch, name):
    monkeypatch.setattr(multi, "_SYSTEMS", {})
    cfg = config(*SYSTEMS[name], suite="chain")
    (rep,) = cli._suite_reports(cfg, "chain")
    assert rep.passed
    assert {f"chain: {check.name}" for check in rep.checks} == set().union(*chain_expected(name).values())
