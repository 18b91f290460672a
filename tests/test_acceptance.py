"""Acceptance gate: every advertised guarantee, one printed line per criterion.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines as they
print).  The default verification matrix is two Meixner parameter sets, two
little q-Jacobi sets, one little q-Laguerre set, and six deletion label sets;
every check below is exact (zero tolerance) unless a certified enclosure
tolerance is stated.
"""

import time
from fractions import Fraction as F

from mipoly.chain import chain_verify
from mipoly.families import (
    LittleQJacobi,
    LittleQLaguerre,
    Meixner,
    verify_difference_equation,
    verify_shift_relations,
)
from mipoly.limits import verify_meixner_limits, verify_q_limits
from mipoly.multi import (
    orthogonality_sum,
    system,
    verify_eigen_equation,
    verify_multi_structure,
    verify_special_identities,
)
from mipoly.virtual import index_set, positivity_certificate, verify_linear_relation
from mipoly.casoratian import verify_identities

PARAMETER_SETS = (
    Meixner(1, F(1, 2)),
    Meixner(F(5, 2), F(1, 3)),
    LittleQJacobi(F(1, 32), F(1, 3), F(1, 2)),
    LittleQJacobi(F(1, 32), F(-1, 2), F(1, 2)),
    LittleQLaguerre(F(1, 32), F(1, 2)),
)
LABEL_SETS = ((1,), (2,), (1, 2), (1, 3), (2, 4), (1, 2, 3))
MATRIX = [(p, d) for p in PARAMETER_SETS for d in LABEL_SETS]


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_difference_equation():
    start = time.time()
    ok = True
    for p in PARAMETER_SETS:
        rep = verify_difference_equation(p, n_max=8)
        ok = ok and rep.passed
    elapsed = time.time() - start
    _report(
        "criterion 1: difference equation exact for n<=8 and every x, all families",
        ok and elapsed < 30,
        f"{elapsed:.1f}s",
    )


def test_criterion_02_shifts_and_product_formula():
    ok = True
    for p in PARAMETER_SETS:
        rep = verify_shift_relations(p, n_max=6)
        ok = ok and rep.passed
    _report("criterion 2: shift relations and product formula exact for n<=6 and every x", ok)


def test_criterion_03_linear_relation():
    ok = True
    for p in PARAMETER_SETS:
        ok = ok and p.alpha() > 0 and p.alpha_prime() < 0
        rep = verify_linear_relation(p, x_max=40)
        ok = ok and rep.passed
    _report("criterion 3: twisted-potential linear relation exact for x<=40", ok)


def test_criterion_04_virtual_state_positivity():
    ok = True
    for p in PARAMETER_SETS:
        for v in index_set(p, 8):
            ok = ok and p.virtual_energy(v) < 0
            rep = positivity_certificate(p, v, x_max=100)
            ok = ok and rep.passed
    _report("criterion 4: xi_v > 0 on x<=100 and negative virtual energies", ok)


def test_criterion_05_casoratian_identities():
    rep = verify_identities()
    _report("criterion 5: determinant/Casoratian identities, 100 random trials", rep.passed)


def test_criterion_06_deletion_chains():
    ok = True
    for p, labels in MATRIX:
        rep = chain_verify(p, labels, n_max=3, x_max=12)
        ok = ok and rep.passed
    _report("criterion 6: step-by-step deletion chains exact over the matrix", ok)


def test_criterion_07_multi_indexed_structure():
    ok = True
    for p, labels in MATRIX:
        rep = verify_multi_structure(p, labels, n_max=3, x_max=40)
        ok = ok and rep.passed
        rep = verify_special_identities(p, labels, n_max=3)
        ok = ok and rep.passed
        xi = system(p, labels).Xi()
        ok = ok and all(xi(p.eta(x)) > 0 for x in range(101))
    _report(
        "criterion 7: multi-indexed structure, special identities, denominator > 0 on x<=100",
        ok,
    )


def test_criterion_08_eigen_equation():
    ok = True
    for p, labels in MATRIX:
        rep = verify_eigen_equation(p, labels, n_max=5, x_max=20)
        ok = ok and rep.passed
    _report("criterion 8: deformed eigen-equation residual zero for n<=5, x<=20", ok)


def test_criterion_09_orthogonality():
    start = time.time()
    res = orthogonality_sum(Meixner(1, F(1, 2)), (1,), 0, 0)
    ok = res.passed and res.target.midpoint == 2 and abs(res.partial_sum - 2) <= res.tail_bound
    for p, labels in MATRIX:
        for n, m in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
            r = orthogonality_sum(p, labels, n, m)
            ok = ok and r.passed
    elapsed = time.time() - start
    _report(
        "criterion 9: certified orthogonality at relative tolerance 1e-20",
        ok and elapsed < 120,
        f"{elapsed:.1f}s",
    )


def test_criterion_10_limits():
    ok = True
    for a in (F(0), F(3, 2)):
        rep = verify_meixner_limits(a)
        ok = ok and rep.passed
    for fam, al, be in (("lqJ", 4, 5), ("lqL", 4, None)):
        rep = verify_q_limits(fam, al, be)
        ok = ok and rep.passed
    _report(
        "criterion 10: exact c->1 limits; q->1 within 1e-6 at q=1-2^-14, rate in [0.4,0.6]",
        ok,
    )
