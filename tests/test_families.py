"""Base lattice families: potentials, eigenpolynomials, norms, dualities."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.families import (
    FAMILIES,
    _QFamily,
    LittleQJacobi,
    LittleQLaguerre,
    Meixner,
    backward_shift_apply,
    dn_sq,
    energy,
    eta,
    forward_shift_apply,
    phi0_sq,
    polynomial_coeffs,
    polynomial_value,
    potential_B,
    potential_D,
    rodrigues_vector,
    verify_difference_equation,
    verify_shift_relations,
)
from mipoly.polynomials import interpolate
from mipoly.ratfunc import RationalFunction

M = Meixner(1, F(1, 2))
M2 = Meixner(F(5, 2), F(1, 3))
QJ = LittleQJacobi(F(1, 32), F(1, 3), F(1, 2))
QJN = LittleQJacobi(F(1, 32), F(-1, 2), F(1, 2))
QL = LittleQLaguerre(F(1, 32), F(1, 2))
ALL = (M, M2, QJ, QJN, QL)


def test_meixner_frozen_values():
    assert M.B(3) == 2 and M.D(3) == 3
    assert M.poly(1).coeffs == (F(1), F(-1))
    assert M.poly_value(1, 2) == -1
    assert [M.energy(n) for n in range(4)] == [0, F(1, 2), 1, F(3, 2)]
    assert M.dn_sq(0) == F(1, 2) and M.dn_sq(1) == F(1, 4)
    assert M.eta(7) == 7 and M.kappa == 1


def test_q_frozen_values():
    ql = LittleQLaguerre(F(1, 4), F(1, 2))
    assert ql.B(2) == 1 and ql.D(2) == 3
    assert ql.leading_coefficient(1) == -8
    assert QJ.energy(1) == F(383, 384)  # (1/q - 1)(1 - a b q^2)
    assert QJ.kappa == 2 and QL.kappa == 2
    assert QJ.eta(2) == F(3, 4)  # 1 - q^x


def test_boundary_and_positivity():
    for p in ALL:
        assert p.D(0) == 0
        for x in range(1, 12):
            assert p.B(x) > 0 and p.D(x) > 0
        assert p.B(0) > 0
        for n in range(1, 6):
            assert p.energy(n) > p.energy(n - 1)


def test_unit_normalization_and_degree():
    for p in ALL:
        for n in range(6):
            poly = p.poly(n)
            assert poly.constant_term == 1  # value 1 at x = 0 (eta(0) = 0)
            assert poly.degree == n
            assert poly.leading_coefficient == p.leading_coefficient(n)


def test_meixner_self_duality():
    for n in range(5):
        for x in range(5):
            assert M.poly_value(n, x) == M.poly_value_dual(n, x)
            assert M2.poly_value(n, x) == M2.poly_value_dual(n, x)


def test_q_two_route_values_agree():
    for p in (QJ, QJN, QL):
        for n in range(5):
            for x in range(5):
                w = p.q**x
                assert p.poly_value_w(n, w) == p.poly_value_alt(n, w)
                assert p.poly_value(n, x) == p.poly_value_w(n, w)


def test_phi0_sq_matches_potential_ratio_recursion():
    for p in ALL:
        assert p.phi0_sq(0) == 1
        for x in range(6):
            assert p.phi0_sq(x + 1) == p.phi0_sq(x) * p.B(x) / p.D(x + 1)


def test_base_orthogonality_small():
    # direct finite-sum cross-check of the norm constants for Meixner
    from mipoly.series import as_interval

    tol = F(1, 10**12)
    for p in (M, M2):
        for n in range(3):
            for m in range(3):
                s = sum(p.phi0_sq(x) * p.poly_value(n, x) * p.poly_value(m, x) for x in range(200))
                if n == m:
                    t = 1 / as_interval(p.dn_sq(n))
                    assert t.lo - tol <= s <= t.hi + tol
                else:
                    assert abs(s) < tol


def test_shift_operators_lower_and_raise():
    for p in ALL:
        up = p.shifted(1)
        for n in range(1, 4):
            for x in range(5):
                fn = lambda y: p.poly_value(n, y)
                assert forward_shift_apply(p, fn, x) == p.energy(n) * up.poly_value(n - 1, x)
                gn = lambda y: up.poly_value(n - 1, y)
                assert backward_shift_apply(p, gn, x) == p.poly_value(n, x)


def test_rodrigues_vector_matches_polynomials():
    for p in (M, QL):
        for n in range(4):
            vec = rodrigues_vector(p, n, 6)
            assert vec == [p.poly_value(n, x) for x in range(7)]


def test_validation_messages():
    with pytest.raises(ValueError, match="requires beta > 0"):
        Meixner(0, F(1, 2))
    with pytest.raises(ValueError, match="requires 0 < c < 1"):
        Meixner(1, 2)
    with pytest.raises(ValueError, match="requires 0 < q < 1"):
        LittleQLaguerre(F(1, 4), 2)
    with pytest.raises(ValueError, match="requires 0 < a < 1/q"):
        LittleQLaguerre(3, F(1, 2))
    with pytest.raises(ValueError, match="requires b < 1/q"):
        LittleQJacobi(F(1, 4), 3, F(1, 2))
    with pytest.raises(ValueError, match="degenerate parameters"):
        LittleQJacobi(F(1, 4), F(1, 2), F(1, 2))  # a = b q


def test_module_level_accessors_delegate():
    assert potential_B(M, 3) == M.B(3)
    assert potential_D(M, 3) == M.D(3)
    assert energy(QJ, 1) == QJ.energy(1)
    assert eta(QL, 2) == QL.eta(2)
    assert phi0_sq(M, 2) == M.phi0_sq(2)
    assert polynomial_value(M, 1, 2) == -1
    assert polynomial_coeffs(M, 1) == M.poly(1)
    assert dn_sq(M, 1) == F(1, 4)


def test_difference_equation_and_shifts_reports():
    for p in ALL:
        rep = verify_difference_equation(p, 4, 10)
        assert rep.passed, rep.failures()[:3]
        rep = verify_shift_relations(p, 4, 10)
        assert rep.passed, rep.failures()[:3]


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=12))
@settings(max_examples=40, deadline=None)
def test_difference_equation_pointwise_hypothesis(n, x):
    p = M2
    pv = lambda y: p.poly_value(n, y)
    # D(0) = 0, so the x = 0 case needs no boundary treatment
    lhs = p.B(x) * (pv(x) - pv(x + 1)) + p.D(x) * (pv(x) - pv(x - 1))
    assert lhs == p.energy(n) * pv(x)


def interpolated_series(p, n):
    # P_n through the series values at x = 0..n
    return interpolate([(p.eta(x), p.poly_value(n, x)) for x in range(n + 1)])


@pytest.mark.parametrize(
    "p",
    [
        M,
        M2,
        Meixner(F(3, 2), RationalFunction.variable(), validate=False),  # symbolic c
        QJ,
        LittleQJacobi(F(1, 32), 0, F(1, 2)),
        QJN,
        QL,
        LittleQJacobi(F(1, 1048576), F(1, 3), F(1, 2)),
    ],
    ids=repr,
)
def test_poly_newton_form_matches_interpolated_series(p):
    # the base polynomials and, through the twist, the virtual-state xi_v
    for fam in (p, p.twisted()):
        for n in range(9):
            got, want = fam.poly(n), interpolated_series(fam, n)
            assert got == want, (fam, n)
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_poly_checks_the_series_at_five_points(monkeypatch):
    seen = []
    for cls in (Meixner, _QFamily):
        original = cls.__dict__["poly_value"]

        def counting(self, n, x, original=original):
            seen.append(x)
            return original(self, n, x)

        monkeypatch.setattr(cls, "poly_value", counting)
    for make in (lambda: Meixner(1, F(1, 2)), lambda: LittleQJacobi(F(1, 32), F(1, 3), F(1, 2))):
        for n in (0, 3, 8):
            seen.clear()
            make().poly(n)
            assert seen == list(range(n + 1, n + 6))


def test_poly_rejects_a_wrong_term_ratio(monkeypatch):
    original = LittleQLaguerre.term_ratio
    wrong = lambda self, n, k: original(self, n, k) * (F(1001, 1000) if k == 1 else 1)
    monkeypatch.setattr(LittleQLaguerre, "term_ratio", wrong)
    with pytest.raises(ArithmeticError, match="fails the series at x=4"):
        LittleQLaguerre(F(1, 32), F(1, 2)).poly(3)
