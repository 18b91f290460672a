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
    forward_shift_apply,
    rodrigues_vector,
    verify_difference_equation,
    verify_shift_relations,
)
from mipoly.polynomials import interpolate
from mipoly.ratfunc import RationalFunction
from mipoly.series import q_pochhammer
from mipoly.virtual import xi_poly

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


def meixner_dual_value(p, n, x):
    """Self-duality route to P_n(x): the Meixner sum is symmetric under n <-> x."""
    return p.poly_value(x, n)


def q_value_alt(p, n, w):
    """Independent 2phi1-type route to the little q-Jacobi value at w = q^x."""
    a, b, q = p.a, p.b, p.q
    pref = F(q_pochhammer(1 / (a * q**n), q, n)) / q_pochhammer(b * q, q, n)  # a Fraction at n = 0 too
    term = total = F(1)
    for k in range(n):
        term = (
            term
            * (1 - q ** (k - n))
            * (1 - a * b * q ** (n + 1 + k))
            / ((1 - a * q ** (k + 1)) * (1 - q ** (k + 1)))
            * (q * w)
        )
        total = total + term
    return pref * total


def test_meixner_self_duality():
    for n in range(5):
        for x in range(5):
            assert M.poly_value(n, x) == meixner_dual_value(M, n, x)
            assert M2.poly_value(n, x) == meixner_dual_value(M2, n, x)


def test_q_two_route_values_agree():
    for p in (QJ, QJN, QL):
        for n in range(5):
            for x in range(5):
                w = p.q**x
                assert p.poly_value_w(n, w) == q_value_alt(p, n, w)
                assert type(q_value_alt(p, n, w)) is F  # exact at n = 0 too
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


@pytest.mark.parametrize("m", [0, 7, 64])
def test_lqJ_rejects_the_degenerate_line(m):
    q = F(1, 2)
    with pytest.raises(ValueError, match=f"a = b q\\^{m + 1} collapses"):
        LittleQJacobi(q ** (m + 1), 1, q)


def test_lqJ_degenerate_line_is_checked_at_every_power():
    # a/b = q^k is decided exactly for any k, however small a is; a point
    # just off the line is admitted, and the label bound a < q^v follows a
    for q in (F(1, 2), F(2, 3)):
        for k in (65, 66, 1000):
            with pytest.raises(ValueError, match=f"a = b q\\^{k} collapses"):
                LittleQJacobi(q**k / 3, F(1, 3), q)
            p = LittleQJacobi(q**k * F(1001, 3000), F(1, 3), q)
            v = p.v_max()
            assert p.a < q**v and not p.a < q ** (v + 1)
            assert LittleQLaguerre(q**k, q).v_max() == k - 1


# lqL points of the acceptance matrix and the ladders
FOLD_POINTS = [(F(1, 32), F(1, 2)), (F(1, 1048576), F(1, 2))]


def little_q_laguerre_series(a, q, n, w):
    # the 2phi0 series of little q-Laguerre in w = q^x, coded on its own
    term = total = F(1)
    for k in range(n):
        term = term * (1 - q ** (k - n)) * (1 - q**k / w) / (1 - q ** (k + 1)) * (-1) * q**-k * (w / a)
        total += term
    return total


@pytest.mark.parametrize("a, q", FOLD_POINTS, ids=str)
def test_lqL_is_lqJ_at_b_zero(a, q):
    # the closed forms skip their b factors at b = 0; the full lqJ forms at
    # b = 0 are written out here, and lqL must equal them for n <= 6
    ql, qj = LittleQLaguerre(a, q), LittleQJacobi(a, 0, q)
    for n in range(7):
        assert ql.poly(n) == qj.poly(n)
        assert ql.energy(n) == qj.energy(n) == q**-n - 1
        assert ql.virtual_energy(n) == qj.virtual_energy(n) == -(1 - a * q**-n) * (1 - 0 * q ** (n + 1))
        for k in range(n):
            full = -(1 - q ** (k - n)) * (1 - a * 0 * q ** (n + 1 + k)) / (
                (1 - 0 * q ** (k + 1)) * (1 - q ** (k + 1)) * q**k * a
            )
            assert ql.term_ratio(n, k) == qj.term_ratio(n, k) == full
        assert ql.leading_coefficient(n) == qj.leading_coefficient(n) == (-a) ** -n * q ** (-n * n)
        lo_hi = lambda v: (v.lo, v.hi)
        assert lo_hi(ql.dn_sq(n)) == lo_hi(qj.dn_sq(n))
        pref = a**n * q ** (n * n) / (q_pochhammer(q, q, n) * q_pochhammer(a * q, q, n))
        assert lo_hi(ql.dn_sq(n)) == lo_hi(pref * q_pochhammer(a * q, q, None))
        for x in range(4):
            assert ql.B(x) == qj.B(x) == a * q**-x
            assert ql.poly_value(n, x) == little_q_laguerre_series(a, q, n, q**x)
    for v in range(4):
        assert xi_poly(ql, v) == xi_poly(qj, v)


def test_lqL_parameter_moves_stay_lqL():
    ql = LittleQLaguerre(F(1, 32), F(1, 2))
    for moved, a in ((ql.shifted(1), F(1, 64)), (ql.twisted(), 32), (ql.tilde_shifted(2), F(1, 8))):
        assert type(moved) is LittleQLaguerre
        assert moved == LittleQLaguerre(a, F(1, 2), validate=False)
        assert repr(moved) == f"LittleQLaguerre(a={a}, q=1/2)"


@pytest.mark.parametrize("p", [M, QJ, QL], ids=repr)
def test_parameter_moves_are_built_once(p):
    assert p.shifted(1) is p.shifted(1)
    assert p.twisted() is p.twisted()
    assert p.tilde_shifted(2) is p.tilde_shifted(2)
    if isinstance(p, Meixner):
        assert p.tilde_shifted(3) is p.shifted(3)  # delta-tilde = delta for M


@pytest.mark.parametrize(
    "make",
    [
        lambda: Meixner(1, F(1, 2)),
        lambda: LittleQJacobi(F(1, 32), F(1, 3), F(1, 2)),
        lambda: LittleQLaguerre(F(1, 32), F(1, 2)),
    ],
    ids=["M", "lqJ", "lqL"],
)
def test_family_hash_is_computed_once_per_object(make, monkeypatch):
    from mipoly.multi import system

    a, b = make(), make()
    key = type(a)._key
    calls = []
    monkeypatch.setattr(type(a), "_key", lambda self: calls.append(self) or key(self))
    for _ in range(3):
        assert hash(a) == hash(b) == hash((a.tag, key(a)))
    assert calls == [a, b]
    assert a is not b and system(a, (1, 2)) is system(b, (1, 2))


def test_lqL_never_equals_lqJ():
    ql, qj = LittleQLaguerre(F(1, 32), F(1, 2)), LittleQJacobi(F(1, 32), 0, F(1, 2))
    assert ql != qj and qj != ql
    assert ql == LittleQLaguerre(F(1, 32), F(1, 2))


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


def test_poly_checks_the_series_at_n_plus_one_points(monkeypatch):
    # the Newton form and the series are polynomials of degree <= n in eta,
    # so n + 1 points prove them equal
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
            assert seen == list(range(n + 1, 2 * n + 2))


def test_poly_finds_a_series_spoilt_past_five_points(monkeypatch):
    original = Meixner.poly_value
    spoilt = lambda self, n, x: original(self, n, x) + (x == 17)
    monkeypatch.setattr(Meixner, "poly_value", spoilt)
    with pytest.raises(ArithmeticError, match="P_8 Newton form fails the series at x=17"):
        Meixner(1, F(1, 2)).poly(8)


def test_poly_rejects_a_wrong_term_ratio(monkeypatch):
    original = LittleQLaguerre.term_ratio
    wrong = lambda self, n, k: original(self, n, k) * (F(1001, 1000) if k == 1 else 1)
    monkeypatch.setattr(LittleQLaguerre, "term_ratio", wrong)
    with pytest.raises(ArithmeticError, match="fails the series at x=4"):
        LittleQLaguerre(F(1, 32), F(1, 2)).poly(3)


@pytest.mark.parametrize(
    "p",
    [*ALL, LittleQJacobi(F(1, 1048576), F(1, 3), F(1, 2)), LittleQLaguerre(F(1, 1048576), F(1, 2))],
    ids=repr,
)
def test_lattice_variable(p):
    # eta(x + k) = alpha_k + beta_k w(x) in the one lattice variable w, and
    # B, D, P_n and the weight ratio read in w agree with the lattice values
    a0, b0 = p.eta_affine(0)
    w = lambda x: (p.eta(x) - a0) / b0
    for x in range(-2, 11):
        for k in range(-1, 3):
            ak, bk = p.eta_affine(k)
            assert p.eta(x + k) == ak + bk * w(x), (x, k)
            assert p.step_w(w(x), k) == w(x + k), (x, k)
        assert p.B_w(w(x)) == p.B(x) and p.D_w(w(x)) == p.D(x), x
        for n in range(5):
            assert p.poly_value_w(n, w(x)) == p.poly_value(n, x), (n, x)
        if x >= 0:
            ratio = p.B_w(w(x)) / p.D_w(p.step_w(w(x), 1))
            assert ratio == p.phi0_sq(x + 1) / p.phi0_sq(x), x
