"""Multi-indexed systems: structure, constants, operators, orthogonality."""

import re
from fractions import Fraction as F

import pytest
from conftest import fold
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.casoratian import LatticeFunction
from mipoly.families import LittleQJacobi, LittleQLaguerre, Meixner
from mipoly.multi import (
    MultiIndexedSystem,
    _ratio_certificate,
    count_sign_changes,
    orthogonality_sum,
    system,
    verify_eigen_equation,
    verify_multi_structure,
    verify_shape_invariance,
    verify_special_identities,
)
from mipoly.polynomials import Polynomial, sign_on_tail
from mipoly.ratfunc import RationalFunction

M = Meixner(1, F(1, 2))
M2 = Meixner(F(5, 2), F(1, 3))
QJ = LittleQJacobi(F(1, 32), F(1, 3), F(1, 2))
QL = LittleQLaguerre(F(1, 32), F(1, 2))
SOME = ((M, (1, 2)), (M2, (1, 3)), (QJ, (2,)), (QL, (1, 2)))


def test_frozen_single_deletion_meixner():
    s = system(M, (1,))
    assert s.Xi() == Polynomial((1, F(1, 2)))
    assert s.multi_poly(0) == Polynomial((1, F(1, 4)))
    assert s.multi_poly(1) == Polynomial((1, F(-1, 3), F(-1, 6)))
    assert s.C_D() == 1 and s.C_Dn(0) == -1
    assert s.dt_sq(0) == 1 and s.dt_sq(1) == F(3, 2)
    assert s.weight(0) == F(2, 3) and s.weight(1) == F(1, 3)
    assert s.B_D(0) == F(5, 6) and s.D_D(1) == F(16, 15)
    assert s.leading_coefficients(2) == (F(1, 2), F(1, 2), F(1, 16))


def test_system_cache_keys():
    assert system(M, (1,)) is system(M, [1])  # memoized by (family, labels)
    assert system(QL, (1,)) is system(LittleQLaguerre(F(1, 32), F(1, 2)), (1,))
    # an lqL never equals the lqJ at b = 0, so their systems are kept apart
    assert system(QL, (1,)) is not system(LittleQJacobi(F(1, 32), 0, F(1, 2)), (1,))


def test_dt_sq_is_memoised(monkeypatch):
    # multi_poly (through C_Dn) and the chain's norm bookkeeping read
    # tilde-d^2_{D,n} again and again; after the first call it is a lookup
    calls = []

    def counting(name, family):
        original = getattr(Meixner, name)
        return lambda self, *args: (self == family and calls.append(name)) or original(self, *args)

    monkeypatch.setattr(Meixner, "virtual_energy", counting("virtual_energy", M))
    monkeypatch.setattr(Meixner, "B", counting("B", M.twisted()))  # B' = B of the twisted family
    s = MultiIndexedSystem(M, (1, 2, 3))
    first = [s.dt_sq(n) for n in range(3)]
    assert "virtual_energy" in calls and "B" in calls
    calls.clear()
    assert [s.dt_sq(n) for n in range(3)] == first
    assert calls == []


@pytest.mark.parametrize("p, labels", [(M, (1, 2)), (QJ, (1, 2, 3)), (QL, (1, 3))], ids=str)
def test_potentials_table_is_the_fraction_formula(p, labels):
    # the oracle: B_D, D_D formed per x in Fraction arithmetic,
    # B~(x) Xi(x) Xi'(x+1) / (Xi(x+1) Xi'(x)) and D(x) Xi(x+1) Xi'(x-1) / (Xi(x) Xi'(x)),
    # Xi' the denominator at lambda + delta
    s = system(p, labels)
    tilde, xi, xi_up = p.tilde_shifted(s.M), s.Xi(), s.shifted_system().Xi()
    at = lambda poly, x: poly(p.eta(x))
    B_table, D_table = s.potentials()
    for x in range(13):
        b = tilde.B(x) * at(xi, x) / at(xi, x + 1) * at(xi_up, x + 1) / at(xi_up, x)
        d = p.D(x) * at(xi, x + 1) / at(xi, x) * at(xi_up, x - 1) / at(xi_up, x)
        assert B_table(x)[1] > 0 and D_table(x)[1] > 0
        assert F(*B_table(x)) == b == s.B_D(x)
        assert F(*D_table(x)) == d == s.D_D(x)


def off_window_mismatches(s, n_max, points=20):
    """The lattice points past each interpolation window where a Casoratian
    grid disagrees with its closed form: W[xi..] = C_D varphi_M Xi_D and
    W[xi.., nu P_n] = C_Dn varphi_{M+1} nu(x; M tilde-delta shift) P_{D,n}
    for n <= n_max, each at `points` points."""
    p, bad = s.p, []
    xi, nu = s.Xi(), p.tilde_shifted(s.M).nu
    for x in range(s.ell + 1, s.ell + 1 + points):
        if s.w_grid(x) != s.C_D() * p.varphi_M(s.M, x) * xi(p.eta(x)):
            bad.append(("Xi", x))
    for n in range(n_max + 1):
        pn, deg = s.multi_poly(n), s.ell + n
        for x in range(deg + 1, deg + 1 + points):
            if s.wpp_grid(n)(x) != s.C_Dn(n) * p.varphi_M(s.M + 1, x) * nu(x) * pn(p.eta(x)):
                bad.append((f"P_D,{n}", x))
    return bad


REFERENCE_FAMILIES = (
    M,
    M2,
    Meixner(F(7, 3), F(9, 10)),
    QJ,
    LittleQJacobi(F(1, 32), F(-1, 2), F(1, 2)),
    LittleQJacobi(F(1, 2**20), F(2, 3), F(3, 4)),
    QL,
    LittleQLaguerre(F(1, 2**20), F(2, 3)),
)
REFERENCE_LABELS = ((1,), (2, 4), (0, 2, 3), (1, 2, 4), (1, 2, 3, 5, 6))


@pytest.mark.parametrize("p", REFERENCE_FAMILIES, ids=repr)
def test_casoratians_match_the_closed_forms_past_the_window(p):
    # Xi_D and P_{D,n} are read from deg + 1 grid values; the degree bound
    # in `_normalised_poly` says that fixes them everywhere, and here the
    # Casoratians agree with them at 20 further points
    vm = p.v_max()
    for labels in REFERENCE_LABELS:
        if vm is None or max(labels) <= vm:
            assert off_window_mismatches(MultiIndexedSystem(p, labels), 2) == [], labels


def test_construction_reads_deg_plus_one_grid_points():
    for p, labels in SOME:
        s = MultiIndexedSystem(p, labels)
        s.Xi()
        assert sorted(s.w_grid.cache) == list(range(s.ell + 1))
        for n in range(3):
            s.multi_poly(n)
            assert sorted(s.wpp_grid(n).cache) == list(range(s.ell + n + 1))


def test_construction_failures_name_their_route():
    # Xi and P_{D,n} share one interpolation routine and keep their own
    # diagnostics: unit normalization and full degree
    def fails(build, spoil, message):
        s = MultiIndexedSystem(M, (1, 2))  # ell_D = 2; uncached, so spoil lands
        spoil(s)
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            build(s)

    def flat_w(s):
        s.w_grid = LatticeFunction(lambda x: s.C_D() * M.varphi_M(2, x))

    def low_w(s):  # the quotient 1 + eta: 1 at x = 0, one degree short
        s.w_grid = LatticeFunction(lambda x: (1 + M.eta(x)) * s.C_D() * M.varphi_M(2, x))

    def bump(grid, x):
        grid.cache[x] = grid(x) + 1

    Xi, P1 = MultiIndexedSystem.Xi, lambda s: s.multi_poly(1)
    mismatch = "normalization mismatch: closed-form {} disagrees with {}(0)"
    spoil_cd = lambda s: s._cache.update({("C_D",): 2 * s.C_D()})
    fails(Xi, spoil_cd, mismatch.format("C_D", "W[xi...]"))
    fails(Xi, flat_w, "denominator degree 0 != 2 (degenerate labels?)")
    fails(Xi, low_w, "denominator degree 1 != 2 (degenerate labels?)")
    spoil_cdn = lambda s: s._cache.update({("dt_sq", 1): 2 * s.dt_sq(1)})
    fails(P1, spoil_cdn, mismatch.format("C_Dn", "W[xi..,nu P_n]"))
    # a grid value spoilt past the window (x = 0..2 for Xi, 0..3 for P_D,1)
    # is never read by construction; the reference check finds it
    for grid, x, name in ((lambda s: s.w_grid, 4, "Xi"), (lambda s: s.wpp_grid(1), 5, "P_D,1")):
        s = MultiIndexedSystem(M, (1, 2))
        bump(grid(s), x)
        assert off_window_mismatches(s, 1) == [(name, x)]


@pytest.mark.parametrize("labels", [(1,), (1, 3)], ids=str)
@pytest.mark.parametrize("a", [F(1, 32), F(1, 1048576)], ids=str)
def test_lqL_systems_are_lqJ_systems_at_b_zero(a, labels):
    sl, sj = system(LittleQLaguerre(a, F(1, 2)), labels), system(LittleQJacobi(a, 0, F(1, 2)), labels)
    assert sl.Xi() == sj.Xi()
    for n in range(4):
        assert sl.multi_poly(n) == sj.multi_poly(n)
        assert sl.dt_sq(n) == sj.dt_sq(n)
    for x in range(13):
        assert sl.weight(x) == sj.weight(x)


def tilde_delta(p):
    """The companion parameter shift delta-tilde per parameter, as steps of
    +1 (M) or as powers of q (lqJ, lqL), after checking on the actual
    parameter values for u = 1..3 its defining property twist(lambda) +
    u*delta = twist(lambda + u*delta-tilde) and that `tilde_shifted(u)`
    moves each parameter by u such steps."""
    steps = {"M": (1, 0), "lqJ": (-1, 1), "lqL": (-1,)}[p.tag]
    values = [getattr(p, name) for name in p.param_names]
    for u in range(1, 4):
        assert p.twisted().shifted(u) == p.tilde_shifted(u).twisted(), (p, u)
        moved = p.tilde_shifted(u)
        for name, v, k in zip(p.param_names, values, steps):
            want = v + u * k if p.tag == "M" else v * p.q ** (u * k)
            assert getattr(moved, name) == want, (p, u, name)
    return steps


def test_tilde_delta_families():
    assert tilde_delta(M) == (1, 0)
    assert tilde_delta(QJ) == (-1, 1)
    assert tilde_delta(QL) == (-1,)
    assert tilde_delta(LittleQJacobi(F(1, 32), 0, F(1, 2))) == (-1, 1)


def test_empty_label_set_reduces_to_base():
    for p in (M, QJ, QL):
        s = system(p, ())
        assert s.Xi() == Polynomial((1,))
        assert s.C_D() == 1
        for n in range(3):
            assert s.multi_poly(n) == p.poly(n)
            assert s.dt_sq(n) == 1
        for x in range(4):
            assert s.weight(x) == p.phi0_sq(x)
            assert s.B_D(x) == p.B(x)
            if x:
                assert s.D_D(x) == p.D(x)


def test_label_zero_reduction():
    # appending the trivial label 0 reproduces the system with all remaining
    # labels lowered by one at the tilde-shifted parameters
    with_zero = system(M, (2, 3, 0))
    reduced = system(M.tilde_shifted(1), (1, 2))
    assert with_zero.Xi() == reduced.Xi()
    for n in range(3):
        assert with_zero.multi_poly(n) == reduced.multi_poly(n)


def test_degrees_and_normalization():
    for p, labels in SOME:
        s = system(p, labels)
        assert s.Xi().degree == s.ell
        assert s.Xi().constant_term == 1
        for n in range(3):
            pn = s.multi_poly(n)
            assert pn.degree == s.ell + n
            assert pn.constant_term == 1
            c_n, c_xi, c_p = s.leading_coefficients(n)
            assert s.Xi().leading_coefficient == c_xi
            assert pn.leading_coefficient == c_p
            assert p.poly(n).leading_coefficient == c_n


def varphi_M_definition(p, m: int, x: int):
    """prod_{1<=j<k<=m} varphi(x+j-1) by its defining product over eta
    differences; independent route to the closed form p.varphi_M(m, x)."""
    out = F(1)
    for j in range(1, m + 1):
        for k in range(j + 1, m + 1):
            out = out * (p.eta(x + k - 1) - p.eta(x + j - 1)) / p.eta(k - j)
    return out


def test_varphi_m_frozen_and_definition():
    assert LittleQLaguerre(F(1, 32), F(1, 2)).varphi_M(3, 1) == F(1, 16)
    for p in (M, QJ, QL):
        for m in range(4):
            for x in range(5):
                assert p.varphi_M(m, x) == varphi_M_definition(p, m, x)


def test_label_order_does_not_matter():
    for p, labels in ((M, (1, 2, 3)), (QL, (1, 2))):
        base = system(p, labels)
        perm = system(p, tuple(reversed(labels)))
        assert base.Xi() == perm.Xi()
        for n in range(3):
            assert base.multi_poly(n) == perm.multi_poly(n)


def test_denominator_positive_on_lattice():
    for p, labels in SOME:
        s = system(p, labels)
        xi = s.Xi()
        for x in range(101):
            assert xi(p.eta(x)) > 0


def test_eigen_residual_zero():
    for p, labels in SOME:
        s = system(p, labels)
        for n in range(3):
            for x in range(8):
                assert s.eigen_residual(n, x) == 0


def test_verification_reports():
    for p, labels in SOME:
        assert verify_multi_structure(p, labels, 2, 20).passed
        assert verify_eigen_equation(p, labels, 2, 10).passed
        assert verify_shape_invariance(p, labels, 2, 8).passed
        assert verify_special_identities(p, labels, 2).passed


def fraction_residual(s, n, x):
    """The eigen-equation's residual at x, written out in Fractions."""
    p, up, tilde, pn = s.p, s.shifted_system(), s.p.tilde_shifted(s.M), (lambda y: s.multi_poly_at(n, y))
    b = tilde.B(x) * s.Xi_at(x) / s.Xi_at(x + 1) * (up.Xi_at(x + 1) / up.Xi_at(x) * pn(x) - pn(x + 1))
    d = p.D(x) * s.Xi_at(x + 1) / s.Xi_at(x) * (up.Xi_at(x - 1) / up.Xi_at(x) * pn(x) - pn(x - 1))
    return b + d - p.energy(n) * pn(x)


def fraction_forward(s, f, x):
    """The forward shift of f at x, written out in Fractions."""
    up, tilde = s.shifted_system(), s.p.tilde_shifted(s.M)
    return tilde.B(0) / (s.p.varphi(x) * s.Xi_at(x + 1)) * (up.Xi_at(x + 1) * f(x) - up.Xi_at(x) * f(x + 1))


def fraction_backward(s, f, x):
    """The backward shift of f at x, written out in Fractions."""
    p, up, tilde = s.p, s.shifted_system(), s.p.tilde_shifted(s.M)
    val = tilde.B(x) * s.Xi_at(x) * p.varphi(x) * f(x)
    if x >= 1:
        val -= p.D(x) * s.Xi_at(x + 1) * p.varphi(x - 1) * f(x - 1)
    return val / (tilde.B(0) * up.Xi_at(x))


def fraction_eigen_checks(s, n_max, x_max):
    """The eigen-equation suite's checks as (name, passed, witness) rows,
    one per x (`fold` folds them), its residual written out in Fractions."""
    out = []
    for n in range(n_max + 1):
        for x in range(x_max + 1):
            r = fraction_residual(s, n, x)
            out.append((f"n={n}", r == 0, f"x={x}, residual={r}"))
    return out


def fraction_shape_checks(s, n_max, x_max):
    """The shape-invariance suite's checks as (name, passed, witness) rows,
    one per x (`fold` folds them), with the forward and backward shifts
    written out in Fractions."""
    p, up = s.p, s.shifted_system()
    out = []
    for n in range(1, n_max + 1):
        en = p.energy(n)
        pn, qn = (lambda y: s.multi_poly_at(n, y)), (lambda y: up.multi_poly_at(n - 1, y))
        for x in range(x_max + 1):
            out.append((f"forward n={n}", fraction_forward(s, pn, x) == en * qn(x), f"x={x}"))
            out.append((f"backward n={n}", fraction_backward(s, qn, x) == pn(x), f"x={x}"))
    for x in range(x_max + 1):
        out.append(("B_D > 0", s.B_D(x) > 0, f"x={x}"))
        out.append(("D_D sign", s.D_D(x) > 0 if x >= 1 else s.D_D(x) == 0, f"x={x}"))
    kappa, e1 = p.kappa, p.energy(1)
    for x in range(x_max + 1):
        diag = s.B_D(x) + s.D_D(x + 1) == kappa * (up.B_D(x) + up.D_D(x)) + e1
        offd = s.B_D(x + 1) * s.D_D(x + 1) == kappa**2 * up.B_D(x) * up.D_D(x + 1)
        out.append(("operator shape-invariance diagonal", diag, f"x={x}"))
        out.append(("operator shape-invariance off-diagonal", offd, f"x={x}"))
    return out


def fraction_roundtrip_failures(s, n_max, x_max):
    """The levels n at which the round trip G F P_{D,n} = E_n P_{D,n},
    written out in Fractions, fails somewhere on 0..x_max."""
    out = set()
    for n in range(1, n_max + 1):
        pn = lambda y: s.multi_poly_at(n, y)
        fwd = [fraction_forward(s, pn, x) for x in range(x_max + 1)]
        if any(fraction_backward(s, lambda y: fwd[y], x) != s.p.energy(n) * pn(x) for x in range(x_max + 1)):
            out.add(n)
    return out


SPOILS = {
    "exact": None,
    "Xi_at(3) + 1/7": ("Xi_at", lambda v: v + F(1, 7)),
    "Xi_at(3) negated": ("Xi_at", lambda v: -v),
    "multi_poly_at(n, 3) + 1/7": ("multi_poly_at", lambda v: v + F(1, 7)),
    "multi_poly_at(n, 3) negated": ("multi_poly_at", lambda v: -v),
}


def spoil(monkeypatch, s, how):
    """Spoil the system's one value at x = 3, as `SPOILS` names it."""
    if how is None:
        return
    name, change = how
    if name == "Xi_at":
        xi = s.Xi_at
        monkeypatch.setattr(s, "Xi_at", lambda x: change(xi(x)) if x == 3 else xi(x))
    else:
        at = s.multi_poly_at
        monkeypatch.setattr(s, "multi_poly_at", lambda n, x: change(at(n, x)) if x == 3 else at(n, x))


SPOILT_SYSTEMS = pytest.mark.parametrize(
    "make, labels",
    [
        (lambda: Meixner(1, F(1, 2)), (1, 2, 3)),
        (lambda: LittleQJacobi(F(1, 32), F(1, 3), F(1, 2)), (1, 2, 3)),
        (lambda: LittleQLaguerre(F(1, 32), F(1, 2)), (1, 3)),
    ],
    ids=["M", "lqJ", "lqL"],
)


def spoilt_system(monkeypatch, make, labels, how):
    """A fresh system, with one value spoilt at x = 3 as `SPOILS` names it."""
    from mipoly import multi

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    s = system(make(), labels)
    spoil(monkeypatch, s, SPOILS[how])
    return s


@pytest.mark.parametrize("how", SPOILS, ids=str)
@SPOILT_SYSTEMS
def test_pair_checks_match_their_fraction_form(monkeypatch, make, labels, how):
    # the eigen-equation and the shifts are decided on unreduced pairs, one
    # check per statement on 0..x_max; the Fraction form written out here,
    # point by point and folded, must give every check the same (name,
    # passed, witness), for the exact system and with one value spoilt at
    # x = 3.  The round trip G F P_{D,n} = E_n P_{D,n} has no row, since
    # forward and backward at n imply it on the window: its Fraction form
    # fails only where one of them fails.
    s = spoilt_system(monkeypatch, make, labels, how)
    routes = (
        (verify_eigen_equation, fraction_eigen_checks, 4, 12),
        (verify_shape_invariance, fraction_shape_checks, 3, 12),
    )
    failures = 0
    for suite, oracle, n_max, x_max in routes:
        got = [(c.name, c.passed, c.witness) for c in suite(s.p, labels, n_max, x_max).checks]
        expected = fold(oracle(s, n_max, x_max))
        assert got == expected
        failures += sum(not passed for _, passed, _ in expected)
    assert (failures == 0) == (how == "exact")
    failed = {name for name, passed, _ in got if not passed}  # the shape-invariance checks
    for n in fraction_roundtrip_failures(s, 3, 12):
        assert {f"forward n={n}", f"backward n={n}"} & failed, n


@pytest.mark.parametrize("how", SPOILS, ids=str)
@SPOILT_SYSTEMS
def test_operator_methods_are_their_fraction_forms(monkeypatch, make, labels, how):
    # eigen_residual, forward_apply and backward_apply read the pair tables;
    # each equals its Fraction form written out here at x = 0..12
    s = spoilt_system(monkeypatch, make, labels, how)
    up = s.shifted_system()
    for n in range(1, 4):
        pn, qn = (lambda y: s.multi_poly_at(n, y)), (lambda y: up.multi_poly_at(n - 1, y))
        fwd = lambda y: s.forward_apply(pn, y)
        for x in range(13):
            assert s.eigen_residual(n, x) == fraction_residual(s, n, x)
            assert s.forward_apply(pn, x) == fraction_forward(s, pn, x)
            assert s.backward_apply(qn, x) == fraction_backward(s, qn, x)
            assert s.backward_apply(fwd, x) == fraction_backward(s, lambda y: fraction_forward(s, pn, y), x)


def test_the_deformed_operator_holds_over_q_of_c():
    # M at beta = 5/2 with c symbolic: the eigen-equation's residual is the
    # zero rational function of c, and the shifts map P_{D,n} to E_n P'_{D,n-1}
    # and back, so these hold at every admissible c
    from mipoly.limits import _symbolic_meixner

    fam = _symbolic_meixner(F(3, 2))
    s, up = system(fam, (1, 2, 3)), system(fam.shifted(1), (1, 2, 3))
    assert isinstance(fam.c, RationalFunction) and up is s.shifted_system()
    for n in range(3):
        pn, qn = (lambda y: s.multi_poly_at(n, y)), (lambda y: up.multi_poly_at(n - 1, y))
        for x in range(6):
            r = s.eigen_residual(n, x)
            assert isinstance(r, RationalFunction) and r == 0
            if n:
                assert s.forward_apply(pn, x) == fam.energy(n) * qn(x)
                assert s.backward_apply(qn, x) == pn(x)


def xi_with_zeros(monkeypatch, zeros):
    """A fresh M `1,1/2` {1,2} system whose Xi_D vanishes at the x in zeros."""
    from mipoly import multi

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    s = system(Meixner(1, F(1, 2)), (1, 2))
    xi = s.Xi_at
    monkeypatch.setattr(s, "Xi_at", lambda x: 0 if x in zeros else xi(x))
    return s


def test_a_vanishing_divisor_raises_as_in_the_fraction_form(monkeypatch):
    # with Xi_D(3) = 0, or Xi_D(3) = Xi_D(4) = 0, the Fraction form divides
    # by zero; the pair route raises too where it has no statement to make:
    # the shape suite from the B_D table, the eigen suite where every
    # coefficient vanishes (x = 3 of the second).  A zero of C alone is a
    # failing eigen row (next test)
    for zeros in ((3,), (3, 4)):
        s = xi_with_zeros(monkeypatch, zeros)
        for oracle in (fraction_eigen_checks, fraction_shape_checks):
            with pytest.raises(ZeroDivisionError):
                oracle(s, 2, 6)
        with pytest.raises(ZeroDivisionError):
            verify_shape_invariance(s.p, s.labels, 2, 6)
    with pytest.raises(ZeroDivisionError):
        verify_eigen_equation(s.p, s.labels, 2, 6)


def test_a_zero_of_xi_is_a_failing_eigen_row(monkeypatch):
    # Xi_D(3) = 0 makes C = Xi_D(x) Xi_D(x+1) Xi_D'(x) vanish at x = 2, where
    # the cleared identity fails for n >= 1 (P_{D,0} = Xi_D' keeps n = 0); the
    # witness names that x and says C vanishes, where the residual divides by
    # C and raised ZeroDivisionError, losing the report
    s = xi_with_zeros(monkeypatch, (3,))
    with pytest.raises(ZeroDivisionError):
        s.eigen_residual(1, 2)
    rep = verify_eigen_equation(s.p, s.labels, 2, 6)
    assert [(c.name, c.passed, c.witness) for c in rep.checks] == [
        ("n=0", True, ""),
        ("n=1", False, "x=2, C=0"),
        ("n=2", False, "x=2, C=0"),
    ]


def test_a_point_with_no_divisor_raises_though_both_sides_vanish(monkeypatch):
    # where a table's coefficients all vanish at x = 3 (the eigen-equation's,
    # or the forward shift's), both sides cross-multiply to 0 == 0; the check
    # raises on the zero divisor instead of passing
    from mipoly import multi

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    s = system(Meixner(1, F(1, 2)), (1, 2))
    eigen, shifts = multi._operator_tables(s)
    zero_eigen = LatticeFunction(lambda x: [0] * 4 if x == 3 else eigen(x))
    zero_forward = LatticeFunction(lambda x: ([0] * 3, shifts(x)[1]) if x == 3 else shifts(x))
    monkeypatch.setattr(multi, "_operator_tables", lambda sys: (zero_eigen, zero_forward))
    for suite in (verify_eigen_equation, verify_shape_invariance):
        assert suite(s.p, s.labels, 2, 2).passed
        with pytest.raises(ZeroDivisionError):
            suite(s.p, s.labels, 2, 3)


@pytest.mark.parametrize("how", SPOILS, ids=str)
def test_suites_read_the_scalar_views_only_for_a_witness(monkeypatch, how):
    # the suites decide on pairs: they never call forward_apply or
    # backward_apply, and call eigen_residual once per failing eigen check,
    # at its first failing x, for its witness
    calls = []
    for name in ("eigen_residual", "forward_apply", "backward_apply"):
        original = getattr(MultiIndexedSystem, name)
        monkeypatch.setattr(
            MultiIndexedSystem, name, lambda self, *a, _f=original, _n=name: calls.append((_n, *a)) or _f(self, *a)
        )
    s = spoilt_system(monkeypatch, lambda: Meixner(1, F(1, 2)), (1, 2, 3), how)
    eigen = verify_eigen_equation(s.p, s.labels, 3, 12)
    shape = verify_shape_invariance(s.p, s.labels, 3, 12)
    assert {name for name, *_ in calls} <= {"eigen_residual"}
    assert [(f"n={n}", f"x={x}") for _, n, x in calls] == [(c.name, c.witness.split(",")[0]) for c in eigen.failures()]
    assert shape.passed == eigen.passed == (how == "exact")


def test_systems_on_a_family_read_its_columns(monkeypatch):
    # xi_d(eta(x)) and nu(x) P_n(eta(x)) are memos of the family: the systems
    # (1,), (1, 2) and (2, 1) read one xi_1 column and one xi_2 column, and
    # one nu P_n column for each n
    from mipoly import multi

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    read = []
    casoratian = multi.casoratian
    monkeypatch.setattr(multi, "casoratian", lambda fs, x: read.append(fs) or casoratian(fs, x))
    p = LittleQJacobi(F(1, 32), F(1, 3), F(1, 2))
    systems = [system(p, labels) for labels in ((1,), (1, 2), (2, 1))]
    for s in systems:
        s.Xi()
        for n in range(3):
            s.multi_poly(n)
    xi_1 = [s._xi_columns[s.labels.index(1)] for s in systems]
    assert xi_1[0] is xi_1[1] is xi_1[2]
    xis = {id(c) for s in systems for c in s._xi_columns}
    nu_ps = {id(fs[-1]) for fs in read} - xis
    assert len(xis) == 2 and len(nu_ps) == 3
    assert {id(f) for fs in read for f in fs} == xis | nu_ps


def _lattice_entries(store) -> set:
    """(family, key) of every B, D and eta value kept by a family that the
    stored systems reach, directly or through the families they memoise."""
    from mipoly.families import _BaseFamily

    todo, seen, out = [s.p for s in store.values()], set(), set()
    while todo:
        f = todo.pop()
        if id(f) not in seen:
            seen.add(id(f))
            out |= {(id(f), key) for key in f._cache if key[0] in ("B", "D", "eta")}
            todo += [v for v in f._cache.values() if isinstance(v, _BaseFamily)]
    return out


@pytest.mark.parametrize(
    "make, labels",
    [(lambda: LittleQJacobi(F(1, 32), F(1, 3), F(1, 2)), (1, 2)), (lambda: LittleQLaguerre(F(1, 32), F(1, 2)), (1, 3))],
    ids=["lqJ", "lqL"],
)
def test_warm_suites_compute_no_lattice_value_anew(monkeypatch, make, labels):
    # the q families keep B, D and eta at each lattice point: on a warm
    # family, systems built afresh and running the eigen and shape suites
    # again compute none of them
    from mipoly import multi
    from mipoly.families import _QFamily

    computed = []
    for owner, name in ((LittleQJacobi, "B_w"), (_QFamily, "D_w")):  # what B and D compute on a miss
        original = getattr(owner, name)
        counting = lambda self, w, _f=original, _n=name: computed.append(_n) or _f(self, w)
        monkeypatch.setattr(owner, name, counting)
    p = make()
    kept = []
    for _ in range(2):
        monkeypatch.setattr(multi, "_SYSTEMS", {})
        computed.clear()
        assert verify_eigen_equation(p, labels, 3, 12).passed
        assert verify_shape_invariance(p, labels, 3, 12).passed
        kept.append(_lattice_entries(multi._SYSTEMS))
    assert computed == []
    assert {key[0] for _, key in kept[0]} == {"B", "D", "eta"}
    assert kept[1] == kept[0]


def test_orthogonality_target_is_a_memo_of_the_system(monkeypatch):
    # 1 / (d_n^2 dt^2_{D,n}) is derived data of the system: a second sum
    # reads it back and builds no dn_sq and no Interval but its enclosure
    from mipoly import multi
    from mipoly.series import Interval

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    p = LittleQJacobi(F(1, 32), F(1, 3), F(1, 2))
    dn_sq, built = [], []
    original = LittleQJacobi.dn_sq
    monkeypatch.setattr(LittleQJacobi, "dn_sq", lambda self, n: dn_sq.append(n) or original(self, n))
    init = Interval.__init__
    monkeypatch.setattr(Interval, "__init__", lambda self, lo, hi: built.append(1) or init(self, lo, hi))
    first = orthogonality_sum(p, (1,), 1, 1)
    assert first.passed and dn_sq == [1, 0]  # d_1^2 scales the mass d_0^2
    dn_sq.clear(), built.clear()
    again = orthogonality_sum(p, (1,), 1, 1)
    assert again.target is first.target and again.describe() == first.describe()
    assert dn_sq == [] and len(built) == 1  # the enclosure
    orthogonality_sum(p, (1,), 0, 1)
    dn_sq.clear()
    assert orthogonality_sum(p, (1,), 0, 1).passed
    assert dn_sq == []


def test_orthogonality_exact_frozen_case():
    res = orthogonality_sum(M, (1,), 0, 0)
    assert res.passed
    assert res.target.lo <= 2 <= res.target.hi
    assert abs(res.partial_sum - 2) <= res.tail_bound


def test_orthogonality_off_diagonal(monkeypatch):
    from mipoly import multi

    res = orthogonality_sum(M, (1,), 0, 1)
    assert res.passed
    assert res.target.midpoint == 0
    monkeypatch.setattr(multi, "_REL_TOL", F(1, 10**12))
    res = orthogonality_sum(QL, (1, 2), 0, 1)
    assert res.passed


def test_orthogonality_diagonal_q(monkeypatch):
    from mipoly import multi

    monkeypatch.setattr(multi, "_REL_TOL", F(1, 10**12))
    res = orthogonality_sum(QJ, (1,), 1, 1)
    assert res.passed


def test_orthogonality_reads_the_target_width_once(monkeypatch):
    # the target's width is subtracted from the budget before the sum: near
    # q = 1 its endpoints carry very long denominators, so it is read once
    # per call, not once per term
    from mipoly import multi
    from mipoly.series import Interval

    monkeypatch.setattr(multi, "_REL_TOL", F(1, 10**12))
    reads = []
    width = Interval.width.fget
    monkeypatch.setattr(Interval, "width", property(lambda self: reads.append(1) or width(self)))
    for p, labels, n, m in ((QJ, (1,), 1, 1), (M, (1,), 0, 1)):
        reads.clear()
        res = orthogonality_sum(p, labels, n, m)
        assert res.passed and res.terms > res.ratio_start + 1  # the loop ran several terms
        assert len(reads) == 1


def test_orthogonality_certificate_is_a_memo_of_the_system(monkeypatch):
    # (x_star, r) is derived data of the system: a warm check reads it back;
    # a certificate that raises is not kept, so a later call computes it
    from mipoly import multi

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    searches, fail = [], [False]
    tail_start = Meixner.tail_start

    def counting(self, polys):
        searches.append(polys)
        return None if fail[0] else tail_start(self, polys)

    monkeypatch.setattr(Meixner, "tail_start", counting)
    first, again = (orthogonality_sum(Meixner(1, F(1, 2)), (1, 2), 1, 1) for _ in range(2))
    assert first.passed and again.describe() == first.describe()
    certificate = lambda res: (res.terms, res.ratio_start, res.ratio_bound)
    assert certificate(again) == certificate(first)
    assert len(searches) == 1
    fail[0] = True
    with pytest.raises(ArithmeticError, match="no tail start"):
        orthogonality_sum(M, (1, 2), 0, 1)
    fail[0] = False
    assert orthogonality_sum(M, (1, 2), 0, 1).passed
    assert len(searches) == 3


@pytest.mark.parametrize("labels", [(1.5,), (F(3, 2),), (1, 1.9), ("2",)], ids=repr)
def test_non_integral_labels_are_rejected(labels):
    # labels are read by operator.index: 1.5 is an error, never the label 1
    from mipoly.chain import chain_verify

    calls = (
        lambda: system(M, labels),
        lambda: chain_verify(M, labels),
        lambda: orthogonality_sum(M, labels, 1, 1),
    )
    for call in calls:
        with pytest.raises(ValueError, match="labels must be integers"):
            call()


def test_orthogonality_witness_names_term_cap(monkeypatch):
    # a tolerance far below what 2000 tail terms reach: the tail bound (about
    # 1e-599) underflows a float, so the witness must not print 0.000e+00
    from mipoly import multi

    with monkeypatch.context() as patched:
        patched.setattr(multi, "_REL_TOL", F(1, 10**1000))
        res = orthogonality_sum(M, (1,), 0, 0)
    assert not res.passed and res.capped
    assert res.terms == res.ratio_start + 2001 == 2002
    text = res.describe()
    assert text.startswith("[FAIL] (n,m)=(0,0): term cap 2000 reached, sum of 2002 terms, ")
    assert "tail <= 6.549e-600," in text
    # a passing result keeps the float rendering and mentions no cap
    ok = orthogonality_sum(M, (1,), 0, 0)
    assert ok.passed and not ok.capped
    assert f"sum of {ok.terms} terms, tail <= {float(ok.tail_bound):.3e}," in ok.describe()


def _orthogonality_reference(p, labels, n, m):
    """orthogonality_sum as a plain Fraction loop: the tail |t| r / (1 - r)
    of each term is built and compared with the slack as Fractions."""
    from mipoly import multi
    from mipoly.series import Interval

    sys = system(p, labels)
    if n == m:
        target = sys.norm_target(n)
        scale = abs(target.midpoint)
    else:
        target = Interval.exact(0)
        scale = max(abs(sys.norm_target(n).midpoint), abs(sys.norm_target(m).midpoint))
    x_star, r = sys.ratio_certificate(n, m)
    term = lambda x: sys.weight(x) * sys.multi_poly_at(n, x) * sys.multi_poly_at(m, x)
    slack = multi._REL_TOL * scale - target.width
    partial = sum((term(x) for x in range(x_star)), F(0))
    x = x_star
    while True:
        t = term(x)
        partial += t
        tail = abs(t) * r / (1 - r)
        x += 1
        converged = tail <= slack
        if converged or x > x_star + multi._TERM_CAP:
            break
    passed = Interval(partial - tail, partial + tail).overlaps(target) and converged
    return multi.OrthogonalityResult(n, m, partial, tail, target, x, x_star, r, passed, not converged)


ACCEPTANCE = [
    (p, labels)
    for p in (M, M2, QJ, LittleQJacobi(F(1, 32), F(-1, 2), F(1, 2)), QL)
    for labels in ((1,), (2,), (1, 2), (1, 3), (2, 4), (1, 2, 3))
]


def _same_result(res, ref):
    fields = ("partial_sum", "tail_bound", "terms", "ratio_start", "ratio_bound", "passed", "capped")
    assert [getattr(res, f) for f in fields] == [getattr(ref, f) for f in fields]
    assert res.describe() == ref.describe()


@pytest.mark.parametrize("p, labels", ACCEPTANCE, ids=repr)
def test_orthogonality_sum_equals_the_fraction_loop(p, labels):
    # the tail test is one int comparison per term; every field and the
    # witness line must be those of the plain Fraction loop
    for n, m in ((0, 0), (1, 1), (0, 1)):
        res = orthogonality_sum(p, labels, n, m)
        assert res.passed
        _same_result(res, _orthogonality_reference(p, labels, n, m))


def test_orthogonality_sum_equals_the_fraction_loop_at_the_edges(monkeypatch):
    # a long sum that reaches the term cap, and a negative slack, which no
    # tail meets: with no tolerance the diagonal target's width exceeds it.
    # There the cap is 50 terms: the lqL terms' denominators grow like 2^(x^2/2)
    # bits (about 322 000 bits at x = 800), so 2000 of them take minutes
    from mipoly import multi

    capped = orthogonality_sum(Meixner(1, F(49, 50)), (1,), 0, 0)
    assert capped.capped and not capped.passed
    _same_result(capped, _orthogonality_reference(Meixner(1, F(49, 50)), (1,), 0, 0))
    monkeypatch.setattr(multi, "_REL_TOL", F(0))
    monkeypatch.setattr(multi, "_TERM_CAP", 50)
    assert system(QL, (1,)).norm_target(0).width > 0  # so the slack is negative
    res = orthogonality_sum(QL, (1,), 0, 0)
    assert res.capped and not res.passed
    _same_result(res, _orthogonality_reference(QL, (1,), 0, 0))


def test_orthogonality_on_symbolic_parameters_names_the_norm():
    # the closed-form target is read before the certificate, so a symbolic c
    # stops at dn_sq with its own message rather than inside the certificate
    p = Meixner(F(3, 2), RationalFunction.variable())
    with pytest.raises(TypeError, match="dn_sq is not defined for symbolic parameters"):
        orthogonality_sum(p, (1,), 0, 0)


def test_weights_cost_linear_in_x(monkeypatch):
    # the tilde-shifted family is built once, so phi0_sq extends one memo
    calls = [0]
    original = Meixner.B

    def counting_B(self, x):
        calls[0] += 1
        return original(self, x)

    monkeypatch.setattr(Meixner, "B", counting_B)
    s = MultiIndexedSystem(Meixner(1, F(1, 2)), (2, 4, 6))
    for x in range(301):
        assert s.weight(x) > 0
    assert calls[0] < 2 * 301 + 50


@pytest.mark.parametrize(
    "p",
    [
        LittleQJacobi(F(1, 1048576), F(1, 3), F(1, 2)),
        LittleQLaguerre(F(1, 1048576), F(1, 2)),
        LittleQJacobi(F(1, 32), F(-1, 2), F(1, 2)),
    ],
    ids=repr,
)
def test_q_ratio_certificate_bounds_term_ratio(p):
    # brute force |t(x+1)/t(x)| <= r past x_star, t(x) = w_D(x) P_D,n(x) P_D,m(x)
    for labels in ((1,), (1, 3), (1, 3, 5), (1, 3, 5, 7), (1, 3, 5, 7, 9)):
        if max(labels) > p.v_max():
            continue
        s = system(p, labels)
        for n, m in ((0, 0), (1, 1), (0, 1)):
            x_star, r = _ratio_certificate(s, n, m)
            assert 0 < r < 1
            t = lambda x: s.weight(x) * s.multi_poly_at(n, x) * s.multi_poly_at(m, x)
            for x in range(x_star, x_star + 41):
                assert abs(t(x + 1)) <= r * abs(t(x)), (labels, n, m, x)


class VanishingAtOne:
    # a system stand-in with no labels (Xi = 1, weight phi0_sq) whose P_{D,n}
    # carries the factor (1 - eta)^(1 + n % 2): num and den of the q term
    # ratio then share a power of z = 1 - eta
    M = 0

    def __init__(self, p):
        self.p = p

    def Xi(self):
        return Polynomial((1,))

    def multi_poly(self, n):
        z = Polynomial((1, -1))
        return (z * z if n % 2 else z) * self.p.poly(n)


@pytest.mark.parametrize("p", [QJ, QL, LittleQJacobi(F(1, 32), F(-1, 2), F(1, 2))], ids=repr)
def test_q_ratio_certificate_strips_a_common_power_of_z(p):
    s = VanishingAtOne(p)
    for n, m in ((0, 0), (1, 1), (0, 1), (2, 1)):
        x_star, r = _ratio_certificate(s, n, m)
        assert 0 < r < 1
        pn, pm = s.multi_poly(n), s.multi_poly(m)
        t = lambda x: p.phi0_sq(x) * pn(p.eta(x)) * pm(p.eta(x))
        for x in range(x_star, x_star + 41):
            assert abs(t(x + 1)) <= r * abs(t(x)), (n, m, x)


@pytest.mark.parametrize(
    "p", [Meixner(1, F(1, 2)), Meixner(F(5, 2), F(1, 3)), Meixner(F(1, 2), F(9, 10))], ids=repr
)
def test_meixner_ratio_certificate_bounds_term_ratio(p):
    # the mirror of the q test: brute force |t(x+1)| <= r |t(x)| past x_star
    for labels in ((1,), (1, 3), (1, 3, 5), (1, 3, 5, 7)):
        s = system(p, labels)
        for n, m in ((0, 0), (1, 1), (0, 1)):
            x_star, r = _ratio_certificate(s, n, m)
            assert 0 < r < 1
            t = lambda x: s.weight(x) * s.multi_poly_at(n, x) * s.multi_poly_at(m, x)
            for x in range(x_star, x_star + 41):
                assert abs(t(x + 1)) <= r * abs(t(x)), (labels, n, m, x)


def test_meixner_tail_start_is_short():
    # the Taylor-shift tail start; the Fujiwara root bound it replaced gave 478
    res = orthogonality_sum(M, (2, 4, 6), 1, 1)
    assert res.passed
    assert res.ratio_start <= 20


def test_sign_on_tail_exact_starts_and_limit():
    assert sign_on_tail([Polynomial((-100, 1))]) == 101  # x - 100 > 0 from x = 101
    assert sign_on_tail([Polynomial((1,)), Polynomial((-100, 1))]) == 100
    assert sign_on_tail([Polynomial((1, -1))]) is None
    # 1 - 2^k z > 0 at z = 2^-x exactly when x > k; the limit is exclusive
    half = F(1, 2)
    assert sign_on_tail([Polynomial((1, -(2**5)))], half, 1, 60) == 6
    assert sign_on_tail([Polynomial((1, -(2**58)))], half, 1, 60) == 59
    assert sign_on_tail([Polynomial((1, -(2**59)))], half, 1, 60) is None


int_polys = st.lists(st.integers(min_value=-60, max_value=60), min_size=0, max_size=6)


@given(
    st.lists(int_polys, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=80, deadline=None)
def test_sign_on_tail_lattice_sound_and_minimal(polys, lead):
    ps = [Polynomial(cs) for cs in [polys[0] + [lead]] + polys[1:]]  # ps[0] eventually > 0

    def fails(x):  # the certificate at x: the coefficients of p(X + x)
        shifted = [p.compose(Polynomial((x, 1))) for p in ps]
        return shifted[0].constant_term == 0 or any(c < 0 for s in shifted for c in s.coeffs)

    x0 = sign_on_tail(ps)
    if x0 is None:
        assert any(p and p.leading_coefficient < 0 for p in ps[1:])
        return
    for x in range(x0, x0 + 61):
        assert ps[0](x) > 0 and all(p(x) >= 0 for p in ps[1:]), x
    assert not fails(x0)
    if x0 > 0:
        assert fails(x0 - 1)


@given(
    st.lists(int_polys, min_size=1, max_size=3),
    st.integers(min_value=1, max_value=9),
    st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9),
)
@settings(max_examples=80, deadline=None)
def test_sign_on_tail_q_sound_and_minimal(polys, const, q):
    ps = [Polynomial(cs) for cs in [[const] + polys[0]] + polys[1:]]  # ps[0](0) > 0

    def fails(x):  # the certificate at z = q^x: constant term plus negative terms
        z = q**x
        low = [p.constant_term + sum(c * z**k for k, c in enumerate(p.coeffs) if k and c < 0) for p in ps]
        return low[0] <= 0 or min(low) < 0

    x0 = sign_on_tail(ps, q, 1, 60)
    if x0 is None:
        assert fails(59)
        return
    for x in range(x0, x0 + 61):
        z = q**x
        assert ps[0](z) > 0 and all(p(z) >= 0 for p in ps[1:]), x
    assert not fails(x0)
    if x0 > 1:
        assert fails(x0 - 1)


def fraction_reference_q_certificate(s, n, m):
    # the certificate built on Fraction polynomials by composition, with the
    # tail start searched one lattice step at a time
    p, q = s.p, s.p.q
    shifted = p.tilde_shifted(s.M)
    b = shifted.b if isinstance(shifted, LittleQJacobi) else 0
    at = lambda poly, u: poly.compose(Polynomial((F(1), -u)))
    pn, pm, xi = s.multi_poly(n), s.multi_poly(m), s.Xi()
    num = shifted.a * q * Polynomial((1, -b * q)) * at(pn, q) * at(pm, q) * at(xi, 1)
    den = Polynomial((1, -q)) * at(pn, 1) * at(pm, 1) * at(xi, q * q)
    while num.constant_term == 0 and den.constant_term == 0:
        num, den = Polynomial(num.coeffs[1:]), Polynomial(den.coeffs[1:])
    if den.constant_term < 0:
        num, den = -num, -den
    r = (1 + abs(num.constant_term) / den.constant_term) / 2

    def lower(poly, z):
        return poly.constant_term + sum(c * z**k for k, c in enumerate(poly.coeffs) if k and c < 0)

    for x_star in range(1, 400):
        z = q**x_star
        if lower(den, z) > 0 and lower(r * den - num, z) >= 0 and lower(r * den + num, z) >= 0:
            return x_star, r


@pytest.mark.parametrize("p", [QJ, QL, LittleQJacobi(F(1, 32), F(-1, 2), F(1, 2))], ids=repr)
def test_q_ratio_certificate_matches_fraction_reference(p):
    for labels in ((1,), (2,), (1, 2), (1, 3), (2, 4)):
        s = system(p, labels)
        for n, m in ((0, 0), (1, 1), (0, 1), (2, 1)):
            assert _ratio_certificate(s, n, m) == fraction_reference_q_certificate(s, n, m)


def fraction_reference_meixner_certificate(s, n, m):
    # the mirror for M: Fraction polynomials in x by composition, with the
    # tail start searched one lattice step at a time
    shifted = s.p.tilde_shifted(s.M)
    at = lambda poly, k: poly.compose(Polynomial((F(k), 1)))
    pn, pm, xi = s.multi_poly(n), s.multi_poly(m), s.Xi()
    num = shifted.c * Polynomial((shifted.beta, 1)) * at(pn, 1) * at(pm, 1) * xi
    den = Polynomial((1, 1)) * pn * pm * at(xi, 2)
    if den.leading_coefficient < 0:
        num, den = -num, -den
    r = (1 + abs(num.leading_coefficient) / den.leading_coefficient) / 2

    def nonnegative_from(poly, x):  # every coefficient of poly(X + x) is >= 0
        return all(c >= 0 for c in at(poly, x).coeffs)

    for x_star in range(400):
        if at(den, x_star).constant_term > 0 and all(
            nonnegative_from(poly, x_star) for poly in (den, r * den - num, r * den + num)
        ):
            return x_star, r


@pytest.mark.parametrize(
    "p", [Meixner(1, F(1, 2)), Meixner(F(5, 2), F(1, 3)), Meixner(F(1, 2), F(9, 10))], ids=repr
)
def test_meixner_ratio_certificate_matches_fraction_reference(p):
    for labels in ((1,), (2,), (1, 2), (1, 3), (2, 4)):
        s = system(p, labels)
        for n, m in ((0, 0), (1, 1), (0, 1), (2, 1)):
            assert _ratio_certificate(s, n, m) == fraction_reference_meixner_certificate(s, n, m)


def test_weight_positive_and_summable():
    for p, labels in SOME:
        s = system(p, labels)
        for x in range(30):
            assert s.weight(x) > 0


def test_count_sign_changes():
    assert count_sign_changes([1, 2, 3]) == 0
    assert count_sign_changes([1, -1, 2]) == 2
    assert count_sign_changes([1, 0, -1]) == 1
    assert count_sign_changes([]) == 0


def test_invalid_labels_rejected():
    with pytest.raises(ValueError):
        system(M, (1, 1))  # repeated label
    with pytest.raises(ValueError):
        system(QL, (7,))  # beyond v_max
    with pytest.raises(ValueError):
        system(M, (-2,))


@given(st.integers(min_value=0, max_value=60))
@settings(max_examples=30, deadline=None)
def test_weight_positivity_hypothesis(x):
    assert system(M2, (1, 2, 3)).weight(x) > 0
