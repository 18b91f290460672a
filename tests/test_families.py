"""Base lattice families: potentials, eigenpolynomials, norms, dualities."""

from fractions import Fraction as F

import pytest
from conftest import fold
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly import families
from mipoly.families import (
    FAMILIES,
    _QFamily,
    LittleQJacobi,
    LittleQLaguerre,
    Meixner,
    _shift_identity,
    rodrigues_vector,
    verify_difference_equation,
    verify_shift_relations,
)
from mipoly.multi import system
from mipoly.polynomials import interpolate
from mipoly.ratfunc import RationalFunction
from mipoly.series import pair, q_pochhammer
from mipoly.virtual import verify_linear_relation, xi_poly

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
    assert (M.dn_sq(0).lo, M.dn_sq(0).hi) == (F(1, 2), F(1, 2))  # integer beta: exact, still an Interval
    assert (M.dn_sq(1).lo, M.dn_sq(1).hi) == (F(1, 4), F(1, 4))
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


@pytest.mark.parametrize(
    "make",
    [
        lambda: Meixner(F(5, 2), F(1, 3)),
        lambda: LittleQJacobi(F(1, 32), F(1, 3), F(1, 2)),
        lambda: LittleQLaguerre(F(1, 32), F(1, 2)),
    ],
    ids=["M", "lqJ", "lqL"],
)
def test_norms_enclose_the_mass_once(make, monkeypatch):
    # d_n^2 is a rational times the mass d_0^2: dn_sq(0..5) on a fresh family
    # makes the rational_power and infinite q_pochhammer calls of dn_sq(0) alone
    import mipoly.families as families

    calls = []
    power, qpoch = families.rational_power, families.q_pochhammer

    def counted_power(base, exponent):
        calls.append("rational_power")
        return power(base, exponent)

    def counted_qpoch(a, q, k):
        if k is None:
            calls.append("q_pochhammer")
        return qpoch(a, q, k)

    monkeypatch.setattr(families, "rational_power", counted_power)
    monkeypatch.setattr(families, "q_pochhammer", counted_qpoch)
    make().dn_sq(0)
    alone = list(calls)
    calls.clear()
    p = make()
    for n in range(6):
        p.dn_sq(n)
    assert alone and calls == alone


def test_shift_operators_lower_and_raise():
    # the base shifts are the deformed ones with no label deleted
    for p in ALL:
        up, base = p.shifted(1), system(p, ())
        for n in range(1, 4):
            for x in range(5):
                fn = lambda y: p.poly_value(n, y)
                assert base.forward_apply(fn, x) == p.energy(n) * up.poly_value(n - 1, x)
                gn = lambda y: up.poly_value(n - 1, y)
                assert base.backward_apply(gn, x) == p.poly_value(n, x)


@pytest.mark.parametrize("p", [M, QJ, QL], ids=repr)
def test_rodrigues_vector_at_a_lattice_w_matches_the_fraction_product_formula(p):
    # the stencil at a lattice value of w is the product formula at that x,
    # x = 0 included, where the r_k(-1) term carries D(0) = 0
    for n in range(7):
        oracle = fraction_rodrigues(p, n, 15)
        assert oracle == [p.poly_value(n, x) for x in range(16)]
        assert [rodrigues_vector(p, n, lattice_w(p, x)) for x in range(16)] == oracle


def test_validation_messages():
    with pytest.raises(ValueError, match="requires beta > 0"):
        Meixner(0, F(1, 2))
    with pytest.raises(ValueError, match="requires 0 < c < 1"):
        Meixner(1, 2)
    with pytest.raises(ValueError, match="requires 0 < q < 1"):
        LittleQLaguerre(F(1, 4), 2)
    with pytest.raises(ValueError, match="requires 0 < a < 1$"):
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
        assert (moved.a, moved.b, moved.q) == (a, 0, F(1, 2))
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


def test_families_construct_by_name_or_position():
    assert Meixner(beta=1, c=F(1, 2)) == Meixner(1, c=F(1, 2)) == M
    assert LittleQJacobi(a=F(1, 32), b=F(1, 3), q=F(1, 2)) == QJ
    assert LittleQLaguerre(q=F(1, 2), a=F(1, 32)) == QL
    assert QL.b == 0 and LittleQLaguerre(F(1, 32), F(1, 2)).shifted(2).b == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: Meixner(1, F(1, 2), validate=False),
        lambda: Meixner(1, c=F(1, 2), beta=1),  # beta twice
        lambda: Meixner(1),
        lambda: LittleQJacobi(F(1, 32), F(1, 3), F(1, 2), validate=True),
        lambda: LittleQLaguerre(F(1, 32), 0, F(1, 2)),  # lqL has no b
        lambda: LittleQLaguerre(F(1, 32), F(1, 2), b=0),
    ],
)
def test_families_take_exactly_their_parameters(make):
    with pytest.raises(TypeError, match="takes exactly the parameters"):
        make()


@pytest.mark.parametrize("p", [M, QJ, QL], ids=repr)
def test_a_subclass_moves_build_the_declared_family(p):
    class Sub(type(p)):
        __slots__ = ()

    s = Sub(*p._key())
    assert repr(s) == repr(p)
    for move, args in (("shifted", (1,)), ("twisted", ()), ("tilde_shifted", (2,))):
        moved = getattr(s, move)(*args)
        assert type(moved) is type(p) and moved == getattr(p, move)(*args)


def test_difference_equation_and_shifts_reports():
    for p in ALL:
        rep = verify_difference_equation(p, 4)
        assert rep.passed, rep.failures()[:3]
        rep = verify_shift_relations(p, 4)
        assert rep.passed, rep.failures()[:3]


def fraction_difference_checks(p, n_max, x_max):
    """verify_difference_equation's checks as (name, passed, witness) rows,
    one per x of each identity (`fold` folds them), with the difference
    equation written out in Fractions.  There is no n = 0 row: P_0 = 1
    reduces it to E_0 = 0, which the spectrum row states."""
    out = []
    for n in range(1, n_max + 1):
        e = p.energy(n)
        vals = [p.poly_value(n, x) for x in range(-1, x_max + 2)]
        for x in range(x_max + 1):
            lhs = p.B(x) * (vals[x + 1] - vals[x + 2]) + p.D(x) * (vals[x + 1] - vals[x])
            out.append((f"n={n} for all x", lhs == e * vals[x + 1], f"x={x}"))
    mono = all(p.energy(n) < p.energy(n + 1) for n in range(n_max + 1))
    out.append(("spectrum increasing, E_0 = 0", mono and p.energy(0) == 0, ""))
    return out


def fraction_forward(p, f, x):
    """(F f)(x) = B(0) (f(x) - f(x+1)) / varphi(x), in Fractions."""
    return p.B(0) * (f(x) - f(x + 1)) / p.varphi(x)


def fraction_backward(p, f, x):
    """(G f)(x) = (B(x) varphi(x) f(x) - D(x) varphi(x-1) f(x-1)) / B(0), in
    Fractions; D(0) = 0 drops f(-1) at x = 0."""
    val = p.B(x) * p.varphi(x) * f(x)
    if x >= 1:
        val -= p.D(x) * p.varphi(x - 1) * f(x - 1)
    return val / p.B(0)


def fraction_rodrigues(p, n, x_max):
    """P_n(x) for x = 0..x_max from the product formula, in Fractions: the
    operator g(x) |-> g(x)/varphi(x) - g(x-1)/varphi(x-1), its g(-1) term
    dropped at x = 0, applied n times to phi0_sq at parameters shifted n
    steps, then divided by phi0_sq at p's parameters.  Both ground states are
    those of the moved families, p.shifted(n) and p.shifted(0), as every
    ground state `rodrigues_vector` reads is (a `spoilt_family`'s moves are
    the sound family)."""
    g = [p.shifted(n).phi0_sq(x) for x in range(x_max + n + 1)]
    for _ in range(n):
        g = [g[x] / p.varphi(x) - (g[x - 1] / p.varphi(x - 1) if x >= 1 else 0) for x in range(len(g) - 1)]
    return [g[x] / p.shifted(0).phi0_sq(x) for x in range(x_max + 1)]


def fraction_shift_checks(p, n_max, x_max):
    """verify_shift_relations' checks as (name, passed, witness) rows, one
    per x of each identity (`fold` folds them), with the shifts, the product
    formula and shape invariance written out in Fractions."""
    up, out = p.shifted(1), []
    for n in range(1, n_max + 1):
        e, pn, qn = p.energy(n), (lambda y: p.poly_value(n, y)), (lambda y: up.poly_value(n - 1, y))
        rod = fraction_rodrigues(p, n, x_max)
        for x in range(x_max + 1):
            out.append((f"forward n={n} for all x", fraction_forward(p, pn, x) == e * qn(x), f"x={x}"))
            out.append((f"backward n={n} for all x", fraction_backward(p, qn, x) == pn(x), f"x={x}"))
            out.append((f"product formula n={n} for all x", rod[x] == pn(x), f"x={x}"))
    kappa, e1 = p.kappa, p.energy(1)
    for x in range(x_max + 1):
        diag = p.B(x) + p.D(x + 1) == kappa * (up.B(x) + up.D(x)) + e1
        offd = p.B(x + 1) * p.D(x + 1) == kappa**2 * up.B(x) * up.D(x + 1)
        out.append(("shape-invariance diagonal for all x", diag, f"x={x}"))
        out.append(("shape-invariance squared off-diagonal for all x", offd, f"x={x}"))
    return out


def spoilt_family(p, name, extra):
    """A family equal to p but for extra(w), a function of the lattice
    variable, added to B_w, D_w or poly_value_w (name "B", "D" or "P"); for
    M, whose B, D and poly_value are the same functions, to those as well.
    It is an instance of a subclass, so its moves (shifted, twisted) build
    the sound class."""
    short = {"B": "B", "D": "D", "P": "poly_value"}[name]
    original = getattr(type(p), short + "_w")

    def spoilt(self, *args, _f=original):
        return _f(self, *args) + extra(args[-1])

    class Spoilt(type(p)):
        __slots__ = ()

    setattr(Spoilt, short + "_w", spoilt)
    if getattr(type(p), short) is original:
        setattr(Spoilt, short, spoilt)
    return Spoilt(*p._key())


def lattice_w(p, x):
    """The lattice variable w at x: eta(x) = alpha_0 + beta_0 w."""
    a0, b0 = p.eta_affine(0)
    return (p.eta(x) - a0) / b0


def bump(p, x0):
    """The polynomial in w that is 1/7 at w(x0) and 0 at the other w(x),
    x in -1..14: at the lattice points it is wrong at x0 and from x = 15 on."""
    nodes = [lattice_w(p, x) for x in range(-1, 15) if x != x0]

    def extra(w):
        out = F(1, 7)
        for v in nodes:
            out = out * (w - v) / (lattice_w(p, x0) - v)
        return out

    return extra


ORACLE_FAMILIES = pytest.mark.parametrize(
    "make",
    [
        lambda: Meixner(1, F(1, 2)),
        lambda: LittleQJacobi(F(1, 32), F(1, 3), F(1, 2)),
        lambda: LittleQLaguerre(F(1, 32), F(1, 2)),
    ],
    ids=["M", "lqJ", "lqL"],
)


@pytest.mark.parametrize(
    "how", [None, ("B", 3), ("B", 0), ("D", 3), ("P", 8)], ids=["sound", "B(3)", "B(0)", "D(3)", "P(8)"]
)
@ORACLE_FAMILIES
def test_base_pair_checks_match_their_fraction_form(make, how):
    # the difference equation, the shifts, the product formula and shape
    # invariance are each decided once for every x; each passes exactly when
    # its Fraction form written out here holds at every x in 0..15, and names
    # its first failing x, for the sound family and for one whose B, D or P_n
    # is off by a `bump` at x0 (P_n at x0 = 8, past the points 1..7 at which
    # `poly` checks its Newton form against the series for n <= 3).  The
    # window reaches x = 15, where the bump is nonzero again: an identity may
    # not read x0 on 0..12 (the off-diagonal reads B(x+1), never B(0); and
    # P_2(2) = P_2(3) for M hides D(3) from n = 2), yet fail for all x.  The
    # product formula reads B and D only of p.shifted(j), j >= 0, which a
    # spoilt family builds sound, so of these bumps only P's fails it.
    p = make() if how is None else spoilt_family(make(), how[0], bump(make(), how[1]))
    failures = 0
    for rep, oracle in (
        (verify_difference_equation(p, 3), fraction_difference_checks),
        (verify_shift_relations(p, 3), fraction_shift_checks),
    ):
        got = [(c.name, c.passed, c.witness) for c in rep.checks]
        expected = fold(oracle(p, 3, 15))
        assert got == expected
        failures += sum(not passed for _, passed, _ in expected)
    assert (failures == 0) == (how is None)


@pytest.mark.parametrize("how, witness", [("bump", "x=2"), ("doubled", "x=0")])
@ORACLE_FAMILIES
def test_a_wrong_rho_fails_every_product_formula_row(make, how, witness, monkeypatch):
    # rho's closed form off by a `bump` at x0 = 3 breaks the recurrence
    # rho(x+1)/rho(x) first at x = 2; doubled it keeps the recurrence but
    # breaks rho(0) = 1, at every x.  Row n decides rho at the shift n, so
    # each row fails, and no other row reads rho.
    p, rho = make(), families._rho
    extra = bump(p, 3)
    spoilt = {"bump": lambda lo, w: rho(lo, w) + extra(w), "doubled": lambda lo, w: 2 * rho(lo, w)}[how]
    monkeypatch.setattr(families, "_rho", spoilt)
    failures = [(c.name, c.witness) for c in verify_shift_relations(p, 3).failures()]
    assert failures == [(f"product formula n={n} for all x", witness) for n in (1, 2, 3)]


@ORACLE_FAMILIES
def test_the_product_formula_decides_each_shifts_rho_once(make, monkeypatch):
    # row n decides rho's closed form at the shift it adds, from lambda +
    # (n-1) delta; rows 1..n-1 decide the others that rodrigues_vector reads.
    # So rho(0) = 1, read at the lattice w of x = 0, is decided once per shift
    p, rho, decided = make(), families._rho, []

    def recording(lo, w):
        if not isinstance(w, RationalFunction):  # the stencil reads rho at the symbolic w
            decided.append(lo)
        return rho(lo, w)

    monkeypatch.setattr(families, "_rho", recording)
    assert verify_shift_relations(p, 5).passed
    assert decided == [p.shifted(j) for j in range(5)]


@pytest.mark.parametrize("name", ["B", "D"])
@ORACLE_FAMILIES
def test_a_potential_wrong_only_past_the_window_fails_for_all_x(make, name):
    # B_w or D_w off by (1/7) prod_{j=-1}^{14} (w - w(j)): every lattice
    # value up to x = 14 is the sound one, so the Fraction forms hold on
    # 0..12, yet the identities decided for every x fail, each first at an
    # x >= 14, and nothing else fails
    p = make()
    nodes = [lattice_w(p, j) for j in range(-1, 15)]

    def extra(w):
        out = F(1, 7)
        for v in nodes:
            out = out * (w - v)
        return out

    p = spoilt_family(p, name, extra)
    assert all(passed for _, passed, _ in fraction_difference_checks(p, 3, 12) + fraction_shift_checks(p, 3, 12))
    base = verify_difference_equation(p, 3).failures() + verify_shift_relations(p, 3).failures()
    virtual = verify_linear_relation(p, 12).failures()
    assert base and {c.name for c in virtual} == {"product identity for all x", "sum identity for all x"}
    for c in base + virtual:
        assert c.name.endswith(" for all x") and int(c.witness.removeprefix("x=")) >= 14, (c.name, c.witness)


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
        Meixner(F(3, 2), RationalFunction.variable()),  # symbolic c
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
    # B, D, varphi, P_n and the weight ratio read in w agree with the
    # lattice values
    a0, b0 = p.eta_affine(0)
    w = lambda x: (p.eta(x) - a0) / b0
    for x in range(-2, 11):
        for k in range(-1, 3):
            ak, bk = p.eta_affine(k)
            assert p.eta(x + k) == ak + bk * w(x), (x, k)
            assert p.step_w(w(x), k) == w(x + k), (x, k)
        assert p.B_w(w(x)) == p.B(x) and p.D_w(w(x)) == p.D(x), x
        assert p.varphi_w(w(x)) == p.varphi(x), x
        for n in range(5):
            assert p.poly_value_w(n, w(x)) == p.poly_value(n, x), (n, x)
        if x >= 0:
            ratio = p.B_w(w(x)) / p.D_w(p.step_w(w(x), 1))
            assert ratio == p.phi0_sq(x + 1) / p.phi0_sq(x), x


@pytest.mark.parametrize("suite", [verify_difference_equation, verify_shift_relations])
def test_a_symbolic_parameter_is_refused_not_read_as_w(suite):
    # RationalFunction is univariate: decided at the symbolic w, a symbolic c
    # would be the same variable, so each row would hold only on c = w
    with pytest.raises(TypeError, match="not defined for symbolic parameters: c is symbolic"):
        suite(Meixner(F(5, 2), RationalFunction.variable()), 2)


def test_the_shift_predicate_decides_the_cleared_form_at_a_zero_divisor():
    # with fc = 0, F f = k g states f0 f(x) = f1 f(x+1): decided, not raised;
    # only an all-zero triple, which states nothing, raises
    f = lambda x: pair(F(x + 1, 3))
    table = lambda x: ((x + 2, x + 1, 0), (1, 1, 0)) if x < 5 else ((0, 0, 0), (0, 0, 0))
    assert all(_shift_identity(table, f, f, 7, True)(x) for x in range(5))  # (x+2)(x+1) = (x+1)(x+2)
    assert not any(_shift_identity(table, f, f, 7, False)(x) for x in range(5))  # f(x) != f(x-1)
    for forward in (True, False):
        with pytest.raises(ZeroDivisionError, match="every shift coefficient vanishes"):
            _shift_identity(table, f, f, 7, forward)(5)
