"""The fraction-free series kernel against the reduced-Fraction loops it replaced.

The pair kernel itself (`series.pair`, `pair_value`, `pair_product`,
`pair_quotient`, `pair_sum`, `pair_equal`, `pair_common`) is checked against
Fraction arithmetic on unreduced pairs, and on (Polynomial, int) pairs.

`Meixner.poly_value` (also M's `poly_value_w`), `LittleQJacobi.poly_value_w`
(inherited by lqL) and `virtual.xi_series_terms` sum their terminating series
on unreduced integer pairs with one reduction per value.  The loops below are
the same series summed term by term in reduced arithmetic, as the library did
before; every value must agree exactly, and the certificate's term list must
agree element by element.
"""

from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.families import LittleQJacobi, LittleQLaguerre, Meixner
from mipoly.limits import _q_family
from mipoly.polynomials import Polynomial
from mipoly.ratfunc import RationalFunction
from mipoly.series import (
    pair,
    pair_common,
    pair_equal,
    pair_product,
    pair_quotient,
    pair_sum,
    pair_value,
    pochhammer,
    q_pochhammer,
)
from mipoly.virtual import xi_series_terms


def _one_like(scalar):
    return scalar / scalar if isinstance(scalar, RationalFunction) else F(1)


def meixner_value_reference(p, n, x):
    z = 1 - 1 / p.c
    term = _one_like(z)
    total = term
    for k in range(n):
        term = term * (k - n) * (k - x) * z / ((p.beta + k) * (k + 1))
        total = total + term
    return total


def q_value_reference(p, n, w):
    a, b, q = p.a, p.b, p.q
    q_n, abq = q**-n, a * b * q ** (n + 1)
    qk = 1
    term = _one_like(w)
    total = term
    for k in range(n):
        qk1 = qk * q
        step = (qk * q_n - 1) * (w - qk) / ((1 - qk1) * qk * a)
        if b:
            step = step * (1 - abq * qk) / (1 - b * qk1)
        term = term * step
        total = total + term
        qk = qk1
    return total


def value_reference(p, n, w):
    if isinstance(p, Meixner):
        return meixner_value_reference(p, n, w)
    return q_value_reference(p, n, w)


def xi_terms_reference(p, v, x):
    if isinstance(p, Meixner):
        one = p.c / p.c if isinstance(p.c, RationalFunction) else F(1)
        return [
            one
            * pochhammer(v - k + 1, k)
            * pochhammer(x - k + 1, k)
            / pochhammer(p.beta, k)
            * (1 - p.c) ** k
            / pochhammer(F(1), k)
            for k in range(min(v, x) + 1)
        ]
    a, b, q = p.a, p.b, p.q
    pref = q_pochhammer(a * q**-v, q, v) * q_pochhammer(b * q ** (x + 1), q, v) / q_pochhammer(b * q, q, v)
    return [
        pref
        * q_pochhammer(q ** (v - k + 1), q, k)
        * q_pochhammer(b * q ** (v - k + 1), q, k)
        / (
            q_pochhammer(a * q**-k, q, k)
            * q_pochhammer(b * q ** (v - k + 1 + x), q, k)
            * q_pochhammer(q, q, k)
        )
        * (a * q ** (x - v)) ** k
        for k in range(v + 1)
    ]


SYMBOLIC_M = Meixner(F(5, 2), RationalFunction.variable())
FAMILIES = [
    Meixner(1, F(1, 2)),
    Meixner(F(5, 2), F(1, 3)),
    Meixner(1, F(1, 2)).twisted(),
    SYMBOLIC_M,
    LittleQJacobi(F(1, 32), F(1, 3), F(1, 2)),
    LittleQJacobi(F(1, 32), F(-1, 2), F(1, 2)),
    LittleQLaguerre(F(1, 32), F(1, 2)),
    # the limits suite's families at q = 1 - 2^-14
    _q_family("lqJ", 4, 5, 14),
    _q_family("lqL", 4, None, 14),
]
OFF_LATTICE = (F(2, 3), F(5, 7), F(3, 2))


@pytest.mark.parametrize("p", FAMILIES, ids=repr)
def test_series_values_match_the_fraction_loops(p):
    for fam in (p, p.twisted()):
        a0, b0 = fam.eta_affine(0)
        lattice = [(fam.eta(x) - a0) / b0 for x in range(-2, 16)]
        for n in range(9):
            for w in (*lattice, *OFF_LATTICE):
                got, want = fam.poly_value_w(n, w), value_reference(fam, n, w)
                assert got == want, (fam, n, w)
                assert type(got) is type(want), (fam, n, w)
            for x in range(-2, 16):
                assert fam.poly_value(n, x) == value_reference(fam, n, lattice[x + 2]), (fam, n, x)


@pytest.mark.parametrize("p", [p for p in FAMILIES if p is not SYMBOLIC_M], ids=repr)
def test_xi_series_terms_match_the_fraction_loops(p):
    # element-wise equal lists: the certificate's failure witnesses print them
    labels = range(1, 9) if p.v_max() is None else range(1, min(8, p.v_max()) + 1)
    for v in labels:
        for x in range(16):
            got, want = xi_series_terms(p, v, x), xi_terms_reference(p, v, x)
            assert got == want, (p, v, x)
            assert [type(t) for t in got] == [type(t) for t in want]
            assert repr(got) == repr(want)


def test_symbolic_xi_series_terms_match_the_fraction_loop():
    for v in range(1, 5):
        for x in range(6):
            got, want = xi_series_terms(SYMBOLIC_M, v, x), xi_terms_reference(SYMBOLIC_M, v, x)
            assert got == want and all(type(t) is RationalFunction for t in got), (v, x)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Meixner(1, F(1, 2)),
        lambda: Meixner(F(3, 2), RationalFunction.variable()),
        lambda: LittleQJacobi(F(1, 32), F(1, 3), F(1, 2)),
        lambda: LittleQJacobi(F(1, 32), F(-1, 2), F(1, 2)),
    ],
    ids=["M", "M-symbolic", "lqJ", "lqJ-negative-b"],
)
def test_poly_rejects_a_corrupted_term_ratio(make, monkeypatch):
    # poly_value is coded apart from term_ratio, so a wrong Newton form fails
    cls = type(make())
    original = cls.term_ratio
    monkeypatch.setattr(cls, "term_ratio", lambda self, n, k: original(self, n, k) * (F(7, 5) if k == 2 else 1))
    with pytest.raises(ArithmeticError, match="Newton form fails the series"):
        make().poly(4)


# -- the pair kernel against Fraction arithmetic ---------------------------------------

values = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@st.composite
def unreduced(draw):
    """A pair (n, d), d > 0, for a drawn value, scaled by a common factor so
    that it is usually not in lowest terms."""
    v, m = draw(values), draw(st.integers(min_value=1, max_value=9))
    return v.numerator * m, v.denominator * m


def value(p):
    return F(*p)


def test_pair_reads_ints_fractions_and_symbolic_scalars():
    c = RationalFunction.variable()
    assert pair(7) == (7, 1) and pair(-3) == (-3, 1) and pair(True) == (1, 1)
    assert pair(F(-4, 6)) == (-2, 3)
    assert pair(c) == (c, 1)
    assert pair_value(6, 4) == F(3, 2) and type(pair_value(6, 4)) is F
    assert pair_value(c, 2) == c / 2 and type(pair_value(c, 1)) is RationalFunction


@given(st.lists(unreduced(), max_size=5))
@settings(max_examples=80, deadline=None)
def test_pair_product_and_sum_match_fractions(ps):
    n, d = pair_product(*ps)
    assert d > 0 and F(n, d) == prod((value(p) for p in ps), start=F(1))
    n, d = pair_sum(*ps)
    assert d > 0 and F(n, d) == sum((value(p) for p in ps), start=F(0))


@given(unreduced(), unreduced())
@settings(max_examples=80, deadline=None)
def test_pair_quotient_matches_fractions(top, bottom):
    if bottom[0] == 0:
        with pytest.raises(ZeroDivisionError):
            pair_quotient(top, bottom)
        return
    n, d = pair_quotient(top, bottom)
    assert d > 0 and F(n, d) == value(top) / value(bottom)


def test_pair_quotient_moves_the_sign_off_a_negative_divisor():
    assert pair_quotient((3, 4), (-5, 6)) == (-18, 20)
    assert pair_quotient((-3, 4), (-5, 6)) == (18, 20)
    with pytest.raises(ZeroDivisionError):
        pair_quotient((3, 4), (0, 7))


@given(unreduced(), unreduced(), st.integers(min_value=-9, max_value=9).filter(bool))
@settings(max_examples=80, deadline=None)
def test_pair_equal_is_value_equality(a, b, m):
    assert pair_equal(a, b) == (value(a) == value(b))
    assert pair_equal(a, (a[0] * m, a[1] * m))  # the same value, unreduced


@given(st.lists(unreduced(), min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_pair_common_numerators_share_one_denominator(ps):
    den = prod(d for _, d in ps)
    assert [F(n, den) for n in pair_common(*ps)] == [value(p) for p in ps]


@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
            st.integers(min_value=1, max_value=9),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=60, deadline=None)
def test_pair_product_of_polynomial_pairs(factors):
    ps = [(Polynomial(cs), d) for cs, d in factors]
    n, d = pair_product(*ps)
    for x in (F(-2), F(1, 3), F(5, 2)):
        assert F(n(x)) / d == prod((F(p(x)) / q for p, q in ps), start=F(1))
