"""Rational functions over the exact rationals and coefficient-wise limits."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.polynomials import Polynomial
from mipoly.ratfunc import PoleError, RationalFunction, limit_at, polynomial_gcd

t = RationalFunction.variable()
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)
polys = st.lists(rationals, min_size=0, max_size=4).map(Polynomial)


def test_reduction_to_canonical_form():
    r = RationalFunction(Polynomial((-1, 0, 1)), Polynomial((-1, 1)))  # (t^2-1)/(t-1)
    assert r == t + 1
    assert r.den == Polynomial((1,))
    # canonical denominators are monic
    r2 = RationalFunction(Polynomial((1,)), Polynomial((0, 2)))
    assert r2.den == Polynomial((0, 1))
    assert r2.num == Polynomial((F(1, 2),))


def test_equality_and_hash():
    a = (t + 1) / (t - 1)
    b = (t * t - 1) / ((t - 1) * (t - 1))
    assert a == b
    assert hash(a) == hash(b)
    assert a != t


@given(polys, polys, polys, polys, rationals)
@settings(max_examples=50, deadline=None)
def test_field_laws_pointwise(pn, pd, qn, qd, x):
    if not pd or not qd:
        return
    a = RationalFunction(pn, pd)
    b = RationalFunction(qn, qd)
    try:
        ax, bx = a.evaluate(x), b.evaluate(x)
        sx = (a + b).evaluate(x)
        px = (a * b).evaluate(x)
    except PoleError:
        return
    assert sx == ax + bx
    assert px == ax * bx
    if bx != 0:
        assert (a / b).evaluate(x) == ax / bx


def test_pole_errors():
    r = 1 / (t - 2)
    with pytest.raises(PoleError):
        r.evaluate(2)
    with pytest.raises(ZeroDivisionError):
        r / RationalFunction(Polynomial(()))


def test_limit_at_removable_singularity():
    r = (t * t - 1) / (t - 1)
    assert limit_at(r, F(1)) == 2
    # genuinely singular points still raise
    with pytest.raises(PoleError):
        limit_at(1 / (t - 1), F(1))


def test_limit_at_passthrough_scalars():
    assert limit_at(F(3, 7), F(1)) == F(3, 7)
    assert limit_at(5, F(2)) == 5


def test_powers():
    r = (t + 1) ** 3
    assert r.evaluate(1) == 8
    assert (t**-2).evaluate(2) == F(1, 4)


@given(polys, polys, polys)
@settings(max_examples=40, deadline=None)
def test_polynomial_gcd_divides(a, b, m):
    if not m:
        return
    g = polynomial_gcd(a * m, b * m)
    if not a and not b:
        return
    # m divides the gcd of (am, bm)
    assert g.degree >= m.degree
    for x in range(8):
        xv = F(x)
        if m(xv) == 0:
            assert g(xv) == 0


def test_constants_equal_and_hash_like_their_fractions():
    for v in (0, 3, -7, F(1, 2), F(-5, 3)):
        r = RationalFunction(v)
        assert r == v and v == r
        assert hash(r) == hash(v) == hash(F(v))
    assert {F(3): 1}.get(RationalFunction(3)) == 1
    assert {3: "a"}[(t + 3) - t] == "a"
    assert {RationalFunction(F(1, 2)): 1}.get(F(1, 2)) == 1


def test_equality_with_other_types_is_false_not_an_error():
    assert (RationalFunction(3) == None) is False  # noqa: E711
    assert RationalFunction(3) != "3"
    assert t != object()


nonzero_polys = polys.filter(bool)


@given(polys, nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_common_factor_cancels_to_the_same_canonical_form(n, d, m):
    r = RationalFunction(n, d)
    s = RationalFunction(n * m, d * m)
    assert s.num.coeffs == r.num.coeffs
    assert s.den.coeffs == r.den.coeffs
    assert s == r and hash(s) == hash(r)


@given(polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_canonical_form_is_reduced_with_monic_denominator(n, d):
    r = RationalFunction(n, d)
    assert r.den.leading_coefficient == 1
    if r:
        assert polynomial_gcd(r.num, r.den) == 1
    else:
        assert r.den == 1


@given(polys, nonzero_polys, polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_equal_values_hash_equal(pn, pd, qn, qd):
    a = RationalFunction(pn, pd)
    b = RationalFunction(qn, qd)
    for x, y in ((a, (a + b) - b), (a, (a * b) / b if b else a), (a * b, b * a), (a + 1, 1 + a)):
        assert x == y
        assert hash(x) == hash(y)
        assert (x.num, x.den) == (y.num, y.den)


@given(nonzero_polys, st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_limit_at_removable_singularity_of_high_order(p, k):
    s = RationalFunction(p)
    r = ((t - 1) ** k * s) / ((t - 1) ** k)
    assert limit_at(r, F(1)) == p(F(1))
    r = ((t - 1) ** k * (t + 2)) / ((t - 1) ** k)
    assert r == t + 2
    assert limit_at(r, 1) == 3


@given(nonzero_polys)
@settings(max_examples=40, deadline=None)
def test_limit_at_pole_of_order_two(p):
    if p(F(1)) == 0:
        return
    with pytest.raises(PoleError):
        limit_at(RationalFunction(p) / ((t - 1) ** 2), F(1))
    with pytest.raises(PoleError):
        limit_at(RationalFunction(p) / ((t - 1) ** 2 * (t + 3)), F(1))


def test_limits_suite_takes_few_polynomial_gcds(monkeypatch):
    # The limits suite verify_meixner_limits(3/2) built 7 996 rational
    # functions before the integer kernel, 2 266 of them with a non-constant
    # denominator, and took a gcd for every build.  Constant denominators
    # (and sums and products that cannot create a common factor) must not
    # reach the polynomial gcd at all.
    from mipoly import multi, ratfunc
    from mipoly.limits import verify_meixner_limits

    calls = [0]
    original = ratfunc._zx_gcd

    def counting_gcd(a, b):
        calls[0] += 1
        return original(a, b)

    monkeypatch.setattr(ratfunc, "_zx_gcd", counting_gcd)
    monkeypatch.setattr(multi, "_SYSTEMS", {})  # cold: no cached symbolic systems
    assert verify_meixner_limits(F(3, 2)).passed
    assert 0 < calls[0] < 2266
