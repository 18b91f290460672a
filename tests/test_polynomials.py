"""Dense exact polynomials: ring laws, evaluation, interpolation."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.polynomials import Polynomial, horner, interpolate
from mipoly.ratfunc import RationalFunction

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
polys = st.lists(rationals, min_size=0, max_size=6).map(Polynomial)


def test_trim_and_degree():
    assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert Polynomial(()).degree == float("-inf")  # zero polynomial
    assert not Polynomial((0, 0))
    assert Polynomial((3,)).degree == 0
    assert Polynomial((1, 0, 5)).degree == 2


def test_constant_identity_and_accessors():
    p = Polynomial((F(1, 3), 2, 5))
    assert p.constant_term == F(1, 3)
    assert p.leading_coefficient == 5
    assert p.coefficient(1) == 2
    assert p.coefficient(99) == 0
    assert Polynomial.constant(7)(123) == 7
    assert Polynomial.identity()(F(5, 3)) == F(5, 3)


def test_evaluation_horner():
    p = Polynomial((1, -2, 3))  # 1 - 2x + 3x^2
    assert p(0) == 1
    assert p(2) == 1 - 4 + 12
    assert p(F(1, 2)) == 1 - 1 + F(3, 4)


@given(polys, polys, rationals)
@settings(max_examples=60, deadline=None)
def test_ring_laws_pointwise(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p - q)(x) == p(x) - q(x)
    assert (p * q)(x) == p(x) * q(x)
    assert (-p)(x) == -p(x)


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_degree_of_product(p, q):
    if p and q:
        assert (p * q).degree == p.degree + q.degree


@given(polys, polys, rationals)
@settings(max_examples=40, deadline=None)
def test_compose_pointwise(p, q, x):
    assert p.compose(q)(x) == p(q(x))


def plain_horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


scalars = st.one_of(st.integers(min_value=-10**6, max_value=10**6), rationals)


@given(st.lists(scalars, min_size=0, max_size=8), scalars)
@settings(max_examples=200, deadline=None)
def test_call_matches_plain_horner_in_value_and_type(coeffs, x):
    p = Polynomial(coeffs)
    want = plain_horner(p.coeffs, x)
    for _ in range(2):  # the second call reads the stored integer form
        got = p(x)
        assert got == want and type(got) is type(want)


def test_call_keeps_the_generic_loop_for_rational_functions():
    c = RationalFunction.variable()
    p = Polynomial((1, F(1, 2), 3))
    assert p.integer_form() == ((2, 1, 6), 2, False)
    assert p(c) == 1 + c / 2 + 3 * c * c
    symbolic = Polynomial((c, 1))
    assert symbolic.integer_form() is None
    assert symbolic(F(1, 3)) == c + F(1, 3)


@given(polys, rationals, st.integers(min_value=-9, max_value=9))
@settings(max_examples=60, deadline=None)
def test_taylor_shift_is_composition_with_a_translation(p, k, j):
    assert p.taylor_shift(k) == p.compose(Polynomial((k, 1)))
    ints = Polynomial(range(-3, 4))
    assert ints.taylor_shift(j) == ints.compose(Polynomial((j, 1)))
    assert all(type(c) is int for c in ints.taylor_shift(j).coeffs)


@given(st.lists(st.integers(min_value=-99, max_value=99), max_size=7), rationals)
@settings(max_examples=60, deadline=None)
def test_homogeneous_horner(cs, x):
    d = max(len(cs) - 1, 0)
    assert horner(cs, x.numerator, x.denominator) == Polynomial(cs)(x) * x.denominator**d


def test_pow_scale_scalar_div():
    p = Polynomial((1, 1))
    assert p**3 == Polynomial((1, 3, 3, 1))
    assert p**0 == Polynomial((1,))
    assert Polynomial((1, 2, 4)).scale_argument(F(1, 2)) == Polynomial((1, 1, 1))
    assert Polynomial((2, 4)).scalar_div(2) == Polynomial((1, 2))
    with pytest.raises(ValueError):
        Polynomial((1,)) ** -1


def test_map_coefficients():
    p = Polynomial((1, 2, 3)).map_coefficients(lambda c: c * 2)
    assert p == Polynomial((2, 4, 6))


@given(st.lists(rationals, min_size=1, max_size=5, unique=True), st.data())
@settings(max_examples=40, deadline=None)
def test_interpolate_round_trip(xs, data):
    ys = [data.draw(rationals) for _ in xs]
    p = interpolate(list(zip(xs, ys)))
    assert p.degree <= len(xs) - 1
    for x, y in zip(xs, ys):
        assert p(x) == y


def test_interpolate_recovers_polynomial():
    p = Polynomial((F(1, 7), -3, 0, F(2, 5)))
    pts = [(x, p(x)) for x in range(4)]
    assert interpolate(pts) == p
