"""Dense exact polynomials: ring laws, evaluation, interpolation."""

import re
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
    assert Polynomial((1, 2, 4)).scale_argument(F(1, 2)) == Polynomial((1, 1, 1))
    assert Polynomial((2, 4)).scalar_div(2) == Polynomial((1, 2))


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


def newton_reference(points):
    # divided differences over the values' own field, expanded by products
    xs = [F(x) if isinstance(x, int) else x for x, _ in points]
    cs = [F(y) if isinstance(y, int) else y for _, y in points]
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - level])
    poly = Polynomial()
    for x, c in zip(reversed(xs), reversed(cs)):
        poly = poly * Polynomial((-x, 1)) + Polynomial((c,))
    return poly


def q_lattice(q, exponents):
    return [1 - q**x for x in exponents]


node_lists = st.one_of(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=9, unique=True),
    st.lists(rationals.filter(lambda f: f.denominator > 1), min_size=1, max_size=9, unique=True),
    st.builds(
        q_lattice,
        st.sampled_from([F(1, 2), F(1, 3), F(2, 3), F(9, 10), F(1, 1048576)]),
        st.lists(st.integers(min_value=0, max_value=14), min_size=1, max_size=9, unique=True),
    ),
)
values = st.one_of(st.just(0), st.integers(min_value=-10**9, max_value=10**9), rationals)


@given(node_lists, st.data())
@settings(max_examples=150, deadline=None)
def test_interpolate_matches_newton_reference(xs, data):
    pts = [(x, data.draw(values)) for x in xs]
    p = interpolate(pts)
    assert p == newton_reference(pts)
    assert all(type(c) is F for c in p.coeffs)


def test_interpolate_edge_cases():
    message = re.escape("duplicate interpolation node Fraction(1, 1)")
    with pytest.raises(ValueError, match=message):
        interpolate([(1, 2), (F(1, 2), 0), (1, 5)])
    c = RationalFunction.variable()
    with pytest.raises(ValueError, match=message):
        interpolate([(1, c), (F(1, 2), 0), (1, c)])
    single = interpolate([(F(3, 2), 7)])
    assert single.coeffs == (F(7),) and type(single.coeffs[0]) is F
    assert interpolate([(x, 0) for x in range(5)]) == Polynomial()
    assert interpolate([]) == Polynomial()


def test_interpolate_keeps_newton_for_rational_functions():
    c = RationalFunction.variable()
    pts = [(x, (c**k + x) / (1 - c)) for k, x in enumerate((0, F(1, 2), 2, 5))]
    p = interpolate(pts)
    assert p == newton_reference(pts)
    assert all(isinstance(co, RationalFunction) for co in p.coeffs)
    for x, y in pts:
        assert p(x) == y
