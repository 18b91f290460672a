"""Shifted factorials, certified q-products, intervals, rational powers."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mipoly.series import (
    DEFAULT_EPS,
    Interval,
    _iroot_floor,
    as_interval,
    pochhammer,
    q_pochhammer,
    rational_power,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=10)


def test_pochhammer_factorial_oracle():
    for k in range(8):
        assert pochhammer(1, k) == math.factorial(k)
    assert pochhammer(F(1, 2), 3) == F(1, 2) * F(3, 2) * F(5, 2)
    assert pochhammer(-3, 5) == 0  # terminates past a negative integer
    assert pochhammer(7, 0) == 1


def test_q_pochhammer_finite_product():
    a, q = F(1, 3), F(1, 2)
    expected = (1 - a) * (1 - a * q) * (1 - a * q**2)
    assert q_pochhammer(a, q, 3) == expected
    assert q_pochhammer(a, q, 0) == 1


def test_q_pochhammer_infinite_is_certified():
    a, q = F(1, 3), F(1, 2)
    enc = q_pochhammer(a, q, None)
    # splitting off exact factors must keep the enclosures consistent:
    # (a; q)_inf = (a; q)_5 * (a q^5; q)_inf
    head = q_pochhammer(a, q, 5)
    tail = q_pochhammer(a * q**5, q, None)
    split = as_interval(head) * tail
    assert enc.overlaps(split)
    assert enc.width <= 2 * DEFAULT_EPS
    # crude but independent bracket from 40 exact factors
    p40 = q_pochhammer(a, q, 40)
    assert enc.lo <= p40 and p40 * (1 - a * q**40 / (1 - q)) <= enc.hi


def fraction_loop_q_product(a, q):
    # the infinite product on Fractions, reduced at every step
    partial, aq = F(1), F(a)
    while True:
        t = abs(aq) / (1 - q)
        if 2 * t <= 1 and abs(partial) * t / (1 - t) <= DEFAULT_EPS:
            lo, hi = partial * (1 - t), partial / (1 - t)
            return min(lo, hi), max(lo, hi)
        partial *= 1 - aq
        aq *= q


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=40),
    st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9),
)
@settings(max_examples=40, deadline=None)
def test_q_pochhammer_infinite_matches_fraction_loop(a, q):
    iv = q_pochhammer(a, q, None)
    assert (iv.lo, iv.hi) == fraction_loop_q_product(a, q)


def test_interval_basics():
    iv = Interval(F(1, 3), F(1, 2))
    assert iv.lo <= F(2, 5) <= iv.hi
    assert iv.width == F(1, 6)
    assert iv.midpoint == F(5, 12)
    assert iv.overlaps(Interval(F(1, 2), 1))
    assert not iv.overlaps(Interval(2, 3))
    assert Interval.exact(F(3)).width == 0
    with pytest.raises(ValueError):
        Interval(1, 0)


@given(rationals, rationals, rationals, rationals, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_interval_arithmetic_contains_pointwise(a, b, c, d, u, v):
    lo1, hi1 = min(a, b), max(a, b)
    lo2, hi2 = min(c, d), max(c, d)
    x = lo1 + abs(u) % 1 * (hi1 - lo1)
    y = lo2 + abs(v) % 1 * (hi2 - lo2)
    i1, i2 = Interval(lo1, hi1), Interval(lo2, hi2)
    prod = i1 * i2
    assert prod.lo <= x * y <= prod.hi
    if lo2 > 0 or hi2 < 0:
        quot = i1 / i2
        assert quot.lo <= x / y <= quot.hi


def test_interval_division_through_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Interval(1, 2) / Interval(-1, 1)


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=6))
@example(2 ** (101 * 1000 - 1), 1000)  # the radicand rational_power builds for (1/2)^(1/1000)
@settings(max_examples=80, deadline=None)
def test_iroot_floor(n, r):
    t = _iroot_floor(n, r)
    assert t**r <= n < (t + 1) ** r


def test_rational_power_exact_cases():
    enc5 = rational_power(F(1, 2), F(5))
    assert (enc5.lo, enc5.hi) == (F(1, 32), F(1, 32))
    enc = rational_power(F(4, 9), F(3, 2))
    assert enc.lo <= F(8, 27) <= enc.hi
    assert enc.width <= DEFAULT_EPS


@pytest.mark.parametrize("base, exponent", [(F(1, 2), F(201, 2)), (F(1, 3), F(1001, 3)), (F(7), F(5, 2))], ids=str)
def test_rational_power_is_relatively_tight_for_any_value(base, exponent):
    # (1/2)^(201/2) < 2^-100 once had lower endpoint 0
    enc = rational_power(base, exponent)
    r = exponent.denominator
    assert 0 < enc.lo and enc.width <= DEFAULT_EPS * enc.lo and enc.width <= DEFAULT_EPS
    assert enc.lo**r <= base**exponent.numerator <= enc.hi**r


def test_rational_power_squares_back():
    enc = rational_power(F(1, 2), F(5, 2))
    sq = enc * enc
    assert sq.lo <= F(1, 32) <= sq.hi
