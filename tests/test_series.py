"""Shifted factorials, certified q-products, intervals, rational powers."""

import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mipoly.families import LittleQLaguerre
from mipoly.series import (
    _BITS,
    DEFAULT_EPS,
    Interval,
    _iroot_floor,
    _outward,
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
    # the infinite product on Fractions, reduced at every step: the exact
    # bracket P_n [1 - T, 1/(1 - T)] at the first n the stopping test passes,
    # and that n
    partial, aq, n = F(1), F(a), 0
    while True:
        t = abs(aq) / (1 - q)
        if 2 * t <= 1 and abs(partial) * t / (1 - t) <= DEFAULT_EPS:
            lo, hi = partial * (1 - t), partial / (1 - t)
            return min(lo, hi), max(lo, hi), n
        partial *= 1 - aq
        aq *= q
        n += 1


@given(
    st.integers(min_value=-(2**600), max_value=2**600),
    st.integers(min_value=0, max_value=2**300),
    st.integers(min_value=1, max_value=2**80),
    st.integers(min_value=-2 * _BITS, max_value=0),
)
@example(-(2**600), 2**300, 1, 0)  # above 2^_BITS: the grid stops at 1
@example(1, 0, 3, -2 * _BITS)  # far below 1: the grid stops at 2^-_BITS
@settings(max_examples=200, deadline=None)
def test_outward_rounds_onto_a_grid_of_fixed_size(lo, width, d, e):
    # [lo, hi]/d 2^e lies in [lo', hi'] 2^e', each endpoint moved by less
    # than one step 2^e' of a grid within [2^-_BITS, 1] that keeps at most
    # _BITS + 1 significant bits (below 2^_BITS), so by less than
    # 2^(1-_BITS) max(max(|lo|, |hi|)/d 2^e, 1/2)
    hi = lo + width
    rlo, rhi, f = _outward(lo, hi, d, e)
    x_lo, x_hi, step = F(lo, d) * F(2) ** e, F(hi, d) * F(2) ** e, F(2) ** f
    assert -_BITS <= f <= 0
    assert 0 <= x_lo - rlo * step < step and 0 <= rhi * step - x_hi < step
    assert step <= F(2, 2**_BITS) * max(abs(x_lo), abs(x_hi), F(1, 2))
    assert f == 0 or max(-rlo, rhi).bit_length() <= _BITS + 1


def assert_fixed_size(iv):
    # every endpoint has at most _BITS + 1 significant bits on a grid no finer
    # than 2^-_BITS, for endpoints below 2^_BITS in size
    for v in (iv.lo, iv.hi):
        assert abs(v) < 2**_BITS
        assert v.numerator.bit_length() <= _BITS + 1 and v.denominator.bit_length() <= _BITS + 1


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=40),
    st.fractions(min_value=F(1, 9), max_value=F(8, 9), max_denominator=9),
)
@settings(max_examples=40, deadline=None)
def test_q_pochhammer_infinite_matches_fraction_loop(a, q):
    # the rounded enclosure holds the exact loop's bracket, is as wide as it
    # up to the stated rounding bound 2^(8 - _BITS) U^2 (N + 1 + |a|) / (1-q)^2,
    # U = prod_j (1 + |a| q^j) <= exp(|a| / (1-q)) < 3^ceil(|a| / (1-q)) and
    # N <= n + 1 the steps the rounded loop takes, and keeps endpoints of
    # fixed size
    iv = q_pochhammer(a, q, None)
    lo, hi, n = fraction_loop_q_product(a, q)
    assert iv.lo <= lo and hi <= iv.hi
    u = 3 ** math.ceil(abs(a) / (1 - q))
    assert iv.width <= 2 * DEFAULT_EPS + F(2**8, 2**_BITS) * u**2 * (n + 2 + abs(a)) / (1 - q) ** 2
    assert_fixed_size(iv)


def test_q_pochhammer_infinite_is_of_fixed_size_at_any_q():
    # the masses' products (aq;q)_inf and (abq^2;q)_inf of lqJ 1/32, -1/2, q:
    # the endpoints' bit lengths have the same bound at every q, where the
    # exact partial product grows like N^2 bits with N ~ 70 / log(1/q)
    for q in (F(1, 2), F(9, 10), F(19, 20), F(99, 100)):
        for a in (q / 32, -(q**2) / 64):
            assert_fixed_size(q_pochhammer(a, q, None))


@pytest.mark.parametrize(
    "a, q",
    [(F(-3), F(1, 2)), (F(-5, 7), F(2, 3)), (F(5, 2), F(2, 3)), (F(7, 3), F(1, 2)), (F(5, 3), F(3, 5))],
    ids=str,
)
def test_q_pochhammer_infinite_holds_every_sign(a, q):
    # a < 0 (every factor above 1), a q^n > 1 (negative factors: three at
    # 5/2, 2/3, so a negative product; two at 7/3, 1/2), and a q = 1 at 5/3,
    # 3/5, where the product is 0 and a is no dyadic number: each enclosure
    # holds the exact finite-product bracket
    iv = q_pochhammer(a, q, None)
    lo, hi, _ = fraction_loop_q_product(a, q)
    assert iv.lo <= lo and hi <= iv.hi and iv.width <= 3 * DEFAULT_EPS
    assert_fixed_size(iv)


def product_tree(xs):
    # the product of the ints xs by halves, so big factors meet big factors
    if len(xs) <= 8:
        return math.prod(xs)
    return product_tree(xs[: len(xs) // 2]) * product_tree(xs[len(xs) // 2 :])


def exact_bracket(a, q, n):
    # P_n [1 - T, 1/(1 - T)], T = |a| q^n / (1 - q) <= 1/2, as int numerators
    # (lo, hi) over one positive denominator: the partial product is formed
    # without a gcd and by a product tree, so n in the thousands stays cheap
    (an, ad), (qn, qd) = (a.numerator, a.denominator), (q.numerator, q.denominator)
    num = product_tree([ad * qd**j - an * qn**j for j in range(n)])
    den = ad**n * qd ** (n * (n - 1) // 2)
    tn, td = abs(an) * qn**n * qd, ad * qd**n * (qd - qn)  # T = tn / td
    ends = num * (td - tn) ** 2, num * td**2
    return min(ends), max(ends), den * td * (td - tn)


def test_little_q_laguerre_mass_near_q_one():
    # lqL 1/32, 19/20: the mass (aq;q)_inf needs about 1 300 factors, whose
    # exact partial product grows like n^2 bits; the fixed-size loop finishes
    # in well under a second, and its enclosure holds the exact bracket at
    # n = 1 400 (the brackets nest, so any n past the loop's stop will do)
    a, q = F(1, 32), F(19, 20)
    start = time.perf_counter()
    mass = LittleQLaguerre(a, q).dn_sq(0)
    assert time.perf_counter() - start < 1
    lo, hi, den = exact_bracket(a * q, q, 1400)
    assert mass.lo.numerator * den <= lo * mass.lo.denominator
    assert hi * mass.hi.denominator <= mass.hi.numerator * den
    assert mass.width <= 3 * DEFAULT_EPS
    assert_fixed_size(mass)


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
