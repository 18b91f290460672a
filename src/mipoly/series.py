"""Exact product symbols, the unreduced-pair kernel, and certified enclosures.

Finite (shifted-factorial) products are exact in whatever field the input
lives in.  The fraction-free checks of the library share one representation,
kept here: an exact scalar is carried as an unreduced (numerator,
denominator) `pair`, an int or Fraction by its int parts and a symbolic
scalar (a RationalFunction) as (v, 1).  Pairs are multiplied, divided and
added without a gcd (`pair_product`, `pair_quotient`, `pair_sum`), compared
by one cross-multiplication (`pair_equal`), brought over one denominator
(`pair_common`), and reduced once (`pair_value`); a kept table of such
numerators, homogeneous in them, is divided by its content (`primitive`).
Products work unchanged on pairs over any ring, (Polynomial, int) pairs
included.  Terminating hypergeometric sums fold their step factors
t_{k+1}/t_k, each one pair, by nested Horner (`nested_sum`).  Infinite
q-products and rational powers come back as `Interval`: a pair of Fraction
endpoints provably bracketing the true value, to `DEFAULT_EPS` = 10^-30, the
one enclosure precision of the library (the CLI rounds enclosures outward to
the same denominator).  An infinite
q-product runs on intervals of fixed size, rounded outward at every step to
`_BITS` = 256 significant bits on a grid no finer than 2^-256, so its cost
per factor and the size of its endpoints do not grow as q nears 1; its width
is within 2 DEFAULT_EPS plus a stated rounding bound far below it.
A rational power is always an `Interval`, exact (lo == hi) for an integer
exponent and otherwise within `DEFAULT_EPS` relative to its value, so its
lower endpoint stays positive however small it is (a mass (1 - c)^beta at
large beta).  Downstream "certified" comparisons are interval overlaps,
never float heuristics.
"""

from __future__ import annotations

import math
from fractions import Fraction

DEFAULT_EPS = Fraction(1, 10**30)

# The significant bits an infinite q-product's endpoints keep (`_outward`).
_BITS = 256


def pochhammer(a, k: int):
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); (a)_0 = 1.

    Works for any exact scalar a (Fraction, rational function, int).
    """
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    out = 1
    for j in range(k):
        out = out * (a + j)
    return out


def pair(v) -> tuple:
    """v as a (numerator, denominator) pair: an int or Fraction by its int
    parts, a symbolic scalar (RationalFunction) as (v, 1).

    The parts are read as attributes, with no type test in front: the
    deletion chain reads every lattice value through here."""
    try:
        return v.numerator, v.denominator
    except AttributeError:
        return v, 1


def pair_value(n, d):
    """n / d with one reduction: a Fraction for int parts, otherwise the
    scalars' own division."""
    if isinstance(n, int) and isinstance(d, int):
        return Fraction(n, d)
    return n / d


def pair_product(*pairs) -> tuple:
    """The product of pairs, unreduced; the empty product is (1, 1)."""
    n = d = 1
    for pn, pd in pairs:
        n *= pn
        d *= pd
    return n, d


def pair_quotient(top, bottom) -> tuple:
    """top / bottom, unreduced, the divisor's sign moved to the numerator, so
    that a quotient of pairs with positive denominators has one too.  Raises
    ZeroDivisionError on a zero divisor."""
    (tn, td), (bn, bd) = top, bottom
    if not bn:
        raise ZeroDivisionError("pair quotient by zero")
    return (tn * bd, td * bn) if bn > 0 else (-tn * bd, -td * bn)


def pair_sum(*pairs) -> tuple:
    """The sum of pairs over the product of their denominators, unreduced."""
    n, d = 0, 1
    for pn, pd in pairs:
        n, d = n * pd + pn * d, d * pd
    return n, d


def pair_equal(a, b) -> bool:
    """Equality of two pairs, b's denominator nonzero, by one
    cross-multiplication; a zero denominator of a compares a cleared form."""
    return a[0] * b[1] == b[0] * a[1]


def pair_common(*pairs) -> list:
    """The numerators of the pairs over one common denominator, the product
    of theirs."""
    out = []
    for i, (n, _) in enumerate(pairs):
        for j, (_, d) in enumerate(pairs):
            if j != i:
                n *= d
        out.append(n)
    return out


def primitive(entries: list) -> list:
    """The int entries divided by their gcd, for a table whose identities are
    homogeneous in them (a `pair_common` tuple, or a pair): the gcd is
    positive, so signs and zeros are kept.  All zero, or with a non-int
    (symbolic) entry, the entries come back as they are."""
    if not all(type(e) is int for e in entries):
        return entries
    g = math.gcd(*entries)
    return [e // g for e in entries] if g > 1 else entries


def nested_sum(steps, one):
    """1 + s_0 (1 + s_1 (1 + ... (1 + s_{m-1}))) for the step factors
    s_k = t_{k+1}/t_k of a terminating series given as pairs.

    Nested Horner on one unreduced pair, reduced once at the end by
    `pair_value`: no gcd per operation.  The pair starts at `pair(one)`, the
    1 of the parameters' field, so a sum without steps keeps its type.
    """
    n, d = pair(one)
    for a, b in reversed(steps):
        d = b * d
        n = d + a * n
    return pair_value(n, d)


def _outward(lo: int, hi: int, d: int, e: int) -> tuple:
    """[lo/d, hi/d] 2^e, for lo <= hi, d > 0 and e <= 0, rounded outward to
    (lo', hi', e'): lo is floored and hi ceiled on the grid 2^e', each moving
    by less than 2^e'.  e' keeps at most _BITS significant bits of the larger
    endpoint, held within [-_BITS, 0]: no grid finer than 2^-_BITS, so a
    denominator never passes 2^_BITS, and none coarser than 1.  So each
    endpoint moves by less than 2^(1-_BITS) times the larger of
    max(|lo|, |hi|)/d 2^e and 1/2.  A divisor d > 1 is first divided out
    with _BITS bits to spare, and the floor of a floor is one floor."""
    if d > 1:
        k = _BITS + d.bit_length()
        lo, hi, e = (lo << k) // d, -(-(hi << k) // d), e - k
    f = min(max(e + max(-lo, hi).bit_length() - _BITS, -_BITS), 0)
    if f < e:
        return lo << e - f, hi << e - f, f
    return lo >> f - e, -(-hi >> f - e), f


def q_pochhammer(a, q, k: int | None):
    """(a; q)_k = prod_{j<k} (1 - a q^j); k=None means the infinite product.

    Finite k: exact in the input field.  k=None requires Fraction inputs with
    0 < q < 1 and returns an Interval: with T = |a| q^N / (1-q) < 1 the tail
    prod_{j>=N}(1 - a q^j) lies in [1-T, 1/(1-T)] because
    prod(1-u_j) >= 1 - sum|u_j| and prod(1+|u_j|) <= exp(T) <= 1/(1-T),
    so |(a;q)_inf - P_N| <= |P_N| T/(1-T), driven below DEFAULT_EPS.

    P_n and a q^n are carried as intervals of int mantissas over a power of
    two, rounded outward at every step by `_outward`, so a step costs the
    same at any q and the loop takes no gcd.  The stopping test reads the
    upper bounds of |P_n| and |a q^n|, and the endpoints come back rounded
    outward the same way.  Over N steps the roundings widen the enclosure
    by less than 2^(8-_BITS) U^2 (N + 1 + |a|) / (1-q)^2, U = prod_j
    (1 + |a| q^j), so its width stays below 2 DEFAULT_EPS plus that.
    """
    if k is not None:
        if k < 0:
            raise ValueError("q_pochhammer needs k >= 0 or None")
        out, aq = 1, a
        for _ in range(k):
            out = out * (1 - aq)
            aq = aq * q
        return out
    a, q = Fraction(a), Fraction(q)
    if not 0 < q < 1:
        raise ValueError("infinite q-product needs 0 < q < 1")
    qn, qd = q.numerator, q.denominator
    en, ed = DEFAULT_EPS.numerator, DEFAULT_EPS.denominator
    p_lo, p_hi, p_e = 1, 1, 0  # P_n in [p_lo, p_hi] 2^p_e
    a_lo, a_hi, a_e = _outward(a.numerator, a.numerator, a.denominator, 0)  # a q^n likewise
    for _ in range(100_001):
        t, c = max(-a_lo, a_hi) * qd, (qd - qn) << -a_e  # T = t / c >= |a q^n| / (1 - q)
        # T <= 1/2 and max|P_n| T / (1 - T) <= DEFAULT_EPS = en / ed
        if 2 * t <= c and max(-p_lo, p_hi) * t * ed <= en * (c - t) << -p_e:
            k = c - t  # the tail lies in [k/c, c/k] = [1 - T, 1/(1 - T)]
            kk, cc = k * k, c * c
            ends = p_lo * kk, p_lo * cc, p_hi * kk, p_hi * cc
            lo, hi, e = _outward(min(ends), max(ends), c * k, p_e)
            return Interval(Fraction(lo, 1 << -e), Fraction(hi, 1 << -e))
        f_lo, f_hi = (1 << -a_e) - a_hi, (1 << -a_e) - a_lo  # 1 - a q^n
        if p_lo >= 0 and f_lo >= 0:  # both nonnegative: the ends multiply
            lo, hi = p_lo * f_lo, p_hi * f_hi
        else:
            ends = p_lo * f_lo, p_lo * f_hi, p_hi * f_lo, p_hi * f_hi
            lo, hi = min(ends), max(ends)
        p_lo, p_hi, p_e = _outward(lo, hi, 1, p_e + a_e)
        a_lo, a_hi, a_e = _outward(a_lo * qn, a_hi * qn, qd, a_e)
    raise ValueError("infinite q-product failed to converge")


class Interval:
    """Closed interval [lo, hi] with exact Fraction endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def exact(cls, v) -> "Interval":
        v = Fraction(v)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __mul__(self, other) -> "Interval":
        o = as_interval(other)
        ps = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(ps), max(ps))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = as_interval(other)
        if o.lo <= 0 <= o.hi:
            raise ZeroDivisionError("interval divisor contains zero")
        rec = Interval(1 / o.hi, 1 / o.lo)
        return self * rec

    def __rtruediv__(self, other) -> "Interval":
        return as_interval(other) / self

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


def as_interval(v) -> Interval:
    if isinstance(v, Interval):
        return v
    return Interval.exact(v)


def _iroot_floor(n: int, r: int) -> int:
    """floor(n ** (1/r)) for n >= 0, r >= 1, by bisection over the root's
    bits: n < 2^L gives a root below 2^(L//r + 1), so L//r + 1 steps, each
    one r-th power."""
    if n < 0 or r < 1:
        raise ValueError("iroot needs n >= 0, r >= 1")
    k = 0
    for bit in reversed(range(n.bit_length() // r + 1)):
        if (k | 1 << bit) ** r <= n:
            k |= 1 << bit
    return k


def rational_power(base: Fraction, exponent: Fraction) -> Interval:
    """base ** exponent for base > 0 and rational exponent p/r, always as an
    Interval.

    An integer exponent gives the exact value, lo == hi.  Otherwise u =
    base**p is computed exactly and its r-th root bracketed by scaled
    integer floor-roots: with y = u * S**r, k = floor(y ** (1/r)) gives
    u^(1/r) in [k/S, (k+1)/S].  S is the least power of 2 >= 1/DEFAULT_EPS
    times 2^-e, with 2^e <= u^(1/r) read from the bit lengths of u and
    e <= 0, so the width 1/S is at most DEFAULT_EPS times the value and at
    most DEFAULT_EPS, and the lower endpoint is positive however small the
    value.  y has about 100 r bits, so the bisection in `_iroot_floor`
    takes about 100 steps for any r.
    """
    base, exponent = Fraction(base), Fraction(exponent)
    if base <= 0:
        raise ValueError("rational_power needs base > 0")
    p, r = exponent.numerator, exponent.denominator
    u = base**p
    if r == 1:
        return Interval.exact(u)
    e = min(0, (u.numerator.bit_length() - u.denominator.bit_length() - 1) // r)  # 2^(e r) <= u
    scale = 1 << ((DEFAULT_EPS.denominator - 1).bit_length() - e)
    y = u * scale**r
    f = y.numerator // y.denominator
    k = _iroot_floor(f, r)
    return Interval(Fraction(k, scale), Fraction(k + 1, scale))
