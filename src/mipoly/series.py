"""Exact product symbols and certified enclosures.

Finite (shifted-factorial) products are exact in whatever field the input
lives in.  Terminating hypergeometric sums run fraction-free: each step
factor t_{k+1}/t_k is an unreduced (numerator, denominator) `pair` over the
parameters' ints, `nested_sum` folds the steps by nested Horner, and one
reduction (`pair_value`) gives the value.  Infinite q-products and
non-integer rational powers cannot be rational, so they come back as
`Interval`: a pair of Fraction endpoints provably bracketing the true
value.  Downstream "certified" comparisons are
interval containments, never float heuristics.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "pochhammer",
    "q_pochhammer",
    "Interval",
    "as_interval",
    "rational_power",
    "DEFAULT_EPS",
]

DEFAULT_EPS = Fraction(1, 10**30)


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
    """v as a (numerator, denominator) pair for unreduced arithmetic: an int
    or Fraction by its int parts, a symbolic scalar (RationalFunction) as
    (v, 1)."""
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.denominator
    return v, 1


def pair_value(n, d):
    """n / d with one reduction: a Fraction for int parts, otherwise the
    scalars' own division."""
    if isinstance(n, int) and isinstance(d, int):
        return Fraction(n, d)
    return n / d


def nested_sum(steps, one=1):
    """1 + s_0 (1 + s_1 (1 + ... (1 + s_{m-1}))) for the step factors
    s_k = t_{k+1}/t_k of a terminating series given as (numerator,
    denominator) pairs.

    Nested Horner on one unreduced pair, reduced once at the end by
    `pair_value`: no gcd per operation.  The pair starts at (one, one); a
    symbolic one keeps a sum without steps symbolic.
    """
    n = d = one
    for a, b in reversed(steps):
        d = b * d
        n = d + a * n
    return pair_value(n, d)


def q_pochhammer(a, q, k: int | None, eps: Fraction = DEFAULT_EPS):
    """(a; q)_k = prod_{j<k} (1 - a q^j); k=None means the infinite product.

    Finite k: exact in the input field.  k=None requires Fraction inputs with
    0 < q < 1 and returns an Interval: with T = |a| q^N / (1-q) < 1 the tail
    prod_{j>=N}(1 - a q^j) lies in [1-T, 1/(1-T)] because
    prod(1-u_j) >= 1 - sum|u_j| and prod(1+|u_j|) <= exp(T) <= 1/(1-T),
    so |(a;q)_inf - P_N| <= |P_N| T/(1-T), driven below eps.  P_N and
    a q^N are kept as unreduced int numerators and denominators, so the
    loop takes no gcd; the endpoints are the same reduced Fractions.
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
    eps = Fraction(eps)
    pn, pd = 1, 1  # P_n = pn / pd
    an, ad = a.numerator, a.denominator  # a q^n = an / ad
    qn, qd = q.numerator, q.denominator
    n = 0
    while True:
        tn, td = abs(an) * qd, ad * (qd - qn)  # T = |a q^n| / (1 - q) = tn / td
        # T <= 1/2 and |P_n| T / (1 - T) <= eps
        if 2 * tn <= td and abs(pn) * tn * eps.denominator <= eps.numerator * pd * (td - tn):
            partial, t = Fraction(pn, pd), Fraction(tn, td)
            lo = partial * (1 - t)
            hi = partial / (1 - t)
            return Interval(min(lo, hi), max(lo, hi))
        pn, pd = pn * (ad - an), pd * ad
        an, ad = an * qn, ad * qd
        n += 1
        if n > 100_000:
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

    def __contains__(self, v) -> bool:
        v = Fraction(v)
        return self.lo <= v <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other) -> "Interval":
        o = as_interval(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        return self + (-as_interval(other))

    def __rsub__(self, other) -> "Interval":
        return as_interval(other) + (-self)

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
    """floor(n ** (1/r)) for n >= 0, r >= 1, by integer Newton."""
    if n < 0 or r < 1:
        raise ValueError("iroot needs n >= 0, r >= 1")
    if n == 0:
        return 0
    if r == 1:
        return n
    x = 1 << (n.bit_length() // r + 1)
    while True:
        y = ((r - 1) * x + n // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    while x**r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


def rational_power(base: Fraction, exponent: Fraction, eps: Fraction = DEFAULT_EPS) -> Interval:
    """base ** exponent for base > 0 and rational exponent, as an enclosure.

    Integer exponents are exact.  Otherwise base**p is computed exactly and
    its r-th root bracketed by scaled integer floor-roots: with y = u * S**r,
    k = floor(y ** (1/r)) gives u^(1/r) in [k/S, (k+1)/S], width 1/S <= eps.
    """
    base, exponent = Fraction(base), Fraction(exponent)
    if base <= 0:
        raise ValueError("rational_power needs base > 0")
    p, r = exponent.numerator, exponent.denominator
    u = base**p
    if r == 1:
        return Interval.exact(u)
    if eps <= 0:
        raise ValueError("eps must be positive")
    scale = 1
    while Fraction(1, scale) > eps:
        scale <<= 1
    y = u * scale**r
    f = y.numerator // y.denominator
    k = _iroot_floor(f, r)
    return Interval(Fraction(k, scale), Fraction(k + 1, scale))
