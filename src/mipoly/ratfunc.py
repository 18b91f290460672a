"""Rational functions in one parameter over Q, with exact limit evaluation.

A RationalFunction holds num/den as two trimmed, ascending tuples of Python
ints N and D (coefficients in Z[c]).  The canonical form is gcd(N, D) = 1 in
Z[c], integer contents included, and a positive leading coefficient of D;
it is unique, so equality and hashing are structural.  The public `num` and
`den` are the same fraction over Q with a monic denominator, as Fraction
polynomials.

Arithmetic multiplies int tuples and reduces the result.  A zero numerator
becomes 0/1; when a denominator or numerator is constant, or a sum or product
cannot have created a common factor of positive degree, only the integer
content gcd is taken; otherwise a primitive pseudo-remainder gcd over Z
(Collins 1967) is divided out exactly.  Ints and Fractions coerce.
Evaluation at a rational point after reduction is exactly the "remove the
removable singularity, then substitute" notion of a limit for rational
functions.

Used as the coefficient field for constructions that must stay symbolic in a
parameter until a limit is taken at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .polynomials import Polynomial

_ONE = (1,)


class PoleError(ArithmeticError):
    """Evaluation point is a genuine pole of the reduced fraction."""


# -- Z[c] on trimmed ascending int tuples ---------------------------------------


def _add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        y = b[0]
        return a if y == 1 else tuple(x * y for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return tuple(out)


def _pow(a: tuple, n: int) -> tuple:
    out = _ONE
    while n:
        if n & 1:
            out = _mul(out, a)
        n >>= 1
        if n:
            a = _mul(a, a)
    return out


def _primitive(a: tuple) -> tuple:
    """a divided by its content, with positive leading coefficient."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple(x // g for x in a)


def _prem(a: tuple, b: tuple) -> tuple:
    """A nonzero integer multiple of the remainder of a by b (deg b >= 1)."""
    r = list(a)
    lb, db = b[-1], len(b) - 1
    while len(r) > db:
        q = r.pop()
        if q:
            g = gcd(lb, q)
            m, q = lb // g, q // g
            if m != 1:
                r = [m * x for x in r]
            s = len(r) - db
            for j in range(db):
                r[s + j] -= q * b[j]
    while r and not r[-1]:
        r.pop()
    return tuple(r)


def _zx_gcd(a: tuple, b: tuple) -> tuple:
    """Primitive gcd in Z[c] with positive leading coefficient; a, b nonzero."""
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return _ONE


def _exquo(a: tuple, b: tuple) -> tuple:
    """a / b in Z[c] when b divides a exactly."""
    r = list(a)
    lb, db = b[-1], len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db] // lb
        if c:
            q[i] = c
            for j in range(db):
                r[i + j] -= c * b[j]
    return tuple(q)


def _canonical(n: tuple, d: tuple, full: bool = True) -> tuple[tuple, tuple]:
    """Reduce n/d (d nonzero); `full=False` asserts no common factor of positive degree."""
    if not n:
        return (), _ONE
    if full and len(n) > 1 and len(d) > 1:
        g = _zx_gcd(n, d)
        if len(g) > 1:
            n, d = _exquo(n, g), _exquo(d, g)
    g = gcd(*n, *d)
    if d[-1] < 0:
        g = -g
    if g != 1:
        n = tuple(x // g for x in n)
        d = tuple(x // g for x in d)
    return n, d


def _int_coeffs(v) -> tuple[tuple, int]:
    """(N, l) with v = N / l, N an int tuple; v a Polynomial, int or Fraction."""
    cs = [Fraction(c) for c in (v.coeffs if isinstance(v, Polynomial) else (v,))]
    while cs and not cs[-1]:
        cs.pop()
    l = lcm(*(c.denominator for c in cs))
    return tuple(c.numerator * (l // c.denominator) for c in cs), l


def _parts(v):
    """(N, D) of a RationalFunction, int or Fraction; None for other types."""
    if isinstance(v, RationalFunction):
        return v._n, v._d
    if isinstance(v, int):
        return ((v,) if v else ()), _ONE
    if isinstance(v, Fraction):
        return ((v.numerator,) if v else ()), (v.denominator,)
    return None


def _make(n: tuple, d: tuple) -> "RationalFunction":
    r = object.__new__(RationalFunction)
    r._n, r._d = n, d
    return r


def _sum(n1, d1, n2, d2) -> "RationalFunction":
    if d1 == d2:
        return _make(*_canonical(_add(n1, n2), d1, len(d1) > 1))
    # a common factor of positive degree needs both denominators non-constant
    full = len(d1) > 1 and len(d2) > 1
    return _make(*_canonical(_add(_mul(n1, d2), _mul(n2, d1)), _mul(d1, d2), full))


def _product(n1, d1, n2, d2) -> "RationalFunction":
    # both factors reduced: a constant one cannot bring a factor of positive degree
    full = not ((len(n1) <= 1 and len(d1) == 1) or (len(n2) <= 1 and len(d2) == 1))
    return _make(*_canonical(_mul(n1, n2), _mul(d1, d2), full))


def _inverse(n: tuple, d: tuple) -> tuple[tuple, tuple]:
    if not n:
        raise ZeroDivisionError("division by zero rational function")
    if n[-1] < 0:
        return tuple(-x for x in d), tuple(-x for x in n)
    return d, n


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q of two Fraction polynomials (zero if both are zero)."""
    an, bn = _int_coeffs(a)[0], _int_coeffs(b)[0]
    g = _zx_gcd(an, bn) if an and bn else an or bn
    return Polynomial(Fraction(x, g[-1]) for x in g)


class RationalFunction:
    """Reduced N/D over Z[c]; a field element, not a callable curve."""

    __slots__ = ("_n", "_d")

    def __init__(self, num, den=None):
        n, ln = _int_coeffs(num)
        d, ld = (_ONE, 1) if den is None else _int_coeffs(den)
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        self._n, self._d = _canonical(_mul(n, (ld,)), _mul(d, (ln,)))

    @classmethod
    def variable(cls) -> "RationalFunction":
        """The independent parameter itself."""
        return _make((0, 1), _ONE)

    @property
    def num(self) -> Polynomial:
        """Numerator over Q, scaled so that `den` is monic."""
        lead = self._d[-1]
        return Polynomial(Fraction(x, lead) for x in self._n)

    @property
    def den(self) -> Polynomial:
        """Monic denominator over Q."""
        lead = self._d[-1]
        return Polynomial(Fraction(x, lead) for x in self._d)

    # -- field arithmetic -------------------------------------------------------

    def __add__(self, other) -> "RationalFunction":
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._n, self._d, *o)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return _make(tuple(-x for x in self._n), self._d)

    def __sub__(self, other) -> "RationalFunction":
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._n, self._d, tuple(-x for x in o[0]), o[1])

    def __rsub__(self, other) -> "RationalFunction":
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _sum(tuple(-x for x in self._n), self._d, *o)

    def __mul__(self, other) -> "RationalFunction":
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _product(self._n, self._d, *o)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _product(self._n, self._d, *_inverse(*o))

    def __rtruediv__(self, other) -> "RationalFunction":
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _product(*o, *_inverse(self._n, self._d))

    def __pow__(self, n: int) -> "RationalFunction":
        # gcd(N, D) = 1 gives gcd(N^k, D^k) = 1: powers stay canonical
        num, den = self._n, self._d
        if n < 0:
            if not num:
                raise ZeroDivisionError("zero to a negative power")
            num, den = _inverse(num, den)
            n = -n
        return _make(_pow(num, n), _pow(den, n))

    # -- predicates ---------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._n)

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self._n == o[0] and self._d == o[1]

    def __hash__(self) -> int:
        if len(self._n) <= 1 and len(self._d) == 1:
            # a constant hashes like the Fraction it equals
            return hash(Fraction(self._n[0] if self._n else 0, self._d[0]))
        return hash((self._n, self._d))

    def __repr__(self) -> str:
        if len(self._d) == 1:
            return f"RationalFunction({self.num.coeffs!r})"
        return f"RationalFunction({self.num.coeffs!r}, {self.den.coeffs!r})"

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, t0) -> Fraction:
        t0 = Fraction(t0)
        d = Polynomial(self._d)(t0)
        if d == 0:
            raise PoleError(f"pole at {t0}")
        return Polynomial(self._n)(t0) / d


def limit_at(value, t0) -> Fraction:
    """Limit of a rational expression as the parameter approaches t0.

    For a reduced rational function the limit exists iff t0 is not a pole of
    the reduced form, and then equals plain evaluation.  Constants pass
    through.  A genuine pole raises PoleError.
    """
    if isinstance(value, RationalFunction):
        return value.evaluate(t0)
    return Fraction(value)
