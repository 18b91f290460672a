"""Dense univariate polynomials over an exact field.

Coefficients are stored ascending (coeffs[k] multiplies X**k) in a trimmed
tuple, so equal polynomials compare equal structurally.  The zero polynomial
is the empty tuple and reports degree -inf.

Coefficient arithmetic is duck-typed: anything with exact +, -, *, / and
``== 0`` works.  In practice that means `fractions.Fraction` and
`mipoly.ratfunc.RationalFunction`; mixing plain ints in is fine because both
coerce them.  Nothing here ever calls float().

A polynomial whose coefficients are all ints or Fractions also has an integer
form: int numerators over one common denominator, computed on first use and
kept in the instance.  Evaluation at an int or Fraction point runs Horner's
rule on that form in Python ints and builds one Fraction at the end, instead
of reducing a Fraction at every step; the module-level `horner` is that
kernel on a bare int coefficient sequence.  `taylor_shift` computes p(X + k)
by synthetic division, which on int coefficients is all int arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

__all__ = ["Polynomial", "interpolate", "horner"]

NEG_INF = float("-inf")


def _trim(coeffs: Iterable) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class Polynomial:
    """Immutable dense polynomial; evaluation is Horner's rule."""

    __slots__ = ("coeffs", "_int")  # _int: integer_form(), set on first use

    def __init__(self, coeffs: Iterable = ()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((value,))

    @classmethod
    def identity(cls) -> "Polynomial":
        """The polynomial X."""
        return cls((0, 1))

    # -- structure -------------------------------------------------------------

    @property
    def degree(self):
        """Degree as an int; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant_term(self):
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        o = _as_poly(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial(
            self.coefficient(k) + o.coefficient(k) for k in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        o = _as_poly(other)
        if not self.coeffs or not o.coeffs:
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scalar_div(self, s) -> "Polynomial":
        return Polynomial(c / s for c in self.coeffs)

    # -- evaluation / transformation --------------------------------------------

    def integer_form(self):
        """(numerators, denominator, all_int): the coefficients as int
        numerators over one common positive denominator, and whether every
        coefficient is an int.  None for the zero polynomial and when a
        coefficient is neither an int nor a Fraction."""
        try:
            return self._int
        except AttributeError:
            pass
        cs = self.coeffs
        form = None
        if cs and all(isinstance(c, (int, Fraction)) for c in cs):
            den = lcm(*(c.denominator for c in cs))
            nums = tuple(c.numerator * (den // c.denominator) for c in cs)
            form = (nums, den, all(isinstance(c, int) for c in cs))
        object.__setattr__(self, "_int", form)
        return form

    def __call__(self, x):
        """Horner's rule.  At an int or Fraction point over int/Fraction
        coefficients it runs on the integer form; the value and its type
        (an int when every coefficient and x are ints, else a Fraction) are
        those of the plain Horner loop."""
        form = self.integer_form() if isinstance(x, (int, Fraction)) else None
        if form is None:
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        nums, den, all_int = form
        b = x.denominator
        acc = horner(nums, x.numerator, b)
        if all_int and isinstance(x, int):
            return acc
        return Fraction(acc, den * b ** (len(nums) - 1))

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(inner(X)) by Horner over polynomials."""
        acc = Polynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + Polynomial((c,))
        return acc

    def taylor_shift(self, k) -> "Polynomial":
        """p(X + k) by repeated synthetic division by X - k: O(d^2)
        additions and multiplications by k, no polynomial products."""
        out = list(self.coeffs)
        for i in range(len(out) - 1):
            for j in range(len(out) - 2, i - 1, -1):
                out[j] = out[j] + k * out[j + 1]
        return Polynomial(out)

    def scale_argument(self, s) -> "Polynomial":
        """p(s*X): multiplies coeffs[k] by s**k."""
        out, sk = [], 1
        for c in self.coeffs:
            out.append(c * sk)
            sk = sk * s
        return Polynomial(out)

    def map_coefficients(self, fn: Callable) -> "Polynomial":
        return Polynomial(fn(c) for c in self.coeffs)

    # -- comparison --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return self.coeffs == _as_poly(other).coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({self.coeffs!r})"


def _as_poly(v) -> Polynomial:
    return v if isinstance(v, Polynomial) else Polynomial((v,))


def horner(cs: Sequence[int], a: int, b: int = 1) -> int:
    """b^d p(a/b) for p with int coefficients cs and d = len(cs) - 1: the
    homogeneous Horner rule, all in ints."""
    if not cs:
        return 0
    acc = cs[-1]
    if b == 1:
        for c in cs[-2::-1]:
            acc = acc * a + c
        return acc
    bk = 1
    for c in cs[-2::-1]:
        bk *= b
        acc = acc * a + c * bk
    return acc


def interpolate(points: Sequence[tuple]) -> Polynomial:
    """Unique polynomial of degree < len(points) through (x_i, y_i).

    Newton's divided differences over the coefficient field; exact, no
    pivoting questions.  Duplicate abscissae raise ValueError.  Plain ints
    are promoted to Fraction so division stays exact.
    """
    points = [
        (Fraction(x) if isinstance(x, int) else x, Fraction(y) if isinstance(y, int) else y)
        for x, y in points
    ]
    xs = [p[0] for p in points]
    for i, a in enumerate(xs):
        for b in xs[i + 1 :]:
            if a == b:
                raise ValueError(f"duplicate interpolation node {a!r}")
    # divided-difference table, one diagonal kept
    coeffs = [p[1] for p in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    # expand the Newton form prod (X - x_i)
    poly = Polynomial()
    for i in range(len(points) - 1, -1, -1):
        poly = poly * Polynomial((-xs[i], 1)) + Polynomial((coeffs[i],))
    return poly
