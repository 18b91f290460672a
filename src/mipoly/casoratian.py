"""Casoratians: determinants of integer-shifted grid functions.

W[f_1..f_n](x) = det( f_k(x+j) )_{j=0..n-1, k=1..n}, the discrete analogue
of a Wronskian; W[](x) = 1.  Everything is exact.  Matrices of ints and
Fractions -- every Casoratian of the multi-indexed systems -- are cleared of
denominators column by column and reduced by Bareiss's fraction-free
elimination on Python ints, so no step takes a gcd.  Entries of any other
exact field (the RationalFunction entries of the symbolic-c Meixner limits)
expand by cofactors up to size 4 and go through Bareiss elimination with
field divisions above that.

Three identities drive all later constructions, so they get a randomized
exact verifier here:

  1. gauge covariance: multiplying every entry function by g(x) pulls out
     prod_{k<n} g(x+k),
  2. a two-level nesting rule expressing W[W[f..,g], W[f..,h]] through
     W[f..](x+1) and W[f..,g,h](x),
  3. complementary minors: the Casoratian of the n omit-one minors equals
     (-1)^(n(n-1)/2) prod_{k=0}^{n-2} W[f_1..f_n](x+k).
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .polynomials import Polynomial
from .report import Report

__all__ = ["LatticeFunction", "exact_det", "casoratian", "verify_identities"]

GridFunction = Callable[[int], object]


class LatticeFunction:
    """Memoizing wrapper for a pure integer-argument function.

    Casoratian columns revisit the same lattice points constantly; caching
    keeps repeated determinant evaluation linear in fresh points.  Purity of
    the wrapped function is assumed, which keeps results reproducible.
    """

    __slots__ = ("fn", "cache")

    def __init__(self, fn: GridFunction):
        self.fn = fn
        self.cache: dict[int, object] = {}

    def __call__(self, x: int):
        try:
            return self.cache[x]
        except KeyError:
            pass
        value = self.cache[x] = self.fn(x)
        return value


def exact_det(rows: Sequence[Sequence]):
    """Exact determinant; int 1 for the empty matrix.

    When every entry is an int or a Fraction, column k is scaled by the lcm
    L_k of its denominators, the integer matrix is reduced by Bareiss
    elimination with exact floor division, and the result is divided by
    prod L_k once: an int for an int matrix, a Fraction as soon as one entry
    is a Fraction.  Entries of any other exact field take `_field_det`.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    if not all(isinstance(e, (int, Fraction)) for row in rows for e in row):
        return _field_det(rows)
    # det(A) = det(A^T): eliminate on the transpose, whose rows are A's columns
    m = []
    scale = 1
    for col in zip(*rows):
        den = lcm(*[e.denominator for e in col])
        m.append([e.numerator * (den // e.denominator) for e in col])
        scale *= den
    det = _bareiss(m)
    if scale == 1 and all(isinstance(e, int) for row in rows for e in row):
        return det
    return Fraction(det, scale)


def _bareiss(m: list[list], div=operator.floordiv):
    """Determinant of a square matrix by Bareiss elimination (consumes m).

    Each step replaces the trailing block by 2x2 minors against the pivot
    divided by the previous pivot; by Sylvester's identity that division is
    exact, so over the ints (floor division, the default) every intermediate
    is an int, and over a field `div` is its division.
    """
    sign, prev = 1, 1
    while len(m) > 1:
        k = next((r for r, row in enumerate(m) if row[0]), None)
        if k is None:
            return m[0][0]  # a zero column: the field's zero
        if k:
            m[0], m[k] = m[k], m[0]
            sign = -sign
        top = m[0]
        p, rest = top[0], top[1:]
        m = [[div(x * p - row[0] * y, prev) for x, y in zip(row[1:], rest)] for row in m[1:]]
        prev = p
    return sign * m[0][0]


def _field_det(rows: Sequence[Sequence]):
    """Determinant over an exact field: cofactors up to n = 4, then Bareiss."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n <= 4:
        # cofactor expansion along the first row
        total = None
        for k in range(n):
            if rows[0][k] == 0:
                continue
            minor = [[row[j] for j in range(n) if j != k] for row in rows[1:]]
            term = rows[0][k] * _field_det(minor)
            if k % 2:
                term = -term
            total = term if total is None else total + term
        return total if total is not None else rows[0][0] - rows[0][0]
    return _bareiss([list(r) for r in rows], operator.truediv)


def casoratian(fs: Sequence[GridFunction], x: int):
    """W[f_1..f_n](x); exact field scalar, 1 for the empty list."""
    n = len(fs)
    if n == 0:
        return 1
    rows = [[f(x + j) for f in fs] for j in range(n)]
    return exact_det(rows)


def _random_poly_grid(rng: random.Random, degree: int) -> LatticeFunction:
    coeffs = [rng.randint(-5, 5) for _ in range(degree + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    return LatticeFunction(Polynomial(coeffs))


def verify_identities(n_max: int = 4, trials: int = 100, seed: int = 20240901) -> Report:
    """Exact check of the three Casoratian identities on random instances.

    Grid functions are random integer polynomials of degree <= 3, evaluated
    in ints; x ranges over a small window including negative points.  The
    grids and W[f..], which every identity revisits, are memoized, so each
    of their lattice points is computed once per trial; the nested
    Casoratians and the omit-one minors are read once per point anyway.
    Every comparison is exact integer equality.
    """
    rng = random.Random(seed)
    rep = Report("casoratian.identities", "determinant identities for shifted grids")
    for trial in range(trials):
        n = rng.randint(1, n_max)
        fs = [_random_poly_grid(rng, rng.randint(0, 3)) for _ in range(n)]
        g = _random_poly_grid(rng, rng.randint(0, 2))
        h = _random_poly_grid(rng, rng.randint(0, 2))
        x = rng.randint(-3, 5)
        w = LatticeFunction(lambda y: casoratian(fs, y))

        scaled = [lambda y, f=f: g(y) * f(y) for f in fs]
        gauge = 1
        for k in range(n):
            gauge *= g(x + k)
        ok1 = casoratian(scaled, x) == gauge * w(x)
        rep.add(f"trial {trial} gauge n={n}", ok1, "" if ok1 else f"x={x}")

        wg = lambda y: casoratian(fs + [g], y)
        wh = lambda y: casoratian(fs + [h], y)
        lhs = casoratian([wg, wh], x)
        rhs = w(x + 1) * casoratian(fs + [g, h], x)
        rep.add(f"trial {trial} nesting n={n}", lhs == rhs, "" if lhs == rhs else f"x={x}")

        minors = [
            (lambda y, k=k: casoratian([f for j, f in enumerate(fs) if j != k], y))
            for k in range(n)
        ]
        lhs4 = casoratian(minors, x)
        rhs4 = 1 if n % 4 in (0, 1) else -1
        for k in range(n - 1):
            rhs4 *= w(x + k)
        rep.add(f"trial {trial} minors n={n}", lhs4 == rhs4, "" if lhs4 == rhs4 else f"x={x}")
    return rep
