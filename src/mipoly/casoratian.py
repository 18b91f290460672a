"""Casoratians: determinants of integer-shifted grid functions.

W[f_1..f_n](x) = det( f_k(x+j) )_{j=0..n-1, k=1..n}, the discrete analogue
of a Wronskian; W[](x) = 1.  Everything is exact.  Matrices of ints and
Fractions -- every Casoratian of the multi-indexed systems -- share one
integer core on Python ints: an int matrix goes to it as it is, a matrix
with Fractions after its denominators are cleared column by column.  The
core expands n = 2 and n = 3 in closed form and runs Bareiss's
fraction-free elimination above, so no step takes a gcd.  Entries of any
other exact field (the RationalFunction entries of the symbolic-c Meixner
limits) go through Bareiss elimination with the field's division.

Three identities drive all later constructions, so they get a randomized
exact verifier here, `verify_identities`, which checks each of them on
100 random instances of n <= 4 integer-polynomial grids (fixed seed
20240901), and reports each as one check that names its first failing
trial.  The grids are tabulated once per trial, in ints, at the
n + 2 points the identities read, and every Casoratian is the
determinant of a window of rows of that table:

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
from collections.abc import Callable, Sequence
from fractions import Fraction
from math import lcm

from .polynomials import horner
from .report import Report
from .series import pair

GridFunction = Callable[[int], object]


class LatticeFunction:
    """Memoizing wrapper for a pure integer-argument function.

    Casoratian columns revisit the same lattice points constantly; caching
    keeps repeated determinant evaluation linear in fresh points.  Purity of
    the wrapped function is assumed, which keeps results reproducible.
    The values are kept in `cache`, and `pair(x)`, the value as a
    `series.pair`, in `pairs`, filled on its first read from self(x).
    """

    __slots__ = ("fn", "cache", "pairs")

    def __init__(self, fn: GridFunction):
        self.fn = fn
        self.cache: dict[int, object] = {}
        self.pairs: dict[int, tuple] = {}

    def __call__(self, x: int):
        try:
            return self.cache[x]
        except KeyError:
            pass
        value = self.cache[x] = self.fn(x)
        return value

    def pair(self, x: int) -> tuple:
        """`series.pair(self(x))`, kept per x: the fraction-free checks read
        a grid value as a pair many times."""
        try:
            return self.pairs[x]
        except KeyError:
            pass
        value = self.pairs[x] = pair(self(x))
        return value


def exact_det(rows: Sequence[Sequence]):
    """Exact determinant; int 1 for the empty matrix, the entry itself at n = 1.

    A matrix of ints goes straight to the integer core.  In any other
    matrix of ints and Fractions, column k is first scaled by the lcm L_k of
    its denominators, the integer matrix goes to the same core, and the
    result is divided by prod L_k once: an int for an int matrix, a
    Fraction as soon as one entry is a Fraction.  The core expands n = 2
    and n = 3 in closed form and runs Bareiss elimination with exact floor
    division above.  Entries of any other exact field go through Bareiss
    elimination with the field's division.
    """
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    kinds = {type(e) for row in rows for e in row}
    if kinds == {int}:
        return _int_det(rows)
    if not all(issubclass(k, (int, Fraction)) for k in kinds):
        return _bareiss(rows, operator.truediv)
    # det(A) = det(A^T): the cleared rows are A's columns
    m = []
    scale = 1
    for col in zip(*rows):
        den = lcm(*[e.denominator for e in col])
        m.append([e.numerator * (den // e.denominator) for e in col])
        scale *= den
    det = _int_det(m)
    if any(issubclass(k, Fraction) for k in kinds):
        return Fraction(det, scale)
    return det


def _int_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square int matrix of size n >= 2: the cofactor
    expansion for n <= 3, Bareiss elimination above."""
    if len(m) == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    if len(m) == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return _bareiss(m)


def _bareiss(m: Sequence[Sequence], div=operator.floordiv):
    """Determinant of a square matrix by Bareiss elimination.

    Each step replaces the trailing block by 2x2 minors against the pivot
    divided by the previous pivot; by Sylvester's identity that division is
    exact, so over the ints (floor division, the default) every intermediate
    is an int, and over a field `div` is its division.  m is only read.
    """
    m = list(m)
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


def casoratian(fs: Sequence[GridFunction], x: int):
    """W[f_1..f_n](x); exact field scalar, 1 for the empty list (the empty
    determinant)."""
    return exact_det([[f(x + j) for f in fs] for j in range(len(fs))])


def _random_coefficients(rng: random.Random, degree: int) -> list[int]:
    coeffs = [rng.randint(-5, 5) for _ in range(degree + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    return coeffs


def _window_det(rows: Sequence[Sequence], o: int):
    """W[f_1..f_m](x + o) from a table whose row j holds f_1..f_m at x + j:
    the determinant of rows o..o+m-1, by `exact_det`; 1 for no functions,
    the empty determinant."""
    return exact_det(rows[o : o + len(rows[0])])


def verify_identities() -> Report:
    """Exact check of the three Casoratian identities on 100 random
    instances (seed 20240901) of n <= 4 grids: one check per identity, whose
    witness names its first failing trial, with that trial's n and x.

    Grid functions are random integer polynomials of degree <= 3, evaluated
    in ints; x ranges over a small window including negative points.  Every
    identity reads its grids only at x..x+n+1: W[f.., g, h](x) reads all of
    them, and the omit-one minors read up to x + 2n - 3 <= x + n + 1 for
    n <= 4.  So the polynomials are tabulated once per trial at those
    n + 2 points, each Casoratian's columns are taken from that int table,
    and each determinant is a window of rows; W[f..] is computed once per
    point it is read at.  Every comparison is exact integer
    equality.
    """
    rng = random.Random(20240901)
    outcomes = []  # (trial, n, x, gauge, nesting, minors)
    for trial in range(100):
        n = rng.randint(1, 4)
        coeffs = [_random_coefficients(rng, rng.randint(0, 3)) for _ in range(n)]
        coeffs.append(_random_coefficients(rng, rng.randint(0, 2)))
        coeffs.append(_random_coefficients(rng, rng.randint(0, 2)))
        x = rng.randint(-3, 5)
        # row j: f_1..f_n, g, h at x + j
        table = [[horner(cs, y) for cs in coeffs] for y in range(x, x + n + 2)]
        fs = [row[:n] for row in table]
        w = [_window_det(fs, o) for o in range(max(2, n - 1))]  # W[f..](x + o)

        scaled = [[row[n] * v for v in row[:n]] for row in table]
        gauge = 1
        for row in table[:n]:
            gauge *= row[n]
        ok1 = _window_det(scaled, 0) == gauge * w[0]

        with_g = [row[: n + 1] for row in table]
        with_h = [row[:n] + row[n + 1 :] for row in table]
        lhs = _window_det([[_window_det(with_g, o), _window_det(with_h, o)] for o in (0, 1)], 0)
        rhs = w[1] * _window_det(table, 0)

        minors = [[row[:k] + row[k + 1 : n] for row in table] for k in range(n)]
        lhs4 = _window_det([[_window_det(minor, o) for minor in minors] for o in range(n)], 0)
        rhs4 = 1 if n % 4 in (0, 1) else -1
        for k in range(n - 1):
            rhs4 *= w[k]
        outcomes.append((trial, n, x, ok1, lhs == rhs, lhs4 == rhs4))
    rep = Report("casoratian.identities", "determinant identities for shifted grids")
    for k, name in enumerate(("gauge", "nesting", "minors"), 3):
        rep.every(name, outcomes, operator.itemgetter(k), lambda o: "trial {}, n={}, x={}".format(*o[:3]))
    return rep
