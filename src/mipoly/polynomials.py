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

`sign_on_tail` finds the least lattice point x0 from which int polynomials
in a lattice variable (x, or q^x) are provably nonnegative on the whole tail
x >= x0; each family's `tail_start` calls it with its own variable.

Interpolation follows the same split.  `interpolate` on int/Fraction nodes
and values is Lagrange interpolation on a common denominator, all in ints up
to one Fraction per coefficient; any other field (RationalFunction) takes
Newton's divided differences, expanded by `newton_form`, which also expands
the base polynomials' series (`families`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

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


def sign_on_tail(polys, q=None, start: int = 0, limit=None):
    """Least lattice x0 >= start (and < limit, if given) at which the test
    below certifies that, for every lattice x >= x0, each polynomial in
    `polys` is >= 0 and the first is > 0; None if there is none.

    The polynomials have int coefficients in the lattice's own variable:
      - q is None (eta = x): every coefficient of p(x + x0) is >= 0, and the
        constant term of the first is > 0 (Descartes' rule on the Taylor
        shift, as in Collins-Akritas real-root isolation);
      - q given (z = q^x in (0, q^x0]): the constant term plus every negative
        term taken at z = q^x0 is >= 0, and > 0 for the first.
    Both hold for x0 + 1 once they hold for x0, so the least x0 is found by
    doubling and then bisection.
    """
    if q is None:
        leads = [poly.coeffs[-1] if poly else 0 for poly in polys]
        if leads[0] <= 0 or min(leads) < 0:
            return None  # the property never holds

        def holds(x0):
            for i, poly in enumerate(polys):
                shifted = poly.taylor_shift(x0)
                if any(c < 0 for c in shifted.coeffs) or (i == 0 and shifted.constant_term == 0):
                    return False
            return True

    else:
        lower = [poly.coeffs[:1] + tuple(min(c, 0) for c in poly.coeffs[1:]) for poly in polys]

        def holds(x0):
            a, b = q.numerator**x0, q.denominator**x0
            for i, cs in enumerate(lower):
                v = horner(cs, a, b)
                if v < 0 or (i == 0 and v == 0):
                    return False
            return True

    if limit is not None and start >= limit:
        return None
    bad, good, step = start - 1, start, 1
    while not holds(good):
        if limit is not None and good >= limit - 1:
            return None
        bad, good, step = good, good + step, 2 * step
        if limit is not None:
            good = min(good, limit - 1)
    while good - bad > 1:
        mid = (bad + good) // 2
        if holds(mid):
            good = mid
        else:
            bad = mid
    return good


def newton_form(nodes: Sequence, coeffs: Sequence) -> Polynomial:
    """sum_k coeffs[k] prod_{j<k} (X - nodes[j]), expanded by Horner's rule
    in the coefficients' own field; nodes[k] for k >= len(coeffs) - 1 are
    not used."""
    if not coeffs:
        return Polynomial()
    acc = [coeffs[-1]]
    for k in range(len(coeffs) - 2, -1, -1):
        _times_linear(acc, nodes[k], coeffs[k])
    return Polynomial(acc)


def _times_linear(acc: list, x, c) -> None:
    """acc <- acc * (X - x) + c, in place, on ascending coefficients."""
    acc.append(acc[-1])
    for i in range(len(acc) - 2, 0, -1):
        acc[i] = acc[i - 1] - x * acc[i]
    acc[0] = c - x * acc[0]


def _reject_duplicates(xs: Sequence) -> None:
    for i, a in enumerate(xs):
        if a in xs[i + 1 :]:
            raise ValueError(f"duplicate interpolation node {a!r}")


def interpolate(points: Sequence[tuple]) -> Polynomial:
    """Unique polynomial of degree < len(points) through (x_i, y_i).

    When every node and value is an int or a Fraction this is Lagrange
    interpolation on a common denominator (Berrut-Trefethen, SIAM Rev. 46
    (2004) 501): the nodes scaled to ints X_i = E x_i, N(t) = prod (t - X_j),
    the weights y_i / prod_{j != i} (X_i - X_j) as int numerators over one
    denominator L, each N(t) / (t - X_i) by int synthetic division, and one
    Fraction(c_j E^j, L) per coefficient: O(m^2) int operations.  Any other
    field (the RationalFunction values of the symbolic-c limits) takes
    Newton's divided differences, with ints promoted to Fraction so division
    stays exact.  Either way the coefficients are exact, and int/Fraction
    data give Fraction coefficients.  Duplicate abscissae raise ValueError.
    """
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    if all(isinstance(v, (int, Fraction)) for v in (*xs, *ys)):
        return _lagrange(xs, ys)
    xs = [Fraction(x) if isinstance(x, int) else x for x in xs]
    ys = [Fraction(y) if isinstance(y, int) else y for y in ys]
    _reject_duplicates(xs)
    # divided-difference table, one diagonal kept
    coeffs = ys
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    return newton_form(xs, coeffs)


def _lagrange(xs: Sequence, ys: Sequence) -> Polynomial:
    e = lcm(*(x.denominator for x in xs))
    big = [x.numerator * (e // x.denominator) for x in xs]
    if len(set(big)) < len(big):
        _reject_duplicates([Fraction(x) for x in xs])
    m = len(big)
    node = [1]  # N(t), ascending
    for x in big:
        _times_linear(node, x, 0)
    # weight_i = y_i / prod_{j != i} (X_i - X_j), reduced, sign on the top
    nums, dens = [], []
    for i, (xi, y) in enumerate(zip(big, ys)):
        d = y.denominator
        for j, xj in enumerate(big):
            if j != i:
                d *= xi - xj
        a = y.numerator
        g = gcd(a, d)
        if d < 0:
            g = -g
        nums.append(a // g)
        dens.append(d // g)
    den = lcm(*dens)
    acc = [0] * m
    for xi, a, d in zip(big, nums, dens):
        if not a:
            continue
        u = a * (den // d)
        quo = 1  # the quotient N(t) / (t - X_i), from the top down
        acc[m - 1] += u
        for k in range(m - 1, 0, -1):
            quo = node[k] + xi * quo
            acc[k - 1] += u * quo
    out, ej = [], 1
    for c in acc:
        out.append(Fraction(c * ej, den))
        ej *= e
    return Polynomial(out)
