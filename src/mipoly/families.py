"""Base orthogonal polynomial systems on the semi-infinite integer lattice.

Two exactly solvable birth-and-death type systems are implemented: M (a
two-parameter system with linear potentials, eta(x) = x) and lqJ, little
q-Jacobi (a q-lattice system with eta(x) = 1 - q^x).  lqL, little
q-Laguerre, is lqJ at b = 0 (Koekoek-Lesky-Swarttouw 2010, sections 14.12
and 14.20) and is built as that subclass, with only its tag and parameter
names its own.  Each system consists of

  - potentials B(x) > 0 (x >= 0) and D(x) > 0 (x >= 1), D(0) = 0,
  - an increasing spectrum E_n with E_0 = 0,
  - eigenpolynomials P_n of degree n in eta(x), normalized to 1 at x = 0,
    satisfying for all x
        B(x) (P_n(x) - P_n(x+1)) + D(x) (P_n(x) - P_n(x-1)) = E_n P_n(x),
  - a ground-state square phi0_sq, 1 at x = 0, with the zero-mode
    recurrence phi0_sq(x+1)/phi0_sq(x) = B(x)/D(x+1),
  - orthogonality sum_x phi0_sq(x) P_n(x) P_m(x) = delta_nm / d_n^2, where
    d_n^2 is a rational multiple of the family's one transcendental number,
    its mass d_0^2 = 1 / sum_x phi0_sq(x): `dn_sq(0)` encloses it once and
    every `dn_sq(n)` scales that enclosure.

Polynomial values are evaluated by terminating hypergeometric sums, exact in
the coefficient field and fraction-free: `poly_value_w` writes each step
factor t_{k+1}/t_k once as an unreduced pair over the parameters' ints and
folds the steps by nested Horner (`series.nested_sum`), with one reduction
per value.  That coding is kept apart from `term_ratio`, from which `poly`
expands the Newton form, so `poly`'s cross-check against the series tests
one against the other.  The M system also runs with its parameter c
symbolic (a RationalFunction, entering the pairs as (c, 1)), which is how
exact c -> 1 limits are taken downstream; no ordering comparisons happen
outside validation for that reason.

A family is its declared parameter tuple `param_names`: the constructor
takes exactly those, by position or by name, and runs the family's
`_validate`; identity, hash and repr are read off them.  Parameter shifts:
`shifted(u)` applies u steps of the forward-shift direction delta;
`twisted()` applies the involution used to build virtual states;
`tilde_shifted(u)` applies the companion direction delta-tilde satisfying
twist(lambda) + u*delta = twist(lambda + u*delta-tilde).  Every move goes
through `_at`, which builds the declared class at the moved parameters
without validation (a twisted family is out of range by design).

Each system has one lattice variable w, x for M and q^x for lqJ, in which
`B_w`, `D_w`, `varphi_w` and `poly_value_w` are rational (M's are B, D,
varphi and poly_value).
The shift x -> x+k is affine in it: `eta_affine(k)` = (alpha_k, beta_k) with
eta(x+k) = alpha_k + beta_k w, which gives `step_w(w, k)`, the w of x+k.
`limit_end` is the end of a coefficient list in w that holds the value at
the lattice's far end, and `tail_start(polys)` certifies signs from x0 on.

The closed forms the virtual-state and multi-indexed layers need are
methods here as well: the twist constants alpha() and alpha_prime(), the
virtual energies virtual_energy(v), the label bound v_max(), varphi_M(m, x)
and the leading-coefficient factors leading_factors(labels, n).

So is the lattice operator H = A^dagger A + const of (B, D), on the pairs
of the `series` kernel: eigen-equation and shift tables (`_operator`; at
Xi = 1 the family's own), the one check of every eigen-identity and of
every shift-type identity in the package (`_eigen_identity`,
`_shift_identity`), and the comparison of two factorized forms
(`_same_form`) that decides shape invariance and the twist's linear
relation.  The family's own identities run that code once, at w the
symbolic lattice variable (`_at_w`, `_for_all_x`).  There every value is rational in w, with
denominators that are powers of w and nonzero constants, none zero at a
lattice point w(x) = x or q^x: an identity in Q(w) holds at every lattice x,
and a false one has a nonzero residual, zero at finitely many w(x).  The
product formula runs at w too (`rodrigues_vector`, which shows its divisors
nonzero at every lattice x), so no base identity reads a window of x.

Caching follows one rule.  A derived value that an object computes from its
own parameters -- here P_n, d_n^2, the moved families and the own operator
at a point, in `multi` C_D,
Xi_D, P_{D,n}, the weight and the orthogonality certificate, in `chain` the
level tables of a label-prefix system -- is a function under `memo`, kept
in the object's `_cache` under the function's name and positional
arguments.  So are the exact lattice values a family is read at again and
again: the q families' eta, B, D, varphi and varphi_M, every family's
energies and virtual energies, and, as memos that `multi` keeps
on the family, the Casoratian columns xi_d(eta(x)) and nu(x) P_n(eta(x))
that every system on the family reads.  Each is computed once per family
and point.  A lattice function that is handed
around as an object of its own (a Casoratian grid, a chain level's
potentials) is a `casoratian.LatticeFunction` instead, which keeps its
values and, filled on first read, their pairs.  `multi._SYSTEMS` is
the one store across objects: it keys systems by value, so that equal
families built apart share their constructions.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from fractions import Fraction

from .casoratian import LatticeFunction
from .polynomials import Polynomial, newton_form, sign_on_tail
from .ratfunc import RationalFunction
from .report import Report
from .series import (
    Interval,
    nested_sum,
    pair,
    pair_common,
    pair_equal,
    pair_product,
    pair_quotient,
    pair_sum,
    pochhammer,
    primitive,
    q_pochhammer,
    rational_power,
)


def _exact(v):
    """Coerce to Fraction unless already a symbolic scalar."""
    if isinstance(v, RationalFunction):
        return v
    return Fraction(v)


def memo(fn):
    """Keep fn(self, *args) in self._cache under (fn.__name__, *args).

    Positional arguments only; they and the result must not change.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def cached(self, *args):
        key = (name, *args)
        try:
            return self._cache[key]
        except KeyError:
            pass
        value = self._cache[key] = fn(self, *args)
        return value

    return cached


class _BaseFamily:
    """Shared machinery; concrete systems fill in the closed forms.

    A family is its declared parameters `param_names`: construction, identity
    (`_key`, equality, hash), repr and every parameter move (`_at`) are read
    off them here, and each family states only its `_validate` and its
    closed forms."""

    __slots__ = ("_cache",)
    tag = "?"

    def __init__(self, *values, **named):
        """The family at exactly its parameters, by position or by name;
        its `_validate` raises ValueError outside the family's range."""
        names = self.param_names
        if len(values) > len(names) or set(named) != set(names[len(values) :]):
            raise TypeError(f"{type(self).__name__} takes exactly the parameters {', '.join(names)}")
        self._set({**dict(zip(names, values)), **named})
        self._validate()

    def _set(self, values: dict) -> None:
        self._cache = {}
        for name, v in values.items():
            setattr(self, name, _exact(v))

    def _at(self, **moved) -> "_BaseFamily":
        """The declared family (`FAMILIES[tag]`, also for a subclass) at these
        parameters moved, the rest kept, unvalidated: every parameter move
        goes through here."""
        p = object.__new__(FAMILIES[self.tag])
        p._set({name: moved.get(name, getattr(self, name)) for name in p.param_names})
        return p

    # -- identity ---------------------------------------------------------------

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.param_names)

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)}" for name in self.param_names)
        return f"{FAMILIES[self.tag].__name__}({values})"

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    @memo
    def __hash__(self) -> int:
        # a family is immutable, and every `multi.system` lookup hashes it
        return hash((self.tag, self._key()))

    # -- derived lattice data ------------------------------------------------------

    def phi0_sq(self, x: int):
        """Square of the ground-state amplitude, from the zero-mode recurrence.

        phi0_sq is 1 at x = 0 and phi0_sq(x+1) = phi0_sq(x) * B(x) / D(x+1); this is
        exactly the statement that the Hamiltonian annihilates the ground
        state, so closed product forms are checked against it in tests rather
        than trusted here.
        """
        if x < 0:
            raise ValueError("phi0_sq needs x >= 0")
        try:
            vals = self._cache["phi0_sq"]
        except KeyError:
            vals = self._cache["phi0_sq"] = [self._unit()]
        while len(vals) <= x:
            y = len(vals) - 1
            vals.append(vals[y] * self.B(y) / self.D(y + 1))
        return vals[x]

    def nu(self, x: int):
        """Gauge factor alpha^x turning twisted eigenvectors into same-lattice
        solutions: nu(x+1)/nu(x) = alpha = B(x) / (alpha B'(x)), by the
        product identity alpha^2 B'(x) D(x+1) = B(x) D(x+1)."""
        return self.alpha() ** x

    @memo
    def poly(self, n: int) -> Polynomial:
        """P_n as a polynomial in eta, from the series' own Newton form.

        Every term of the defining series carries the factor
        prod_{j<k} (eta(j) - eta(x)), so P_n(eta) = sum_k t_k prod_{j<k}
        (eta(j) - eta) with t_0 = 1 and t_{k+1} = t_k term_ratio(n, k), which
        `newton_form` expands on the lattice nodes eta(0..n-1).  It must equal
        `poly_value`, a separately written coding of the series, at the n + 1
        points x = n+1..2n+1, which proves them equal: both have degree <= n.
        """
        t = self._unit()
        coeffs = [t]
        for k in range(n):
            t = -t * self.term_ratio(n, k)  # Newton form in (eta - eta(j))
            coeffs.append(t)
        p = newton_form([self.eta(j) for j in range(n)], coeffs)
        if p.degree != n:
            raise ArithmeticError(f"P_{n} degenerated to degree {p.degree}")
        for x in range(n + 1, 2 * n + 2):
            if p(self.eta(x)) != self.poly_value(n, x):
                raise ArithmeticError(f"P_{n} Newton form fails the series at x={x}")
        return p

    @memo
    def _unit(self):
        """1 in the parameters' field: the RationalFunction 1 when a parameter
        is symbolic, else Fraction(1).  Every series starts from it, by value
        or as the pair `series.pair` reads from it, so a value with no terms
        past the first keeps the field's type."""
        for v in self._key():
            if isinstance(v, RationalFunction):
                return v**0
        return Fraction(1)

    # -- the lattice variable ------------------------------------------------------

    def step_w(self, w, k: int):
        """The lattice variable at x + k, given its value w at x."""
        a0, b0 = self.eta_affine(0)
        ak, bk = self.eta_affine(k)
        return (ak - a0 + bk * w) / b0

    @memo
    def _own_operator(self, w) -> tuple:
        """`_operator` of the family's own operator (Xi = 1) at the x where w
        is its lattice variable; every base identity at that x reads it."""
        return _operator(*_at_w(self, w, self.B_w, self.D_w, self.varphi_w), self.B(0))


class Meixner(_BaseFamily):
    """System M: B(x) = c (x + beta), D(x) = x, eta(x) = x, kappa = 1.

    Valid ranges beta > 0, 0 < c < 1.  c may be a RationalFunction for
    symbolic work, in which case validation is skipped.
    """

    __slots__ = param_names = ("beta", "c")
    tag = "M"
    limit_end = -1  # the lattice variable x -> infinity: the top coefficients

    def _validate(self):
        if isinstance(self.c, RationalFunction):
            return  # a symbolic c admits no ordering comparison
        if not self.beta > 0:
            raise ValueError("requires beta > 0")
        if not 0 < self.c < 1:
            raise ValueError("requires 0 < c < 1")

    @property
    def kappa(self):
        return Fraction(1)

    def B(self, x):
        return self.c * (x + self.beta)

    def D(self, x):
        return Fraction(x) if isinstance(x, int) else x

    @memo
    def energy(self, n: int):
        return (1 - self.c) * n

    def eta(self, x):
        return Fraction(x) if isinstance(x, int) else x

    def eta_affine(self, k: int) -> tuple:
        """(alpha_k, beta_k) with eta(x + k) = alpha_k + beta_k x."""
        return k, 1

    def tail_start(self, polys):
        """Least x0 >= 0 past which `sign_on_tail` certifies polys in x."""
        return sign_on_tail(polys)

    def varphi(self, x):
        return Fraction(1)

    def varphi_M(self, m: int, x: int):
        """prod_{1<=j<k<=m} varphi(x+j-1) in closed form."""
        return Fraction(1)

    def poly_value(self, n: int, x):
        """Terminating 2F1-type sum; x may be any rational (or integer).

        The k-th step multiplies by (k - n) (k - x) z / ((beta + k) (k + 1))
        with z = 1 - 1/c, written over beta = bn/bd, c = cn/cd, x = xn/xd.
        """
        (bn, bd), (cn, cd), (xn, xd) = pair(self.beta), pair(self.c), pair(x)
        zb, xc = (cn - cd) * bd, xd * cn  # z bd / xd = zb / xc
        steps = [((k - n) * (k * xd - xn) * zb, xc * (bn + k * bd) * (k + 1)) for k in range(n)]
        return nested_sum(steps, self._unit())

    def xi_series(self, v: int, x: int) -> tuple:
        """The nonnegative-term series of xi_v(x) (`virtual.xi_series_terms`)
        as its first term and its step factors, unreduced pairs.

        The k-th term is (v-k+1)_k (x-k+1)_k (1-c)^k / ((beta)_k k!): the first
        is 1, and step k multiplies by (v-k) (x-k) (1-c) / ((beta+k) (k+1)),
        written over beta = bn/bd and c = cn/cd.
        """
        (bn, bd), (cn, cd) = pair(self.beta), pair(self.c)
        steps = [
            ((v - k) * (x - k) * (cd - cn) * bd, (bn + k * bd) * (k + 1) * cd)
            for k in range(min(v, x))
        ]
        return pair(self._unit()), steps

    # The lattice variable is x itself.  B and D keep their own class-dict
    # entries too: bench/tracer.py counts calls to them there, by name.
    B_w, D_w, poly_value_w, varphi_w = B, D, poly_value, varphi

    def term_ratio(self, n: int, k: int):
        """t_{k+1}/t_k of the series with its (k - x) factor taken out."""
        return (k - n) * (1 - 1 / self.c) / ((self.beta + k) * (k + 1))

    def leading_coefficient(self, n: int):
        return (1 - 1 / self.c) ** n / pochhammer(self.beta, n)

    @memo
    def dn_sq(self, n: int) -> Interval:
        """1 / (norm of P_n)^2 = (beta)_n c^n / n! times the mass d_0^2 =
        (1 - c)^beta, enclosed once; lo == hi for integer beta."""
        if n:
            return pochhammer(self.beta, n) * self.c**n / pochhammer(Fraction(1), n) * self.dn_sq(0)
        if isinstance(self.c, RationalFunction):
            raise TypeError("dn_sq is not defined for symbolic parameters")
        return rational_power(1 - self.c, self.beta)

    @memo
    def shifted(self, u: int) -> "Meixner":
        return self._at(beta=self.beta + u)

    tilde_shifted = shifted  # delta-tilde = delta for M

    @memo
    def twisted(self) -> "Meixner":
        return self._at(c=1 / self.c)

    def alpha(self):
        """alpha > 0 of the linear relation between twisted and original
        potentials (see `virtual`)."""
        return self.c

    def alpha_prime(self):
        """alpha' < 0 of the same relation; equals tE_0."""
        return -(1 - self.c) * self.beta

    @memo
    def virtual_energy(self, v: int):
        """tE_v < 0; closed form, cross-checked against alpha E'_v + alpha'."""
        return -(1 - self.c) * (v + self.beta)

    def v_max(self):
        """Largest admissible virtual-state label; None: every v >= 1 is."""
        return None

    def leading_factors(self, labels, n: int) -> tuple:
        """(f_Xi, f_P): the leading coefficients of Xi_D and P_{D,n} are
        c'' f_Xi and c'' f_Xi c_n f_P, with c'' = prod_j c'_{d_j} / c'_{j-1}
        over the twisted leading coefficients c' and c_n the base one."""
        f_p = 1
        for j, d in enumerate(labels, start=1):
            f_p = f_p * (self.beta + j - 1) / (self.beta + d + n)
        return 1, f_p


class _QFamily(_BaseFamily):
    """Common q-lattice structure: eta(x) = 1 - q^x, kappa = 1/q."""

    __slots__ = ()
    limit_end = 0  # the lattice variable q^x -> 0: the constant terms

    @property
    def kappa(self):
        return 1 / self.q

    @memo
    def eta(self, x: int):
        return 1 - self.q**x

    def eta_affine(self, k: int) -> tuple:
        """(alpha_k, beta_k) with eta(x + k) = alpha_k + beta_k q^x."""
        return 1, -self.q**k

    def tail_start(self, polys):
        """Least x0 in 1..399 past which `sign_on_tail` certifies polys in q^x;
        the search gives up at 400 lattice steps."""
        return sign_on_tail(polys, self.q, 1, 400)

    @memo
    def varphi(self, x: int):
        return self.q**x

    def varphi_w(self, w):
        return w

    @memo
    def varphi_M(self, m: int, x: int):
        return self.q ** (m * (m - 1) * x // 2 + m * (m - 1) * (m - 2) // 6)

    # B and D stay in this class's own __dict__: bench/tracer.py counts calls
    # to them there, by name, memo hits included.
    @memo
    def B(self, x: int):
        return self.B_w(self.q**x)

    @memo
    def D(self, x: int):
        return self.D_w(self.q**x)

    def D_w(self, w):
        return 1 / w - 1

    def poly_value(self, n: int, x: int):
        return self.poly_value_w(n, self.q**x)

    def alpha(self):
        return self.a

    def _q_exponent(self, r) -> int:
        """The largest integer k with q^k >= r > 0: a float estimate of
        log_q r (math.log takes ints of any size), corrected by exact
        comparisons, so a few big-int steps however far r is from 1."""

        def log(f):
            return math.log(f.numerator) - math.log(f.denominator)

        k = math.floor(log(r) / log(self.q))
        while self.q ** (k + 1) >= r:
            k += 1
        while self.q**k < r:
            k -= 1
        return k

    def v_max(self) -> int:
        """The largest v with a < q^v; 0 when no label is admissible."""
        k = self._q_exponent(self.a)
        return max(0, k - 1 if self.q**k == self.a else k)


class LittleQJacobi(_QFamily):
    """System lqJ: B(x) = a (q^-x - b q), D(x) = q^-x - 1.

    Valid ranges 0 < q < 1, 0 < a < 1, b < 1/q, excluding the degenerate
    lines a = b q^k, k >= 1, where virtual-state degrees collapse.  b = 0 is
    lqL, where every b factor of the closed forms is 1.
    """

    __slots__ = param_names = ("a", "b", "q")
    tag = "lqJ"

    def _validate(self):
        if not 0 < self.q < 1:
            raise ValueError("requires 0 < q < 1")
        if not 0 < self.a < 1:
            raise ValueError("requires 0 < a < 1")
        if not self.b < 1 / self.q:
            raise ValueError("requires b < 1/q")
        if self.b > 0:
            k = self._q_exponent(self.a / self.b)  # a/b = q^k exactly, or no k does
            if k >= 1 and self.q**k == self.a / self.b:
                raise ValueError(f"degenerate parameters: a = b q^{k} collapses virtual-state degrees")

    def B_w(self, w):
        return self.a * (1 / w - self.b * self.q)

    @memo
    def energy(self, n: int):
        return (self.q**-n - 1) * (1 - self.a * self.b * self.q ** (n + 1))

    def alpha_prime(self):
        return -(1 - self.a) * (1 - self.b * self.q)

    @memo
    def virtual_energy(self, v: int):
        return (self.a * self.q**-v - 1) * (1 - self.b * self.q ** (v + 1))

    def poly_value_w(self, n: int, w):
        """Terminating 3phi1-type sum as a function of w = q^x.

        The k-th step multiplies by (q^(k-n) - 1) (w - q^k) / ((1 - q^(k+1))
        q^k a) * (1 - ab q^(n+1+k)) / (1 - b q^(k+1)).  Over q = Q/R,
        a = an/ad, b = bn/bd and w = wn/wd that is (R^(n-k) - Q^(n-k))
        (wn R^k - wd Q^k) R^(k+1) ad / (Q^n wd an (R^(k+1) - Q^(k+1))) times
        (ad bd R^(n+1+k) - an bn Q^(n+1+k)) / (ad R^n (bd R^(k+1) - bn Q^(k+1))).
        """
        (an, ad), (bn, bd), (qn, qd), (wn, wd) = pair(self.a), pair(self.b), pair(self.q), pair(w)
        Q = [qn**i for i in range(2 * n + 1)]
        R = [qd**i for i in range(2 * n + 1)]
        den0 = Q[n] * wd * an
        steps = []
        for k in range(n):
            num = (R[n - k] - Q[n - k]) * (wn * R[k] - wd * Q[k]) * R[k + 1] * ad
            num *= ad * bd * R[n + 1 + k] - an * bn * Q[n + 1 + k]
            den = den0 * (R[k + 1] - Q[k + 1]) * ad * R[n] * (bd * R[k + 1] - bn * Q[k + 1])
            steps.append((num, den))
        return nested_sum(steps, self._unit())

    def xi_series(self, v: int, x: int) -> tuple:
        """The nonnegative-term series of xi_v(x) (`virtual.xi_series_terms`)
        as its first term and its step factors, unreduced pairs.

        The k-th term is the first, (a q^-v; q)_v (b q^(x+1); q)_v / (b q; q)_v,
        times (q^(v-k+1); q)_k (b q^(v-k+1); q)_k (a q^(x-v))^k / ((a q^-k; q)_k
        (b q^(v-k+1+x); q)_k (q; q)_k), so step k multiplies by (1 - q^(v-k))
        (1 - b q^(v-k)) a q^(x-v) / ((1 - a q^(-k-1)) (1 - b q^(v+x-k))
        (1 - q^(k+1))).
        """
        a, b, (qn, qd) = pair(self.a), pair(self.b), pair(self.q)

        def times_q(u, e):
            """u q^e as a pair."""
            (un, ud), s = u, abs(e)
            return (un * qn**s, ud * qd**s) if e >= 0 else (un * qd**s, ud * qn**s)

        def one_minus(u, e):
            """1 - u q^e as a pair."""
            n, d = times_q(u, e)
            return d - n, d

        top, bottom = [pair(self._unit())], []
        for j in range(v):
            top += one_minus(a, j - v), one_minus(b, x + 1 + j)
            bottom.append(one_minus(b, 1 + j))
        first = pair_quotient(pair_product(*top), pair_product(*bottom))
        one, aq = (1, 1), times_q(a, x - v)
        steps = []
        for k in range(v):
            top = [one_minus(one, v - k), aq, one_minus(b, v - k)]
            bottom = [one_minus(a, -k - 1), one_minus(one, k + 1), one_minus(b, v + x - k)]
            steps.append(pair_quotient(pair_product(*top), pair_product(*bottom)))
        return first, steps

    def term_ratio(self, n: int, k: int):
        """t_{k+1}/t_k of the series with (1 - q^k/w)(w/a) = (eta(k) - eta(x))/a
        taken out."""
        a, b, q = self.a, self.b, self.q
        return (
            (q ** (k - n) - 1) * (1 - a * b * q ** (n + 1 + k))
            / ((1 - q ** (k + 1)) * q**k * a * (1 - b * q ** (k + 1)))
        )

    def leading_coefficient(self, n: int):
        a, b, q = self.a, self.b, self.q
        c = (-a) ** -n * q ** (-n * n)
        return c * q_pochhammer(a * b * q ** (n + 1), q, n) / q_pochhammer(b * q, q, n)

    def leading_factors(self, labels, n: int) -> tuple:
        a, bq, q = self.a, self.b * self.q, self.q
        f_xi = 1
        for j in range(len(labels)):
            for k in range(j + 1, len(labels)):
                f_xi = f_xi * (a * q ** -(j + k) - bq) / (a * q ** -(labels[j] + labels[k]) - bq)
        f_p = 1
        for j, d in enumerate(labels, start=1):
            f_p = f_p * (q ** -(j - 1) - bq) / (q ** -(d + n) - bq)
        return f_xi, f_p

    @memo
    def dn_sq(self, n: int) -> Interval:
        """1 / (norm of P_n)^2: a rational prefactor times the mass d_0^2 =
        (aq;q)_inf / (abq^2;q)_inf, enclosed once (the divisor is [1, 1] at
        b = 0)."""
        a, b, q = self.a, self.b, self.q
        if not n:
            return q_pochhammer(a * q, q, None) / q_pochhammer(a * b * q**2, q, None)
        pref = (
            a**n * q ** (n * n) * q_pochhammer(b * q, q, n) * q_pochhammer(a * b * q, q, n)
            * (1 - a * b * q ** (2 * n + 1))
            / (q_pochhammer(q, q, n) * q_pochhammer(a * q, q, n) * (1 - a * b * q))
        )
        return pref * self.dn_sq(0)

    @memo
    def shifted(self, u: int) -> "LittleQJacobi":
        return self._at(a=self.a * self.q**u, b=self.b * self.q**u)

    @memo
    def tilde_shifted(self, u: int) -> "LittleQJacobi":
        return self._at(a=self.a * self.q**-u, b=self.b * self.q**u)

    @memo
    def twisted(self) -> "LittleQJacobi":
        return self._at(a=1 / self.a)


class LittleQLaguerre(LittleQJacobi):
    """System lqL, little q-Laguerre: lqJ at b = 0 (Koekoek-Lesky-Swarttouw
    2010, sections 14.12 and 14.20), so B(x) = a q^-x and D(x) = q^-x - 1.

    Every closed form is lqJ's.  What is its own is its identity: the tag
    and the parameter names (a, q), with b = 0 fixed on the class, so every
    move keeps it.  Equality is type-strict, so it never equals the lqJ at
    b = 0 and keeps its own `system` cache entries.
    """

    __slots__ = ()
    tag = "lqL"
    param_names = ("a", "q")
    b = Fraction(0)

    # Inherited, but bound in this class's own __dict__ as well: bench/tracer.py
    # looks dn_sq up there, class by class, to span it.
    dn_sq = LittleQJacobi.dn_sq


FAMILIES = {"M": Meixner, "lqJ": LittleQJacobi, "lqL": LittleQLaguerre}


# -- the lattice operator on pairs ---------------------------------------------------


def _eigen_identity(eigen, u, k) -> Callable[[int], bool]:
    """(A + k C) u(x) == P u(x+1) + Q u(x-1) for the table eigen(x) =
    (A, C, P, Q), the int numerators of the coefficients over one common
    denominator (dropped: the identity is homogeneous in them), an exact
    scalar k and a lattice function u of pairs, by one cross-multiplication;
    it raises ZeroDivisionError only where every coefficient at x is 0."""

    kn, kd = pair(k)

    def holds(x):
        a, c, p, q = eigen(x)
        if not (a or c or p or q):
            raise ZeroDivisionError("every eigen-identity coefficient vanishes")
        (un, ud), (u1n, u1d), (u0n, u0d) = u(x), u(x + 1), u(x - 1)
        return (a * kd + kn * c) * un * u1d * u0d == (p * u1n * u0d + q * u0n * u1d) * kd * ud

    return holds


def _shift(shifts, f, x: int, forward: bool) -> tuple:
    """(F f)(x) = (f0 f(x) - f1 f(x+1)) / fc if forward, else (G f)(x) = (g0
    f(x) - g1 f(x-1)) / gc, an unreduced pair from `_operator`'s triples and
    f of pairs (g1 holds D(0) = 0 at x = 0), over 0 if the divisor is 0.
    Only where every coefficient vanishes does it raise ZeroDivisionError."""
    (c0, c1, c), (a, ad) = shifts(x)[0 if forward else 1], f(x)
    if not (c0 or c1 or c):
        raise ZeroDivisionError("every shift coefficient vanishes")
    b, bd = f(x + 1 if forward else x - 1)
    return c0 * a * bd - c1 * b * ad, c * ad * bd


def _shift_identity(shifts, f, g, k, forward: bool) -> Callable[[int], bool]:
    """(F f)(x) == k g(x) if forward, else (G f)(x) == k g(x), cleared of the
    divisor, for `_shift` triples, an exact scalar k and f, g of pairs: the
    parameter shifts and a deletion step's nesting and contiguity (`chain`)."""
    k = pair(k)
    return lambda x: pair_equal(_shift(shifts, f, x, forward), pair_product(k, g(x)))


def _operator(B, D, varphi, b0, xi=lambda x: 1, xi_up=lambda x: 1) -> tuple:
    """(eigen, shifts): per-x tables of the operator of B~ = B (at lambda + M
    tilde-delta), D and varphi, b0 = B~(0), with denominators Xi = xi and Xi'
    = xi_up at lambda + delta (both 1 for the family's own operator),
        H u(x) = B~(x) (Xi(x)/Xi(x+1)) [(Xi'(x+1)/Xi'(x)) u(x) - u(x+1)]
               + D(x) (Xi(x+1)/Xi(x)) [(Xi'(x-1)/Xi'(x)) u(x) - u(x-1)];
    times C = Xi(x) Xi(x+1) Xi'(x), (H - E_n) u at x is (A - E_n C) u(x) -
    P u(x+1) - Q u(x-1), and eigen(x) = (A, C, P, Q) for `_eigen_identity`,
        A = B~(x) Xi(x)^2 Xi'(x+1) + D(x) Xi(x+1)^2 Xi'(x-1),
        P = B~(x) Xi(x)^2 Xi'(x),   Q = D(x) Xi(x+1)^2 Xi'(x).
    shifts(x) holds the triples for `_shift` of the forward shift, which
    lowers n by one and moves to lambda + delta, and of its inverse,
        f0, f1, fc = B~(0) Xi'(x+1), B~(0) Xi'(x), varphi(x) Xi(x+1),
        g0, g1, gc = B~(x) Xi(x) varphi(x), D(x) Xi(x+1) varphi(x-1), B~(0) Xi'(x).
    Each entry is int numerators over one common denominator, divided by
    their content (`primitive`; entries at the symbolic point stay as they
    are).  At Xi = Xi' = 1 eigen(x) is (B + D, 1, B, D), the base difference
    equation, up to that content.  x is a lattice point, or an offset from
    the symbolic point (`_at_w`).

    Callers: the family's own operator (`_own_operator`), each multi-indexed
    system (`multi._operator_tables`), and each level s of a deletion chain
    (`chain._Level`), whose standard form is this operator of alpha B'(x+s)
    and alpha D' at Xi = w_s, Xi' = w''_{s,0}.  Each table is filled on
    read, so the chain, which reads eigen only, builds no shift triple."""
    b0 = pair(b0)

    def eigen(x):
        xi0, xi1, up0 = pair(xi(x)), pair(xi(x + 1)), pair(xi_up(x))
        b, dd = pair_product(pair(B(x)), xi0, xi0), pair_product(pair(D(x)), xi1, xi1)
        a = pair_sum(pair_product(b, pair(xi_up(x + 1))), pair_product(dd, pair(xi_up(x - 1))))
        return primitive(pair_common(a, pair_product(xi0, xi1, up0), pair_product(b, up0), pair_product(dd, up0)))

    def shifts(x):
        xi0, xi1, up0, up1 = pair(xi(x)), pair(xi(x + 1)), pair(xi_up(x)), pair(xi_up(x + 1))
        phi = pair(varphi(x))
        forward = primitive(pair_common(pair_product(b0, up1), pair_product(b0, up0), pair_product(phi, xi1)))
        g1 = pair_product(pair(D(x)), xi1, pair(varphi(x - 1)))
        return forward, primitive(pair_common(pair_product(pair(B(x)), xi0, phi), g1, pair_product(b0, up0)))

    return LatticeFunction(eigen), LatticeFunction(shifts)


def _adag_a(B, D, e) -> tuple:
    """A^dagger A + e of the pair potentials (B, D), as its diagonal
    B(x) + D(x) + e and its off-diagonal product B(x) D(x+1)."""
    e = pair(e)
    return (lambda x: pair_sum(B(x), D(x), e)), (lambda x: pair_product(B(x), D(x + 1)))


def _a_adag(B, D, e) -> tuple:
    """A A^dagger + e of the pair potentials (B, D), as its diagonal
    B(x) + D(x+1) + e and its off-diagonal product B(x+1) D(x+1)."""
    e = pair(e)
    return (lambda x: pair_sum(B(x), D(x + 1), e)), (lambda x: pair_product(B(x + 1), D(x + 1)))


def _same_form(H: tuple, K: tuple) -> tuple:
    """(diagonal, off-diagonal): at x, do the forms H and K of one Hamiltonian
    (`_adag_a`) have the same diagonal, the same off-diagonal product?"""
    (h_diag, h_off), (k_diag, k_off) = H, K
    return (lambda x: pair_equal(h_diag(x), k_diag(x))), (lambda x: pair_equal(h_off(x), k_off(x)))


def _pairs(f, k=1):
    """x -> k f(x) as a pair, for a scalar lattice function f."""
    k = pair(k)
    return lambda x: pair_product(k, pair(f(x)))


def _same_shape(p: _BaseFamily, B, D, B_up, D_up) -> tuple:
    """`_same_form` of A A^dagger of the scalar potentials (B, D) at lambda
    and kappa A^dagger A + E_1 of (B_up, D_up) at lambda + delta."""
    H = _a_adag(_pairs(B), _pairs(D), 0)
    return _same_form(H, _adag_a(_pairs(B_up, p.kappa), _pairs(D_up, p.kappa), p.energy(1)))


# -- the product formula ------------------------------------------------------------


def _rho(lo: _BaseFamily, w):  # phi0_sq(x; lo + delta) / phi0_sq(x; lo) at the w of x
    return lo.B_w(w) * lo.varphi_w(w) ** 2 / lo.B(0)


def rodrigues_vector(p: _BaseFamily, n: int, w):
    """P_n at the lattice variable w (symbolic, or a lattice value) by the
    product formula P_n = g_n / phi0_sq, g_0 = phi0_sq(.; lambda + n delta) and
    g_{k+1}(x) = g_k(x)/varphi(x) - g_k(x-1)/varphi(x-1), g_k(-1) = 0.  At mu =
    lambda + (n-k) delta, r_k = g_k / phi0_sq(.; mu) has r_0 = 1 and r_{k+1}(x)
    = `_rho`(x; mu - delta) [r_k(x)/varphi(x) - r_k(x-1) D(x; mu) / (B(x-1; mu)
    varphi(x-1))], run on a stencil: x, x-1, ..., x-n, one offset fewer a step.
    r_n = P_n in Q(w) holds at each lattice x >= 0: D(0; mu) = 0 drops r_k(-1)
    at x = 0, and each divisor B(y; mu) has y >= x - (n-k), so it is c (y + beta
    + n-k) > 0 for M, and a q power times 1 - b q^(y+n-k+1) != 0 for lqJ."""
    ws, r = [p.step_w(w, -i) for i in range(n + 1)], [p._unit()] * (n + 1)
    for k in range(n):
        mu, lo = p.shifted(n - k), p.shifted(n - k - 1)
        r = [_rho(lo, v) * (r0 / p.varphi_w(v) - r1 * mu.D_w(v) / (mu.B_w(u) * p.varphi_w(u)))
             for r0, r1, v, u in zip(r, r[1:], ws, ws[1:])]
    return r[0]


# -- verification -------------------------------------------------------------------


def _at_w(p: _BaseFamily, w, *fs) -> list:
    """Each f of p's lattice variable, at x + k as a function of k, for the x at w."""
    return [lambda k, f=f: f(p.step_w(w, k)) for f in fs]


def _for_all_x(rep: Report, name: str, p: _BaseFamily, holds) -> None:
    """Add the check `name`: holds(w) at every x's lattice variable w, decided
    once at the symbolic w; only a failure walks the lattice (`Report.every`)
    for the first x where it fails.  A symbolic parameter would be read as w."""
    for param in p.param_names:
        if isinstance(getattr(p, param), RationalFunction):
            raise TypeError(f"{name} is not defined for symbolic parameters: {param} is symbolic")
    ok, (a0, b0) = holds(RationalFunction.variable()), p.eta_affine(0)  # eta(x) = a0 + b0 w
    rep.every(name, () if ok else itertools.count(), lambda x: holds((p.eta(x) - a0) / b0))


def verify_difference_equation(p: _BaseFamily, n_max: int) -> Report:
    """B(x)(P_n(x)-P_n(x+1)) + D(x)(P_n(x)-P_n(x-1)) = E_n P_n(x) for every
    x, one identity per n >= 1 (`_for_all_x`) on pairs (`_operator`).  At
    n = 0, P_0 = 1 reduces it to E_0 = 0, the spectrum row's statement."""
    rep = Report(f"base.difference-equation[{p!r}]", "difference equation for P_n")
    for n in range(1, n_max + 1):
        pn = functools.partial(p.poly_value_w, n)

        def holds(w, pn=pn, e=p.energy(n)):
            return _eigen_identity(p._own_operator(w)[0], _pairs(*_at_w(p, w, pn)), -e)(0)

        _for_all_x(rep, f"n={n} for all x", p, holds)
    mono = all(p.energy(n) < p.energy(n + 1) for n in range(n_max + 1))
    rep.add("spectrum increasing, E_0 = 0", mono and p.energy(0) == 0)
    return rep


def verify_shift_relations(p: _BaseFamily, n_max: int) -> Report:
    """Forward/backward shifts on pairs (`_shift_identity`), the product
    formula (`rodrigues_vector`, row n deciding `_rho` at the shift n) and
    shape invariance (`_same_shape`), each for every x (`_for_all_x`), n >= 1."""
    rep = Report(f"base.shift-relations[{p!r}]", "shift operators, product formula, shape invariance")
    up, w0 = p.shifted(1), -Fraction(p.eta_affine(0)[0]) / p.eta_affine(0)[1]  # w at x = 0, eta(0) = 0

    def shift_holds(f, g, e, forward, w):  # F f = e g if forward, else G f = e g
        return _shift_identity(p._own_operator(w)[1], *map(_pairs, _at_w(p, w, f, g)), e, forward)(0)

    def product_holds(n, w):  # rho at the shift n; rows 1..n-1 decide the shifts before
        # rho(0) = 1, rho(x+1)/rho(x) = B(x; mu) D(x+1; lo) / (D(x+1; mu) B(x; lo))
        mu, lo, w1 = p.shifted(n), p.shifted(n - 1), p.step_w(w, 1)
        if _rho(lo, w0) != 1 or _rho(lo, w) * mu.B_w(w) * lo.D_w(w1) != _rho(lo, w1) * mu.D_w(w1) * lo.B_w(w):
            return False
        return rodrigues_vector(p, n, w) == p.poly_value_w(n, w)

    for n in range(1, n_max + 1):
        pn, qn = functools.partial(p.poly_value_w, n), functools.partial(up.poly_value_w, n - 1)
        _for_all_x(rep, f"forward n={n} for all x", p, functools.partial(shift_holds, pn, qn, p.energy(n), True))
        _for_all_x(rep, f"backward n={n} for all x", p, functools.partial(shift_holds, qn, pn, 1, False))
        _for_all_x(rep, f"product formula n={n} for all x", p, functools.partial(product_holds, n))
    shape = lambda w: _same_shape(p, *_at_w(p, w, p.B_w, p.D_w, up.B_w, up.D_w))
    _for_all_x(rep, "shape-invariance diagonal for all x", p, lambda w: shape(w)[0](0))
    _for_all_x(rep, "shape-invariance squared off-diagonal for all x", p, lambda w: shape(w)[1](0))
    return rep
