"""Base orthogonal polynomial systems on the semi-infinite integer lattice.

Two exactly solvable birth-and-death type systems are implemented: M (a
two-parameter system with linear potentials, eta(x) = x) and lqJ, little
q-Jacobi (a q-lattice system with eta(x) = 1 - q^x).  lqL, little
q-Laguerre, is lqJ at b = 0 (Koekoek-Lesky-Swarttouw 2010, sections 14.12
and 14.20) and is built as that subclass, with only its tag, repr, key and
parameter names its own.  Each system consists of

  - potentials B(x) > 0 (x >= 0) and D(x) > 0 (x >= 1), D(0) = 0,
  - an increasing spectrum E_n with E_0 = 0,
  - eigenpolynomials P_n of degree n in eta(x), normalized to P_n(0) = 1,
    satisfying for all x
        B(x) (P_n(x) - P_n(x+1)) + D(x) (P_n(x) - P_n(x-1)) = E_n P_n(x),
  - a ground-state square phi0_sq with phi0_sq(0) = 1 and the zero-mode
    recurrence phi0_sq(x+1)/phi0_sq(x) = B(x)/D(x+1),
  - orthogonality sum_x phi0_sq(x) P_n(x) P_m(x) = delta_nm / d_n^2.

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

Parameter shifts: `shifted(u)` applies u steps of the forward-shift direction
delta; `twisted()` applies the involution used to build virtual states;
`tilde_shifted(u)` applies the companion direction delta-tilde satisfying
twist(lambda) + u*delta = twist(lambda + u*delta-tilde).

Each system has one lattice variable w, x for M and q^x for lqJ, in which
`B_w`, `D_w` and `poly_value_w` are rational (M's are B, D and poly_value).
The shift x -> x+k is affine in it: `eta_affine(k)` = (alpha_k, beta_k) with
eta(x+k) = alpha_k + beta_k w, which gives `step_w(w, k)`, the w of x+k.
`limit_end` is the end of a coefficient list in w that holds the value at
the lattice's far end, and `tail_start(polys)` certifies signs from x0 on.

The closed forms the virtual-state and multi-indexed layers need are
methods here as well: the twist constants alpha() and alpha_prime(), the
virtual energies virtual_energy(v), the label bound v_max(), varphi_M(m, x)
and the leading-coefficient factors leading_factors(labels, n).

Caching follows one rule.  A derived value that an object computes from its
own parameters -- here P_n, d_n^2 and the moved families, in `multi` C_D,
Xi_D, P_{D,n}, the weight and the orthogonality certificate, in `chain` the
level tables of a label-prefix system -- is a function under `memo`, kept
in the object's `_cache` under the function's name and positional
arguments.  So are the exact lattice values a family is read at again and
again: the q families' eta, B, D, varphi and varphi_M, every family's
energies, virtual energies and poly_eval, and, as memos that `multi` keeps
on the family, the Casoratian columns xi_d(eta(x)) and nu(x) P_n(eta(x))
that every system on the family reads.  Each is computed once per family
and point.  A lattice function that is handed
around as an object of its own (a Casoratian grid, a chain level's
potentials) is a `casoratian.LatticeFunction` instead.  `multi._SYSTEMS` is
the one store across objects: it keys systems by value, so that equal
families built apart share their constructions.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .polynomials import Polynomial, newton_form, sign_on_tail
from .ratfunc import RationalFunction
from .report import Report
from .series import (
    Interval,
    nested_sum,
    pair,
    pair_product,
    pair_quotient,
    pochhammer,
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
    """Shared machinery; concrete systems fill in the closed forms."""

    __slots__ = ("_cache",)
    tag = "?"

    # -- identity ---------------------------------------------------------------

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    @memo
    def __hash__(self) -> int:
        # a family is immutable, and every `multi.system` lookup hashes it
        return hash((self.tag, self._key()))

    # -- derived lattice data ------------------------------------------------------

    def phi0_sq(self, x: int):
        """Square of the ground-state amplitude, from the zero-mode recurrence.

        phi0_sq(0) = 1 and phi0_sq(x+1) = phi0_sq(x) * B(x) / D(x+1); this is
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

    @memo
    def poly_eval(self, n: int, x: int):
        """P_n at lattice point x (any integer), via the eta-polynomial."""
        return self.poly(n)(self.eta(x))

    # -- the lattice variable ------------------------------------------------------

    def step_w(self, w, k: int):
        """The lattice variable at x + k, given its value w at x."""
        a0, b0 = self.eta_affine(0)
        ak, bk = self.eta_affine(k)
        return (ak + bk * w - a0) / b0

    # -- twisted potentials; each family defines the memoised moves twisted(),
    # -- shifted(u) and tilde_shifted(u)

    def Bprime(self, x):
        """B(x) at twisted parameters."""
        return self.twisted().B(x)

    def Dprime(self, x):
        """D(x) at twisted parameters (equals D for every system here)."""
        return self.twisted().D(x)


class Meixner(_BaseFamily):
    """System M: B(x) = c (x + beta), D(x) = x, eta(x) = x, kappa = 1.

    Valid ranges beta > 0, 0 < c < 1.  c may be a RationalFunction for
    symbolic work, in which case validation is skipped.
    """

    __slots__ = ("beta", "c")
    tag = "M"
    param_names = ("beta", "c")
    limit_end = -1  # the lattice variable x -> infinity: the top coefficients

    def __init__(self, beta, c, validate: bool = True):
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "beta", _exact(beta))
        object.__setattr__(self, "c", _exact(c))
        if validate and not isinstance(self.c, RationalFunction):
            if not self.beta > 0:
                raise ValueError("requires beta > 0")
            if not 0 < self.c < 1:
                raise ValueError("requires 0 < c < 1")

    def _key(self):
        return (self.beta, self.c)

    def __repr__(self):
        return f"Meixner(beta={self.beta}, c={self.c})"

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
    B_w, D_w, poly_value_w = B, D, poly_value

    def term_ratio(self, n: int, k: int):
        """t_{k+1}/t_k of the series with its (k - x) factor taken out."""
        return (k - n) * (1 - 1 / self.c) / ((self.beta + k) * (k + 1))

    def leading_coefficient(self, n: int):
        return (1 - 1 / self.c) ** n / pochhammer(self.beta, n)

    @memo
    def dn_sq(self, n: int):
        """1 / (norm of P_n)^2; exact Fraction for integer beta, else Interval."""
        if isinstance(self.c, RationalFunction):
            raise TypeError("dn_sq is not defined for symbolic parameters")
        pref = pochhammer(self.beta, n) * self.c**n / pochhammer(Fraction(1), n)
        if self.beta.denominator == 1:
            return pref * (1 - self.c) ** int(self.beta)
        return pref * rational_power(1 - self.c, self.beta)

    @memo
    def shifted(self, u: int) -> "Meixner":
        return Meixner(self.beta + u, self.c, validate=False)

    tilde_shifted = shifted  # delta-tilde = delta for M

    @memo
    def twisted(self) -> "Meixner":
        return Meixner(self.beta, 1 / self.c, validate=False)

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

    Valid ranges 0 < q < 1, 0 < a < 1/q, b < 1/q, excluding the degenerate
    lines a = b q^k, k >= 1, where virtual-state degrees collapse.  b = 0 is
    lqL; every closed form skips its b factors there, which leaves the
    values unchanged.
    """

    __slots__ = ("a", "b", "q")
    tag = "lqJ"
    param_names = ("a", "b", "q")

    def __init__(self, a, b, q, validate: bool = True):
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "a", _exact(a))
        object.__setattr__(self, "b", _exact(b))
        object.__setattr__(self, "q", _exact(q))
        if validate:
            if not 0 < self.q < 1:
                raise ValueError("requires 0 < q < 1")
            if not 0 < self.a < 1 / self.q:
                raise ValueError("requires 0 < a < 1/q")
            if not self.b < 1 / self.q:
                raise ValueError("requires b < 1/q")
            if self.b > 0:
                k = self._q_exponent(self.a / self.b)  # a/b = q^k exactly, or no k does
                if k >= 1 and self.q**k == self.a / self.b:
                    raise ValueError(f"degenerate parameters: a = b q^{k} collapses virtual-state degrees")

    def _key(self):
        return (self.a, self.b, self.q)

    def __repr__(self):
        return f"LittleQJacobi(a={self.a}, b={self.b}, q={self.q})"

    def _at(self, a, b) -> "LittleQJacobi":
        """This family's class at parameters (a, b) and the same q; every
        parameter move goes through here."""
        return LittleQJacobi(a, b, self.q, validate=False)

    def B_w(self, w):
        if not self.b:
            return self.a / w
        return self.a * (1 / w - self.b * self.q)

    @memo
    def energy(self, n: int):
        e = self.q**-n - 1
        if self.b:
            e = e * (1 - self.a * self.b * self.q ** (n + 1))
        return e

    def alpha_prime(self):
        return -(1 - self.a) * (1 - self.b * self.q)

    @memo
    def virtual_energy(self, v: int):
        e = self.a * self.q**-v - 1
        if self.b:
            e = e * (1 - self.b * self.q ** (v + 1))
        return e

    def poly_value_w(self, n: int, w):
        """Terminating 3phi1-type sum as a function of w = q^x.

        The k-th step multiplies by (q^(k-n) - 1) (w - q^k) / ((1 - q^(k+1))
        q^k a) * (1 - ab q^(n+1+k)) / (1 - b q^(k+1)).  Over q = Q/R,
        a = an/ad, b = bn/bd and w = wn/wd that is (R^(n-k) - Q^(n-k))
        (wn R^k - wd Q^k) R^(k+1) ad / (Q^n wd an (R^(k+1) - Q^(k+1))) times
        (ad bd R^(n+1+k) - an bn Q^(n+1+k)) / (ad R^n (bd R^(k+1) - bn Q^(k+1)));
        at b = 0 the second factor is 1 and is skipped.
        """
        (an, ad), (bn, bd), (qn, qd), (wn, wd) = pair(self.a), pair(self.b), pair(self.q), pair(w)
        Q = [qn**i for i in range(2 * n + 1)]
        R = [qd**i for i in range(2 * n + 1)]
        den0 = Q[n] * wd * an
        steps = []
        for k in range(n):
            num = (R[n - k] - Q[n - k]) * (wn * R[k] - wd * Q[k]) * R[k + 1] * ad
            den = den0 * (R[k + 1] - Q[k + 1])
            if bn:
                num *= ad * bd * R[n + 1 + k] - an * bn * Q[n + 1 + k]
                den *= ad * R[n] * (bd * R[k + 1] - bn * Q[k + 1])
            steps.append((num, den))
        return nested_sum(steps, self._unit())

    def xi_series(self, v: int, x: int) -> tuple:
        """The nonnegative-term series of xi_v(x) (`virtual.xi_series_terms`)
        as its first term and its step factors, unreduced pairs.

        The k-th term is the first, (a q^-v; q)_v (b q^(x+1); q)_v / (b q; q)_v,
        times (q^(v-k+1); q)_k (b q^(v-k+1); q)_k (a q^(x-v))^k / ((a q^-k; q)_k
        (b q^(v-k+1+x); q)_k (q; q)_k), so step k multiplies by (1 - q^(v-k))
        (1 - b q^(v-k)) a q^(x-v) / ((1 - a q^(-k-1)) (1 - b q^(v+x-k))
        (1 - q^(k+1))).  The b factors are 1 at b = 0 and are skipped.
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
            top.append(one_minus(a, j - v))
            if b[0]:
                top.append(one_minus(b, x + 1 + j))
                bottom.append(one_minus(b, 1 + j))
        first = pair_quotient(pair_product(*top), pair_product(*bottom))
        one, aq = (1, 1), times_q(a, x - v)
        steps = []
        for k in range(v):
            top = [one_minus(one, v - k), aq]
            bottom = [one_minus(a, -k - 1), one_minus(one, k + 1)]
            if b[0]:
                top.append(one_minus(b, v - k))
                bottom.append(one_minus(b, v + x - k))
            steps.append(pair_quotient(pair_product(*top), pair_product(*bottom)))
        return first, steps

    def term_ratio(self, n: int, k: int):
        """t_{k+1}/t_k of the series with (1 - q^k/w)(w/a) = (eta(k) - eta(x))/a
        taken out."""
        a, b, q = self.a, self.b, self.q
        r = (q ** (k - n) - 1) / ((1 - q ** (k + 1)) * q**k * a)
        if b:
            r = r * (1 - a * b * q ** (n + 1 + k)) / (1 - b * q ** (k + 1))
        return r

    def leading_coefficient(self, n: int):
        a, b, q = self.a, self.b, self.q
        c = (-a) ** -n * q ** (-n * n)
        if b:
            c = c * q_pochhammer(a * b * q ** (n + 1), q, n) / q_pochhammer(b * q, q, n)
        return c

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
        a, b, q = self.a, self.b, self.q
        pref = a**n * q ** (n * n) / (q_pochhammer(q, q, n) * q_pochhammer(a * q, q, n))
        inf = q_pochhammer(a * q, q, None)
        if b:
            pref = (
                pref
                * q_pochhammer(b * q, q, n)
                * q_pochhammer(a * b * q, q, n)
                * (1 - a * b * q ** (2 * n + 1))
                / (1 - a * b * q)
            )
            inf = inf / q_pochhammer(a * b * q**2, q, None)
        return pref * inf

    @memo
    def shifted(self, u: int) -> "LittleQJacobi":
        return self._at(self.a * self.q**u, self.b * self.q**u)

    @memo
    def tilde_shifted(self, u: int) -> "LittleQJacobi":
        return self._at(self.a * self.q**-u, self.b * self.q**u)

    @memo
    def twisted(self) -> "LittleQJacobi":
        return self._at(1 / self.a, self.b)


class LittleQLaguerre(LittleQJacobi):
    """System lqL, little q-Laguerre: lqJ at b = 0 (Koekoek-Lesky-Swarttouw
    2010, sections 14.12 and 14.20), so B(x) = a q^-x and D(x) = q^-x - 1.

    Every closed form is lqJ's.  What is its own is its identity: the tag,
    the repr, the key (a, q) and the parameter names.  Equality is
    type-strict, so it never equals the lqJ at b = 0 and keeps its own
    `system` cache entries.
    """

    __slots__ = ()
    tag = "lqL"
    param_names = ("a", "q")

    def __init__(self, a, q, validate: bool = True):
        super().__init__(a, 0, q, validate)

    def _key(self):
        return (self.a, self.q)

    def __repr__(self):
        return f"LittleQLaguerre(a={self.a}, q={self.q})"

    def _at(self, a, b) -> "LittleQLaguerre":
        return LittleQLaguerre(a, self.q, validate=False)  # every move keeps b = 0

    # Inherited, but bound in this class's own __dict__ as well: bench/tracer.py
    # looks dn_sq up there, class by class, to span it.
    dn_sq = LittleQJacobi.dn_sq


FAMILIES = {"M": Meixner, "lqJ": LittleQJacobi, "lqL": LittleQLaguerre}


# -- shift operators and the product formula ---------------------------------------


def forward_shift_apply(p: _BaseFamily, f, x: int):
    """(F f)(x) = B(0) varphi(x)^-1 (f(x) - f(x+1)); sends level-lambda P_n
    to E_n times level-(lambda+delta) P_{n-1}."""
    return p.B(0) * (f(x) - f(x + 1)) / p.varphi(x)


def backward_shift_apply(p: _BaseFamily, f, x: int):
    """(G f)(x) = B(0)^-1 (B(x) varphi(x) f(x) - D(x) varphi(x-1) f(x-1));
    inverts the forward shift on polynomial eigenvectors.  The x = 0 term
    from f(-1) is absent because D(0) = 0."""
    val = p.B(x) * p.varphi(x) * f(x)
    if x >= 1:
        val = val - p.D(x) * p.varphi(x - 1) * f(x - 1)
    return val / p.B(0)


def rodrigues_vector(p: _BaseFamily, n: int, x_max: int) -> list:
    """P_n(x) for x = 0..x_max from the universal product formula.

    Applies the operator g(x) |-> g(x)/varphi(x) - g(x-1)/varphi(x-1) n times
    to phi0_sq at parameters shifted n steps, then divides by phi0_sq.  On the
    semi-infinite lattice the g(-1) term at x = 0 is dropped (matrix
    convention; the natural continuation of phi0_sq vanishes at x = -1).
    """
    shifted = p.shifted(n)
    g = [shifted.phi0_sq(x) for x in range(x_max + n + 1)]
    for _ in range(n):
        g = [
            g[x] / p.varphi(x) - (g[x - 1] / p.varphi(x - 1) if x >= 1 else 0)
            for x in range(len(g) - 1)
        ]
    return [g[x] / p.phi0_sq(x) for x in range(x_max + 1)]


# -- verification -------------------------------------------------------------------


def verify_difference_equation(p: _BaseFamily, n_max: int, x_max: int) -> Report:
    """Check B(x)(P_n(x)-P_n(x+1)) + D(x)(P_n(x)-P_n(x-1)) = E_n P_n(x).

    Exact on the lattice window 0..x_max, which already pins down the
    identity as rational functions (both sides have degree <= n+2 in the
    lattice variable); three off-lattice values of the lattice variable w
    are checked as well to exercise the continuation directly.
    """
    rep = Report(f"base.difference-equation[{p!r}]", "difference equation for P_n")
    for n in range(n_max + 1):
        e = p.energy(n)
        vals = [p.poly_eval(n, x) for x in range(-1, x_max + 2)]
        for x in range(x_max + 1):
            lhs = p.B(x) * (vals[x + 1] - vals[x + 2]) + p.D(x) * (vals[x + 1] - vals[x])
            ok = lhs == e * vals[x + 1]
            rep.add(f"n={n},x={x}", ok, "" if ok else f"residual={lhs - e * vals[x + 1]}")
        for w in (Fraction(2, 3), Fraction(5, 7), Fraction(3, 2)):
            val = lambda k: p.poly_value_w(n, p.step_w(w, k))
            lhs = p.B_w(w) * (val(0) - val(1)) + p.D_w(w) * (val(0) - val(-1))
            rep.add(f"n={n},w={w}", lhs == e * val(0))
    mono = all(p.energy(n) < p.energy(n + 1) for n in range(n_max + 1))
    rep.add("spectrum increasing, E_0 = 0", mono and p.energy(0) == 0)
    return rep


def verify_shift_relations(p: _BaseFamily, n_max: int, x_max: int) -> Report:
    """Forward/backward shift relations, the product (Rodrigues) formula, and
    the square-root-free factorization-intertwining identities."""
    rep = Report(f"base.shift-relations[{p!r}]", "shift operators, product formula, shape invariance")
    up = p.shifted(1)
    for n in range(1, n_max + 1):
        e = p.energy(n)
        for x in range(x_max + 1):
            fwd = forward_shift_apply(p, lambda y, n=n: p.poly_eval(n, y), x)
            rep.add(f"forward n={n},x={x}", fwd == e * up.poly_eval(n - 1, x))
            bwd = backward_shift_apply(p, lambda y, n=n: up.poly_eval(n - 1, y), x)
            rep.add(f"backward n={n},x={x}", bwd == p.poly_eval(n, x))
    for n in range(n_max + 1):
        rod = rodrigues_vector(p, n, x_max)
        ok = all(rod[x] == p.poly_eval(n, x) for x in range(x_max + 1))
        rep.add(f"product formula n={n}", ok)
    kappa, e1 = p.kappa, p.energy(1)
    for x in range(x_max + 1):
        diag = p.B(x) + p.D(x + 1) == kappa * (up.B(x) + up.D(x)) + e1
        offd = p.B(x + 1) * p.D(x + 1) == kappa**2 * up.B(x) * up.D(x + 1)
        rep.add(f"shape-invariance diagonal x={x}", diag)
        rep.add(f"shape-invariance squared off-diagonal x={x}", offd)
    return rep
