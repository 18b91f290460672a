"""Base orthogonal polynomial systems on the semi-infinite integer lattice.

Three exactly solvable birth-and-death type systems are implemented, tagged
M (a two-parameter system with linear potentials, eta(x) = x), lqJ and lqL
(q-lattice systems with eta(x) = 1 - q^x).  Each system consists of

  - potentials B(x) > 0 (x >= 0) and D(x) > 0 (x >= 1), D(0) = 0,
  - an increasing spectrum E_n with E_0 = 0,
  - eigenpolynomials P_n of degree n in eta(x), normalized to P_n(0) = 1,
    satisfying for all x
        B(x) (P_n(x) - P_n(x+1)) + D(x) (P_n(x) - P_n(x-1)) = E_n P_n(x),
  - a ground-state square phi0_sq with phi0_sq(0) = 1 and the zero-mode
    recurrence phi0_sq(x+1)/phi0_sq(x) = B(x)/D(x+1),
  - orthogonality sum_x phi0_sq(x) P_n(x) P_m(x) = delta_nm / d_n^2.

Polynomial values are evaluated by terminating hypergeometric sums, exact in
the coefficient field.  The M system also runs with its parameter c symbolic
(a RationalFunction), which is how exact c -> 1 limits are taken downstream;
no ordering comparisons happen outside validation for that reason.

Parameter shifts: `shifted(u)` applies u steps of the forward-shift direction
delta; `twisted()` applies the involution used to build virtual states;
`tilde_shifted(u)` applies the companion direction delta-tilde satisfying
twist(lambda) + u*delta = twist(lambda + u*delta-tilde).
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .polynomials import Polynomial, newton_form
from .ratfunc import RationalFunction
from .report import Report
from .series import Interval, pochhammer, q_pochhammer, rational_power, DEFAULT_EPS

__all__ = [
    "Meixner",
    "LittleQJacobi",
    "LittleQLaguerre",
    "FAMILIES",
    "potential_B",
    "potential_D",
    "energy",
    "eta",
    "varphi",
    "phi0_sq",
    "polynomial_value",
    "polynomial_coeffs",
    "dn_sq",
    "rodrigues_vector",
    "forward_shift_apply",
    "backward_shift_apply",
    "verify_difference_equation",
    "verify_shift_relations",
]


def _exact(v):
    """Coerce to Fraction unless already a symbolic scalar."""
    if isinstance(v, RationalFunction):
        return v
    return Fraction(v)


class _BaseFamily:
    """Shared machinery; concrete systems fill in the closed forms."""

    __slots__ = ("_cache",)
    tag = "?"

    # -- identity ---------------------------------------------------------------

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self.tag, self._key()))

    # -- derived lattice data ------------------------------------------------------

    def varphi(self, x: int):
        """(eta(x+1) - eta(x)) / eta(1); closed forms override for speed."""
        return (self.eta(x + 1) - self.eta(x)) / self.eta(1)

    def phi0_sq(self, x: int):
        """Square of the ground-state amplitude, from the zero-mode recurrence.

        phi0_sq(0) = 1 and phi0_sq(x+1) = phi0_sq(x) * B(x) / D(x+1); this is
        exactly the statement that the Hamiltonian annihilates the ground
        state, so closed product forms are checked against it in tests rather
        than trusted here.
        """
        if x < 0:
            raise ValueError("phi0_sq needs x >= 0")
        vals = self._cache.setdefault("phi0_sq", [_one_like(self.eta(1))])
        while len(vals) <= x:
            y = len(vals) - 1
            vals.append(vals[y] * self.B(y) / self.D(y + 1))
        return vals[x]

    def poly(self, n: int) -> Polynomial:
        """P_n as a polynomial in eta, from the series' own Newton form.

        Every term of the defining series carries the factor
        prod_{j<k} (eta(j) - eta(x)), so P_n(eta) = sum_k t_k prod_{j<k}
        (eta(j) - eta) with t_0 = 1 and t_{k+1} = t_k term_ratio(n, k), which
        `newton_form` expands on the lattice nodes eta(0..n-1).  The result
        is revalidated against `poly_value`, a separately written coding of
        the series, at the five lattice points x = n+1..n+5.
        """
        cache = self._cache.setdefault("poly", {})
        if n not in cache:
            symbolic = any(isinstance(v, RationalFunction) for v in self._key())
            t = RationalFunction(1) if symbolic else Fraction(1)
            coeffs = [t]
            for k in range(n):
                t = -t * self.term_ratio(n, k)  # Newton form in (eta - eta(j))
                coeffs.append(t)
            p = newton_form([self.eta(j) for j in range(n)], coeffs)
            if p.degree != n:
                raise ArithmeticError(f"P_{n} degenerated to degree {p.degree}")
            for x in range(n + 1, n + 6):
                if p(self.eta(x)) != self.poly_value(n, x):
                    raise ArithmeticError(f"P_{n} Newton form fails the series at x={x}")
            cache[n] = p
        return cache[n]

    def poly_eval(self, n: int, x: int):
        """P_n at lattice point x (any integer), via the eta-polynomial."""
        return self.poly(n)(self.eta(x))

    # -- parameter moves -----------------------------------------------------------

    def twisted(self) -> "_BaseFamily":
        t = self._cache.get("twisted")
        if t is None:
            t = self._twisted()
            self._cache["twisted"] = t
        return t

    def tilde_shifted(self, u: int = 1) -> "_BaseFamily":
        """The family at lambda + u delta-tilde, built once per u so that its
        phi0_sq memo is shared by every caller."""
        key = ("tilde_shifted", u)
        t = self._cache.get(key)
        if t is None:
            t = self._tilde_shifted(u)
            self._cache[key] = t
        return t

    def Bprime(self, x):
        """B(x) at twisted parameters."""
        return self.twisted().B(x)

    def Dprime(self, x):
        """D(x) at twisted parameters (equals D for every system here)."""
        return self.twisted().D(x)


def _memoised_dn_sq(fn):
    """Keep dn_sq(n, eps) in the family's `_cache`; the infinite q-products
    behind it would otherwise be recomputed for every orthogonality check."""

    @functools.wraps(fn)
    def dn_sq(self, n: int, eps: Fraction = DEFAULT_EPS):
        key = ("dn_sq", n, eps)
        if key not in self._cache:
            self._cache[key] = fn(self, n, eps)
        return self._cache[key]

    return dn_sq


def _one_like(scalar):
    # multiplicative unit in the scalar's field; ints stay int
    return scalar / scalar if isinstance(scalar, RationalFunction) else Fraction(1)


class Meixner(_BaseFamily):
    """System M: B(x) = c (x + beta), D(x) = x, eta(x) = x, kappa = 1.

    Valid ranges beta > 0, 0 < c < 1.  c may be a RationalFunction for
    symbolic work, in which case validation is skipped.
    """

    __slots__ = ("beta", "c")
    tag = "M"

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

    def energy(self, n: int):
        return (1 - self.c) * n

    def eta(self, x):
        return Fraction(x) if isinstance(x, int) else x

    def varphi(self, x):
        return Fraction(1)

    def poly_value(self, n: int, x):
        """Terminating 2F1-type sum; x may be any rational (or integer)."""
        z = 1 - 1 / self.c
        term = _one_like(z)
        total = term
        for k in range(n):
            term = term * (k - n) * (k - x) * z / ((self.beta + k) * (k + 1))
            total = total + term
        return total

    def term_ratio(self, n: int, k: int):
        """t_{k+1}/t_k of the series with its (k - x) factor taken out."""
        return (k - n) * (1 - 1 / self.c) / ((self.beta + k) * (k + 1))

    def poly_value_dual(self, n: int, x: int):
        """Self-duality route: the sum is symmetric under n <-> x."""
        if x < 0:
            raise ValueError("duality route needs x >= 0")
        return self.poly_value(x, n)

    def leading_coefficient(self, n: int):
        return (1 - 1 / self.c) ** n / pochhammer(self.beta, n)

    @_memoised_dn_sq
    def dn_sq(self, n: int, eps: Fraction = DEFAULT_EPS):
        """1 / (norm of P_n)^2; exact Fraction for integer beta, else Interval."""
        if isinstance(self.c, RationalFunction):
            raise TypeError("dn_sq is not defined for symbolic parameters")
        pref = pochhammer(self.beta, n) * self.c**n / pochhammer(Fraction(1), n)
        if self.beta.denominator == 1:
            return pref * (1 - self.c) ** int(self.beta)
        return pref * rational_power(1 - self.c, self.beta, eps)

    def shifted(self, u: int = 1) -> "Meixner":
        return Meixner(self.beta + u, self.c, validate=False)

    def _tilde_shifted(self, u: int) -> "Meixner":
        return self.shifted(u)

    def _twisted(self) -> "Meixner":
        return Meixner(self.beta, 1 / self.c, validate=False)

    def nu(self, x: int):
        return self.c**x


class _QFamily(_BaseFamily):
    """Common q-lattice structure: eta(x) = 1 - q^x, kappa = 1/q."""

    __slots__ = ()

    @property
    def kappa(self):
        return 1 / self.q

    def eta(self, x: int):
        return 1 - self.q**x

    def varphi(self, x: int):
        return self.q**x

    def B(self, x: int):
        return self.B_w(self.q**x)

    def D(self, x: int):
        return self.D_w(self.q**x)

    def D_w(self, w):
        return 1 / w - 1

    def poly_value(self, n: int, x: int):
        return self.poly_value_w(n, self.q**x)

    def nu(self, x: int):
        return self.a**x


class LittleQJacobi(_QFamily):
    """System lqJ: B(x) = a (q^-x - b q), D(x) = q^-x - 1.

    Valid ranges 0 < q < 1, 0 < a < 1/q, b < 1/q, excluding the degenerate
    line a = b q^(m+1) (checked for m up to 64) where virtual-state degrees
    collapse.  b = 0 reproduces lqL.
    """

    __slots__ = ("a", "b", "q")
    tag = "lqJ"

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
                for m in range(65):
                    if self.a == self.b * self.q ** (m + 1):
                        raise ValueError(
                            f"degenerate parameters: a = b q^{m + 1} collapses virtual-state degrees"
                        )

    def _key(self):
        return (self.a, self.b, self.q)

    def __repr__(self):
        return f"LittleQJacobi(a={self.a}, b={self.b}, q={self.q})"

    def B_w(self, w):
        return self.a * (1 / w - self.b * self.q)

    def energy(self, n: int):
        return (self.q**-n - 1) * (1 - self.a * self.b * self.q ** (n + 1))

    def poly_value_w(self, n: int, w):
        """Terminating 3phi1-type sum as a function of w = q^x."""
        a, b, q = self.a, self.b, self.q
        term = _one_like(w)
        total = term
        for k in range(n):
            term = (
                term
                * (1 - q ** (k - n))
                * (1 - a * b * q ** (n + 1 + k))
                * (1 - q**k / w)
                / ((1 - b * q ** (k + 1)) * (1 - q ** (k + 1)))
                * (-1)
                * q**-k
                * (w / a)
            )
            total = total + term
        return total

    def term_ratio(self, n: int, k: int):
        """t_{k+1}/t_k of the series with (1 - q^k/w)(w/a) = (eta(k) - eta(x))/a
        taken out."""
        a, b, q = self.a, self.b, self.q
        return -(1 - q ** (k - n)) * (1 - a * b * q ** (n + 1 + k)) / (
            (1 - b * q ** (k + 1)) * (1 - q ** (k + 1)) * q**k * a
        )

    def poly_value_alt(self, n: int, w):
        """Independent 2phi1-type route to the same value."""
        a, b, q = self.a, self.b, self.q
        pref = q_pochhammer(1 / (a * q**n), q, n) / q_pochhammer(b * q, q, n)
        term = _one_like(w)
        total = term
        for k in range(n):
            term = (
                term
                * (1 - q ** (k - n))
                * (1 - a * b * q ** (n + 1 + k))
                / ((1 - a * q ** (k + 1)) * (1 - q ** (k + 1)))
                * (q * w)
            )
            total = total + term
        return pref * total

    def leading_coefficient(self, n: int):
        a, b, q = self.a, self.b, self.q
        return (
            (-a) ** -n
            * q ** (-n * n)
            * q_pochhammer(a * b * q ** (n + 1), q, n)
            / q_pochhammer(b * q, q, n)
        )

    @_memoised_dn_sq
    def dn_sq(self, n: int, eps: Fraction = DEFAULT_EPS) -> Interval:
        a, b, q = self.a, self.b, self.q
        pref = (
            q_pochhammer(b * q, q, n)
            * q_pochhammer(a * b * q, q, n)
            * a**n
            * q ** (n * n)
            / (q_pochhammer(q, q, n) * q_pochhammer(a * q, q, n))
            * (1 - a * b * q ** (2 * n + 1))
            / (1 - a * b * q)
        )
        inf = q_pochhammer(a * q, q, None, eps) / q_pochhammer(a * b * q**2, q, None, eps)
        return pref * inf

    def shifted(self, u: int = 1) -> "LittleQJacobi":
        return LittleQJacobi(self.a * self.q**u, self.b * self.q**u, self.q, validate=False)

    def _tilde_shifted(self, u: int) -> "LittleQJacobi":
        return LittleQJacobi(self.a * self.q**-u, self.b * self.q**u, self.q, validate=False)

    def _twisted(self) -> "LittleQJacobi":
        return LittleQJacobi(1 / self.a, self.b, self.q, validate=False)


class LittleQLaguerre(_QFamily):
    """System lqL: B(x) = a q^-x, D(x) = q^-x - 1; the b = 0 face of lqJ."""

    __slots__ = ("a", "q")
    tag = "lqL"

    def __init__(self, a, q, validate: bool = True):
        object.__setattr__(self, "_cache", {})
        object.__setattr__(self, "a", _exact(a))
        object.__setattr__(self, "q", _exact(q))
        if validate:
            if not 0 < self.q < 1:
                raise ValueError("requires 0 < q < 1")
            if not 0 < self.a < 1 / self.q:
                raise ValueError("requires 0 < a < 1/q")

    def _key(self):
        return (self.a, self.q)

    def __repr__(self):
        return f"LittleQLaguerre(a={self.a}, q={self.q})"

    def B_w(self, w):
        return self.a / w

    def energy(self, n: int):
        return self.q**-n - 1

    def poly_value_w(self, n: int, w):
        """Terminating 2phi0-type sum as a function of w = q^x."""
        a, q = self.a, self.q
        term = _one_like(w)
        total = term
        for k in range(n):
            term = (
                term
                * (1 - q ** (k - n))
                * (1 - q**k / w)
                / (1 - q ** (k + 1))
                * (-1)
                * q**-k
                * (w / a)
            )
            total = total + term
        return total

    def term_ratio(self, n: int, k: int):
        """lqJ's term ratio at b = 0."""
        q = self.q
        return -(1 - q ** (k - n)) / ((1 - q ** (k + 1)) * q**k * self.a)

    def poly_value_alt(self, n: int, w):
        """Independent 2phi1-type route (one upper parameter at zero)."""
        a, q = self.a, self.q
        pref = q_pochhammer(1 / (a * q**n), q, n)
        term = _one_like(w)
        total = term
        for k in range(n):
            term = (
                term
                * (1 - q ** (k - n))
                / ((1 - a * q ** (k + 1)) * (1 - q ** (k + 1)))
                * (q * w)
            )
            total = total + term
        return pref * total

    def leading_coefficient(self, n: int):
        return (-self.a) ** -n * self.q ** (-n * n)

    @_memoised_dn_sq
    def dn_sq(self, n: int, eps: Fraction = DEFAULT_EPS) -> Interval:
        a, q = self.a, self.q
        pref = a**n * q ** (n * n) / (q_pochhammer(q, q, n) * q_pochhammer(a * q, q, n))
        return pref * q_pochhammer(a * q, q, None, eps)

    def shifted(self, u: int = 1) -> "LittleQLaguerre":
        return LittleQLaguerre(self.a * self.q**u, self.q, validate=False)

    def _tilde_shifted(self, u: int) -> "LittleQLaguerre":
        return LittleQLaguerre(self.a * self.q**-u, self.q, validate=False)

    def _twisted(self) -> "LittleQLaguerre":
        return LittleQLaguerre(1 / self.a, self.q, validate=False)


FAMILIES = {"M": Meixner, "lqJ": LittleQJacobi, "lqL": LittleQLaguerre}


# -- free-function views of the per-system data ---------------------------------------


def potential_B(p: _BaseFamily, x):
    return p.B(x)


def potential_D(p: _BaseFamily, x):
    return p.D(x)


def energy(p: _BaseFamily, n: int):
    return p.energy(n)


def eta(p: _BaseFamily, x):
    return p.eta(x)


def varphi(p: _BaseFamily, x):
    return p.varphi(x)


def phi0_sq(p: _BaseFamily, x: int):
    return p.phi0_sq(x)


def polynomial_value(p: _BaseFamily, n: int, x):
    return p.poly_value(n, x)


def polynomial_coeffs(p: _BaseFamily, n: int) -> Polynomial:
    return p.poly(n)


def dn_sq(p: _BaseFamily, n: int, eps: Fraction = DEFAULT_EPS):
    return p.dn_sq(n, eps)


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
    lattice variable); off-lattice rational points are checked as well to
    exercise the continuation directly.
    """
    rep = Report(f"base.difference-equation[{p!r}]", "difference equation for P_n")
    for n in range(n_max + 1):
        e = p.energy(n)
        vals = [p.poly_eval(n, x) for x in range(-1, x_max + 2)]
        for x in range(x_max + 1):
            lhs = p.B(x) * (vals[x + 1] - vals[x + 2]) + p.D(x) * (vals[x + 1] - vals[x])
            ok = lhs == e * vals[x + 1]
            rep.add(f"n={n},x={x}", ok, "" if ok else f"residual={lhs - e * vals[x + 1]}")
        if isinstance(p, Meixner):
            for x in (Fraction(1, 3), Fraction(7, 2), Fraction(-5, 4)):
                lhs = p.B(x) * (p.poly_value(n, x) - p.poly_value(n, x + 1)) + p.D(x) * (
                    p.poly_value(n, x) - p.poly_value(n, x - 1)
                )
                rep.add(f"n={n},x={x}", lhs == e * p.poly_value(n, x))
        else:
            q = p.q
            for w in (Fraction(2, 3), Fraction(5, 7), Fraction(3, 2)):
                lhs = p.B_w(w) * (p.poly_value_w(n, w) - p.poly_value_w(n, q * w)) + p.D_w(w) * (
                    p.poly_value_w(n, w) - p.poly_value_w(n, w / q)
                )
                rep.add(f"n={n},w={w}", lhs == e * p.poly_value_w(n, w))
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
