"""Multi-indexed polynomial systems built from Casoratians of virtual states.

Deleting M virtual states labeled D = {d_1..d_M} deforms a base system into
a new exactly solvable one.  Two polynomials in eta carry the whole result:

    W[xi_{d_1}..xi_{d_M}](x)            = C_D  varphi_M(x)   Xi_D(x)
    W[xi_{d_1}..xi_{d_M}, nu P_n](x)    = C_Dn varphi_{M+1}(x) P_{D,n}(x)
                                                  * nu(x; M tilde-delta shift)

with Xi_D and P_{D,n} equal to 1 at x = 0, deg Xi_D = ell_D = sum d_j -
M(M-1)/2, and deg P_{D,n} = ell_D + n.  The normalization constants C_D,
C_Dn have closed forms; the construction here computes them from the closed
forms and then *requires* the Casoratian route to reproduce the unit
normalizations, so the two derivations cross-check each other on every
build.  The Casoratian's entries bound the degree of each quotient, so its
values at x = 0..deg prove Xi_D and P_{D,n} at every x
(`MultiIndexedSystem._normalised_poly`).  A wrong degree or normalization
raises ArithmeticError there, so no report row re-reads them: the CLI
reports the raise as the suite's one failing `construction` check.

The deformed potentials, weight function, shift operators, eigenvalue
equation and orthogonality all live here, each as an exact verification
routine.  A statement decided on the window 0..x_max is one check, which
names its first failing x (`Report.every`).  The potentials have one coding, `_deformed_potentials`: a
system's (B_D, D_D) are its pair tables on Xi_D (`potentials`), and
`B_D`, `D_D` are Fraction views of them; the deletion chain forms its
level potentials with the same function on Casoratian grids.
Orthogonality sums over the infinite lattice are certified: a geometric
term-ratio bound with exact rational certificates caps the tail.
There is one certificate for every family.  It writes the term ratio in the
family's lattice variable w (x for M, q^x for the q families), where
eta(x + k) = alpha_k + beta_k w: each polynomial in eta becomes an int
polynomial in w by a Taylor shift and a scaling, and the weight ratio
B'(x)/D'(x+1) is the family's own B_w/D_w evaluated at a symbolic w.  The
limit of the ratio at the lattice's far end gives the bound r, and the
family's `tail_start` (`sign_on_tail`) the least x0 past which the bound is
certified.

Construction runs over Fraction scalars and, for the M system, over
rational functions of c (symbolically), which is what the exact limit
module uses; construction paths therefore avoid order comparisons entirely.
The Casoratian columns xi_d(eta(x)) and nu(x) P_n(eta(x)) are memos of the
family, read by every system on it.  The deformed operator is the
`families` lattice operator at Xi = Xi_D, its tables kept on the system
for every n (`_operator_tables`), and its checks are the `families`
predicates, cleared of the divisor (a zero of Xi_D is the `Xi > 0` row's
failure).  `eigen_residual`, `forward_apply` and `backward_apply` are scalar
views of the same tables, which raise ZeroDivisionError on a zero divisor;
so an eigen row that fails where its divisor C vanishes says so in its
witness instead of reading the residual.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from fractions import Fraction

from .casoratian import LatticeFunction, casoratian
from .families import _BaseFamily, _eigen_identity, _operator, _same_shape, _shift, _shift_identity, memo
from .polynomials import Polynomial, interpolate
from .ratfunc import RationalFunction
from .report import Report
from .series import Interval, pair, pair_product, pair_quotient, pair_value
from .virtual import xi_poly


def _label_tuple(labels: Sequence[int]) -> tuple[int, ...]:
    """The labels as a tuple of ints; a label that is not an integer (1.5,
    Fraction(3, 2), "2") is an error, never truncated."""
    out = []
    for d in labels:
        try:
            out.append(operator.index(d))
        except TypeError:
            raise ValueError(f"labels must be integers, got {d!r}") from None
    return tuple(out)


def _validate_labels(p: _BaseFamily, labels: Sequence[int]) -> tuple[int, ...]:
    labels = _label_tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"labels must be mutually distinct, got {labels}")
    if any(d < 0 for d in labels):
        raise ValueError("labels must be nonnegative")
    vm = p.v_max()
    if vm is not None:
        bad = [d for d in labels if d > vm]
        if bad:
            raise ValueError(
                f"labels {bad} exceed the admissible maximum {vm} (requires a < q^v)"
            )
    return labels


@memo
def _xi_column(p: _BaseFamily, d: int) -> LatticeFunction:
    """xi_d(eta(x)), the Casoratian column of label d; a memo of the family,
    so every system on it reads the one column."""
    poly = xi_poly(p, d)
    return LatticeFunction(lambda x: poly(p.eta(x)))


@memo
def _nu_p_column(p: _BaseFamily, n: int) -> LatticeFunction:
    """nu(x) P_n(eta(x)), the last column of W[xi.., nu P_n]; a memo of the
    family, so every system on it reads the one column."""
    poly = p.poly(n)
    return LatticeFunction(lambda x: p.nu(x) * poly(p.eta(x)))


class MultiIndexedSystem:
    """A base system with an ordered tuple of deleted virtual-state labels.

    The label order only flips Casoratian signs, which the closed-form
    constants track, so any ordering yields identical polynomials (the
    deletion chain checks C_D and dt_sq under each adjacent swap, see
    `chain`).  Label 0 (the constant xi_0 = 1) is admitted for the
    reduction identity; ordinary use has d_j >= 1.
    """

    def __init__(self, p: _BaseFamily, labels: Sequence[int]):
        self.p = p
        self.labels = _validate_labels(p, labels)
        self.M = len(self.labels)
        self.ell = sum(self.labels) - self.M * (self.M - 1) // 2
        self._xi_columns = [_xi_column(p, d) for d in self.labels]
        # W[xi_{d_1}..xi_{d_M}], shared with the deletion chains whose prefix this is
        self.w_grid = LatticeFunction(lambda x: casoratian(self._xi_columns, x))
        # Xi_D at lattice points; a grid, read like a method: Xi_at(x)
        self.Xi_at = LatticeFunction(lambda x: self.Xi()(p.eta(x)))
        self._cache: dict = {}

    def __repr__(self):
        return f"MultiIndexedSystem({self.p!r}, D={list(self.labels)})"

    # -- normalization constants (closed forms) ---------------------------------

    @memo
    def C_D(self):
        al, tw = self.p.alpha(), self.p.twisted()
        te = [self.p.virtual_energy(d) for d in self.labels]
        out = 1 / self.p.varphi_M(self.M, 0)
        for j in range(self.M):
            for k in range(j + 1, self.M):
                out = out * (te[j] - te[k]) / (al * tw.B(j))
        return out

    @memo
    def dt_sq(self, n: int):
        """tilde-d^2_{D,n}, the norm deformation factor; positive rational."""
        al, tw = self.p.alpha(), self.p.twisted()
        en = self.p.energy(n)
        out = self.p.varphi_M(self.M, 0) / self.p.varphi_M(self.M + 1, 0)
        for j, d in enumerate(self.labels):
            out = out * (en - self.p.virtual_energy(d)) / (al * tw.B(j))
        return out

    def C_Dn(self, n: int):
        sign = -1 if self.M % 2 else 1
        return sign * self.C_D() * self.dt_sq(n)

    # -- the two polynomials ------------------------------------------------------

    def _normalised_poly(self, grid, norm, deg: int, mismatch: str, name: str, hint: str = ""):
        """The polynomial in eta through grid(x) / norm(x) at x = 0..deg; the
        quotient must be 1 at x = 0, where the closed-form constant in norm
        meets the Casoratian grid, and the polynomial of degree deg.

        These deg + 1 points fix the quotient at every x: it is a polynomial
        of degree <= deg in eta.  Row operations of determinant 1 prove it.
        With E the shift x -> x+1 and w = q^x, row j, E^j f, becomes
        (E - 1)^j f for M and prod_{i<j} (E - q^i) f for the q families.
        There an xi_d column holds a polynomial of degree <= d - j in x (M),
        or w^j times one of degree <= d - j in w, and a nu P_n column nu(x)
        times one of degree <= n.  By the Leibniz expansion W[xi..] = const
        varphi_M (degree <= ell_D) and W[xi.., nu P_n] = const varphi_{M+1}
        nu(x; M tilde-delta shift) (degree <= ell_D + n)."""
        vals = [grid(x) / norm(x) for x in range(deg + 1)]
        if vals[0] != 1:
            raise ArithmeticError(f"normalization mismatch: {mismatch}")
        poly = interpolate([(self.p.eta(x), v) for x, v in enumerate(vals)])
        if poly.degree != deg:
            raise ArithmeticError(f"{name} degree {poly.degree} != {deg}{hint}")
        return poly

    @memo
    def Xi(self) -> Polynomial:
        """Denominator Xi_D, degree ell_D, 1 at x = 0, proved from ell_D + 1 grid values."""
        cd, p, M = self.C_D(), self.p, self.M
        return self._normalised_poly(
            self.w_grid,
            lambda x: cd * p.varphi_M(M, x),
            self.ell,
            "closed-form C_D disagrees with W[xi...](0)",
            "denominator",
            " (degenerate labels?)",
        )

    @memo
    def wpp_grid(self, n: int) -> LatticeFunction:
        """W[xi_{d_1}..xi_{d_M}, nu P_n] as a grid function."""
        fs = self._xi_columns + [_nu_p_column(self.p, n)]
        return LatticeFunction(lambda x: casoratian(fs, x))

    @memo
    def multi_poly(self, n: int) -> Polynomial:
        """P_{D,n}, degree ell_D + n, 1 at x = 0, proved from ell_D + n + 1 grid values."""
        cdn, p, M = self.C_Dn(n), self.p, self.M
        shifted = p.tilde_shifted(M)
        return self._normalised_poly(
            self.wpp_grid(n),
            lambda x: cdn * p.varphi_M(M + 1, x) * shifted.nu(x),
            self.ell + n,
            "closed-form C_Dn disagrees with W[xi..,nu P_n](0)",
            f"P_D,{n}",
        )

    @memo
    def multi_poly_at(self, n: int, x: int):
        return self.multi_poly(n)(self.p.eta(x))

    # -- closed-form leading coefficients ------------------------------------------

    def leading_coefficients(self, n: int):
        """(c_n, c^Xi_D, c^P_{D,n}) closed forms; each must match the
        interpolated polynomials' top terms exactly (verified, not assumed)."""
        p, tw = self.p, self.p.twisted()
        c_n = p.leading_coefficient(n)
        c_xi = 1
        for j, d in enumerate(self.labels, start=1):
            c_xi = c_xi * tw.leading_coefficient(d) / tw.leading_coefficient(j - 1)
        f_xi, f_p = p.leading_factors(self.labels, n)
        c_xi = c_xi * f_xi
        return c_n, c_xi, c_xi * c_n * f_p

    # -- deformed system -------------------------------------------------------------

    @memo
    def ratio_certificate(self, n: int, m: int) -> tuple:
        """(x_star, r) of the orthogonality tail of (n, m), by
        `_ratio_certificate`.  One that cannot be given raises
        ArithmeticError and is not kept."""
        return _ratio_certificate(self, n, m)

    @memo
    def orthogonality_terms(self, n: int, m: int) -> LatticeFunction:
        """x -> w_D(x) P_{D,n}(x) P_{D,m}(x), the terms of the orthogonality
        sum (n, m), reduced Fractions; the diagonal ones are also the right
        side of the deletion chain's squared eigenvector match."""
        return LatticeFunction(lambda x: self.weight(x) * self.multi_poly_at(n, x) * self.multi_poly_at(m, x))

    @memo
    def norm_target(self, n: int) -> Interval:
        """1 / (d_n^2 dt^2_{D,n}), the enclosure of the diagonal orthogonality
        sum (n, n).  d_n^2 is the family's enclosed mass times a rational, so
        always an Interval, built once per system and n."""
        return 1 / (self.p.dn_sq(n) * self.dt_sq(n))

    @memo
    def shifted_system(self) -> "MultiIndexedSystem":
        """Same labels at parameters lambda + delta."""
        return system(self.p.shifted(1), self.labels)

    @memo
    def potentials(self) -> tuple:
        """(B_D, D_D) as pair tables: `_deformed_potentials` of B~ (B at
        lambda + M tilde-delta), D, Xi_D and Xi_D at lambda + delta."""
        tilde, up = self.p.tilde_shifted(self.M), self.shifted_system()
        return _deformed_potentials(tilde.B, self.p.D, 0, self.Xi_at, up.Xi_at)

    def B_D(self, x: int):
        return pair_value(*self.potentials()[0](x))

    def D_D(self, x: int):
        return pair_value(*self.potentials()[1](x))

    @memo
    def weight(self, x: int):
        """w_D(x) = phi0_sq(x; lambda + M tilde-delta) / (Xi_D(x) Xi_D(x+1));
        exact positive rational, the discrete orthogonality measure."""
        return self.p.tilde_shifted(self.M).phi0_sq(x) / (self.Xi_at(x) * self.Xi_at(x + 1))

    # -- operators ----------------------------------------------------------------------

    def eigen_residual(self, n: int, x: int):
        """((A - E_n C) u(x) - P u(x+1) - Q u(x-1)) / C, the eigen-equation's
        residual at x for u = P_{D,n}, on the system's eigen table (A, C, P, Q)."""
        u, (a, c, p, q) = (lambda y: self.multi_poly_at(n, y)), _operator_tables(self)[0](x)
        return pair_value((a - self.p.energy(n) * c) * u(x) - p * u(x + 1) - q * u(x - 1), c)

    def forward_apply(self, f, x: int):
        """Forward shift: lowers n by one and moves parameters to lambda+delta."""
        return pair_value(*_shift(_operator_tables(self)[1], lambda y: pair(f(y)), x, True))

    def backward_apply(self, f, x: int):
        """Backward shift acting on level-(lambda+delta) polynomials."""
        return pair_value(*_shift(_operator_tables(self)[1], lambda y: pair(f(y)), x, False))


def _deformed_potentials(B, D, k: int, u: LatticeFunction, v: LatticeFunction) -> tuple:
    """The pair tables of B(x+k) u(x) v(x+1) / (u(x+1) v(x)) and D(x) u(x+1)
    v(x-1) / (u(x) v(x)): a system's B_D, D_D (`potentials`) and a chain
    level's potentials on its Casoratian grids (`chain._Level`).  A zero
    divisor raises ZeroDivisionError."""

    def B_table(x):
        top = pair_product(pair(B(x + k)), pair(u(x)), pair(v(x + 1)))
        return pair_quotient(top, pair_product(pair(u(x + 1)), pair(v(x))))

    def D_table(x):
        top = pair_product(pair(D(x)), pair(u(x + 1)), pair(v(x - 1)))
        return pair_quotient(top, pair_product(pair(u(x)), pair(v(x))))

    return LatticeFunction(B_table), LatticeFunction(D_table)


def count_sign_changes(values: Sequence) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


# -- construction entry points ------------------------------------------------------------

_SYSTEMS: dict = {}


def system(p: _BaseFamily, labels: Sequence[int]) -> MultiIndexedSystem:
    """Shared accessor: one MultiIndexedSystem per (parameters, labels).

    `_SYSTEMS` is the one store across objects; everything a system derives
    stays in its own `_cache` (`memo`).  It keys by value, so equal families
    built apart, as a long-lived session builds one per request, share every
    construction.  It is never evicted: a bound would be one more setting.
    Labels are read as ints (`operator.index`); a non-integral label raises
    ValueError instead of being truncated.

    The store also serves the deletion chains: level s of a chain for the
    order d_1..d_M is the system of the prefix (d_1..d_s), and its companion
    grids are those of (d_1..d_s, v).  So a chain and the closed-form
    construction share every Casoratian grid they both read, and the
    chain's level tables are memos of the prefix systems (see `chain`):
    orders that share a prefix, and repeated requests, share them too."""
    key = (p, _label_tuple(labels))
    if key not in _SYSTEMS:
        _SYSTEMS[key] = MultiIndexedSystem(p, key[1])
    return _SYSTEMS[key]


# -- verification -----------------------------------------------------------------------


def verify_multi_structure(p: _BaseFamily, labels: Sequence[int], n_max: int, x_max: int) -> Report:
    """Closed-form leading coefficients, denominator positivity, and the
    node count of each eigenpolynomial.  Degrees and unit normalizations
    are no rows: construction proves them or raises
    (`MultiIndexedSystem._normalised_poly`)."""
    sys = system(p, labels)
    rep = Report(f"multi.structure[{sys!r}]", "leading terms, positivity")
    xi = sys.Xi()
    rep.every(f"Xi > 0 on 0..{x_max}", range(x_max + 1), lambda x: sys.Xi_at(x) > 0)
    _, c_xi, _ = sys.leading_coefficients(0)
    rep.add("Xi leading coefficient", xi.leading_coefficient == c_xi)
    for n in range(n_max + 1):
        pn = sys.multi_poly(n)
        c_n, _, c_p = sys.leading_coefficients(n)
        lead_ok = pn.leading_coefficient == c_p
        rep.add(
            f"P_D,{n} leading coefficient",
            lead_ok,
            "" if lead_ok else f"{pn.leading_coefficient} != {c_p}",
        )
        rep.add(f"P_{n} base leading coefficient", sys.p.poly(n).leading_coefficient == c_n)
        nodes = count_sign_changes([sys.multi_poly_at(n, x) for x in range(x_max + 1)])
        rep.add(f"P_D,{n} node count = {n}", nodes == n, "" if nodes == n else f"got {nodes}")
    return rep


@memo
def _operator_tables(sys: MultiIndexedSystem) -> tuple:
    """(eigen, shifts): `families._operator` of the system, shared by every n."""
    p, tilde = sys.p, sys.p.tilde_shifted(sys.M)
    return _operator(tilde.B, p.D, p.varphi, tilde.B(0), sys.Xi_at, sys.shifted_system().Xi_at)


def verify_eigen_equation(p: _BaseFamily, labels: Sequence[int], n_max: int, x_max: int) -> Report:
    """Exact zero residual of the deformed difference equation on pairs, one
    check per n on 0..x_max; a failure names its first x and residual, or
    says that C = Xi_D(x) Xi_D(x+1) Xi_D'(x) vanishes there, where the
    residual, divided by C, has no value."""
    sys = system(p, labels)
    rep = Report(f"multi.eigen-equation[{sys!r}]", "similarity-transformed eigenvalue equation")
    eigen = _operator_tables(sys)[0]

    def witness(n, x):
        return f"x={x}, C=0" if not eigen(x)[1] else f"x={x}, residual={sys.eigen_residual(n, x)}"

    for n in range(n_max + 1):
        holds = _eigen_identity(eigen, lambda y, n=n: pair(sys.multi_poly_at(n, y)), -sys.p.energy(n))
        rep.every(f"n={n}", range(x_max + 1), holds, lambda x, n=n: witness(n, x))
    return rep


def verify_shape_invariance(p: _BaseFamily, labels: Sequence[int], n_max: int, x_max: int) -> Report:
    """Forward/backward shift relations between levels lambda and
    lambda+delta on pairs; positivity of the deformed potentials, and the
    square-root-free operator shape-invariance identities; each one check
    on 0..x_max.  The round trip G F P_{D,n} = E_n P_{D,n} is no row: G is
    linear and D(0) = 0 drops its x-1 term at x = 0, so on 0..x_max it
    follows from the forward and backward checks."""
    sys = system(p, labels)
    rep = Report(f"multi.shape-invariance[{sys!r}]", "deformed shift operators and potentials")
    up_sys = sys.shifted_system()
    shifts = _operator_tables(sys)[1]
    xs = range(x_max + 1)
    for n in range(1, n_max + 1):
        p_pair = lambda y, n=n: pair(sys.multi_poly_at(n, y))
        q_pair = lambda y, n=n: pair(up_sys.multi_poly_at(n - 1, y))
        rep.every(f"forward n={n}", xs, _shift_identity(shifts, p_pair, q_pair, sys.p.energy(n), True))
        rep.every(f"backward n={n}", xs, _shift_identity(shifts, q_pair, p_pair, 1, False))
    rep.every("B_D > 0", xs, lambda x: sys.B_D(x) > 0)
    rep.every("D_D sign", xs, lambda x: sys.D_D(x) > 0 if x >= 1 else sys.D_D(x) == 0)
    diag, offd = _same_shape(sys.p, sys.B_D, sys.D_D, up_sys.B_D, up_sys.D_D)
    rep.every("operator shape-invariance diagonal", xs, diag)
    rep.every("operator shape-invariance off-diagonal", xs, offd)
    return rep


def verify_special_identities(p: _BaseFamily, labels: Sequence[int], n_max: int) -> Report:
    """P_{D,0} = Xi_D at lambda+delta, and the label-0 reduction: replacing
    d_M by 0 reproduces the system with labels {d_j - 1} at the tilde-shifted
    parameters."""
    sys = system(p, labels)
    rep = Report(f"multi.special-identities[{sys!r}]", "lowest level and label-0 reduction")
    up_sys = sys.shifted_system()
    rep.add("P_D,0 equals shifted denominator", sys.multi_poly(0) == up_sys.Xi())
    if sys.labels and all(d >= 1 for d in sys.labels):
        with_zero = system(sys.p, sys.labels[:-1] + (0,))
        reduced = system(sys.p.tilde_shifted(1), tuple(d - 1 for d in sys.labels[:-1]))
        rep.add("label-0 denominator reduction", with_zero.Xi() == reduced.Xi())
        for n in range(n_max + 1):
            ok = with_zero.multi_poly(n) == reduced.multi_poly(n)
            rep.add(f"label-0 reduction n={n}", ok)
    return rep


def verify_orthogonality(p: _BaseFamily, labels: Sequence[int]) -> Report:
    """`orthogonality_sum` at (n,m) = (0,0), (1,1), (0,1); a failing pair
    carries its `describe()` line as the witness."""
    rep = Report(
        f"multi.orthogonality[{system(p, labels)!r}]",
        "orthogonality relations with certified tails",
    )
    for n, m in ((0, 0), (1, 1), (0, 1)):
        res = orthogonality_sum(p, labels, n, m)
        rep.add(f"(n,m)=({n},{m})", res.passed, "" if res.passed else res.describe())
    return rep


# -- certified orthogonality ---------------------------------------------------------------


# Terms summed past the tail start before the certificate gives up.
_TERM_CAP = 2000
# The certified enclosure's width allowed, relative to the diagonal scale.
_REL_TOL = Fraction(1, 10**20)


def _sci(v: Fraction) -> str:
    """v formatted like '%.3e'; below the float range the mantissa and the
    exponent are computed exactly instead of underflowing to 0.000e+00."""
    f = float(v)
    if f or not v:
        return f"{f:.3e}"
    mag = abs(v)
    e = len(str(mag.numerator)) - len(str(mag.denominator))
    if mag < Fraction(10) ** e:
        e -= 1  # now 10^e <= mag < 10^(e+1)
    digits = round(mag / Fraction(10) ** e * 1000)
    if digits == 10000:
        digits, e = 1000, e + 1
    sign = "-" if v < 0 else ""
    return f"{sign}{digits // 1000}.{digits % 1000:03d}e{e:+03d}"


class OrthogonalityResult:
    """The certified enclosure of one orthogonality sum."""

    def __init__(
        self,
        n: int,
        m: int,
        partial_sum: Fraction,
        tail_bound: Fraction,
        target: Interval,
        terms: int,
        ratio_start: int,
        ratio_bound: Fraction,
        passed: bool,
        capped: bool,
    ):
        self.n = n
        self.m = m
        self.partial_sum = partial_sum
        self.tail_bound = tail_bound
        self.target = target
        self.terms = terms
        self.ratio_start = ratio_start
        self.ratio_bound = ratio_bound
        self.passed = passed
        self.capped = capped  # the sum stopped at _TERM_CAP terms past ratio_start

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        cap = f"term cap {_TERM_CAP} reached, " if self.capped else ""
        return (
            f"[{status}] (n,m)=({self.n},{self.m}): {cap}sum of {self.terms} terms, "
            f"tail <= {_sci(self.tail_bound)}, target in "
            f"[{float(self.target.lo):.18g}, {float(self.target.hi):.18g}]"
        )


# The ratio certificate carries each rational polynomial as a `series` pair
# (P, d): an int-coefficient Polynomial P and a positive int d standing for
# P / d.


def _int_poly(poly: Polynomial) -> tuple:
    nums, den, _ = poly.integer_form()
    return Polynomial(nums), den


def _tail_polys(num: tuple, den: tuple, r: Fraction) -> list:
    """[den, r*den - num, r*den + num], each times one positive constant."""
    (a, da), (b, db), (rn, rd) = num, den, pair(r)
    rb, a = b * (rn * da), a * (rd * db)
    return [b, rb - a, rb + a]


def _lattice_form(p: _BaseFamily, poly: Polynomial, k: int) -> tuple:
    """poly(eta(x + k)) as a polynomial in the lattice variable w of x: with
    eta(x + k) = alpha_k + beta_k w, a Taylor shift by the int alpha_k, then
    w -> beta_k w with the powers of beta_k's denominator cleared."""
    alpha, beta = p.eta_affine(k)
    shifted, den = _int_poly(poly)
    cs = shifted.taylor_shift(alpha).coeffs
    d = len(cs) - 1
    a, b = pair(beta)
    return Polynomial(c * a**j * b ** (d - j) for j, c in enumerate(cs)), den * b**d


def _ratio_certificate(sys: MultiIndexedSystem, n: int, m: int):
    """(x_star, r) with |t(x+1)/t(x)| <= r < 1 for all x >= x_star, where
    t(x) = w_D(x) P_{D,n}(x) P_{D,m}(x).

    In the lattice variable w of x the term ratio is the rational function
        B'(w) P_n(x+1) P_m(x+1) Xi(x) / (D'(step_w(w, 1)) P_n(x) P_m(x) Xi(x+2))
    with B', D' the potentials at the M-shifted parameters, built on int
    polynomials (`_lattice_form`).  Its limit rho0 at the lattice's far end
    (w -> infinity for M, w = q^x -> 0 for the q families) sits in the
    coefficients at the family's `limit_end`; r = (1 + rho0) / 2.  From the
    tail start (`tail_start`) of den and r*den -+ num on, the denominator is
    positive and |num| <= r*den, hence the certified geometric decay.

    `sys` needs only `p`, `M`, `Xi` and `multi_poly`; a system keeps the
    result as its `ratio_certificate`.
    """
    p = sys.p
    shifted = p.tilde_shifted(sys.M)
    w = RationalFunction.variable()
    ratio = shifted.B_w(w) / shifted.D_w(shifted.step_w(w, 1))
    polys = sys.multi_poly(n), sys.multi_poly(m), sys.Xi()
    at = lambda *ks: (_lattice_form(p, f, k) for f, k in zip(polys, ks))  # P_n, P_m, Xi at x + k
    num, da = pair_product(_int_poly(ratio.num), *at(1, 1, 0))
    den, db = pair_product(_int_poly(ratio.den), *at(0, 0, 2))
    end = p.limit_end
    # A common factor g leaves the limit unchanged and only moves the tail
    # start, so no gcd is taken.  A common power of w is the one factor that
    # hides a limit at w = 0; w > 0 on the tail, so stripping it is exact.
    while end == 0 and den and num.constant_term == 0 and den.constant_term == 0:
        num, den = Polynomial(num.coeffs[1:]), Polynomial(den.coeffs[1:])
    if not den or den.coeffs[end] == 0:
        raise ArithmeticError("cannot certify: ratio denominator vanishes at the lattice's end")
    k = end % len(den.coeffs)  # the power of w whose coefficients hold the limit
    if den.coeffs[k] < 0:
        num, den = -num, -den
    rho0 = pair_value(abs(num.coefficient(k)) * db, den.coeffs[k] * da)
    if not rho0 < 1:
        raise ArithmeticError(f"cannot certify: limiting term ratio {rho0} >= 1")
    r = (1 + rho0) / 2
    x_star = p.tail_start(_tail_polys((num, da), (den, db), r))
    if x_star is None:
        raise ArithmeticError("cannot certify: no tail start for the term-ratio bound")
    return x_star, r


def orthogonality_sum(p: _BaseFamily, labels: Sequence[int], n: int, m: int) -> OrthogonalityResult:
    """Certified check of sum_x w_D(x) P_{D,n}(x) P_{D,m}(x) against
    delta_nm / (d_n^2 dt^2_{D,n}).

    The true sum is pinned to [S - tail, S + tail] by the geometric-ratio
    certificate; the check passes when that enclosure meets the target
    enclosure and their combined width is below _REL_TOL relative to the
    diagonal scale.  For n != m the target is exactly zero and the scale is
    the larger of the two diagonal targets.

    Past x_star each term t bounds the tail after it by |t| k, k = r/(1-r).
    The test |t| k <= slack is one int comparison, |num t| K <= S den t,
    with K = num(k) den(slack) and S = num(slack) den(k) formed once: k and
    every denominator are positive, so it is exact, and a negative slack
    never converges.  The slack's denominator is short (a few hundred bits
    for the q families, whose mass keeps 256 significant bits), as are the
    scale's.  The terms and the partial sum stay reduced Fractions.  The
    terms are read from the system's kept table `orthogonality_terms(n, m)`,
    so a repeated request multiplies no weight by a polynomial value again;
    the certificate, the partial sum and the tail test run on every call.
    """
    sys = system(p, labels)
    diag = sys.norm_target
    if n == m:
        target = diag(n)
        scale = abs(target.midpoint)
    else:
        target = Interval.exact(0)
        scale = max(abs(diag(n).midpoint), abs(diag(m).midpoint))
    x_star, r = sys.ratio_certificate(n, m)
    term = sys.orthogonality_terms(n, m)
    slack = _REL_TOL * scale - target.width  # the tail may use what the target leaves
    k = r / (1 - r)
    K, S = k.numerator * slack.denominator, slack.numerator * k.denominator
    partial = sum((term(x) for x in range(x_star)), Fraction(0))
    x = x_star
    while True:
        t = term(x)
        partial += t
        x += 1
        converged = abs(t.numerator) * K <= S * t.denominator
        if converged or x > x_star + _TERM_CAP:
            break
    tail = abs(t) * k
    enclosure = Interval(partial - tail, partial + tail)
    passed = enclosure.overlaps(target) and converged
    return OrthogonalityResult(n, m, partial, tail, target, x, x_star, r, passed, not converged)

