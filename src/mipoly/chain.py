"""Step-by-step state deletion: the ladder of intermediate Hamiltonians.

Deleting virtual states one at a time produces a chain of isospectral
Hamiltonians.  After s deletions in the order d_1, ..., d_s, everything is
expressed through three Casoratian grids,

    w_s      = W[xi_{d_1}..xi_{d_s}]
    w'_{s,v} = W[xi_{d_1}..xi_{d_s}, xi_v]
    w''_{s,n}= W[xi_{d_1}..xi_{d_s}, nu P_n],

the step potentials

    Bhat_s(x) = alpha B'(x+s-1) w_{s-1}(x)/w_{s-1}(x+1) * w_s(x+1)/w_s(x)
    Dhat_s(x) = alpha D'(x)     w_{s-1}(x+1)/w_{s-1}(x) * w_s(x-1)/w_s(x)

and their ground-state-adapted standard form (B'/D' are the base potentials
at twisted parameters).  This module verifies, exactly, every identity the
construction rests on:

  - the two eigen-identities for w'_{s,v} and w''_{s,n} (cleared of
    denominators, so they hold at negative lattice points too),
  - the Casoratian nesting rule linking levels s and s+1,
  - the two three-term contiguity identities between levels,
  - definite-sign statements for w_s, w'_{s,v}, w''_{s,0} with the exact
    sign predicted by the energy-ordering factor, and the resulting
    positivity of all step potentials,
  - the two factorizations of each level's Hamiltonian, H_s = A_s A_s^dagger
    + Et_{d_s} = A_{s+1}^dagger A_{s+1} + Et_{d_{s+1}}, where level 0 is the
    base system H_0 = A^dagger A, and H_s = A^dagger A of the standard-form
    potentials (at s = 0 these are compared with the base potentials
    themselves).  Each form is a (diagonal, off-diagonal product) pair of
    lattice functions, and one comparison of two forms, the `product` and
    `diagonal` checks, serves every level,
  - the sign-factor recursion against its closed form,
  - at s = M, agreement with the closed-form multi-indexed system:
    potentials, squared eigenvectors (with the exact normalization
    constant), and independence of the deletion order (Xi_D and P_{D,n}
    compared with those of at most two other orders).

After s deletions the intermediate Hamiltonian is the multi-indexed system
of the label prefix d_1..d_s, so the grids are that system's: w_s and
w''_{s,n} are the W grids of `system(p, order[:s])`, and w'_{s,v} is the W
grid of `system(p, order[:s] + (v,))`, all from the shared `multi.system`
store.  The level tables live on the same systems, each a `memo` in the
system's `_cache` (the one cache rule):

  - `_base_tables` of the base system `system(p, ())`: the lattice tables
    alpha B'(x), alpha D'(x) and the base B(x), D(x);
  - `_level` of the prefix system d_1..d_s: the step potentials of level s
    and the coefficients that the eigen-identity checks of all companion
    columns share;
  - `_contiguity_coefficients` of the same prefix system, keyed by the next
    label d_{s+1}: the coefficients of the contiguity identities.

So every order that shares a prefix shares its levels (every order shares
level 0), a repeated request finds them built, and each table entry is
computed once per (system, x).  A `Chain` is a per-order view that reads
them; the checks themselves run on every call, and a check only combines
table entries with its own column.

The arithmetic is fraction-free, on the unreduced pairs of the `series`
kernel.  Each grid value, an int or a Fraction, is read as its int numerator
and positive denominator (`pair`); the tables and each side of an identity
are pairs, and the two sides are compared by cross-multiplying
(`pair_equal`).  No Fraction is built and no gcd is taken per operation.
Every denominator is a product of positive ones (`pair_quotient` moves a
divisor's sign to the numerator), so a sign check reads the numerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable, Sequence

from .casoratian import LatticeFunction
from .families import _BaseFamily, memo
from .multi import MultiIndexedSystem, _validate_labels, system
from .report import Report
from .series import pair, pair_common, pair_equal, pair_product, pair_quotient, pair_sum
from .virtual import index_set

__all__ = ["Chain", "ChainState", "chain_build", "chain_verify"]


def _sgn(v) -> int:
    return 1 if v > 0 else (-1 if v < 0 else 0)


class Chain:
    """One deletion order's view of the chain (a tuple of distinct labels).

    It holds the order's prefix systems and reads every table from them or
    from the base system, so it is cheap to build and keeps nothing that
    another order or a later request could not share.  Only the
    tilde-energies (a `memo`) are its own.
    """

    def __init__(self, p: _BaseFamily, order: Sequence[int]):
        self.order = _validate_labels(p, order)
        self.M = len(self.order)
        self._prefix = [system(p, self.order[:s]) for s in range(self.M + 1)]
        self.p = self._prefix[0].p  # the stored family, equal to p
        self.alpha = self.p.alpha()
        self.alpha_prime = self.p.alpha_prime()
        self.aB, self.aD, self.B, self.D = _base_tables(self._prefix[0])
        self._cache: dict = {}

    @memo
    def tilde_energy(self, v: int):
        return self.p.virtual_energy(v)

    # -- Casoratian grids and level tables, read from the label-prefix systems -----

    def w(self, s: int) -> LatticeFunction:
        return self._prefix[s].w_grid

    def wp(self, s: int, v: int) -> LatticeFunction:
        return system(self.p, self.order[:s] + (v,)).w_grid

    def wpp(self, s: int, n: int) -> LatticeFunction:
        return self._prefix[s].wpp_grid(n)

    def _level(self, s: int) -> "_Level":
        return _level(self._prefix[s])

    def contiguity(self, s: int) -> LatticeFunction:
        """The contiguity coefficients from level s to level s + 1 (s < M)."""
        return _contiguity_coefficients(self._prefix[s], self.order[s])

    # -- the sign factor -----------------------------------------------------------

    def sign_closed(self, s: int) -> int:
        """(-1)^s times the pair-inversion product of the first s removed
        tilde-energies; the latter is the definite sign of w_s."""
        te = [self.tilde_energy(d) for d in self.order[:s]]
        out = -1 if s % 2 else 1
        for i in range(s):
            for j in range(i + 1, s):
                out *= _sgn(te[i] - te[j])
        return out

    def sign_recursive(self, s: int) -> int:
        out = 1
        for t in range(s):
            step = -1
            et = self.tilde_energy(self.order[t])
            for i in range(t):
                step *= _sgn(self.tilde_energy(self.order[i]) - et)
            out *= step
        return out


@memo
def _base_tables(base: MultiIndexedSystem) -> tuple:
    """(aB, aD, B, D): the lattice tables alpha B'(x), alpha D'(x) and the
    pair tables of the base potentials B(x), D(x), on the base system
    `system(p, ())` and its stored family."""
    p = base.p
    a = p.alpha()
    return (
        LatticeFunction(lambda x: a * p.Bprime(x)),
        LatticeFunction(lambda x: a * p.Dprime(x)),
        LatticeFunction(lambda x: pair(p.B(x))),
        LatticeFunction(lambda x: pair(p.D(x))),
    )


class _Level:
    """Lattice tables of level s of every chain whose order begins with the
    labels d_1..d_s of the system it is built on.

    - `B_std`, `D_std` (every s) and `Bhat`, `Dhat` (s >= 1): the potentials,
      as unreduced pairs.
    - `Et`: the tilde-energy Et_{d_s} of the state deleted at step s; 0 at
      s = 0.
    - `H`: the Hamiltonian H_s in the form the deletion step leaves it, as
      a (diagonal, off-diagonal) pair of functions: A_s A_s^dagger + Et of
      (Bhat, Dhat), and at s = 0 the base system, A^dagger A of (B, D).
    - `eigen(x) = (A, C, P, Q)`: the level-s eigen-identity for a companion
      column u of energy eps reads (A + (Et - eps) C) u(x)
      = P u(x+1) + Q u(x-1).

    The identity is homogeneous in its coefficients, so `eigen` holds the
    int numerators of its coefficients over one common positive
    denominator, which is dropped.  The tables read only stored systems and
    their families, never a Chain or a caller's family object.
    """

    __slots__ = ("B_std", "D_std", "Bhat", "Dhat", "Et", "H", "eigen")

    def __init__(self, prefix: MultiIndexedSystem):
        p, s = prefix.p, prefix.M
        aB, aD, B, D = _base_tables(system(p, ()))
        w1 = prefix.w_grid
        self.B_std, self.D_std = _potentials(aB, aD, s, w1, prefix.wpp_grid(0))
        if s == 0:
            ap = pair(p.alpha_prime())
            self.Bhat = self.Dhat = None
            self.Et = 0
            self.H = _adag_a(B, D, 0)

            def eigen(x):
                b, d, a, c = pair_common(pair(aB(x)), pair(aD(x)), ap, (1, 1))
                return b + d + a, c, b, d

        else:
            w0 = system(p, prefix.labels[:-1]).w_grid
            self.Bhat, self.Dhat = _potentials(aB, aD, s - 1, w0, w1)
            self.Et = p.virtual_energy(prefix.labels[-1])
            self.H = _a_adag(self.Bhat, self.Dhat, self.Et)

            def eigen(x):
                w0x1, w1x, w1x1 = pair(w0(x + 1)), pair(w1(x)), pair(w1(x + 1))
                a1, a2, c, p, q = pair_common(
                    pair_product(pair(aB(x + s - 1)), pair(w0(x)), w1x1, w1x1),
                    pair_product(pair(aD(x + 1)), pair(w0(x + 2)), w1x, w1x),
                    pair_product(w0x1, w1x, w1x1),
                    pair_product(pair(aB(x + s)), w1x, w1x, w0x1),
                    pair_product(pair(aD(x)), w1x1, w1x1, w0x1),
                )
                return a1 + a2, c, p, q

        self.eigen = LatticeFunction(eigen)


@memo
def _level(prefix: MultiIndexedSystem) -> _Level:
    """Level s = len(prefix.labels), shared by every order with that prefix."""
    return _Level(prefix)


@memo
def _contiguity_coefficients(prefix: MultiIndexedSystem, v: int) -> LatticeFunction:
    """The table (aB'(x+s) w_s(x), aD'(x) w_s(x+1), w_{s+1}(x)) from level s
    of the prefix to level s + 1 with the next label v: the coefficients of
    the contiguity identity, over one common positive denominator (dropped,
    the identity being homogeneous in them)."""
    p, s = prefix.p, prefix.M
    aB, aD, _, _ = _base_tables(system(p, ()))
    w1, w2 = prefix.w_grid, system(p, prefix.labels + (v,)).w_grid

    def contiguity(x):
        b = pair_product(pair(aB(x + s)), pair(w1(x)))
        d = pair_product(pair(aD(x)), pair(w1(x + 1)))
        return pair_common(b, d, pair(w2(x)))

    return LatticeFunction(contiguity)


def _potentials(aB, aD, k: int, u: LatticeFunction, v: LatticeFunction) -> tuple:
    """The pair tables of aB'(x+k) u(x) v(x+1) / (u(x+1) v(x)) and
    aD'(x) u(x+1) v(x-1) / (u(x) v(x)): Bhat_s, Dhat_s for (k, u, v) =
    (s-1, w_{s-1}, w_s), and B_std, D_std for (s, w_s, w''_{s,0})."""

    def B(x):
        top = pair_product(pair(aB(x + k)), pair(u(x)), pair(v(x + 1)))
        return pair_quotient(top, pair_product(pair(u(x + 1)), pair(v(x))))

    def D(x):
        top = pair_product(pair(aD(x)), pair(u(x + 1)), pair(v(x - 1)))
        return pair_quotient(top, pair_product(pair(u(x)), pair(v(x))))

    return LatticeFunction(B), LatticeFunction(D)


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


@dataclass
class ChainState:
    """One level of a deletion chain, in ground-state-adapted standard form."""

    step: int
    deleted: tuple
    removed_energy: object  # tilde-energy of the state deleted at this step; None at step 0
    sign: int  # Chain.sign_closed(step): (-1)^step times the definite sign of w_step
    B: Callable[[int], Fraction]
    D: Callable[[int], Fraction]


def _fraction_valued(table: LatticeFunction) -> LatticeFunction:
    return LatticeFunction(lambda x: Fraction(*table(x)))


def chain_build(p: _BaseFamily, order: Sequence[int]) -> list[ChainState]:
    """The ladder of intermediate systems for one deletion order.

    Entry s holds the standard-form potentials after deleting the first s
    labels, as Fractions; entry 0 is the base system itself.  The entries
    read the level tables of the prefix systems, which every chain with the
    same prefix shares, so evaluating any of them is incremental work.
    """
    ch = Chain(p, order)
    states = []
    for s in range(ch.M + 1):
        states.append(
            ChainState(
                step=s,
                deleted=ch.order[:s],
                removed_energy=None if s == 0 else ch.tilde_energy(ch.order[s - 1]),
                sign=ch.sign_closed(s),
                B=_fraction_valued(ch._level(s).B_std),
                D=_fraction_valued(ch._level(s).D_std),
            )
        )
    return states


def _check(rep: Report, name: str, xs, holds: Callable[[int], bool]) -> None:
    """One check over the points xs; a failure names the first failing x."""
    bad = next((x for x in xs if not holds(x)), None)
    rep.add(name, bad is None, f"x={bad}")


def _same_hamiltonian(rep: Report, name: str, xs, H: tuple, K: tuple) -> None:
    """The checks `name product` and `name diagonal`: two forms H, K of one
    Hamiltonian have the same off-diagonal product and the same diagonal."""
    (h_diag, h_off), (k_diag, k_off) = H, K
    _check(rep, f"{name} product", xs, lambda x: pair_equal(h_off(x), k_off(x)))
    _check(rep, f"{name} diagonal", xs, lambda x: pair_equal(h_diag(x), k_diag(x)))


def _eigen_identity(eigen: LatticeFunction, u: LatticeFunction, k) -> Callable[[int], bool]:
    """(A + k C) u(x) == P u(x+1) + Q u(x-1) with k = Et_{d_s} - eps: the
    level-s eigen-identity for the column u, cleared of all Casoratian
    denominators so it holds at any integer x.  Multiplied out for s >= 1,
      [aB'(x+s-1) w_{s-1}(x) w_s(x+1)^2 + aD'(x+1) w_{s-1}(x+2) w_s(x)^2
        + (Et_{d_s} - eps) w_{s-1}(x+1) w_s(x) w_s(x+1)] * u(x)
      = [aB'(x+s) w_s(x)^2 u(x+1) + aD'(x) w_s(x+1)^2 u(x-1)] * w_{s-1}(x+1);
    for s = 0 the bracket collapses to aB'(x) + aD'(x) + alpha' - eps."""

    kn, kd = pair(k)

    def holds(x):
        a, c, p, q = eigen(x)
        (un, ud), (u1n, u1d), (u0n, u0d) = pair(u(x)), pair(u(x + 1)), pair(u(x - 1))
        return (a * kd + kn * c) * un * u1d * u0d == (p * u1n * u0d + q * u0n * u1d) * kd * ud

    return holds


def _contiguity(contiguity: LatticeFunction, upper, lower, k) -> Callable[[int], bool]:
    """aB'(x+s) w_s(x) upper(x) = aD'(x) w_s(x+1) upper(x-1)
       + (Et_{d_{s+1}} - eps) w_{s+1}(x) lower(x), with k = Et_{d_{s+1}} - eps."""

    kn, kd = pair(k)

    def holds(x):
        b, d, w2 = contiguity(x)
        (un, ud), (u0n, u0d), (ln, ld) = pair(upper(x)), pair(upper(x - 1)), pair(lower(x))
        return b * un * u0d * kd * ld == (d * u0n * kd * ld + kn * w2 * ln * u0d) * ud

    return holds


def _nesting(ws, ws1, upper, lower) -> Callable[[int], bool]:
    """w_s(x+1) upper(x) = w_{s+1}(x) lower(x+1) - w_{s+1}(x+1) lower(x)."""

    def holds(x):
        an, ad = pair_product(pair(ws(x + 1)), pair(upper(x)))
        bn, bd = pair_product(pair(ws1(x)), pair(lower(x + 1)))
        cn, cd = pair_product(pair(ws1(x + 1)), pair(lower(x)))
        return an * bd * cd == (bn * cd - cn * bd) * ad

    return holds


# Virtual-state companions checked per level beyond the chain's own labels.
_EXTRA_VIRTUAL = 2


def chain_verify(p: _BaseFamily, order: Sequence[int], n_max: int = 3, x_max: int = 12) -> Report:
    """Exhaustive exact verification of one deletion chain; see module doc.

    Every check is an exact comparison at each point of its range, and
    every check runs on every call.  What the checks at one level s and
    point x share (the eigen-identity and contiguity coefficients, the step
    potentials) is read from the level tables of the prefix systems, so it
    is computed once per (prefix, x), not once per companion column, order
    or request.  A failing check names its first failing x.
    """
    ch = Chain(p, order)
    p, M = ch.p, ch.M  # the stored family: its memos serve every request
    rep = Report(
        f"chain[{p!r}, order={list(ch.order)}]",
        "intermediate Hamiltonians, Casoratian identities, signs, final match",
    )
    cap = max(ch.order, default=0) + 1 + _EXTRA_VIRTUAL
    pool = index_set(p, cap)
    xs_any = range(-2, x_max + 1)  # cleared identities hold off the lattice too
    xs_lattice = range(0, x_max + 1)
    energies = [p.energy(n) for n in range(n_max + 1)]

    # eigen-identities at every level, for virtual companions and eigen companions
    for s in range(M + 1):
        eigen, ets = ch._level(s).eigen, ch._level(s).Et
        vs = [v for v in pool if v not in ch.order[:s]][: _EXTRA_VIRTUAL + 1]
        for v in vs:
            holds = _eigen_identity(eigen, ch.wp(s, v), ets - ch.tilde_energy(v))
            _check(rep, f"virtual eigen-identity s={s},v={v}", xs_any, holds)
        for n in range(n_max + 1):
            holds = _eigen_identity(eigen, ch.wpp(s, n), ets - energies[n])
            _check(rep, f"eigen eigen-identity s={s},n={n}", xs_any, holds)

    # nesting rule and contiguity identities between levels
    for s in range(M):
        ws, ws1, contiguity = ch.w(s), ch.w(s + 1), ch.contiguity(s)
        et_next = ch.tilde_energy(ch.order[s])
        vs = [v for v in pool if v not in ch.order[: s + 1]][:_EXTRA_VIRTUAL]
        for n in range(n_max + 1):
            upper, lower = ch.wpp(s + 1, n), ch.wpp(s, n)
            _check(rep, f"nesting (eigen) s={s},n={n}", xs_any, _nesting(ws, ws1, upper, lower))
            holds = _contiguity(contiguity, upper, lower, et_next - energies[n])
            _check(rep, f"contiguity (eigen) s={s},n={n}", xs_any, holds)
        for v in vs:
            upper, lower = ch.wp(s + 1, v), ch.wp(s, v)
            _check(rep, f"nesting (virtual) s={s},v={v}", xs_any, _nesting(ws, ws1, upper, lower))
            holds = _contiguity(contiguity, upper, lower, et_next - ch.tilde_energy(v))
            _check(rep, f"contiguity (virtual) s={s},v={v}", xs_any, holds)

    # definite signs and potential positivity at every level
    for s in range(1, M + 1):
        gsign = ch.sign_closed(s)  # the sign of w''_{s,0}
        sigma = -gsign if s % 2 else gsign  # the sign of w_s
        ws, g, lv = ch.w(s), ch.wpp(s, 0), ch._level(s)
        _check(rep, f"w_{s} definite sign", xs_lattice, lambda x: sigma * ws(x) > 0)
        vs = [v for v in pool if v not in ch.order[:s]][:_EXTRA_VIRTUAL]
        for v in vs:
            tau = sigma
            for d in ch.order[:s]:
                tau *= _sgn(ch.tilde_energy(d) - ch.tilde_energy(v))
            wps = ch.wp(s, v)
            _check(rep, f"w'_{s},{v} definite sign", xs_lattice, lambda x: tau * wps(x) > 0)
        _check(rep, f"w''_{s},0 definite sign", xs_lattice, lambda x: gsign * g(x) > 0)
        potentials = (("Bhat", "Dhat", lv.Bhat, lv.Dhat), ("B_std", "D_std", lv.B_std, lv.D_std))
        for b, d, B, D in potentials:
            _check(rep, f"{b}_{s} > 0", xs_lattice, lambda x: B(x)[0] > 0)
            _check(rep, f"{d}_{s} sign", xs_lattice, lambda x: D(x)[0] > 0 if x else D(x)[0] == 0)

    # H_s = A_{s+1}^dagger A_{s+1} + Et_{d_{s+1}}: each level re-factorizes into the next
    for s in range(M):
        up = ch._level(s + 1)
        H_up = _adag_a(up.Bhat, up.Dhat, up.Et)
        _same_hamiltonian(rep, f"re-factorization s={s}", xs_lattice, H_up, ch._level(s).H)

    # standard form: H_s = A^dagger A of (B_std, D_std), anchored at s = 0 by the potentials
    lv = ch._level(0)
    _check(
        rep,
        "standard form s=0 is the base system",
        xs_lattice,
        lambda x: pair_equal(lv.B_std(x), ch.B(x)) and pair_equal(lv.D_std(x), ch.D(x)),
    )
    for s in range(1, M + 1):
        lv = ch._level(s)
        _same_hamiltonian(rep, f"standard form s={s}", xs_lattice, _adag_a(lv.B_std, lv.D_std, 0), lv.H)

    # sign factor: recursion vs closed form
    ok = all(ch.sign_recursive(s) == ch.sign_closed(s) for s in range(M + 1))
    rep.add("sign factor recursion = closed form", ok and (M == 0 or ch.sign_closed(1) == -1))

    # final level: match the closed-form multi-indexed system
    sys = system(p, ch.order)
    lv = ch._level(M)
    _check(
        rep,
        "final potentials match denominator form",
        xs_lattice,
        lambda x: pair_equal(lv.B_std(x), pair(sys.B_D(x)))
        and pair_equal(lv.D_std(x), pair(sys.D_D(x))),
    )
    phi0p, wM, aB = p.twisted(), ch.w(M), ch.aB
    prod_b0 = 1
    for j in range(M):
        prod_b0 = prod_b0 * ch.alpha * p.tilde_shifted(j).Bprime(0)
    kappa_pow = p.kappa ** (M * (M - 1) // 2)

    def eigenvector_factor(x):
        # prod_j aB'(x+j) phi0'(x) / (w_M(x) w_M(x+1)), shared by every n
        top = pair_product(*[pair(aB(x + j)) for j in range(M)], pair(phi0p.phi0_sq(x)))
        return pair_quotient(top, pair_product(pair(wM(x)), pair(wM(x + 1))))

    factor = LatticeFunction(eigenvector_factor)
    for n in range(n_max + 1):
        const_sq = kappa_pow * (sys.C_Dn(n) / sys.C_D()) ** 2 * prod_b0
        norm_prod = sys.dt_sq(n)
        for d in ch.order:
            norm_prod = norm_prod * (energies[n] - ch.tilde_energy(d))
        rep.add(f"norm bookkeeping n={n}", const_sq == norm_prod)
        g = ch.wpp(M, n)
        _check(
            rep,
            f"squared eigenvector match n={n}",
            xs_lattice,
            lambda x: pair_equal(
                pair_product(factor(x), pair(g(x)), pair(g(x))),
                pair_product(
                    pair(const_sq),
                    pair(sys.weight(x)),
                    pair(sys.multi_poly_at(n, x)),
                    pair(sys.multi_poly_at(n, x)),
                ),
            ),
        )

    # order independence: the given order and at most two other permutations
    perms = list(permutations(ch.order))
    if len(perms) > 3:
        perms = [perms[0], perms[len(perms) // 2], perms[-1]]
    for perm in perms:
        if perm == ch.order:
            continue
        other = system(p, perm)
        rep.add(
            f"order independence {list(perm)}",
            other.Xi() == sys.Xi()
            and all(other.multi_poly(n) == sys.multi_poly(n) for n in range(n_max + 1)),
        )
    return rep
