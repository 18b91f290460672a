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
computed once per (system, x).  `chain_build` and `chain_verify` read the
order's prefix systems and these tables directly; the checks themselves run
on every call, and a check only combines table entries with its own column.

The arithmetic is fraction-free, on the unreduced pairs of the `series`
kernel.  Each grid value, an int or a Fraction, is read as its int numerator
and positive denominator (`pair`); the tables and each side of an identity
are pairs, and the two sides are compared by cross-multiplying
(`pair_equal`).  No Fraction is built and no gcd is taken per operation.
Every denominator is a product of positive ones (`pair_quotient` moves a
divisor's sign to the numerator), so a sign check reads the numerator.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from itertools import permutations

from .casoratian import LatticeFunction
from .families import _BaseFamily, memo
from .multi import MultiIndexedSystem, _eigen_identity, _validate_labels, system
from .report import Report
from .series import pair, pair_common, pair_equal, pair_product, pair_quotient, pair_sum
from .virtual import index_set


def _sgn(v) -> int:
    return 1 if v > 0 else (-1 if v < 0 else 0)


def _prefix_systems(p: _BaseFamily, order: Sequence[int]) -> list[MultiIndexedSystem]:
    """The systems of the label prefixes d_1..d_s, s = 0..M, of the validated
    order: level s of the chain.  Entry 0 is the base system, whose family
    is the stored one, equal to p."""
    order = _validate_labels(p, order)
    return [system(p, order[:s]) for s in range(len(order) + 1)]


def sign_closed(te: Sequence) -> int:
    """(-1)^s times the pair-inversion product of the s removed
    tilde-energies te; the latter is the definite sign of w_s."""
    s = len(te)
    out = -1 if s % 2 else 1
    for i in range(s):
        for j in range(i + 1, s):
            out *= _sgn(te[i] - te[j])
    return out


def sign_recursive(te: Sequence) -> int:
    """The same sign as a product of one factor per deletion step."""
    out = 1
    for t, et in enumerate(te):
        step = -1
        for i in range(t):
            step *= _sgn(te[i] - et)
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
      = P u(x+1) + Q u(x-1), checked by `multi._eigen_identity`.  Cleared
      of all Casoratian denominators, it holds at any integer x; multiplied
      out for s >= 1 it is
        [aB'(x+s-1) w_{s-1}(x) w_s(x+1)^2 + aD'(x+1) w_{s-1}(x+2) w_s(x)^2
          + (Et_{d_s} - eps) w_{s-1}(x+1) w_s(x) w_s(x+1)] * u(x)
        = [aB'(x+s) w_s(x)^2 u(x+1) + aD'(x) w_s(x+1)^2 u(x-1)] * w_{s-1}(x+1),
      and for s = 0 the bracket collapses to aB'(x) + aD'(x) + alpha' - eps.

    The identity is homogeneous in its coefficients, so `eigen` holds the
    int numerators of its coefficients over one common positive
    denominator, which is dropped.  The tables read only stored systems and
    their families, never a caller's family object.
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


class ChainState:
    """One level of a deletion chain, in ground-state-adapted standard form."""

    def __init__(
        self,
        step: int,
        deleted: tuple,
        removed_energy: object,
        sign: int,
        B: Callable[[int], Fraction],
        D: Callable[[int], Fraction],
    ):
        self.step = step
        self.deleted = deleted
        self.removed_energy = removed_energy  # tilde-energy of the state deleted here; None at step 0
        self.sign = sign  # sign_closed: (-1)^step times the definite sign of w_step
        self.B = B
        self.D = D


def _fraction_valued(table: LatticeFunction) -> LatticeFunction:
    return LatticeFunction(lambda x: Fraction(*table(x)))


def chain_build(p: _BaseFamily, order: Sequence[int]) -> list[ChainState]:
    """The ladder of intermediate systems for one deletion order.

    Entry s holds the standard-form potentials after deleting the first s
    labels, as Fractions; entry 0 is the base system itself.  The entries
    read the level tables of the prefix systems, which every chain with the
    same prefix shares, so evaluating any of them is incremental work.
    """
    prefix = _prefix_systems(p, order)
    p, order = prefix[0].p, prefix[-1].labels
    te = [p.virtual_energy(d) for d in order]
    return [
        ChainState(
            step=s,
            deleted=order[:s],
            removed_energy=te[s - 1] if s else None,
            sign=sign_closed(te[:s]),
            B=_fraction_valued(_level(pre).B_std),
            D=_fraction_valued(_level(pre).D_std),
        )
        for s, pre in enumerate(prefix)
    ]


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
    prefix = _prefix_systems(p, order)
    p, order = prefix[0].p, prefix[-1].labels  # the stored family: its memos serve every request
    M = len(order)
    rep = Report(
        f"chain[{p!r}, order={list(order)}]",
        "intermediate Hamiltonians, Casoratian identities, signs, final match",
    )
    cap = max(order, default=0) + 1 + _EXTRA_VIRTUAL
    pool = index_set(p, cap)
    xs_any = range(-2, x_max + 1)  # cleared identities hold off the lattice too
    xs_lattice = range(0, x_max + 1)
    energies = [p.energy(n) for n in range(n_max + 1)]
    te = {v: p.virtual_energy(v) for v in {*pool, *order}}  # the tilde-energies
    removed = [te[d] for d in order]
    signs = [sign_closed(removed[:s]) for s in range(M + 1)]
    levels = [_level(pre) for pre in prefix]

    # eigen-identities at every level, for virtual companions and eigen companions
    for s, (pre, lv) in enumerate(zip(prefix, levels)):
        vs = [v for v in pool if v not in order[:s]][: _EXTRA_VIRTUAL + 1]
        for v in vs:
            holds = _eigen_identity(lv.eigen, system(p, order[:s] + (v,)).w_grid, lv.Et - te[v])
            _check(rep, f"virtual eigen-identity s={s},v={v}", xs_any, holds)
        for n in range(n_max + 1):
            holds = _eigen_identity(lv.eigen, pre.wpp_grid(n), lv.Et - energies[n])
            _check(rep, f"eigen eigen-identity s={s},n={n}", xs_any, holds)

    # nesting rule and contiguity identities between levels
    for s in range(M):
        lo, up = prefix[s], prefix[s + 1]
        ws, ws1, contiguity = lo.w_grid, up.w_grid, _contiguity_coefficients(lo, order[s])
        vs = [v for v in pool if v not in order[: s + 1]][:_EXTRA_VIRTUAL]
        for n in range(n_max + 1):
            upper, lower = up.wpp_grid(n), lo.wpp_grid(n)
            _check(rep, f"nesting (eigen) s={s},n={n}", xs_any, _nesting(ws, ws1, upper, lower))
            holds = _contiguity(contiguity, upper, lower, removed[s] - energies[n])
            _check(rep, f"contiguity (eigen) s={s},n={n}", xs_any, holds)
        for v in vs:
            upper, lower = system(p, order[: s + 1] + (v,)).w_grid, system(p, order[:s] + (v,)).w_grid
            _check(rep, f"nesting (virtual) s={s},v={v}", xs_any, _nesting(ws, ws1, upper, lower))
            holds = _contiguity(contiguity, upper, lower, removed[s] - te[v])
            _check(rep, f"contiguity (virtual) s={s},v={v}", xs_any, holds)

    # definite signs and potential positivity at every level
    for s in range(1, M + 1):
        gsign = signs[s]  # the sign of w''_{s,0}
        sigma = -gsign if s % 2 else gsign  # the sign of w_s
        ws, g, lv = prefix[s].w_grid, prefix[s].wpp_grid(0), levels[s]
        _check(rep, f"w_{s} definite sign", xs_lattice, lambda x: sigma * ws(x) > 0)
        vs = [v for v in pool if v not in order[:s]][:_EXTRA_VIRTUAL]
        for v in vs:
            tau = sigma
            for e in removed[:s]:
                tau *= _sgn(e - te[v])
            wps = system(p, order[:s] + (v,)).w_grid
            _check(rep, f"w'_{s},{v} definite sign", xs_lattice, lambda x: tau * wps(x) > 0)
        _check(rep, f"w''_{s},0 definite sign", xs_lattice, lambda x: gsign * g(x) > 0)
        potentials = (("Bhat", "Dhat", lv.Bhat, lv.Dhat), ("B_std", "D_std", lv.B_std, lv.D_std))
        for b, d, Bs, Ds in potentials:
            _check(rep, f"{b}_{s} > 0", xs_lattice, lambda x: Bs(x)[0] > 0)
            _check(rep, f"{d}_{s} sign", xs_lattice, lambda x: Ds(x)[0] > 0 if x else Ds(x)[0] == 0)

    # H_s = A_{s+1}^dagger A_{s+1} + Et_{d_{s+1}}: each level re-factorizes into the next
    for s in range(M):
        up = levels[s + 1]
        H_up = _adag_a(up.Bhat, up.Dhat, up.Et)
        _same_hamiltonian(rep, f"re-factorization s={s}", xs_lattice, H_up, levels[s].H)

    # standard form: H_s = A^dagger A of (B_std, D_std), anchored at s = 0 by the potentials
    aB, _, B, D = _base_tables(prefix[0])
    lv = levels[0]
    _check(
        rep,
        "standard form s=0 is the base system",
        xs_lattice,
        lambda x: pair_equal(lv.B_std(x), B(x)) and pair_equal(lv.D_std(x), D(x)),
    )
    for s in range(1, M + 1):
        lv = levels[s]
        _same_hamiltonian(rep, f"standard form s={s}", xs_lattice, _adag_a(lv.B_std, lv.D_std, 0), lv.H)

    # sign factor: recursion vs closed form
    ok = all(sign_recursive(removed[:s]) == signs[s] for s in range(M + 1))
    rep.add("sign factor recursion = closed form", ok and (M == 0 or signs[1] == -1))

    # final level: match the closed-form multi-indexed system
    final, lv = prefix[M], levels[M]
    _check(
        rep,
        "final potentials match denominator form",
        xs_lattice,
        lambda x: pair_equal(lv.B_std(x), pair(final.B_D(x)))
        and pair_equal(lv.D_std(x), pair(final.D_D(x))),
    )
    phi0p, wM, alpha = p.twisted(), final.w_grid, p.alpha()
    prod_b0 = 1
    for j in range(M):
        prod_b0 = prod_b0 * alpha * p.tilde_shifted(j).Bprime(0)
    kappa_pow = p.kappa ** (M * (M - 1) // 2)

    def eigenvector_factor(x):
        # prod_j aB'(x+j) phi0'(x) / (w_M(x) w_M(x+1)), shared by every n
        top = pair_product(*[pair(aB(x + j)) for j in range(M)], pair(phi0p.phi0_sq(x)))
        return pair_quotient(top, pair_product(pair(wM(x)), pair(wM(x + 1))))

    factor = LatticeFunction(eigenvector_factor)
    for n in range(n_max + 1):
        const_sq = kappa_pow * (final.C_Dn(n) / final.C_D()) ** 2 * prod_b0
        norm_prod = final.dt_sq(n)
        for e in removed:
            norm_prod = norm_prod * (energies[n] - e)
        rep.add(f"norm bookkeeping n={n}", const_sq == norm_prod)
        g = final.wpp_grid(n)
        _check(
            rep,
            f"squared eigenvector match n={n}",
            xs_lattice,
            lambda x: pair_equal(
                pair_product(factor(x), pair(g(x)), pair(g(x))),
                pair_product(
                    pair(const_sq),
                    pair(final.weight(x)),
                    pair(final.multi_poly_at(n, x)),
                    pair(final.multi_poly_at(n, x)),
                ),
            ),
        )

    # order independence: the given order and at most two other permutations
    perms = list(permutations(order))
    if len(perms) > 3:
        perms = [perms[0], perms[len(perms) // 2], perms[-1]]
    for perm in perms:
        if perm == order:
            continue
        other = system(p, perm)
        rep.add(
            f"order independence {list(perm)}",
            other.Xi() == final.Xi()
            and all(other.multi_poly(n) == final.multi_poly(n) for n in range(n_max + 1)),
        )
    return rep
