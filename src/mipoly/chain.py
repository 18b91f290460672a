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
at twisted parameters), all tables of `multi._deformed_potentials`, as the
system's B_D, D_D are.  This module verifies, exactly, every identity the
construction rests on:

  - the eigen-identities of each level's Hamiltonian in its standard form,
    A^dagger A of the standard-form potentials, for the companion columns
    w'_{s,v} and w''_{s,n}: `families._operator`, the one lattice operator,
    of B~(x) = alpha B'(x+s) and alpha D' at Xi = w_s, Xi' = w''_{s,0},
    cleared of denominators, so they hold at negative lattice points too.
    Level 0 is the same call at w_0 = 1 and w''_{0,0} = nu.  There is no
    n = 0 row: with u = Xi' and E_0 = 0 the identity holds for any values,
    and that w''_{s,0} is the ground state of A_s A_s^dagger + Et_{d_s} is
    the `standard form s` checks below,
  - the Casoratian nesting rule and the contiguity identity between levels
    s and s+1, the forward and backward shifts of the deletion step (a
    discrete Darboux transformation), checked as the parameter shifts are
    (`families._shift_identity` on `_step_shifts`), also at negative x,
  - definite-sign statements for w_s, w'_{s,v}, w''_{s,0} with the exact
    sign predicted by the energy-ordering factor `sign_closed`, and the
    resulting positivity of all step potentials,
  - the two factorizations of each level's Hamiltonian, H_s = A_s A_s^dagger
    + Et_{d_s} = A_{s+1}^dagger A_{s+1} + Et_{d_{s+1}}, where level 0 is the
    base system H_0 = A^dagger A, and H_s = A^dagger A of the standard-form
    potentials (at s = 0 these are compared with the base potentials
    themselves).  Each form is a (diagonal, off-diagonal product) pair of
    lattice functions, and one comparison of two forms (`families._same_form`),
    the `product` and `diagonal` checks, serves every level,
  - at s = M, agreement with the closed-form multi-indexed system:
    potentials, squared eigenvectors (with the exact normalization
    constant), and independence of the deletion order under each adjacent
    swap (below).

Order independence.  Swapping adjacent labels d_i, d_{i+1} swaps two columns
of W[xi..] and W[xi.., nu P_n], which negates both.  Construction pins Xi_D
and P_{D,n} at x = 0, where C_D and C_Dn = (-1)^M C_D dt_sq(n) meet the grids,
so the swapped order has the same Xi_D and P_{D,n} exactly when its C_D is
-C_D and its dt_sq(n) is dt_sq(n): check `order independence, swap
d_i,d_{i+1}`, for i = 1..M-1, reads only these closed forms.  Every other
order follows from the formulas, not from a check: C_D depends on the order
only through the Vandermonde product of the tilde-energies, so it takes the
sign of any permutation, and dt_sq is symmetric in the labels.

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
  - `_step_shifts` of the same prefix system, keyed by the next label
    d_{s+1}: the forward (nesting) and backward (contiguity) triples of the
    deletion step to level s + 1;
  - `_squared_vector_factor` of the final system d_1..d_M: the factor of
    the squared eigenvector match that every n shares, whose other side is
    the final system's own table `orthogonality_terms(n, n)`, w_D P_{D,n}^2;
  - `_swapped` of the final system, keyed by i: the system of the order with
    d_i, d_{i+1} swapped, kept out of the `multi.system` store, whose C_D
    and dt_sq the swap checks read.

So every order that shares a prefix shares its levels (every order shares
level 0), a repeated request finds them built, and each table entry is
computed once per (system, x).  Each eigen tuple and shift triple is
divided by its integer content when it is filled (`series.primitive`): the
identities are homogeneous in them, and a kept entry is read on every
request.  `chain_build` and `chain_verify` read the order's prefix systems
and these tables directly; the checks themselves run on every call, and a
check only combines table entries with its own column.  So do the
constants of the final level: the norm bookkeeping, the constant of the
squared eigenvector match and the swap comparisons read the final system's
C_D and dt_sq on every call.

The arithmetic is the fraction-free pair coding of the lattice operator in
`families`: grid values are read as int numerator and positive denominator
(`pair`), and no Fraction is built and no gcd taken per operation.  A grid
keeps its values' pairs (`LatticeFunction.pair`), so the eigen-identities,
nesting and contiguity checks, which read each value at x - 1, x and x + 1
of many columns, split each Fraction once per grid and point.  Every
denominator is a product of positive ones (`pair_quotient` moves a
divisor's sign to the numerator), so a sign check reads the numerator.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction

from .casoratian import LatticeFunction
from .families import _BaseFamily, _a_adag, _adag_a, _eigen_identity, _operator, _same_form, _shift_identity, memo
from .multi import MultiIndexedSystem, _deformed_potentials, _validate_labels, system
from .report import Report
from .series import pair, pair_common, pair_equal, pair_product, pair_quotient, primitive
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


@memo
def _base_tables(base: MultiIndexedSystem) -> tuple:
    """(aB, aD, B, D): the lattice tables alpha B'(x), alpha D'(x) and the
    pair tables of the base potentials B(x), D(x), on the base system
    `system(p, ())` and its stored family."""
    p = base.p
    a, tw = p.alpha(), p.twisted()
    return (
        LatticeFunction(lambda x: a * tw.B(x)),
        LatticeFunction(lambda x: a * tw.D(x)),
        LatticeFunction(lambda x: pair(p.B(x))),
        LatticeFunction(lambda x: pair(p.D(x))),
    )


class _Level:
    """Lattice tables of level s of every chain whose order begins with the
    labels d_1..d_s of the system it is built on.

    - `B_std`, `D_std` (every s) and `Bhat`, `Dhat` (s >= 1): the potentials,
      as unreduced pairs, for (k, u, v) = (s, w_s, w''_{s,0}) and (s-1,
      w_{s-1}, w_s).
    - `Et`: the tilde-energy Et_{d_s} of the state deleted at step s; 0 at
      s = 0.
    - `H`: the Hamiltonian H_s in the form the deletion step leaves it, as
      a (diagonal, off-diagonal) pair of functions: A_s A_s^dagger + Et of
      (Bhat, Dhat), and at s = 0 the base system, A^dagger A of (B, D).
    - `eigen(x) = (A, C, P, Q)`: the eigen table of H_s in its standard
      form, A^dagger A of (B_std, D_std): `families._operator` of B~(x) =
      aB'(x+s) and aD' at Xi = w_s, Xi' = w''_{s,0}, so a companion column u
      of energy eps satisfies (A - eps C) u(x) = P u(x+1) + Q u(x-1),
      checked by `families._eigen_identity`.  Its off-diagonals are
      aB'(x+s) w_s(x)/w_s(x+1) and aD'(x) w_s(x+1)/w_s(x), those of
      A_s A_s^dagger, and its diagonal is B_std(x) + D_std(x), which the
      `standard form s` checks equate with Bhat(x) + Dhat(x+1) + Et.
      Cleared of all Casoratian denominators, it holds at any integer x.
      s = 0 is the same call at w_0 = 1 and w''_{0,0} = nu.

    The tables read only stored systems and their families, never a
    caller's family object.
    """

    __slots__ = ("B_std", "D_std", "Bhat", "Dhat", "Et", "H", "eigen")

    def __init__(self, prefix: MultiIndexedSystem):
        p, s = prefix.p, prefix.M
        aB, aD, B, D = _base_tables(system(p, ()))
        w1, g = prefix.w_grid, prefix.wpp_grid(0)
        self.B_std, self.D_std = _deformed_potentials(aB, aD, s, w1, g)
        self.eigen = _operator(lambda x: aB(x + s), aD, p.varphi, aB(s), w1, g)[0]
        if s == 0:
            self.Bhat = self.Dhat = None
            self.Et = 0
            self.H = _adag_a(B, D, 0)
        else:
            w0 = system(p, prefix.labels[:-1]).w_grid
            self.Bhat, self.Dhat = _deformed_potentials(aB, aD, s - 1, w0, w1)
            self.Et = p.virtual_energy(prefix.labels[-1])
            self.H = _a_adag(self.Bhat, self.Dhat, self.Et)


@memo
def _level(prefix: MultiIndexedSystem) -> _Level:
    """Level s = len(prefix.labels), shared by every order with that prefix."""
    return _Level(prefix)


@memo
def _step_shifts(prefix: MultiIndexedSystem, v: int) -> LatticeFunction:
    """The shift table of the deletion step from level s of the prefix to
    level s + 1 with the next label v, in `families._operator`'s format: the
    triples (-w_{s+1}(x+1), -w_{s+1}(x), w_s(x+1)) and (aB'(x+s) w_s(x),
    aD'(x) w_s(x+1), w_{s+1}(x)), each over one common positive denominator
    and divided by its content (`series.primitive`).  For a level s + 1
    column u and its level s companion l of energy eps, F l = u is the
    nesting rule and G u = (Et_{d_{s+1}} - eps) l contiguity."""
    p, s = prefix.p, prefix.M
    aB, aD, _, _ = _base_tables(system(p, ()))
    w1, w2 = prefix.w_grid, system(p, prefix.labels + (v,)).w_grid

    def shifts(x):
        (a, ad), (b, bd) = w2.pair(x + 1), w2.pair(x)
        forward = primitive(pair_common((-a, ad), (-b, bd), w1.pair(x + 1)))
        g0 = pair_product(aB.pair(x + s), w1.pair(x))
        return forward, primitive(pair_common(g0, pair_product(aD.pair(x), w1.pair(x + 1)), (b, bd)))

    return LatticeFunction(shifts)


@memo
def _squared_vector_factor(final: MultiIndexedSystem) -> LatticeFunction:
    """prod_j aB'(x+j) phi0'(x) / (w_M(x) w_M(x+1)), j < M, on the final
    system of a chain: the factor of the squared eigenvector match that every
    n shares, a pair in lowest terms (`series.primitive`)."""
    p, M, wM = final.p, final.M, final.w_grid
    aB, phi0p = _base_tables(system(p, ()))[0], p.twisted()

    def factor(x):
        top = pair_product(*[aB.pair(x + j) for j in range(M)], pair(phi0p.phi0_sq(x)))
        return primitive(pair_quotient(top, pair_product(wM.pair(x), wM.pair(x + 1))))

    return LatticeFunction(factor)


@memo
def _swapped(final: MultiIndexedSystem, i: int) -> MultiIndexedSystem:
    """The system of the final order with the labels at i and i + 1 swapped,
    kept on the final system and out of the `multi.system` store: the swap
    checks read only its closed forms C_D and dt_sq."""
    o = final.labels
    return MultiIndexedSystem(final.p, o[:i] + (o[i + 1], o[i]) + o[i + 2 :])


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


def _same_hamiltonian(rep: Report, name: str, xs, H: tuple, K: tuple) -> None:
    """The checks `name product` and `name diagonal`: two forms H, K of one
    Hamiltonian have the same off-diagonal product and the same diagonal."""
    diag, off = _same_form(H, K)
    rep.every(f"{name} product", xs, off)
    rep.every(f"{name} diagonal", xs, diag)


# Virtual-state companions checked per level beyond the chain's own labels.
_EXTRA_VIRTUAL = 2


def chain_verify(p: _BaseFamily, order: Sequence[int], n_max: int = 3, x_max: int = 12) -> Report:
    """Exhaustive exact verification of one deletion chain; see module doc.

    Every check is an exact comparison at each point of its range, and
    every check runs on every call.  What the checks at one level s and
    point x share (the eigen-identity coefficients, the step's shifts, the
    step potentials) is read from the level tables of the prefix systems, so
    it is computed once per (prefix, x), not once per companion column, order
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
    levels = [_level(pre) for pre in prefix]

    def wp(s, v):  # the grid w'_{s,v}
        return system(p, order[:s] + (v,)).w_grid

    # eigen-identities at every level, for virtual companions and eigen companions
    for s, (pre, lv) in enumerate(zip(prefix, levels)):
        vs = [v for v in pool if v not in order[:s]][: _EXTRA_VIRTUAL + 1]
        for v in vs:
            holds = _eigen_identity(lv.eigen, wp(s, v).pair, -te[v])
            rep.every(f"virtual eigen-identity s={s},v={v}", xs_any, holds)
        for n in range(1, n_max + 1):  # n = 0: u = w''_{s,0} = Xi' and E_0 = 0 hold it for any values
            holds = _eigen_identity(lv.eigen, pre.wpp_grid(n).pair, -energies[n])
            rep.every(f"eigen eigen-identity s={s},n={n}", xs_any, holds)

    # each deletion step's shifts between levels: nesting forward, contiguity backward
    for s in range(M):
        lo, up, shifts = prefix[s], prefix[s + 1], _step_shifts(prefix[s], order[s])
        vs = [v for v in pool if v not in order[: s + 1]][:_EXTRA_VIRTUAL]
        companions = [(f"(eigen) s={s},n={n}", up.wpp_grid(n), lo.wpp_grid(n), energies[n]) for n in range(n_max + 1)]
        companions += [(f"(virtual) s={s},v={v}", wp(s + 1, v), wp(s, v), te[v]) for v in vs]
        for name, upper, lower, e in companions:
            rep.every(f"nesting {name}", xs_any, _shift_identity(shifts, lower.pair, upper.pair, 1, True))
            holds = _shift_identity(shifts, upper.pair, lower.pair, removed[s] - e, False)
            rep.every(f"contiguity {name}", xs_any, holds)

    # definite signs and potential positivity at every level
    for s in range(1, M + 1):
        gsign = sign_closed(removed[:s])  # the sign of w''_{s,0}
        sigma = -gsign if s % 2 else gsign  # the sign of w_s
        ws, g, lv = prefix[s].w_grid, prefix[s].wpp_grid(0), levels[s]
        rep.every(f"w_{s} definite sign", xs_lattice, lambda x: sigma * ws.pair(x)[0] > 0)
        vs = [v for v in pool if v not in order[:s]][:_EXTRA_VIRTUAL]
        for v in vs:
            tau = sigma
            for e in removed[:s]:
                tau *= _sgn(e - te[v])
            wps = wp(s, v)
            rep.every(f"w'_{s},{v} definite sign", xs_lattice, lambda x: tau * wps.pair(x)[0] > 0)
        rep.every(f"w''_{s},0 definite sign", xs_lattice, lambda x: gsign * g.pair(x)[0] > 0)
        potentials = (("Bhat", "Dhat", lv.Bhat, lv.Dhat), ("B_std", "D_std", lv.B_std, lv.D_std))
        for b, d, Bs, Ds in potentials:
            rep.every(f"{b}_{s} > 0", xs_lattice, lambda x: Bs(x)[0] > 0)
            rep.every(f"{d}_{s} sign", xs_lattice, lambda x: Ds(x)[0] > 0 if x else Ds(x)[0] == 0)

    # H_s = A_{s+1}^dagger A_{s+1} + Et_{d_{s+1}}: each level re-factorizes into the next
    for s in range(M):
        up = levels[s + 1]
        H_up = _adag_a(up.Bhat, up.Dhat, up.Et)
        _same_hamiltonian(rep, f"re-factorization s={s}", xs_lattice, H_up, levels[s].H)

    # standard form: H_s = A^dagger A of (B_std, D_std), anchored at s = 0 by the potentials
    _, _, B, D = _base_tables(prefix[0])
    lv = levels[0]
    rep.every(
        "standard form s=0 is the base system",
        xs_lattice,
        lambda x: pair_equal(lv.B_std(x), B(x)) and pair_equal(lv.D_std(x), D(x)),
    )
    for s in range(1, M + 1):
        lv = levels[s]
        _same_hamiltonian(rep, f"standard form s={s}", xs_lattice, _adag_a(lv.B_std, lv.D_std, 0), lv.H)

    # final level: match the closed-form multi-indexed system
    final, lv = prefix[M], levels[M]
    B_D, D_D = final.potentials()
    rep.every(
        "final potentials match denominator form",
        xs_lattice,
        lambda x: pair_equal(lv.B_std(x), B_D(x)) and pair_equal(lv.D_std(x), D_D(x)),
    )
    alpha, factor = p.alpha(), _squared_vector_factor(final)
    prod_b0 = 1
    for j in range(M):
        prod_b0 = prod_b0 * alpha * p.tilde_shifted(j).twisted().B(0)
    kappa_pow = p.kappa ** (M * (M - 1) // 2)
    for n in range(n_max + 1):
        const_sq = kappa_pow * (final.C_Dn(n) / final.C_D()) ** 2 * prod_b0
        norm_prod = final.dt_sq(n)
        for e in removed:
            norm_prod = norm_prod * (energies[n] - e)
        rep.add(f"norm bookkeeping n={n}", const_sq == norm_prod)
        g, terms, c = final.wpp_grid(n), final.orthogonality_terms(n, n), pair(const_sq)
        rep.every(
            f"squared eigenvector match n={n}",
            xs_lattice,
            lambda x: pair_equal(pair_product(factor(x), g.pair(x), g.pair(x)), pair_product(c, terms.pair(x))),
        )

    # order independence under each adjacent swap (module doc): the swapped
    # system's closed forms only, from a system kept out of the store
    for i in range(M - 1):
        swapped = _swapped(final, i)
        rep.add(
            f"order independence, swap {order[i]},{order[i + 1]}",
            swapped.C_D() == -final.C_D()
            and all(swapped.dt_sq(n) == final.dt_sq(n) for n in range(n_max + 1)),
        )
    return rep
