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
at twisted parameters).  This module verifies, exactly over Fractions, every
identity the construction rests on:

  - the two eigen-identities for w'_{s,v} and w''_{s,n} (cleared of
    denominators, so they hold at negative lattice points too),
  - the Casoratian nesting rule linking levels s and s+1,
  - the two three-term contiguity identities between levels,
  - definite-sign statements for w_s, w'_{s,v}, w''_{s,0} with the exact
    sign predicted by the energy-ordering factor, and the resulting
    positivity of all step potentials,
  - the bookkeeping that re-factorizes one Hamiltonian into the next,
  - the sign-factor recursion against its closed form,
  - at s = M, agreement with the closed-form multi-indexed system:
    potentials, squared eigenvectors (with the exact normalization
    constant), and independence of the deletion order (Xi_D and P_{D,n}
    compared with those of at most two other orders).

After s deletions the intermediate Hamiltonian is the multi-indexed system
of the label prefix d_1..d_s, so the grids are that system's: w_s and
w''_{s,n} are the W grids of `system(p, order[:s])`, and w'_{s,v} is the W
grid of `system(p, order[:s] + (v,))`, all from the shared `multi.system`
store.  A Chain owns only the rest: the lattice tables alpha B'(x) and
alpha D'(x), the tilde-energies (a `memo`), and per level s (`_level`, a
`memo`) the lattice tables of the step potentials and of the coefficients
that the eigen-identity and contiguity checks of all companion columns
share.  Each is computed once per (s, x); a check only combines table
entries with its own column.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

from .casoratian import LatticeFunction
from .families import _BaseFamily, memo
from .multi import _validate_labels, system
from .report import Report
from .virtual import index_set

__all__ = ["Chain", "ChainState", "chain_build", "chain_verify"]


def _sgn(v) -> int:
    return 1 if v > 0 else (-1 if v < 0 else 0)


class Chain:
    """Level tables for one deletion order (a tuple of distinct labels)."""

    def __init__(self, p: _BaseFamily, order: Sequence[int]):
        self.p = p
        self.order = _validate_labels(p, order)
        self.M = len(self.order)
        self.alpha = p.alpha()
        self.alpha_prime = p.alpha_prime()
        a = self.alpha
        self.aB = LatticeFunction(lambda x: a * p.Bprime(x))  # alpha B'(x)
        self.aD = LatticeFunction(lambda x: a * p.Dprime(x))  # alpha D'(x)
        self._cache: dict = {}

    @memo
    def tilde_energy(self, v: int):
        return self.p.virtual_energy(v)

    # -- Casoratian grids, read from the label-prefix systems ---------------------

    def w(self, s: int) -> LatticeFunction:
        return system(self.p, self.order[:s]).w_grid

    def wp(self, s: int, v: int) -> LatticeFunction:
        return system(self.p, self.order[:s] + (v,)).w_grid

    def wpp(self, s: int, n: int) -> LatticeFunction:
        return system(self.p, self.order[:s]).wpp_grid(n)

    @memo
    def _level(self, s: int) -> "_Level":
        """The per-(s, x) tables of level s, built once per Chain."""
        return _Level(self, s)

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


class _Level:
    """Lattice tables of one level s of a Chain.

    - `B_std`, `D_std` (every s) and `Bhat`, `Dhat` (s >= 1): the potentials.
    - `eigen(x) = (A, C, P, Q)`: the level-s eigen-identity for a companion
      column u of energy eps reads (A + (Et_{d_s} - eps) C) u(x)
      = P u(x+1) + Q u(x-1) (Et_{d_0} = 0).
    - `contiguity(x) = (aB'(x+s) w_s(x), aD'(x) w_s(x+1), w_{s+1}(x))`
      (s < M): the three coefficients of the contiguity identity.
    """

    __slots__ = ("B_std", "D_std", "Bhat", "Dhat", "eigen", "contiguity")

    def __init__(self, ch: Chain, s: int):
        aB, aD, w1, g = ch.aB, ch.aD, ch.w(s), ch.wpp(s, 0)
        self.B_std = LatticeFunction(lambda x: aB(x + s) * w1(x) / w1(x + 1) * g(x + 1) / g(x))
        self.D_std = LatticeFunction(lambda x: aD(x) * w1(x + 1) / w1(x) * g(x - 1) / g(x))
        if s == 0:
            ap = ch.alpha_prime
            self.Bhat = self.Dhat = None
            self.eigen = LatticeFunction(lambda x: (aB(x) + aD(x) + ap, 1, aB(x), aD(x)))
        else:
            w0 = ch.w(s - 1)
            self.Bhat = LatticeFunction(
                lambda x: aB(x + s - 1) * w0(x) / w0(x + 1) * w1(x + 1) / w1(x)
            )
            self.Dhat = LatticeFunction(lambda x: aD(x) * w0(x + 1) / w0(x) * w1(x - 1) / w1(x))

            def eigen(x):
                w0x1, w1x, w1x1 = w0(x + 1), w1(x), w1(x + 1)
                A = aB(x + s - 1) * w0(x) * w1x1**2 + aD(x + 1) * w0(x + 2) * w1x**2
                C = w0x1 * w1x * w1x1
                return A, C, aB(x + s) * w1x**2 * w0x1, aD(x) * w1x1**2 * w0x1

            self.eigen = LatticeFunction(eigen)
        if s < ch.M:
            w2 = ch.w(s + 1)
            self.contiguity = LatticeFunction(
                lambda x: (aB(x + s) * w1(x), aD(x) * w1(x + 1), w2(x))
            )
        else:
            self.contiguity = None


@dataclass
class ChainState:
    """One level of a deletion chain, in ground-state-adapted standard form."""

    step: int
    deleted: tuple
    removed_energy: object  # tilde-energy of the state deleted at this step; None at step 0
    sign: int  # Chain.sign_closed(step): (-1)^step times the definite sign of w_step
    B: Callable[[int], object]
    D: Callable[[int], object]


def chain_build(p: _BaseFamily, order: Sequence[int]) -> list[ChainState]:
    """The ladder of intermediate systems for one deletion order.

    Entry s holds the standard-form potentials after deleting the first s
    labels; entry 0 is the base system itself.  All entries share one
    Chain's memo tables, so evaluating any of them is incremental work.
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
                B=ch._level(s).B_std,
                D=ch._level(s).D_std,
            )
        )
    return states


def _check(rep: Report, name: str, xs, holds: Callable[[int], bool]) -> None:
    """One check over the points xs; a failure names the first failing x."""
    bad = next((x for x in xs if not holds(x)), None)
    rep.add(name, bad is None, f"x={bad}")


def _eigen_identity(eigen: LatticeFunction, u: LatticeFunction, k) -> Callable[[int], bool]:
    """(A + k C) u(x) == P u(x+1) + Q u(x-1) with k = Et_{d_s} - eps: the
    level-s eigen-identity for the column u, cleared of all Casoratian
    denominators so it holds at any integer x.  Multiplied out for s >= 1,
      [aB'(x+s-1) w_{s-1}(x) w_s(x+1)^2 + aD'(x+1) w_{s-1}(x+2) w_s(x)^2
        + (Et_{d_s} - eps) w_{s-1}(x+1) w_s(x) w_s(x+1)] * u(x)
      = [aB'(x+s) w_s(x)^2 u(x+1) + aD'(x) w_s(x+1)^2 u(x-1)] * w_{s-1}(x+1);
    for s = 0 the bracket collapses to aB'(x) + aD'(x) + alpha' - eps."""

    def holds(x):
        A, C, P, Q = eigen(x)
        return (A + k * C) * u(x) == P * u(x + 1) + Q * u(x - 1)

    return holds


def _contiguity(contiguity: LatticeFunction, upper, lower, k) -> Callable[[int], bool]:
    """aB'(x+s) w_s(x) upper(x) = aD'(x) w_s(x+1) upper(x-1)
       + (Et_{d_{s+1}} - eps) w_{s+1}(x) lower(x), with k = Et_{d_{s+1}} - eps."""

    def holds(x):
        b, d, w2 = contiguity(x)
        return b * upper(x) == d * upper(x - 1) + k * w2 * lower(x)

    return holds


def _nesting(ws, ws1, upper, lower) -> Callable[[int], bool]:
    """w_s(x+1) upper(x) = w_{s+1}(x) lower(x+1) - w_{s+1}(x+1) lower(x)."""
    return lambda x: ws(x + 1) * upper(x) == ws1(x) * lower(x + 1) - ws1(x + 1) * lower(x)


# Virtual-state companions checked per level beyond the chain's own labels.
_EXTRA_VIRTUAL = 2


def chain_verify(p: _BaseFamily, order: Sequence[int], n_max: int = 3, x_max: int = 12) -> Report:
    """Exhaustive exact verification of one deletion chain; see module doc.

    Every check is an exact comparison at each point of its range; what the
    checks at one level s and point x share (the eigen-identity and
    contiguity coefficients, the step potentials) is read from the Chain's
    per-level tables, so it is computed once per (s, x), not once per
    companion column.  A failing check names its first failing x.
    """
    ch = Chain(p, order)
    M = len(ch.order)
    rep = Report(
        f"chain[{p!r}, order={list(ch.order)}]",
        "intermediate Hamiltonians, Casoratian identities, signs, final match",
    )
    cap = max(ch.order, default=0) + 1 + _EXTRA_VIRTUAL
    pool = index_set(p, cap)
    xs_any = range(-2, x_max + 1)  # cleared identities hold off the lattice too
    xs_lattice = range(0, x_max + 1)
    energies = [p.energy(n) for n in range(n_max + 1)]
    pB, pD = LatticeFunction(p.B), LatticeFunction(p.D)

    # eigen-identities at every level, for virtual companions and eigen companions
    for s in range(M + 1):
        eigen = ch._level(s).eigen
        ets = ch.tilde_energy(ch.order[s - 1]) if s else 0
        vs = [v for v in pool if v not in ch.order[:s]][: _EXTRA_VIRTUAL + 1]
        for v in vs:
            holds = _eigen_identity(eigen, ch.wp(s, v), ets - ch.tilde_energy(v))
            _check(rep, f"virtual eigen-identity s={s},v={v}", xs_any, holds)
        for n in range(n_max + 1):
            holds = _eigen_identity(eigen, ch.wpp(s, n), ets - energies[n])
            _check(rep, f"eigen eigen-identity s={s},n={n}", xs_any, holds)

    # nesting rule and contiguity identities between levels
    for s in range(M):
        ws, ws1, contiguity = ch.w(s), ch.w(s + 1), ch._level(s).contiguity
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
            _check(rep, f"{b}_{s} > 0", xs_lattice, lambda x: B(x) > 0)
            _check(rep, f"{d}_{s} sign", xs_lattice, lambda x: D(x) > 0 if x else D(x) == 0)

    # re-factorization bookkeeping between consecutive levels
    if M >= 1:
        e1, lv = ch.tilde_energy(ch.order[0]), ch._level(1)
        _check(
            rep,
            "re-factorization s=0 product",
            xs_lattice,
            lambda x: lv.Bhat(x) * lv.Dhat(x + 1) == pB(x) * pD(x + 1),
        )
        _check(
            rep,
            "re-factorization s=0 diagonal",
            xs_lattice,
            lambda x: lv.Bhat(x) + lv.Dhat(x) + e1 == pB(x) + pD(x),
        )
    for s in range(1, M):
        es, es1 = ch.tilde_energy(ch.order[s - 1]), ch.tilde_energy(ch.order[s])
        lv, up = ch._level(s), ch._level(s + 1)
        _check(
            rep,
            f"re-factorization s={s} product",
            xs_lattice,
            lambda x: up.Bhat(x) * up.Dhat(x + 1) == lv.Bhat(x + 1) * lv.Dhat(x + 1),
        )
        _check(
            rep,
            f"re-factorization s={s} diagonal",
            xs_lattice,
            lambda x: up.Bhat(x) + up.Dhat(x) + es1 == lv.Bhat(x) + lv.Dhat(x + 1) + es,
        )

    # standard-form relations at each level, plus the s = 0 anchor
    lv = ch._level(0)
    _check(
        rep,
        "standard form s=0 is the base system",
        xs_lattice,
        lambda x: lv.B_std(x) == pB(x) and lv.D_std(x) == pD(x),
    )
    for s in range(1, M + 1):
        es, lv = ch.tilde_energy(ch.order[s - 1]), ch._level(s)
        _check(
            rep,
            f"standard form s={s} product",
            xs_lattice,
            lambda x: lv.B_std(x) * lv.D_std(x + 1) == lv.Bhat(x + 1) * lv.Dhat(x + 1),
        )
        _check(
            rep,
            f"standard form s={s} diagonal",
            xs_lattice,
            lambda x: lv.B_std(x) + lv.D_std(x) == lv.Bhat(x) + lv.Dhat(x + 1) + es,
        )

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
        lambda x: lv.B_std(x) == sys.B_D(x) and lv.D_std(x) == sys.D_D(x),
    )
    phi0p, wM, aB = p.twisted(), ch.w(M), ch.aB
    prod_b0 = 1
    for j in range(M):
        prod_b0 = prod_b0 * ch.alpha * p.tilde_shifted(j).Bprime(0)
    kappa_pow = p.kappa ** (M * (M - 1) // 2)

    def eigenvector_factor(x):
        # prod_j aB'(x+j) phi0'(x) / (w_M(x) w_M(x+1)), shared by every n
        out = 1
        for j in range(M):
            out = out * aB(x + j)
        return out * phi0p.phi0_sq(x) / (wM(x) * wM(x + 1))

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
            lambda x: factor(x) * g(x) ** 2
            == const_sq * sys.weight(x) * sys.multi_poly_at(n, x) ** 2,
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
