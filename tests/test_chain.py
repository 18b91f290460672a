"""Step-by-step state deletion: intermediate systems, signs, final match."""

import sys
import tracemalloc
from fractions import Fraction as F
from itertools import permutations

import pytest

from mipoly.casoratian import LatticeFunction
from mipoly.chain import (
    ChainState,
    _base_tables,
    _level,
    _step_shifts,
    chain_build,
    chain_verify,
    sign_closed,
)
from mipoly.families import LittleQJacobi, LittleQLaguerre, Meixner, _eigen_identity, _shift_identity
from mipoly.multi import system
from mipoly.series import pair
from mipoly.virtual import index_set

M = Meixner(1, F(1, 2))
QL = LittleQLaguerre(F(1, 32), F(1, 2))
QJ = LittleQJacobi(F(1, 32), F(1, 3), F(1, 2))


def test_chain_build_frozen_states():
    states = chain_build(M, (1,))
    assert [type(s) for s in states] == [ChainState, ChainState]
    s0, s1 = states
    assert (s0.step, s0.deleted, s0.removed_energy, s0.sign) == (0, (), None, 1)
    assert s0.B(0) == F(1, 2) and s0.D(1) == 1
    assert (s1.step, s1.deleted, s1.removed_energy, s1.sign) == (1, (1,), -1, -1)
    assert s1.B(0) == F(5, 6) and s1.D(1) == F(16, 15)


def test_final_step_matches_multi_indexed_system():
    for p, order in ((M, (1, 2)), (QL, (2, 1)), (QJ, (1, 3))):
        states = chain_build(p, order)
        sys = system(p, order)
        for x in range(8):
            assert states[-1].B(x) == sys.B_D(x)
            assert states[-1].D(x) == sys.D_D(x)


def test_intermediate_potentials_positive():
    for p, order in ((M, (1, 2, 3)), (QL, (1, 2)), (QJ, (2, 4))):
        for st in chain_build(p, order):
            for x in range(1, 10):
                assert st.B(x) > 0 and st.D(x) > 0
            assert st.B(0) > 0 and st.D(0) == 0


def sign_recursive(te):
    """The sign of `sign_closed` as a product of one factor per deletion
    step: -1 times the signs of te[i] - te[t] over the earlier steps i."""
    out = 1
    for t, et in enumerate(te):
        step = -1
        for i in range(t):
            step *= 1 if te[i] > et else -1
        out *= step
    return out


def test_sign_closed_form_matches_recursion():
    for p, order in ((M, (1, 2, 3)), (M, (3, 1, 2)), (QL, (2, 1)), (QJ, (1, 3, 2))):
        te = [p.virtual_energy(d) for d in order]
        for s in range(len(order) + 1):
            assert sign_closed(te[:s]) == sign_recursive(te[:s]) in (-1, 1)


def test_definite_sign_of_casoratian_weights():
    # the pair-inversion product of removed energies fixes the sign of w_s on
    # the lattice; sign_closed carries an extra (-1)^s bookkeeping factor
    for p, order in ((M, (2, 1, 3)), (QL, (1, 2))):
        te = [p.virtual_energy(d) for d in order]
        for s in range(len(order) + 1):
            sigma = 1
            for i in range(s):
                for j in range(i + 1, s):
                    sigma *= 1 if te[i] > te[j] else -1
            assert sign_closed(te[:s]) == (-1) ** s * sigma
            w = system(p, order[:s]).w_grid
            for x in range(10):
                assert sigma * w(x) > 0


def test_order_independence_of_final_system():
    for p in (M, QL):
        a = chain_build(p, (1, 2))[-1]
        b = chain_build(p, (2, 1))[-1]
        for x in range(8):
            assert a.B(x) == b.B(x)
            assert a.D(x) == b.D(x)


def test_chain_verify_reports():
    for p, order in ((M, (1, 2)), (M, (1, 3)), (QL, (1, 2)), (QJ, (1, 2, 3))):
        rep = chain_verify(p, order, n_max=2, x_max=8)
        assert rep.passed, rep.failures()[:3]


def _failures_with_corrupted_grid(monkeypatch, grid_of):
    """For M and lqJ with order (1, 2): the failing checks of chain_verify
    when the grid grid_of(p) is off by one at x = 3.  The grids and the
    level tables live in the shared system store, so a fresh store keeps
    earlier tests from having filled x = 3 already, and keeps the
    corruption out of later ones."""
    from mipoly import multi

    out = []
    for p in (M, QJ):
        monkeypatch.setattr(multi, "_SYSTEMS", {})
        grid = grid_of(p)
        grid.cache[3] = grid.fn(3) + 1
        out.append(chain_verify(p, (1, 2), n_max=2, x_max=8).failures())
    return out


def test_corrupted_casoratian_fails_exactly_the_checks_that_read_it(monkeypatch):
    # w''_{1,1} off by one at x = 3 must break every identity that reads it,
    # and only those; each failure names a lattice point
    expected = [
        "eigen eigen-identity s=1,n=1",
        "nesting (eigen) s=0,n=1",
        "contiguity (eigen) s=0,n=1",
        "nesting (eigen) s=1,n=1",
        "contiguity (eigen) s=1,n=1",
    ]
    for failures in _failures_with_corrupted_grid(monkeypatch, lambda p: system(p, (1,)).wpp_grid(1)):
        assert [c.name for c in failures] == expected
        assert all(c.witness.startswith("x=") for c in failures)


def test_corrupted_w1_fails_the_diagonals_of_the_factorizations_that_read_it(monkeypatch):
    # w_1 off by one at x = 3: the eigen-identities of level 1 (its standard
    # form reads w_1 as Xi) and of the v = 1 column at level 0 (w'_{0,1} is
    # the grid w_1), every nesting and contiguity identity, and the diagonal
    # of each factorization check that reads Bhat_1 or Bhat_2; level 2's
    # eigen table reads w_2 and w''_{2,0} only, and w_1 cancels from every
    # off-diagonal product Bhat_s(x) Dhat_s(x+1), so no product check fails.
    def between(s, virtual, contiguity_x):
        out = []
        for kind, idx in [("eigen", f"n={n}") for n in range(3)] + [("virtual", f"v={v}") for v in virtual]:
            out += [(f"nesting ({kind}) s={s},{idx}", "x=2"), (f"contiguity ({kind}) s={s},{idx}", contiguity_x)]
        return out

    factorizations = [
        ("re-factorization s=0 diagonal", "x=2"),
        ("re-factorization s=1 diagonal", "x=2"),
        ("standard form s=1 diagonal", "x=2"),
        ("standard form s=2 diagonal", "x=1"),
    ]
    expected = [("virtual eigen-identity s=0,v=1", "x=2")]
    expected += [(f"virtual eigen-identity s=1,v={v}", "x=2") for v in (2, 3, 4)]
    expected += [(f"eigen eigen-identity s=1,n={n}", "x=2") for n in (1, 2)]
    expected += between(0, (2, 3), "x=3") + between(1, (3, 4), "x=2") + factorizations
    for p, failures in zip((M, QJ), _failures_with_corrupted_grid(monkeypatch, lambda p: system(p, (1,)).w_grid)):
        assert [(c.name, c.witness) for c in failures] == expected, p


def test_chain_verify_computes_shared_coefficients_once(monkeypatch):
    # the level tables share B', D' (B, D of the twisted family) and the
    # tilde-energies across companion columns, checks and n; at most a few
    # evaluations per (s, x) remain
    from mipoly import multi

    calls = {"B": 0, "D": 0, "virtual_energy": 0}

    def counting(name, fn):
        def wrapper(self, *args):
            # B', D': a twisted M family has c > 1; the chain's and the closed
            # forms' reads, not the twisted ground state's own recurrence
            if self.c > 1 and sys._getframe(1).f_globals["__name__"] in ("mipoly.chain", "mipoly.multi"):
                calls[name] += 1
            return fn(self, *args)

        return wrapper

    monkeypatch.setattr(Meixner, "B", counting("B", Meixner.B))
    monkeypatch.setattr(Meixner, "D", counting("D", Meixner.D))
    virtual_energy = Meixner.virtual_energy

    def chain_virtual_energy(*args):
        # the chain's own tilde-energies; the final match's system has its own
        if sys._getframe(1).f_globals["__name__"] == "mipoly.chain":
            calls["virtual_energy"] += 1
        return virtual_energy(*args)

    monkeypatch.setattr(Meixner, "virtual_energy", chain_virtual_energy)
    monkeypatch.setattr(multi, "_SYSTEMS", {})  # cold: the chain builds its prefix systems
    assert chain_verify(Meixner(1, F(1, 2)), (1, 2, 3), n_max=3, x_max=12).passed
    assert calls["B"] < 200
    assert calls["D"] < 100
    assert calls["virtual_energy"] < 20


def test_warm_chain_verify_reads_the_final_potentials_back(monkeypatch):
    # the potentials table is a memo of the system: a repeated request does
    # not form it (its body calls shifted_system()) again
    from mipoly.multi import MultiIndexedSystem

    original = MultiIndexedSystem.shifted_system
    calls = []
    monkeypatch.setattr(MultiIndexedSystem, "shifted_system", lambda self: calls.append(self) or original(self))
    for p in (M, QJ, QL):
        assert chain_verify(p, (1, 2), n_max=2, x_max=8).passed
        calls.clear()
        assert chain_verify(p, (1, 2), n_max=2, x_max=8).passed
        assert calls == [], p


@pytest.mark.parametrize("p", [M, QJ, QL], ids=repr)
def test_chain_levels_form_their_potentials_in_multi(monkeypatch, p):
    # Bhat, Dhat and B_std, D_std of every level, and the final system's
    # B_D, D_D, are the tables of the one multi function
    from mipoly import chain, multi

    assert chain._deformed_potentials is multi._deformed_potentials
    original, made = multi._deformed_potentials, {}

    def recording(B, D, k, u, v):
        made[k, id(u), id(v)] = tables = original(B, D, k, u, v)
        return tables

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    monkeypatch.setattr(chain, "_deformed_potentials", recording)
    monkeypatch.setattr(multi, "_deformed_potentials", recording)
    order = (1, 2)
    assert chain_verify(p, order, n_max=1, x_max=4).passed
    for s in range(len(order) + 1):
        pre, lv = system(p, order[:s]), _level(system(p, order[:s]))
        assert (lv.B_std, lv.D_std) == made[s, id(pre.w_grid), id(pre.wpp_grid(0))]
        if s:
            w0 = system(p, order[: s - 1]).w_grid
            assert (lv.Bhat, lv.Dhat) == made[s - 1, id(w0), id(pre.w_grid)]
    final = system(p, order)
    assert final.potentials() == made[0, id(final.Xi_at), id(final.shifted_system().Xi_at)]
    assert len(made) == 2 * len(order) + 2


def _checks(rep):
    return [(c.name, c.passed, c.witness) for c in rep.checks]


def _counting_levels(monkeypatch):
    """A fresh store, and the label prefixes of the _Level tables built from
    now on, in build order."""
    from mipoly import chain, multi

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    built, original = [], chain._Level

    def counting(prefix):
        built.append(prefix.labels)
        return original(prefix)

    monkeypatch.setattr(chain, "_Level", counting)
    return built


@pytest.mark.parametrize(
    "make", [lambda: Meixner(1, F(1, 2)), lambda: LittleQJacobi(F(1, 32), F(1, 3), F(1, 2))], ids=["M", "lqJ"]
)
def test_warm_chain_verify_builds_no_level(monkeypatch, make):
    # the level tables are memos of the prefix systems: a repeated request
    # with a fresh but equal family finds them built, still runs every check
    # with the same verdicts and witnesses, and leaves nothing that holds
    # the caller's family
    built = _counting_levels(monkeypatch)
    cold = _checks(chain_verify(make(), (1, 2, 3), n_max=2, x_max=8))
    assert sorted(built) == [(), (1,), (1, 2), (1, 2, 3)]
    fresh = make()
    refs = sys.getrefcount(fresh)
    warm = _checks(chain_verify(fresh, (1, 2, 3), n_max=2, x_max=8))
    assert len(built) == 4 and warm == cold
    assert sys.getrefcount(fresh) == refs


def test_orders_sharing_a_prefix_share_its_levels(monkeypatch):
    # (1, 2) and (1, 3) share levels 0 and 1; only their last levels differ
    built = _counting_levels(monkeypatch)
    for order in ((1, 2), (1, 3)):
        assert chain_verify(M, order, n_max=2, x_max=8).passed
    assert sorted(built) == [(), (1,), (1, 2), (1, 3)]


@pytest.mark.parametrize(
    "m, others", [(1, []), (2, [(1, 2)]), (3, [(1, 2), (2, 3)]), (4, [(1, 2), (2, 3), (3, 4)])]
)
def test_order_independence_reads_at_most_two_other_orders(m, others):
    # the other orders read are the M - 1 adjacent swaps of the given one,
    # each named by the labels it swaps
    rep = chain_verify(M, tuple(range(1, m + 1)), n_max=1, x_max=4)
    assert [c.name for c in rep.checks if c.name.startswith("order")] == [
        f"order independence, swap {a},{b}" for a, b in others
    ]


def test_a_chain_of_twelve_labels_lists_no_other_order(monkeypatch):
    # 12! orders exist; the chain reads the closed forms of the 11 adjacent
    # swaps only, so the run stays small and stores no other order
    from mipoly import multi

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    order = tuple(range(1, 13))
    tracemalloc.start()
    try:
        rep = chain_verify(M, order, n_max=0, x_max=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and peak < 16 * 2**20
    assert [c.name for c in rep.checks if c.name.startswith("order")] == [
        f"order independence, swap {d},{d + 1}" for d in range(1, 12)
    ]
    assert {labels for _, labels in multi._SYSTEMS if sorted(labels) == list(order)} == {order}


@pytest.mark.parametrize(
    "p, order",
    [(M, (1, 2)), (M, (1, 2, 3)), (QJ, (1, 2)), (QJ, (1, 2, 3)), (QL, (1, 3)), (QL, (1, 2, 3)), (M, (1, 2, 3, 4))],
    ids=repr,
)
def test_every_order_builds_the_same_polynomials(monkeypatch, p, order):
    # the oracle of the swap checks: each order's Xi_D and P_{D,n}, n <= 2,
    # built from its own Casoratian grids
    from mipoly import multi

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    given = system(p, order)
    for perm in permutations(order):
        other = system(p, perm)
        assert other.Xi() == given.Xi()
        assert all(other.multi_poly(n) == given.multi_poly(n) for n in range(3))


def _unsorted(fn, spoil):
    """fn, spoilt by spoil on the systems whose labels are not sorted."""

    def spoilt(self, *args):
        value = fn(self, *args)
        return value if list(self.labels) == sorted(self.labels) else spoil(value)

    return spoilt


@pytest.mark.parametrize("method, spoil", [("C_D", lambda v: -v), ("dt_sq", lambda v: 2 * v)])
@pytest.mark.parametrize("p", [M, QJ], ids=repr)
def test_a_closed_form_that_depends_on_the_order_fails_the_swap_checks(monkeypatch, p, method, spoil):
    # a C_D that misses a sign, or a dt_sq that is not symmetric, on any
    # order but the sorted one fails exactly the two swap checks of (1, 2, 3)
    from mipoly.multi import MultiIndexedSystem

    monkeypatch.setattr(MultiIndexedSystem, method, _unsorted(getattr(MultiIndexedSystem, method), spoil))
    rep = chain_verify(p, (1, 2, 3), n_max=2, x_max=8)
    assert [c.name for c in rep.failures()] == ["order independence, swap 1,2", "order independence, swap 2,3"]


@pytest.mark.parametrize("p", [M, QL], ids=repr)
def test_a_wider_window_on_a_warm_store_matches_a_fresh_store(monkeypatch, p):
    # tables filled at x_max = 4 extend to x_max = 12 with the same values
    from mipoly import multi

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    chain_verify(p, (1, 2), n_max=2, x_max=4)
    warm = _checks(chain_verify(p, (1, 2), n_max=2, x_max=12))
    monkeypatch.setattr(multi, "_SYSTEMS", {})
    assert warm == _checks(chain_verify(p, (1, 2), n_max=2, x_max=12))


# A companion column as it is checked, and two corruptions of its value at x = 3.
CORRUPTIONS = {
    "exact": lambda v: v,
    "plus 1/7": lambda v: v + F(1, 7),
    "negated": lambda v: -v,
}


def _corrupted(u, how):
    return lambda x: how(u(x)) if x == 3 else u(x)


def _pairs(u):
    """u's values as pairs, as the predicates read their columns."""
    return lambda x: pair(u(x))


@pytest.mark.parametrize("p, order", [(M, (1, 2, 3)), (QJ, (1, 2, 3)), (QL, (1, 3))], ids=repr)
def test_fraction_free_identities_match_their_fraction_form(p, order):
    # the predicates compare int numerators and denominators by cross-
    # multiplication; here each identity is written out in Fractions, and
    # both forms must give the same verdict at every level, companion and x,
    # for the exact columns (all hold) and for two corruptions at x = 3; the
    # chain checks each level's eigen-identity in its standard form, and the
    # exact columns also satisfy it in the hat form the deletion step leaves;
    # nesting and contiguity are the forward and backward shifts of the
    # step's table, checked by the predicate of the parameter shifts
    prefix = [system(p, order[:s]) for s in range(len(order) + 1)]
    aB, aD, _, _ = _base_tables(prefix[0])
    xs, pool = range(-2, 13), index_set(p, max(order) + 3)
    alpha_prime = p.alpha_prime()

    def w(s):
        return prefix[s].w_grid

    def wp(s, v):
        return system(p, order[:s] + (v,)).w_grid

    def virtual(s, count):
        return [v for v in pool if v not in order[:s]][:count]

    def eigen_fraction(s, u, k, x):
        # H_s in standard form: the operator of aB'(x+s), aD' at Xi = w_s,
        # Xi' = w''_{s,0}, cleared of C = w_s(x) w_s(x+1) w''_{s,0}(x)
        ws, g = w(s), prefix[s].wpp_grid(0)
        lhs = (
            aB(x + s) * ws(x) ** 2 * g(x + 1)
            + aD(x) * ws(x + 1) ** 2 * g(x - 1)
            + k * ws(x) * ws(x + 1) * g(x)
        ) * u(x)
        return lhs == (aB(x + s) * ws(x) ** 2 * u(x + 1) + aD(x) * ws(x + 1) ** 2 * u(x - 1)) * g(x)

    def hat_fraction(s, u, k, x):
        # H_s = A_s A_s^dagger + Et_{d_s} as the deletion step leaves it, the
        # paper's form; at s = 0 the base system H_0 = A^dagger A
        if s == 0:
            lhs = (aB(x) + aD(x) + alpha_prime + k) * u(x)
            return lhs == aB(x) * u(x + 1) + aD(x) * u(x - 1)
        w0, w1 = w(s - 1), w(s)
        lhs = (
            aB(x + s - 1) * w0(x) * w1(x + 1) ** 2
            + aD(x + 1) * w0(x + 2) * w1(x) ** 2
            + k * w0(x + 1) * w1(x) * w1(x + 1)
        ) * u(x)
        rhs = (aB(x + s) * w1(x) ** 2 * u(x + 1) + aD(x) * w1(x + 1) ** 2 * u(x - 1)) * w0(x + 1)
        return lhs == rhs

    def nesting_fraction(s, upper, lower, x):
        ws, ws1 = w(s), w(s + 1)
        return ws(x + 1) * upper(x) == ws1(x) * lower(x + 1) - ws1(x + 1) * lower(x)

    def contiguity_fraction(s, upper, lower, k, x):
        ws, ws1 = w(s), w(s + 1)
        lhs = aB(x + s) * ws(x) * upper(x)
        return lhs == aD(x) * ws(x + 1) * upper(x - 1) + k * ws1(x) * lower(x)

    verdicts = {name: [] for name in CORRUPTIONS}
    for name, how in CORRUPTIONS.items():
        seen = verdicts[name]
        for s in range(len(order) + 1):
            ets = p.virtual_energy(order[s - 1]) if s else 0
            columns = [(wp(s, v), p.virtual_energy(v)) for v in virtual(s, 3)]
            columns += [(prefix[s].wpp_grid(n), p.energy(n)) for n in range(4)]
            for col, e in columns:
                u = _corrupted(col, how)
                holds = _eigen_identity(_level(prefix[s]).eigen, _pairs(u), -e)
                for x in xs:
                    seen.append(holds(x))
                    assert seen[-1] == eigen_fraction(s, u, -e, x), ("eigen", s, x)
                    if name == "exact":
                        assert hat_fraction(s, u, ets - e, x), ("hat", s, x)
            if s == len(order):
                continue
            # (level s + 1 column, level s column, energy) of each companion
            k_next = p.virtual_energy(order[s])
            pairs = [(wp(s + 1, v), wp(s, v), p.virtual_energy(v)) for v in virtual(s + 1, 2)]
            pairs += [(prefix[s + 1].wpp_grid(n), prefix[s].wpp_grid(n), p.energy(n)) for n in range(4)]
            shifts = _step_shifts(prefix[s], order[s])
            for up, lo, e in pairs:
                for upper, lower in ((_corrupted(up, how), lo), (up, _corrupted(lo, how))):
                    holds = _shift_identity(shifts, _pairs(lower), _pairs(upper), 1, True)
                    for x in xs:
                        seen.append(holds(x))
                        assert seen[-1] == nesting_fraction(s, upper, lower, x), ("nesting", s, x)
                    holds = _shift_identity(shifts, _pairs(upper), _pairs(lower), k_next - e, False)
                    for x in xs:
                        seen.append(holds(x))
                        expected = contiguity_fraction(s, upper, lower, k_next - e, x)
                        assert seen[-1] == expected, ("contiguity", s, x)
    assert all(verdicts["exact"])
    assert not all(verdicts["plus 1/7"]) and not all(verdicts["negated"])


def test_a_zero_step_divisor_off_the_lattice_is_checked_not_raised():
    # every order of M 1,1/2 that starts with label 1 has w_1(-2) = 0, the
    # divisor of the s = 0 backward (contiguity) triple at x = -2; the other
    # two coefficients do not vanish, so the cleared identity still says
    # something, and every row is decided
    p = Meixner(1, F(1, 2))
    g0, g1, gc = _step_shifts(system(p, ()), 1)(-2)[1]
    assert system(p, (1,)).w_grid(-2) == 0 and gc == 0 and g0 and g1
    rep = chain_verify(p, (1, 3))
    assert rep.passed and "contiguity (eigen) s=0,n=0" in [c.name for c in rep.checks]


@pytest.mark.parametrize("forward", [True, False], ids=["nesting", "contiguity"])
def test_an_all_zero_step_triple_raises(monkeypatch, forward):
    # where every coefficient of a step's triple vanishes, at x = 3, the
    # identity is vacuous: the chain raises there instead of passing 0 == 0
    from mipoly import chain, multi

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    original = chain._step_shifts

    def zeroed(prefix, v):
        table = original(prefix, v)
        zero = lambda x: ((0, 0, 0), table(x)[1]) if forward else (table(x)[0], (0, 0, 0))
        return LatticeFunction(lambda x: zero(x) if x == 3 else table(x))

    monkeypatch.setattr(chain, "_step_shifts", zeroed)
    assert chain_verify(M, (1, 2), n_max=1, x_max=2).passed
    with pytest.raises(ZeroDivisionError, match="every shift coefficient vanishes"):
        chain_verify(M, (1, 2), n_max=1, x_max=3)


FRESH = {
    "M": lambda: Meixner(1, F(1, 2)),
    "lqJ": lambda: LittleQJacobi(F(1, 32), F(1, 3), F(1, 2)),
    "lqL": lambda: LittleQLaguerre(F(1, 32), F(1, 2)),
}


@pytest.mark.parametrize("labels", [(1,), (1, 2, 3)], ids=str)
@pytest.mark.parametrize("family", FRESH)
def test_warm_requests_equal_cold(monkeypatch, family, labels):
    # a repeated request reads the kept, content-reduced tables (the level
    # and step tables, the final level's factor and terms, the swapped
    # systems, the orthogonality terms) and decides the same as the first
    # request and as a request on a cleared store; the swapped systems are
    # built once, outside the store
    from mipoly import chain, multi
    from mipoly.multi import MultiIndexedSystem, orthogonality_sum

    swapped = []
    monkeypatch.setattr(chain, "MultiIndexedSystem", lambda *args: swapped.append(args) or MultiIndexedSystem(*args))

    def request():
        p = FRESH[family]()
        rep = chain_verify(p, labels, n_max=2, x_max=8)
        o = orthogonality_sum(p, labels, 1, 1)
        return rep.to_dict(), _checks(rep), (o.partial_sum, o.tail_bound, o.terms, o.ratio_start, o.passed)

    monkeypatch.setattr(multi, "_SYSTEMS", {})
    first = request()
    assert len(swapped) == len(labels) - 1
    warm = request()
    assert len(swapped) == len(labels) - 1
    assert not any(key[1] in {args[1] for args in swapped} for key in multi._SYSTEMS)
    monkeypatch.setattr(multi, "_SYSTEMS", {})
    assert first == warm == request()
    assert first[0]["status"] == "pass" and first[2][-1]


def _reduced_tables(p, order, x) -> list:
    """Every level's eigen tuple and every step's two shift triples at x."""
    prefix = [system(p, order[:s]) for s in range(len(order) + 1)]
    out = [tuple(_level(pre).eigen(x)) for pre in prefix]
    for pre, v in zip(prefix, order):
        out += [tuple(t) for t in _step_shifts(pre, v)(x)]
    return out


@pytest.mark.parametrize("p", [M, QJ, QL], ids=repr)
def test_level_and_step_tables_are_content_reduced(monkeypatch, p):
    # each kept tuple is the pair_common tuple divided by its positive
    # content: content 1 (or all zero), proportional to the unreduced tuple
    # by cross-multiplication, with the same signs
    from math import gcd

    from mipoly import chain, families, multi

    order, xs = (1, 2, 3), range(-2, 13)
    monkeypatch.setattr(multi, "_SYSTEMS", {})
    reduced = [_reduced_tables(p, order, x) for x in xs]
    monkeypatch.setattr(multi, "_SYSTEMS", {})
    for module in (chain, families):  # the step tables, and the eigen tables of `families._operator`
        monkeypatch.setattr(module, "primitive", lambda entries: entries)
    unreduced = [_reduced_tables(p, order, x) for x in xs]
    sgn = lambda t: [(e > 0) - (e < 0) for e in t]
    shortened = 0
    for rs, us in zip(reduced, unreduced):
        for r, u in zip(rs, us):
            assert gcd(*r) == 1 or not any(r)
            assert all(a * d == b * c for a, c in zip(r, u) for b, d in zip(r, u))
            assert sgn(r) == sgn(u)
            shortened += r != u
    assert shortened > len(xs) * len(reduced[0]) // 2
