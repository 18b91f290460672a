"""Step-by-step state deletion: intermediate systems, signs, final match."""

import sys
from fractions import Fraction as F

from mipoly.chain import Chain, ChainState, chain_build, chain_verify
from mipoly.families import LittleQJacobi, LittleQLaguerre, Meixner
from mipoly.multi import system

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


def test_sign_closed_form_matches_recursion():
    for p, order in ((M, (1, 2, 3)), (M, (3, 1, 2)), (QL, (2, 1)), (QJ, (1, 3, 2))):
        ch = Chain(p, order)
        for s in range(len(ch.order) + 1):
            assert ch.sign_closed(s) == ch.sign_recursive(s) in (-1, 1)


def test_definite_sign_of_casoratian_weights():
    # the pair-inversion product of removed energies fixes the sign of w_s on
    # the lattice; sign_closed carries an extra (-1)^s bookkeeping factor
    for p, order in ((M, (2, 1, 3)), (QL, (1, 2))):
        ch = Chain(p, order)
        te = [ch.tilde_energy(d) for d in ch.order]
        for s in range(len(ch.order) + 1):
            sigma = 1
            for i in range(s):
                for j in range(i + 1, s):
                    sigma *= 1 if te[i] > te[j] else -1
            assert ch.sign_closed(s) == (-1) ** s * sigma
            for x in range(10):
                assert sigma * ch.w(s)(x) > 0


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


def test_corrupted_casoratian_fails_exactly_the_checks_that_read_it(monkeypatch):
    # w''_{1,1} off by one at x = 3 must break every identity that reads it,
    # and only those; each failure names a lattice point
    original = Chain.wpp

    def corrupted(self, s, n):
        grid = original(self, s, n)
        if (s, n) == (1, 1) and 3 not in grid.cache:
            grid.cache[3] = grid.fn(3) + 1
        return grid

    monkeypatch.setattr(Chain, "wpp", corrupted)
    expected = [
        "eigen eigen-identity s=1,n=1",
        "nesting (eigen) s=0,n=1",
        "contiguity (eigen) s=0,n=1",
        "nesting (eigen) s=1,n=1",
        "contiguity (eigen) s=1,n=1",
    ]
    for p in (M, QJ):
        failures = chain_verify(p, (1, 2), n_max=2, x_max=8).failures()
        assert [c.name for c in failures] == expected
        assert all(c.witness.startswith("x=") for c in failures)


def test_chain_verify_computes_shared_coefficients_once(monkeypatch):
    # the level tables share B', D' and the tilde-energies across companion
    # columns, checks and n; at most a few evaluations per (s, x) remain
    from mipoly import multi
    from mipoly.families import _BaseFamily

    calls = {"Bprime": 0, "Dprime": 0, "virtual_energy": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(_BaseFamily, "Bprime", counting("Bprime", _BaseFamily.Bprime))
    monkeypatch.setattr(_BaseFamily, "Dprime", counting("Dprime", _BaseFamily.Dprime))
    virtual_energy = Meixner.virtual_energy

    def chain_virtual_energy(*args):
        # the chain's own tilde-energies; the final match's system has its own
        if sys._getframe(1).f_globals["__name__"] == "mipoly.chain":
            calls["virtual_energy"] += 1
        return virtual_energy(*args)

    monkeypatch.setattr(Meixner, "virtual_energy", chain_virtual_energy)
    monkeypatch.setattr(multi, "_SYSTEMS", {})  # cold: the final match builds its system
    assert chain_verify(Meixner(1, F(1, 2)), (1, 2, 3), n_max=3, x_max=12).passed
    assert calls["Bprime"] < 200
    assert calls["Dprime"] < 100
    assert calls["virtual_energy"] < 20
