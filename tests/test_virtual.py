"""Twisted (virtual-state) polynomials: energies, positivity, linear relation."""

from fractions import Fraction as F

import pytest
from conftest import fold

from mipoly.families import LittleQJacobi, LittleQLaguerre, Meixner
from mipoly.virtual import (
    index_set,
    positivity_certificate,
    verify_linear_relation,
    xi_poly,
    xi_series_terms,
    xi_value,
)

M = Meixner(1, F(1, 2))
QJ = LittleQJacobi(F(1, 32), F(1, 3), F(1, 2))
QL = LittleQLaguerre(F(1, 32), F(1, 2))
ALL = (M, Meixner(F(5, 2), F(1, 3)), QJ, LittleQJacobi(F(1, 32), F(-1, 2), F(1, 2)), QL)


def test_twist_is_an_involution_on_values():
    for p in ALL:
        tw = p.twisted().twisted()
        for x in range(5):
            assert tw.B(x) == p.B(x)
            assert tw.D(x) == p.D(x)


def test_frozen_virtual_energies():
    assert M.virtual_energy(1) == -1
    assert M.virtual_energy(2) == F(-3, 2)
    assert LittleQLaguerre(F(1, 8), F(1, 2)).virtual_energy(2) == F(-1, 2)


def test_virtual_energies_negative():
    for p in ALL:
        for v in index_set(p, 8):
            assert p.virtual_energy(v) < 0


def test_alpha_signs_and_energy_cross_route():
    for p in ALL:
        a, ap = p.alpha(), p.alpha_prime()
        assert a > 0 and ap < 0
        assert ap == p.virtual_energy(0)
        # the closed-form virtual energies agree with the twisted-route energies
        for v in range(5):
            assert p.virtual_energy(v) == a * p.twisted().energy(v) + ap


def test_index_sets_and_v_max():
    assert M.v_max() is None
    assert index_set(M, 8) == list(range(1, 9))
    assert QJ.v_max() == 4  # a = q^5: largest v with a < q^v
    assert LittleQJacobi(F(1, 16), F(1, 3), F(1, 2)).v_max() == 3
    assert LittleQLaguerre(F(1, 8), F(1, 2)).v_max() == 2
    assert index_set(LittleQLaguerre(F(1, 8), F(1, 2)), 8) == [1, 2]


def test_xi_frozen_polynomials():
    assert xi_poly(M, 1).coeffs == (F(1), F(1, 2))
    assert xi_poly(M, 2).coeffs == (F(1), F(7, 8), F(1, 8))
    assert xi_poly(M, 0).coeffs == (F(1),)
    for p in ALL:
        for v in range(4):
            assert xi_poly(p, v).degree == v
            assert xi_poly(p, v).constant_term == 1


def test_xi_value_routes_agree():
    for p in ALL:
        for v in index_set(p, 4):
            for x in range(6):
                assert xi_value(p, v, x) == xi_poly(p, v)(p.eta(x))


def test_xi_series_terms_certify_positivity():
    for p in ALL:
        for v in index_set(p, 4):
            for x in (0, 1, 5, 17):
                terms = xi_series_terms(p, v, x)
                assert all(t >= 0 for t in terms)
                assert sum(terms) == xi_value(p, v, x) > 0


def test_nu_values():
    assert M.nu(3) == F(1, 8)  # c^x
    assert QL.nu(2) == F(1, 32) ** 2  # a^x


def test_positivity_certificates():
    for p in ALL:
        for v in index_set(p, 5):
            rep = positivity_certificate(p, v, 40)
            assert rep.passed, rep.failures()[:3]


def test_linear_relation_reports():
    for p in ALL:
        rep = verify_linear_relation(p, 20)
        assert rep.passed, rep.failures()[:3]


def test_index_gating():
    # q-family labels above v_max are rejected by the index set
    assert 5 not in index_set(QJ, 10)
    with pytest.raises(ValueError):
        from mipoly.multi import _validate_labels

        _validate_labels(QL, (9,))


def fraction_linear_checks(p, x_max):
    """verify_linear_relation's checks as (name, passed, witness) rows, one
    per x of each identity and sign (`fold` folds them), with the identities
    written out in Fractions."""
    al, ap, tw = p.alpha(), p.alpha_prime(), p.twisted()
    out = [("alpha > 0", al > 0, ""), ("alpha' < 0", ap < 0, ""), ("alpha' = tE_0", ap == p.virtual_energy(0), "")]
    for x in range(x_max + 1):
        out += [
            ("product identity for all x", al**2 * tw.B(x) * tw.D(x + 1) == p.B(x) * p.D(x + 1), f"x={x}"),
            ("sum identity for all x", al * (tw.B(x) + tw.D(x)) + ap == p.B(x) + p.D(x), f"x={x}"),
            ("B'(x) > 0", tw.B(x) > 0, f"x={x}"),
            ("D'(x) sign", tw.D(x) > 0 if x >= 1 else tw.D(x) == 0, f"x={x}"),
            ("nu recurrence", p.nu(x + 1) * al * tw.B(x) == p.nu(x) * p.B(x), f"x={x}"),
        ]
    for v in index_set(p, 4):
        out.append((f"energy cross-route v={v}", al * tw.energy(v) + ap == p.virtual_energy(v), ""))
    return out


def spoilt_family(p, name, x0):
    """A family equal to p but for B_w or D_w (name "B" or "D"), 1/7 too
    large at w(x0) and exact at the other w(x), x in -1..14, by a polynomial
    in the lattice variable w; for M, whose B and D are B_w and D_w, in those
    as well.  It is an instance of a subclass, so its moves (twisted among
    them) build the sound class."""
    a0, b0 = p.eta_affine(0)
    lattice_w = lambda x: (p.eta(x) - a0) / b0  # eta(x) = a0 + b0 w
    nodes = [lattice_w(x) for x in range(-1, 15) if x != x0]
    original = getattr(type(p), name + "_w")

    def spoilt(self, w, _f=original):
        out = F(1, 7)
        for v in nodes:
            out = out * (w - v) / (lattice_w(x0) - v)
        return _f(self, w) + out

    class Spoilt(type(p)):
        __slots__ = ()

    setattr(Spoilt, name + "_w", spoilt)
    if getattr(type(p), name) is original:
        setattr(Spoilt, name, spoilt)
    return Spoilt(*p._key())


@pytest.mark.parametrize("how", [None, ("B", 3), ("B", 0), ("D", 3)], ids=["sound", "B(3)", "B(0)", "D(3)"])
@pytest.mark.parametrize(
    "make",
    [
        lambda: Meixner(1, F(1, 2)),
        lambda: LittleQJacobi(F(1, 32), F(1, 3), F(1, 2)),
        lambda: LittleQLaguerre(F(1, 32), F(1, 2)),
    ],
    ids=["M", "lqJ", "lqL"],
)
def test_linear_relation_pair_checks_match_their_fraction_form(make, how):
    # the product and sum identities are one comparison of two forms, each
    # decided once for every x, and the B', D' signs and the nu recurrence
    # are one check each on 0..12; each passes exactly when its Fraction
    # form written out here holds at every x in 0..12, and names its first
    # failing x, for the sound family and for one whose B or D is wrong at
    # one lattice point
    p = make() if how is None else spoilt_family(make(), *how)
    got = [(c.name, c.passed, c.witness) for c in verify_linear_relation(p, 12).checks]
    expected = fold(fraction_linear_checks(p, 12))
    assert got == expected
    assert all(passed for _, passed, _ in expected) == (how is None)
