"""Twisted (virtual-state) polynomials: energies, positivity, linear relation."""

from fractions import Fraction as F

import pytest

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
