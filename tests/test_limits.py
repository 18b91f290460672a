"""Limit checks: exact c -> 1 for the Meixner side, certified numeric q -> 1."""

from fractions import Fraction as F

from mipoly.classical import laguerre, laguerre_at_zero
from mipoly.limits import (
    meixner_limit_exact,
    meixner_xi_limit_poly,
    q_limit_errors,
    q_limit_extrapolated_error,
    q_limit_numeric,
    verify_meixner_limits,
    verify_q_limits,
)
from mipoly.polynomials import Polynomial


def test_exact_limit_frozen_examples():
    assert meixner_limit_exact(0, (), 1) == Polynomial((1, -1))  # 1 - eta
    assert meixner_xi_limit_poly(0, 1) == Polynomial((1, 1))  # 1 + eta


def test_exact_limits_hit_laguerre_targets():
    for alpha in (F(0), F(3, 2)):
        for n in range(4):
            target = laguerre(alpha, n).scalar_div(laguerre_at_zero(alpha, n))
            assert meixner_limit_exact(alpha, (), n) == target
        for v in range(1, 4):
            target = laguerre(alpha, v).scale_argument(F(-1)).scalar_div(
                laguerre_at_zero(alpha, v)
            )
            assert meixner_xi_limit_poly(alpha, v) == target


def test_exact_multi_limits_exist_with_full_degree():
    for labels in ((1,), (1, 2)):
        ell = sum(labels) - len(labels) * (len(labels) - 1) // 2
        for n in range(3):
            got = meixner_limit_exact(F(3, 2), labels, n)
            assert got.degree == ell + n
            assert got.constant_term == 1


def test_verify_meixner_limits_report():
    rep = verify_meixner_limits(F(3, 2))
    assert rep.passed, rep.failures()[:3]


def test_q_errors_halve():
    errs = q_limit_errors("lqL", 4, None, 2, ks=(8, 9, 10, 11))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    for a, b in zip(errs, errs[1:]):
        assert F(2, 5) <= b / a <= F(3, 5)


def test_extrapolation_beats_raw_error():
    raw = q_limit_errors("lqJ", 4, 5, 3, ks=(12,))[0]
    ext = q_limit_extrapolated_error("lqJ", 4, 5, 3, 12)
    assert ext < raw / 100
    assert ext <= F(1, 10**6)


def test_verify_q_limits_both_families():
    for fam, alpha, beta in (("lqJ", 4, 5), ("lqL", 4, None)):
        rep = verify_q_limits(fam, alpha, beta)
        assert rep.passed, rep.failures()[:3]


def test_q_limit_numeric_multi_indexed_stabilizes():
    assert q_limit_numeric("lqJ", 4, 5).passed
    assert q_limit_numeric("lqL", 4).passed
