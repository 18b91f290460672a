"""Limit checks: exact c -> 1 for the Meixner side, certified numeric q -> 1."""

import hashlib
from fractions import Fraction as F

from mipoly import limits
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


def test_q_limits_build_each_family_and_polynomial_once(monkeypatch):
    # one family per q_k (k = 11..14) and one rescaled polynomial per degree
    # and q_k: 8 degrees x 4 values of k
    counts = {"_q_family": 0, "_q_lhs": 0}
    for name in counts:
        original = getattr(limits, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(limits, name, counted)
    assert verify_q_limits("lqJ", 4, 5).passed
    assert counts == {"_q_family": 4, "_q_lhs": 32}


def test_q_limit_values_are_pinned():
    # sha256 of the exact p/q strings of the errors at k = 11..14 and the
    # extrapolated error at k = 14, as built with a fresh family per polynomial
    pinned = {
        (2, False): "1af8ceecf0f7a6f8ff4db16fc71136f63bbbf7eb618d0b3e48b00a853f9f0f29",
        (3, True): "b3a2c615429102e8bb31526e568aacbb92c5077dfdeca21b1b9396fe1117d7fb",
    }
    for (n, deforming), digest in pinned.items():
        values = [
            *q_limit_errors("lqJ", 4, 5, n, range(11, 15), deforming),
            q_limit_extrapolated_error("lqJ", 4, 5, n, 14, deforming),
        ]
        assert hashlib.sha256(",".join(map(str, values)).encode()).hexdigest() == digest
