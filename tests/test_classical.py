"""Continuum targets: generalized binomials, Laguerre and Jacobi polynomials."""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from mipoly.classical import binomial_general, jacobi, laguerre, laguerre_at_zero
from mipoly.polynomials import Polynomial


def test_binomial_general_integer_oracle():
    for top in range(9):
        for k in range(9):
            assert binomial_general(top, k) == math.comb(top, k)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=8))
@settings(max_examples=40, deadline=None)
def test_binomial_negative_top_identity(s, k):
    assert binomial_general(-s, k) == (-1) ** k * math.comb(s + k - 1, k)


def test_laguerre_small_cases():
    a = F(1, 3)
    assert laguerre(a, 0) == Polynomial((1,))
    assert laguerre(a, 1) == Polynomial((1 + a, -1))
    # L_1 at a = -2 (degenerate negative integer parameter)
    assert laguerre(-2, 1) == Polynomial((-1, -1))
    assert laguerre_at_zero(a, 2) == binomial_general(a + 2, 2)


def test_laguerre_three_term_recurrence():
    a = F(2, 7)
    x = Polynomial((0, 1))
    for n in range(1, 7):
        lhs = laguerre(a, n + 1) * (n + 1)
        rhs = (Polynomial((2 * n + 1 + a,)) - x) * laguerre(a, n) - laguerre(a, n - 1) * (n + a)
        assert lhs == rhs


def test_laguerre_differential_recurrence():
    # L'_n = -L_{n-1}^(a+1): check via finite formal derivative
    a = F(3, 5)
    for n in range(1, 6):
        p = laguerre(a, n)
        deriv = Polynomial([k * p.coefficient(k) for k in range(1, p.degree + 1)])
        assert deriv == -laguerre(a + 1, n - 1)


def test_jacobi_three_term_recurrence():
    a, b = F(1, 3), F(2, 5)
    z = Polynomial((0, 1))
    for n in range(1, 6):
        c1 = 2 * (n + 1) * (n + a + b + 1) * (2 * n + a + b)
        c2 = (2 * n + a + b + 1) * (a * a - b * b)
        c3 = (2 * n + a + b) * (2 * n + a + b + 1) * (2 * n + a + b + 2)
        c4 = 2 * (n + a) * (n + b) * (2 * n + a + b + 2)
        lhs = jacobi(a, b, n + 1) * c1
        rhs = (Polynomial((c2,)) + z * c3) * jacobi(a, b, n) - jacobi(a, b, n - 1) * c4
        assert lhs == rhs


def test_jacobi_special_values():
    a, b = F(1, 2), F(3, 4)
    for n in range(6):
        assert jacobi(a, b, n)(F(1)) == binomial_general(n + a, n)
        assert jacobi(a, b, n)(F(-1)) == (-1) ** n * binomial_general(n + b, n)


def test_jacobi_symmetry():
    a, b = F(2, 3), F(1, 5)
    for n in range(6):
        p = jacobi(a, b, n)
        q = jacobi(b, a, n).scale_argument(F(-1))
        assert p == q.scalar_div(F((-1) ** n))


def test_degenerate_negative_integer_parameters():
    # deforming targets use negated integer parameters; degree can drop
    p = jacobi(-4, 5, 2)
    assert p.degree <= 2
    assert laguerre(-3, 2).degree == 2
    assert laguerre_at_zero(-3, 1) == -2
