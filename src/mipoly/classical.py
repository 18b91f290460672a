"""Classical Laguerre and Jacobi polynomials over exact rationals.

These are the continuum targets of the parameter limits.  Both are built
from explicit finite sums with generalized binomial coefficients, which stay
well defined for negative (even negative-integer) parameters -- the twisted
limit targets need exactly that regime, where hypergeometric forms with
parameter-dependent denominators break down.

  laguerre(a, n):  L_n(x) = sum_k (-1)^k C(n+a, n-k) x^k / k!
  jacobi(a, b, n): P_n(z) = sum_s C(n+a, n-s) C(n+b, s)
                                  ((z-1)/2)^s ((z+1)/2)^(n-s)

Special values used for normalization:
  L_n(0) = (a+1)_n / n!,   P_n(1) = (a+1)_n / n!,
  P_n(-1) = (-1)^n (b+1)_n / n!.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Polynomial
from .series import pochhammer


def binomial_general(top, k: int) -> Fraction:
    """C(top, k) = top (top-1) ... (top-k+1) / k! for any exact scalar top."""
    if k < 0:
        raise ValueError("binomial needs k >= 0")
    num, den = Fraction(1), Fraction(1)
    for i in range(k):
        num *= top - i
        den *= i + 1
    return num / den


def laguerre(a, n: int) -> Polynomial:
    """L_n with parameter a, exact over Fraction."""
    a = Fraction(a)
    coeffs = []
    fact = Fraction(1)
    for k in range(n + 1):
        if k:
            fact *= k
        c = binomial_general(n + a, n - k) / fact
        coeffs.append(-c if k % 2 else c)
    return Polynomial(coeffs)


def laguerre_at_zero(a, n: int) -> Fraction:
    return pochhammer(Fraction(a) + 1, n) / pochhammer(Fraction(1), n)


def jacobi(a, b, n: int) -> Polynomial:
    """P_n with parameters (a, b), exact over Fraction."""
    a, b = Fraction(a), Fraction(b)
    half_minus = Polynomial((Fraction(-1, 2), Fraction(1, 2)))  # (z-1)/2
    half_plus = Polynomial((Fraction(1, 2), Fraction(1, 2)))  # (z+1)/2
    minus_pows, plus_pows = [Polynomial((1,))], [Polynomial((1,))]
    for _ in range(n):
        minus_pows.append(minus_pows[-1] * half_minus)
        plus_pows.append(plus_pows[-1] * half_plus)
    total = Polynomial()
    for s in range(n + 1):
        c = binomial_general(n + a, n - s) * binomial_general(n + b, s)
        total = total + c * minus_pows[s] * plus_pows[n - s]
    return total
