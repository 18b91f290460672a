"""Virtual states: polynomial solutions below the ground state.

Each system carries a parameter involution (``twisted()``) under which the
potentials satisfy, for constants alpha > 0 and alpha' < 0 and for all x,

    alpha^2 B'(x) D'(x+1) = B(x) D(x+1),
    alpha (B'(x) + D'(x)) + alpha' = B(x) + D(x),

where B', D' are the potentials at twisted parameters.  Consequently the
twisted eigenpolynomials xi_v(x) = P_v(x; twisted parameters) solve the
original difference equation with negative energies tE_v = alpha E'_v +
alpha' (closed forms on the family: p.alpha(), p.alpha_prime(),
p.virtual_energy(v)), and -- on the valid parameter window -- are strictly positive on the
whole lattice.  Positivity is certified by rearranged series whose terms are
individually nonnegative, evaluated term by term in exact arithmetic; the
series value is required to coincide with the twisted-polynomial route, so
the certificate is also an independent evaluation of xi_v.

The label set: every v >= 1 for M; for the q systems only v with a < q^v
keep the required factors positive, so the set (up to p.v_max()) is finite (possibly empty,
with a warning).  v = 0 is admitted as the constant xi_0 = 1 where a caller
explicitly needs it.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .families import Meixner, _BaseFamily
from .polynomials import Polynomial
from .ratfunc import RationalFunction
from .report import Report
from .series import pochhammer, q_pochhammer

__all__ = [
    "index_set",
    "xi_value",
    "xi_poly",
    "xi_series_terms",
    "positivity_certificate",
    "verify_linear_relation",
]


def index_set(p: _BaseFamily, cap: int) -> list[int]:
    """Admissible labels v in 1..cap.  Empty for q systems with a >= q."""
    vm = p.v_max()
    top = cap if vm is None else min(cap, vm)
    if vm == 0:
        warnings.warn(f"no admissible virtual states for {p!r} (a >= q)")
    return list(range(1, top + 1))


def xi_value(p: _BaseFamily, v: int, x):
    """xi_v at lattice point x, by the twisted-polynomial route."""
    return p.twisted().poly_value(v, x)


def xi_poly(p: _BaseFamily, v: int) -> Polynomial:
    """xi_v as a degree-v polynomial in eta."""
    return p.twisted().poly(v)


def xi_series_terms(p: _BaseFamily, v: int, x: int) -> list:
    """Terms of a rearranged series for xi_v(x), each provably nonnegative.

    For M every term is a product of rising factorials of positive numbers
    times (1-c)^k.  For lqJ (lqL is its b = 0 case) the k-th term and the
    overall prefactor are products of factors (1 - u) with u < 1 on the
    valid window a < q^v, b < 1/q.  The sum must reproduce
    xi_value exactly, so this doubles as an independent evaluation.
    """
    if isinstance(p, Meixner):
        one = p.c / p.c if isinstance(p.c, RationalFunction) else Fraction(1)
        terms = []
        for k in range(min(v, x) + 1):
            t = (
                one
                * pochhammer(v - k + 1, k)
                * pochhammer(x - k + 1, k)
                / pochhammer(p.beta, k)
                * (1 - p.c) ** k
                / pochhammer(Fraction(1), k)
            )
            terms.append(t)
        return terms
    a, b, q = p.a, p.b, p.q
    pref = (
        q_pochhammer(a * q**-v, q, v)
        * q_pochhammer(b * q ** (x + 1), q, v)
        / q_pochhammer(b * q, q, v)
    )
    terms = []
    for k in range(v + 1):
        t = (
            pref
            * q_pochhammer(q ** (v - k + 1), q, k)
            * q_pochhammer(b * q ** (v - k + 1), q, k)
            / (
                q_pochhammer(a * q**-k, q, k)
                * q_pochhammer(b * q ** (v - k + 1 + x), q, k)
                * q_pochhammer(q, q, k)
            )
            * (a * q ** (x - v)) ** k
        )
        terms.append(t)
    return terms


def positivity_certificate(p: _BaseFamily, v: int, x_max: int) -> Report:
    """Certify xi_v(x) > 0 for 0 <= x <= x_max by the nonnegative-term series,
    and tE_v < 0.  Exact; no tolerance anywhere."""
    rep = Report(f"virtual.positivity[{p!r},v={v}]", "positivity of xi_v and negativity of tE_v")
    rep.add(f"tE_{v} < 0", p.virtual_energy(v) < 0)
    for x in range(x_max + 1):
        terms = xi_series_terms(p, v, x)
        val = xi_value(p, v, x)
        nonneg = all(t >= 0 for t in terms)
        agree = sum(terms) == val
        rep.add(f"x={x} terms nonnegative", nonneg, "" if nonneg else f"terms={terms}")
        rep.add(f"x={x} series equals twisted route", agree, "" if agree else f"{sum(terms)} != {val}")
        rep.add(f"x={x} value positive", val > 0)
    return rep


def verify_linear_relation(p: _BaseFamily, x_max: int) -> Report:
    """The two potential identities tying twisted to original parameters,
    positivity of B', D', the nu gauge recurrence, and the virtual energy
    cross-route tE_v = alpha E'_v + alpha'."""
    rep = Report(f"virtual.linear-relation[{p!r}]", "linear relation between twisted and original potentials")
    al, ap = p.alpha(), p.alpha_prime()
    tw = p.twisted()
    rep.add("alpha > 0", al > 0)
    rep.add("alpha' < 0", ap < 0)
    rep.add("alpha' = tE_0", ap == p.virtual_energy(0))
    for x in range(x_max + 1):
        prod_ok = al**2 * tw.B(x) * tw.D(x + 1) == p.B(x) * p.D(x + 1)
        sum_ok = al * (tw.B(x) + tw.D(x)) + ap == p.B(x) + p.D(x)
        rep.add(f"product identity x={x}", prod_ok)
        rep.add(f"sum identity x={x}", sum_ok)
        rep.add(f"B'(x) > 0 x={x}", tw.B(x) > 0)
        rep.add(f"D'(x) sign x={x}", tw.D(x) > 0 if x >= 1 else tw.D(x) == 0)
        rep.add(f"nu recurrence x={x}", p.nu(x + 1) * al * tw.B(x) == p.nu(x) * p.B(x))
    for w in (Fraction(3, 5), Fraction(7, 4)):
        w1 = p.step_w(w, 1)
        rep.add(f"product identity w={w}", al**2 * tw.B_w(w) * tw.D_w(w1) == p.B_w(w) * p.D_w(w1))
        rep.add(f"sum identity w={w}", al * (tw.B_w(w) + tw.D_w(w)) + ap == p.B_w(w) + p.D_w(w))
    for vv in index_set(p, 4):
        cross = al * tw.energy(vv) + ap == p.virtual_energy(vv)
        rep.add(f"energy cross-route v={vv}", cross)
    return rep
