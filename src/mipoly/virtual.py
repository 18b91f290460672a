"""Virtual states: polynomial solutions below the ground state.

Each system carries a parameter involution (``twisted()``) under which the
potentials satisfy, for constants alpha > 0 and alpha' < 0 and for all x,

    alpha^2 B'(x) D'(x+1) = B(x) D(x+1),
    alpha (B'(x) + D'(x)) + alpha' = B(x) + D(x),

where B', D' are the potentials at twisted parameters: A^dagger A of (B, D)
is alpha A'^dagger A' + alpha' of (B', D'), and `verify_linear_relation`
compares the two forms (`families._same_form`) once, in the lattice variable
w: B, D, B', D' are rational in w with denominators that are powers of w and
nonzero constants, none zero at a lattice point, so forms equal in Q(w) are
equal at every x.  So the
twisted eigenpolynomials xi_v(x) = P_v(x; twisted parameters) solve the
original difference equation with negative energies tE_v = alpha E'_v +
alpha' (closed forms on the family: p.alpha(), p.alpha_prime(),
p.virtual_energy(v)), and -- on the valid parameter window -- are strictly positive on the
whole lattice.  Positivity is certified on 0..x_max (as are the signs of B', D'),
one check naming its first failing x, by rearranged series whose terms are
individually nonnegative, evaluated term by term in exact arithmetic.  Each
family states the series' first term and step factors in closed form, as
unreduced pairs of the `series` kernel (`xi_series`); `xi_series_terms` folds
them, each term the previous one times its step factor, reduced once when it
is returned.  The series value is required to coincide with the
twisted-polynomial route, so the certificate is also an independent
evaluation of xi_v.

The label set: every v >= 1 for M; for the q systems only v with a < q^v
keep the required factors positive, so the set (up to p.v_max()) is finite, and
empty when a >= q.  v = 0 is admitted as the constant xi_0 = 1 where a caller
explicitly needs it.
"""

from __future__ import annotations

from .families import _BaseFamily, _adag_a, _at_w, _for_all_x, _pairs, _same_form
from .polynomials import Polynomial
from .report import Report
from .series import pair_product, pair_value


def index_set(p: _BaseFamily, cap: int) -> list[int]:
    """Admissible labels v in 1..cap.  Empty for q systems with a >= q."""
    vm = p.v_max()
    top = cap if vm is None else min(cap, vm)
    return list(range(1, top + 1))


def xi_value(p: _BaseFamily, v: int, x):
    """xi_v at lattice point x, by the twisted-polynomial route."""
    return p.twisted().poly_value(v, x)


def xi_poly(p: _BaseFamily, v: int) -> Polynomial:
    """xi_v as a degree-v polynomial in eta."""
    return p.twisted().poly(v)


def xi_series_terms(p: _BaseFamily, v: int, x: int) -> list:
    """Terms of a rearranged series for xi_v(x), each provably nonnegative.

    Each family states the series in closed form (`xi_series`), as its first
    term and its step factors in unreduced pairs: for M every term is a
    product of rising factorials of positive numbers, for lqJ (lqL is its
    b = 0 case) of factors (1 - u) with u < 1 on the valid window a < q^v,
    b < 1/q.  Each term is the running pair times the next step, returned
    reduced.  The sum must reproduce xi_value exactly, so this doubles as an
    independent evaluation.
    """
    t, steps = p.xi_series(v, x)
    terms = [pair_value(*t)]
    for step in steps:
        t = pair_product(t, step)
        terms.append(pair_value(*t))
    return terms


def positivity_certificate(p: _BaseFamily, v: int, x_max: int) -> Report:
    """Certify xi_v(x) > 0 for 0 <= x <= x_max by the nonnegative-term series,
    and tE_v < 0.  Exact; no tolerance anywhere."""
    rep = Report(f"virtual.positivity[{p!r},v={v}]", "positivity of xi_v and negativity of tE_v")
    rep.add(f"tE_{v} < 0", p.virtual_energy(v) < 0)
    # (x, series terms, twisted value) at each x, computed once for the three checks
    points = [(x, xi_series_terms(p, v, x), xi_value(p, v, x)) for x in range(x_max + 1)]
    nonneg, agree = (lambda pt: all(t >= 0 for t in pt[1])), (lambda pt: sum(pt[1]) == pt[2])
    rep.every("terms nonnegative", points, nonneg, lambda pt: f"x={pt[0]}, terms={pt[1]}")
    rep.every("series equals twisted route", points, agree, lambda pt: f"x={pt[0]}, {sum(pt[1])} != {pt[2]}")
    rep.every("value positive", points, lambda pt: pt[2] > 0, lambda pt: f"x={pt[0]}")
    return rep


def verify_linear_relation(p: _BaseFamily, x_max: int) -> Report:
    """The two potential identities tying twisted to original parameters (one
    comparison of two forms, for every x: `families._for_all_x`), positivity
    of B', D' and the nu gauge recurrence on 0..x_max, and the virtual energy
    cross-route tE_v = alpha E'_v + alpha'."""
    rep = Report(f"virtual.linear-relation[{p!r}]", "linear relation between twisted and original potentials")
    al, ap = p.alpha(), p.alpha_prime()
    tw = p.twisted()
    rep.add("alpha > 0", al > 0)
    rep.add("alpha' < 0", ap < 0)
    rep.add("alpha' = tE_0", ap == p.virtual_energy(0))

    def forms(w):
        B, D, B_tw, D_tw = _at_w(p, w, p.B_w, p.D_w, tw.B_w, tw.D_w)
        return _same_form(_adag_a(_pairs(B), _pairs(D), 0), _adag_a(_pairs(B_tw, al), _pairs(D_tw, al), ap))

    _for_all_x(rep, "product identity for all x", p, lambda w: forms(w)[1](0))
    _for_all_x(rep, "sum identity for all x", p, lambda w: forms(w)[0](0))
    xs = range(x_max + 1)
    rep.every("B'(x) > 0", xs, lambda x: tw.B(x) > 0)
    rep.every("D'(x) sign", xs, lambda x: tw.D(x) > 0 if x >= 1 else tw.D(x) == 0)
    rep.every("nu recurrence", xs, lambda x: p.nu(x + 1) * al * tw.B(x) == p.nu(x) * p.B(x))
    for vv in index_set(p, 4):
        cross = al * tw.energy(vv) + ap == p.virtual_energy(vv)
        rep.add(f"energy cross-route v={vv}", cross)
    return rep
