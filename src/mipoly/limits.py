"""Parameter limits connecting the lattice systems to Laguerre and Jacobi.

Two kinds of limit are verified, each at one fixed statement.

Exact (system M): with c kept symbolic as a rational function, the
substitution eta -> eta/(1-c) followed by a coefficient-wise limit c -> 1
is an exact computation; targets are normalized Laguerre polynomials.  The
same pipeline applies to the twisted deforming polynomials (target Laguerre
at negated argument) and to whole multi-indexed polynomials, whose limits
are checked to exist with full degree and unit constant term.
`verify_meixner_limits` checks P_n for n <= 4, xi_v for v <= 3, and
P_{D,n} for D = {1} and {1,2} with n <= 2.

Certified numeric (systems lqJ, lqL): a = q^alpha (and b = q^beta) with
integer exponents keeps everything rational at each fixed q, so the
deviation from the Jacobi/Laguerre target is an exact Fraction for every
q_k = 1 - 2^-k.  Convergence is first order: the deviation behaves like
C (1 - q) with C growing with the degree, so at q = 1 - 2^-14 the raw
deviation sits near 1e-4 and no parameter choice pushes it to 1e-6.  The
tolerance is therefore imposed on the iterated Richardson extrapolation of
the values at q_{k-2}, q_{k-1}, q_k (`_richardson`), which cancels the
first- and second-order terms and converges like (1 - q)^3, while the raw
deviations must halve from one q_k to the next (ratios within [2/5, 3/5])
to certify the claimed O(1-q) rate rather than accidental smallness.
`verify_q_limits` checks P_n for n <= 4 and xi_v for v <= 3: the
extrapolated error at k = 14 within 1e-6, the ratios over k = 11..14, from
one family per q_k and one rescaled polynomial per degree and q_k.
`q_limit_errors` and `q_limit_extrapolated_error` compute the same two
numbers for one degree on their own.
Multi-indexed q-system polynomials have no in-scope continuum target; for
them the rescaled coefficients themselves are required to stabilize
(Cauchy behaviour with the same geometric rate): `q_limit_numeric` checks
P_{D,n} for D = {1}, n = 1 over k = 4..12.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .classical import jacobi, laguerre, laguerre_at_zero
from .families import LittleQJacobi, LittleQLaguerre, Meixner
from .multi import system as multi_system
from .polynomials import Polynomial
from .ratfunc import PoleError, RationalFunction, limit_at
from .report import Report
from .virtual import xi_poly


def _symbolic_meixner(alpha: Fraction) -> Meixner:
    t = RationalFunction.variable()
    return Meixner(Fraction(alpha) + 1, t)


def _limit_coefficients(poly: Polynomial) -> Polynomial:
    """Coefficient-wise limit c -> 1 of a polynomial over Q(c)."""
    return Polynomial([limit_at(co, Fraction(1)) for co in poly.coeffs])


def _scaled(poly: Polynomial, fam: Meixner) -> Polynomial:
    """Substitute eta -> eta/(1-c) symbolically."""
    one = Fraction(1)
    return poly.scale_argument(one / (one - fam.c))


def meixner_limit_exact(alpha, labels: Sequence[int], n: int) -> Polynomial:
    """lim_{c->1} of P_n(eta/(1-c)) (empty labels) or P_{D,n}(eta/(1-c))
    (nonempty) at beta = alpha+1, exactly."""
    fam = _symbolic_meixner(Fraction(alpha))
    labels = tuple(labels)
    poly = multi_system(fam, labels).multi_poly(n) if labels else fam.poly(n)
    return _limit_coefficients(_scaled(poly, fam))


def meixner_xi_limit_poly(alpha, v: int) -> Polynomial:
    """Same limit for the deforming polynomial xi_v."""
    fam = _symbolic_meixner(Fraction(alpha))
    return _limit_coefficients(_scaled(xi_poly(fam, v), fam))


def verify_meixner_limits(alpha) -> Report:
    """Exact limit checks for system M at beta = alpha + 1: P_n (n <= 4),
    xi_v (v <= 3) and P_{D,n} (D = {1}, {1,2}; n <= 2)."""
    alpha = Fraction(alpha)
    rep = Report(
        f"limits.M[alpha={alpha}]",
        "exact c -> 1 limits to (deformed) continuum polynomials",
    )
    for n in range(5):
        target = laguerre(alpha, n).scalar_div(laguerre_at_zero(alpha, n))
        got = meixner_limit_exact(alpha, (), n)
        rep.add(f"eigenpolynomial n={n}", got == target, "" if got == target else f"{got!r}")
    for v in range(1, 4):
        target = laguerre(alpha, v).scale_argument(Fraction(-1)).scalar_div(
            laguerre_at_zero(alpha, v)
        )
        got = meixner_xi_limit_poly(alpha, v)
        rep.add(f"deforming polynomial v={v}", got == target)
    for labels in ((1,), (1, 2)):
        ell = sum(labels) - len(labels) * (len(labels) - 1) // 2
        for n in range(3):
            try:
                got = meixner_limit_exact(alpha, labels, n)
            except PoleError:
                rep.add(f"multi-indexed D={list(labels)} n={n}", False, "coefficient diverges")
                continue
            ok = got.degree == ell + n and got.constant_term == 1
            rep.add(
                f"multi-indexed D={list(labels)} n={n} exists, degree {ell + n}, constant 1",
                ok,
                "" if ok else f"degree={got.degree}, constant={got.constant_term}",
            )
    return rep


# -- q -> 1 side -------------------------------------------------------------------


def _coeff_distance(p: Polynomial, r: Polynomial) -> Fraction:
    d = max(len(p.coeffs), len(r.coeffs))
    return max(
        (abs(Fraction(p.coefficient(k)) - Fraction(r.coefficient(k))) for k in range(d)),
        default=Fraction(0),
    )


def _q_family(p_family: str, alpha: int, beta: int | None, k: int):
    q = Fraction(2**k - 1, 2**k)
    if p_family == "lqJ":
        if beta is None:
            raise ValueError("lqJ needs beta")
        return LittleQJacobi(q**alpha, q**beta, q)
    if p_family == "lqL":
        return LittleQLaguerre(q**alpha, q)
    raise ValueError(f"unknown q system {p_family!r}")


def _q_lhs(p_family: str, fam, labels: tuple, n: int, deforming: bool) -> Polynomial:
    """The rescaled polynomial of `fam` (at q = 1 - 2^-k), as an exact
    eta-polynomial.

    lqJ rescaling is eta -> 1 - eta with no renormalization; lqL rescaling is
    eta -> 1 - (1-q) eta followed by division by the value at eta-argument 1.
    """
    if labels:
        poly = multi_system(fam, labels).multi_poly(n)
    elif deforming:
        poly = xi_poly(fam, n)
    else:
        poly = fam.poly(n)
    if p_family == "lqJ":
        return poly.compose(Polynomial((Fraction(1), Fraction(-1))))
    comp = poly.compose(Polynomial((Fraction(1), -(1 - fam.q))))
    return comp.scalar_div(poly(Fraction(1)))


def _q_target(p_family: str, alpha: int, beta: int | None, n: int, deforming: bool) -> Polynomial:
    """Normalized continuum target: Jacobi on [0,1] or Laguerre, degree n."""
    ta = -alpha if deforming else alpha
    if p_family == "lqJ":
        p = jacobi(ta, beta, n)
        return p.compose(Polynomial((Fraction(1), Fraction(-2)))).scalar_div(p(Fraction(-1)))
    return laguerre(ta, n).scalar_div(laguerre_at_zero(ta, n))


def q_limit_errors(
    p_family: str,
    alpha: int,
    beta: int | None,
    n: int,
    ks: Sequence[int],
    deforming: bool = False,
) -> list[Fraction]:
    """Exact coefficient-wise distances to the continuum target at each
    q = 1 - 2^-k.  p_family is "lqJ" or "lqL"; deforming switches to xi_v."""
    fams = [_q_family(p_family, alpha, beta, k) for k in ks]
    target = _q_target(p_family, alpha, beta, n, deforming)
    return [_coeff_distance(_q_lhs(p_family, fam, (), n, deforming), target) for fam in fams]


def _richardson(polys: Sequence[Polynomial]) -> Polynomial:
    """The iterated Richardson extrapolation h -> 0 of three polynomials at
    h, h/2 and h/4, h = 1 - q.

    Each coefficient deviates from its limit by a power series in h, so the
    tableau R[i][j] = (2^j R[i+1][j-1] - R[i][j-1]) / (2^j - 1), j = 1, 2,
    cancels the h and h^2 terms coefficient-wise, leaving O(h^3)."""
    d = max(len(p.coeffs) for p in polys)
    cols = [[Fraction(p.coefficient(m)) for m in range(d)] for p in polys]
    for j in (1, 2):
        w = Fraction(2**j)
        cols = [[(w * hi[m] - lo[m]) / (w - 1) for m in range(d)] for lo, hi in zip(cols, cols[1:])]
    return Polynomial(cols[0])


def q_limit_extrapolated_error(
    p_family: str,
    alpha: int,
    beta: int | None,
    n: int,
    k: int,
    deforming: bool = False,
) -> Fraction:
    """Exact distance of `_richardson` of the polynomials at k - 2, k - 1, k
    from the continuum target: an O(h^3) deviation that the tolerance check
    is applied to."""
    fams = [_q_family(p_family, alpha, beta, kk) for kk in range(k - 2, k + 1)]
    est = _richardson([_q_lhs(p_family, fam, (), n, deforming) for fam in fams])
    return _coeff_distance(est, _q_target(p_family, alpha, beta, n, deforming))


def q_limit_numeric(p_family: str, alpha: int, beta: int | None = None) -> Report:
    """q -> 1 behaviour of the rescaled multi-indexed polynomial P_{D,1},
    D = {1}, over q_k = 1 - 2^-k, k = 4..12.

    There is no in-scope continuum target, so the rescaled coefficients must
    be a fast Cauchy sequence (successive distances decreasing, the last two
    ratios within [1/4, 3/4]), i.e. they stabilize.  The base families'
    eigen and deforming limits, which have targets, are checked by
    `verify_q_limits`.
    """
    rep = Report(
        f"limits.{p_family}[alpha={alpha}"
        + (f",beta={beta}" if beta is not None else "")
        + ",D=[1],n=1]",
        "q -> 1 limit behaviour of one rescaled polynomial",
    )
    polys = [_q_lhs(p_family, _q_family(p_family, alpha, beta, k), (1,), 1, False) for k in range(4, 13)]
    diffs = [_coeff_distance(a, b) for a, b in zip(polys, polys[1:])]
    rep.add(
        "coefficient distances strictly decreasing",
        all(b < a for a, b in zip(diffs, diffs[1:])),
        f"diffs={[float(d) for d in diffs]}",
    )
    ratios = [diffs[i + 1] / diffs[i] for i in range(len(diffs) - 3, len(diffs) - 1) if diffs[i] != 0]
    rate_ok = all(Fraction(1, 4) <= r <= Fraction(3, 4) for r in ratios)
    rep.add(
        "stabilization at a geometric rate",
        rate_ok,
        "" if rate_ok else f"ratios={[float(r) for r in ratios]}",
    )
    return rep


def verify_q_limits(p_family: str, alpha: int, beta: int | None = None) -> Report:
    """Certified numeric q -> 1 limits of P_n (n <= 4) and xi_v (v <= 3):
    extrapolated error within 1e-6 at k = 14 and raw error ratios between
    consecutive q_k, k = 11..14, within [2/5, 3/5] (halving rate).

    The call builds one family per q_k, so every degree at that q_k shares
    the family's cache, and each rescaled polynomial once, for both the
    errors and the extrapolation: 4 families and 32 polynomials for the 8
    degrees."""
    rep = Report(
        f"limits.{p_family}[alpha={alpha}" + (f",beta={beta}" if beta is not None else "") + "]",
        "q -> 1 limits with certified linear convergence rate",
    )
    tol, lo, hi = Fraction(1, 10**6), Fraction(2, 5), Fraction(3, 5)
    families = [_q_family(p_family, alpha, beta, k) for k in range(11, 15)]
    jobs = [(n, False) for n in range(5)] + [(v, True) for v in range(1, 4)]
    for idx, deforming in jobs:
        label = f"{'deforming v' if deforming else 'eigen n'}={idx}"
        target = _q_target(p_family, alpha, beta, idx, deforming)
        polys = [_q_lhs(p_family, fam, (), idx, deforming) for fam in families]
        errs = [_coeff_distance(poly, target) for poly in polys]
        ext = _coeff_distance(_richardson(polys[1:]), target)
        final_ok = ext <= tol
        rep.add(
            f"{label}: |extrapolated error| <= 1e-06 at k=14",
            final_ok,
            "" if final_ok else f"error={float(ext):.3e}",
        )
        if all(e == 0 for e in errs):
            continue  # exact agreement (degree-0 cases); no rate to measure
        ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1) if errs[i] != 0]
        rate_ok = all(lo <= r <= hi for r in ratios)
        rep.add(
            f"{label}: convergence ratios in [0.4, 0.6]",
            rate_ok,
            "" if rate_ok else f"ratios={[float(r) for r in ratios]}",
        )
    return rep
