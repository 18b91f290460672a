"""Exact construction and machine verification of multi-indexed orthogonal
polynomials on semi-infinite integer lattices.

Three exactly solvable base systems (M, lqJ, lqL) are deformed by deleting
virtual states through Casoratian determinants; everything -- polynomials,
potentials, weights, norms, eigen-equations, orthogonality, and classical
limits -- is computed and checked in exact rational arithmetic (with
certified interval enclosures where a value is irrational).
"""

from .casoratian import LatticeFunction, exact_det, verify_identities
from .chain import Chain, ChainState, chain_build, chain_verify
from .classical import binomial_general, jacobi, jacobi_at, laguerre, laguerre_at_zero
from .families import (
    FAMILIES,
    LittleQJacobi,
    LittleQLaguerre,
    Meixner,
    backward_shift_apply,
    dn_sq,
    energy,
    eta,
    forward_shift_apply,
    phi0_sq,
    polynomial_coeffs,
    polynomial_value,
    potential_B,
    potential_D,
    rodrigues_vector,
    varphi,
    verify_difference_equation,
    verify_shift_relations,
)
from .limits import (
    meixner_limit_exact,
    q_limit_errors,
    q_limit_numeric,
    verify_meixner_limits,
    verify_q_limits,
)
from .multi import (
    MultiIndexedSystem,
    OrthogonalityResult,
    denominator_poly,
    deformed_potentials,
    leading_coefficients,
    multi_poly,
    orthogonality_sum,
    system,
    tilde_delta,
    varphi_M,
    verify_eigen_equation,
    verify_multi_structure,
    verify_shape_invariance,
    verify_special_identities,
    weight,
)
from .polynomials import Polynomial, interpolate
from .ratfunc import PoleError, RationalFunction, limit_at
from .report import Report
from .series import Interval, DEFAULT_EPS, pochhammer, q_pochhammer, rational_power
from .virtual import (
    alpha_constants,
    index_set,
    nu,
    positivity_certificate,
    twist,
    v_max,
    virtual_energy,
    verify_linear_relation,
    xi_poly,
    xi_value,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "Meixner",
    "LittleQJacobi",
    "LittleQLaguerre",
    "MultiIndexedSystem",
    "OrthogonalityResult",
    "Chain",
    "ChainState",
    "Polynomial",
    "RationalFunction",
    "PoleError",
    "Interval",
    "Report",
    "LatticeFunction",
    "DEFAULT_EPS",
    "pochhammer",
    "q_pochhammer",
    "rational_power",
    "interpolate",
    "limit_at",
    "potential_B",
    "potential_D",
    "energy",
    "eta",
    "varphi",
    "phi0_sq",
    "polynomial_value",
    "polynomial_coeffs",
    "dn_sq",
    "forward_shift_apply",
    "backward_shift_apply",
    "rodrigues_vector",
    "verify_difference_equation",
    "verify_shift_relations",
    "twist",
    "alpha_constants",
    "virtual_energy",
    "v_max",
    "index_set",
    "xi_value",
    "xi_poly",
    "nu",
    "positivity_certificate",
    "verify_linear_relation",
    "exact_det",
    "verify_identities",
    "varphi_M",
    "system",
    "tilde_delta",
    "denominator_poly",
    "multi_poly",
    "leading_coefficients",
    "deformed_potentials",
    "weight",
    "verify_multi_structure",
    "verify_eigen_equation",
    "verify_shape_invariance",
    "verify_special_identities",
    "orthogonality_sum",
    "chain_build",
    "chain_verify",
    "binomial_general",
    "laguerre",
    "laguerre_at_zero",
    "jacobi",
    "jacobi_at",
    "meixner_limit_exact",
    "q_limit_errors",
    "q_limit_numeric",
    "verify_meixner_limits",
    "verify_q_limits",
]
