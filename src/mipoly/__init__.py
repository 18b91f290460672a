"""Exact construction and machine verification of multi-indexed orthogonal
polynomials on semi-infinite integer lattices.

Exactly solvable base systems -- Meixner (M) and little q-Jacobi (lqJ),
with little q-Laguerre (lqL) its b = 0 case -- are deformed by deleting
virtual states through Casoratian determinants; everything -- polynomials,
potentials, weights, norms, eigen-equations, orthogonality, and classical
limits -- is computed and checked in exact rational arithmetic (with
certified interval enclosures where a value is irrational).
"""

from .casoratian import LatticeFunction, exact_det, verify_identities
from .chain import ChainState, chain_build, chain_verify
from .classical import binomial_general, jacobi, jacobi_at, laguerre, laguerre_at_zero
from .families import (
    FAMILIES,
    LittleQJacobi,
    LittleQLaguerre,
    Meixner,
    backward_shift_apply,
    forward_shift_apply,
    rodrigues_vector,
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
    orthogonality_sum,
    system,
    tilde_delta,
    verify_eigen_equation,
    verify_multi_structure,
    verify_orthogonality,
    verify_shape_invariance,
    verify_special_identities,
)
from .polynomials import Polynomial, interpolate
from .ratfunc import PoleError, RationalFunction, limit_at
from .report import Report
from .series import Interval, DEFAULT_EPS, pochhammer, q_pochhammer, rational_power
from .virtual import (
    index_set,
    positivity_certificate,
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
    "forward_shift_apply",
    "backward_shift_apply",
    "rodrigues_vector",
    "verify_difference_equation",
    "verify_shift_relations",
    "index_set",
    "xi_value",
    "xi_poly",
    "positivity_certificate",
    "verify_linear_relation",
    "exact_det",
    "verify_identities",
    "system",
    "tilde_delta",
    "verify_multi_structure",
    "verify_eigen_equation",
    "verify_shape_invariance",
    "verify_special_identities",
    "verify_orthogonality",
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
