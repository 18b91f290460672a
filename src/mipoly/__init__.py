"""Exact construction and machine verification of multi-indexed orthogonal
polynomials on semi-infinite integer lattices.

Exactly solvable base systems -- Meixner (M) and little q-Jacobi (lqJ),
with little q-Laguerre (lqL) its b = 0 case -- are deformed by deleting
virtual states through Casoratian determinants; everything -- polynomials,
potentials, weights, norms, eigen-equations, orthogonality, and classical
limits -- is computed and checked in exact rational arithmetic (with
certified interval enclosures where a value is irrational).

This module declares the public API, the names README's "Library entry
points" documents; everything else is imported from its own module.
"""

from .chain import chain_build, chain_verify
from .families import LittleQJacobi, LittleQLaguerre, Meixner
from .limits import verify_q_limits
from .multi import orthogonality_sum, system

__version__ = "0.1.0"

__all__ = [
    "Meixner",
    "LittleQJacobi",
    "LittleQLaguerre",
    "system",
    "orthogonality_sum",
    "chain_build",
    "chain_verify",
    "verify_q_limits",
]
