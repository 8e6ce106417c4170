"""Adjacency graphs of conjugacy classes of self-adjoint operators.

Exact arithmetic over two backends (Gaussian rationals, finite fields
GF(q^2) with the Frobenius involution), eigen-flag geometry, the
rank/invariance adjacency relation and its geometric characterisation,
contraction fibers, a graph-automorphism engine, and constructions of
induced graph automorphisms.
"""

__version__ = "0.1.0"

from .starfield import QI, GaloisStarField, galois_field
from .linalg import Matrix, Subspace, herm_form
from .spectral import ClassSignature, EigenFlag, adjacent, adjacency_slots

__all__ = [
    "QI",
    "GaloisStarField",
    "galois_field",
    "Matrix",
    "Subspace",
    "herm_form",
    "ClassSignature",
    "EigenFlag",
    "adjacent",
    "adjacency_slots",
    "__version__",
]
