"""Integer linear algebra, lattice polytopes, cones and point counting."""

from .cones import (
    AbstractCone,
    ConeComplex,
    abstract_dual_face,
    abstract_primal,
    abstract_quotient,
)
from .intlinalg import IntMatrix, char_poly, det, integer_kernel
from .polytope import Face, LatticePolytope

__all__ = [
    "AbstractCone",
    "ConeComplex",
    "Face",
    "IntMatrix",
    "LatticePolytope",
    "abstract_dual_face",
    "abstract_primal",
    "abstract_quotient",
    "char_poly",
    "det",
    "integer_kernel",
]
