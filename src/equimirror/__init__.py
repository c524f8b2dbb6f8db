"""Exact equivariant invariants of lattice polytopes with finite symmetry.

The package computes, in exact rational arithmetic, the equivariant
Ehrhart numerators of invariant lattice polytopes, the representation-
valued H/G/Stilde polynomials of their face posets, Hodge-Deligne
polynomials of invariant non-degenerate torus hypersurfaces, stringy
invariants of the reflexive case, and the mirror pairing between a
reflexive polytope and its polar dual.
"""

from .algebra import BiLaurent, ClassFun, ClassPoly, UniPoly
from .combinatorics import (
    HGTable,
    IdentityReport,
    PhiTable,
    StildeTable,
    Tables,
    mobius_gamma,
    tables_for,
    verify_identities,
)
from .errors import EquimirrorError
from .geometry import (
    AbstractCone,
    ConeComplex,
    Face,
    IntMatrix,
    LatticePolytope,
    abstract_dual_face,
    abstract_quotient,
)
from .groups import MatrixGroup, generate_group, orbits, stabilizer
from .invariants import (
    ClosedForms,
    Diamond,
    EPoly,
    EulerCharacteristics,
    MirrorReport,
    cs_closed_forms,
    e_affine_face,
    e_affine_hypersurface,
    e_stringy_reflexive,
    e_stringy_strata,
    e_torus,
    euler_characteristics,
    hodge_diamond,
    mirror_check,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractCone",
    "BiLaurent",
    "ClassFun",
    "ClassPoly",
    "ClosedForms",
    "ConeComplex",
    "Diamond",
    "EPoly",
    "EquimirrorError",
    "EulerCharacteristics",
    "Face",
    "HGTable",
    "IdentityReport",
    "IntMatrix",
    "LatticePolytope",
    "MatrixGroup",
    "MirrorReport",
    "PhiTable",
    "StildeTable",
    "Tables",
    "UniPoly",
    "abstract_dual_face",
    "abstract_quotient",
    "cs_closed_forms",
    "e_affine_face",
    "e_affine_hypersurface",
    "e_stringy_reflexive",
    "e_stringy_strata",
    "e_torus",
    "euler_characteristics",
    "generate_group",
    "hodge_diamond",
    "mirror_check",
    "mobius_gamma",
    "orbits",
    "stabilizer",
    "tables_for",
    "verify_identities",
    "__version__",
]
