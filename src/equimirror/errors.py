"""Exception types shared across the package."""


class EquimirrorError(Exception):
    """Base class for all errors raised deliberately by this package."""


class InexactDivision(EquimirrorError, ArithmeticError):
    """A division that was required to be exact left a remainder."""


class NegativeExponent(EquimirrorError, ArithmeticError):
    """A substitution produced a negative exponent where a polynomial was required."""


class NonInvertible(EquimirrorError):
    """A generator matrix is not invertible over the integers."""


class CapExceeded(EquimirrorError):
    """Group generation exceeded the configured element cap."""


class NotAnAction(EquimirrorError):
    """A claimed group action fails to permute the given set."""


class NotInvariant(EquimirrorError):
    """The group does not map the polytope (or required object) to itself."""


class DimensionCap(EquimirrorError):
    """Input exceeds the supported dimension or vertex-count limits."""


class NotAFaceLattice(EquimirrorError, ValueError):
    """The vertices and facets of a polytope do not close up into a face
    lattice: a facet is missing or a listed point is not a vertex."""


class NotReflexive(EquimirrorError):
    """An operation that needs a reflexive polytope got a non-reflexive one."""


class SubgroupMismatch(EquimirrorError):
    """An index set passed off as a subgroup is not closed under the group law."""


class PhiNotPolynomial(EquimirrorError):
    """A numerator series failed its polynomial-degree consistency check."""


class ConfigError(EquimirrorError):
    """A run configuration is malformed or inconsistent."""


class IdentityFailure(EquimirrorError):
    """An internal exact identity that must hold was violated."""
