"""Shared model fixtures.

Complexes and their memoized tables are immutable once built, so the
expensive ones are session-scoped and shared across test modules.
"""

from __future__ import annotations

import pytest

from equimirror.cli.models import (
    build_cross,
    build_cube,
    build_fermat,
    build_simplex,
    fermat_permutation,
)
from equimirror.geometry.cones import ConeComplex
from equimirror.geometry.intlinalg import IntMatrix
from equimirror.groups import generate_group, parse_cycles, permutation_matrix


def random_unimodular(rng, n: int) -> IntMatrix:
    """A seeded product of eight random elementary integer row operations."""
    rows = [list(r) for r in IntMatrix.identity(n).rows]
    for _ in range(8):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            c = rng.randint(-2, 2)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix(rows)


def trivial_complex(polytope) -> ConeComplex:
    return ConeComplex(polytope, generate_group([], rank=polytope.dim))


def quintic_complex(*words: str) -> ConeComplex:
    gens = [fermat_permutation(w, 4) for w in words]
    return ConeComplex(build_fermat(4), generate_group(gens, rank=4))


@pytest.fixture(scope="session")
def segment():
    return trivial_complex(build_cube(1))


@pytest.fixture(scope="session")
def square():
    return trivial_complex(build_cube(2))


@pytest.fixture(scope="session")
def cube3():
    return trivial_complex(build_cube(3))


@pytest.fixture(scope="session")
def cube4():
    return trivial_complex(build_cube(4))


@pytest.fixture(scope="session")
def cube3_central():
    group = generate_group([IntMatrix.identity(3).scale(-1)])
    return ConeComplex(build_cube(3), group)


@pytest.fixture(scope="session")
def cube4_central():
    group = generate_group([IntMatrix.identity(4).scale(-1)])
    return ConeComplex(build_cube(4), group)


@pytest.fixture(scope="session")
def cross3():
    return trivial_complex(build_cross(3))


@pytest.fixture(scope="session")
def simplex1():
    return trivial_complex(build_simplex(1))


@pytest.fixture(scope="session")
def simplex3():
    return trivial_complex(build_simplex(3))


@pytest.fixture(scope="session")
def sym3_cube3():
    """The 3-cube with coordinate permutations (order 6)."""
    gens = [
        permutation_matrix(parse_cycles("(12)"), 3),
        permutation_matrix(parse_cycles("(123)"), 3),
    ]
    return ConeComplex(build_cube(3), generate_group(gens))


@pytest.fixture(scope="session")
def cubic_curve():
    """Triple standard triangle, centered: the plane cubic's polytope."""
    from equimirror.geometry.polytope import LatticePolytope

    return trivial_complex(LatticePolytope(((2, -1), (-1, 2), (-1, -1))))


@pytest.fixture(scope="session")
def quintic_a5():
    return quintic_complex("(12)(34)", "(12345)")


@pytest.fixture(scope="session")
def quintic_sym5():
    return quintic_complex("(12)", "(12345)")
