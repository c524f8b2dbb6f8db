"""Shared model fixtures.

Complexes and their memoized tables are immutable once built, so the
expensive ones are session-scoped and shared across test modules.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from equimirror.cli.models import (
    build_cross,
    build_cube,
    build_fermat,
    build_simplex,
    fermat_permutation,
)
from equimirror.geometry import counting, scan
from equimirror.geometry.cones import ConeComplex
from equimirror.geometry.intlinalg import IntMatrix
from equimirror.geometry.polytope import LatticePolytope
from equimirror.groups import (
    generate_group,
    inverse_unimodular,
    parse_cycles,
    permutation_matrix,
)


def at_identity(epoly):
    """An E-polynomial's value at the identity element."""
    return epoly.value_of_element(epoly.group.identity_index)


def iter_system(rows, k):
    """Yield the integer points of ``coeffs . x <= rhs`` in lexicographic
    order, walking the levels ``scan.prepare_levels`` gives bound by bound:
    a reference for ``scan.count_levels``, which counts them."""
    feasible, levels = scan.prepare_levels(rows, k)
    if not feasible:
        return
    if k == 0:
        yield ()
        return
    x = [0] * k

    def rec(j):
        lo, hi = scan._bounds(levels[j], x, j)
        for val in range(lo, hi + 1):
            x[j] = val
            if j == k - 1:
                yield tuple(x)
            else:
                yield from rec(j + 1)

    yield from rec(0)


def slice_system(cone_rows, tight, matrix, m, interior=False):
    """The inequality system ``(rows, k)`` that ``counting`` counts for the
    height-``m`` slice of the face picked out by ``tight``, fixed by
    ``matrix``; ``None`` when the height step does not divide ``m``."""
    return counting._slice(counting._face_basis(cone_rows, tight, matrix), m, interior)


def benchmark_workloads():
    """``perfbench/workloads.py``, the benchmark's model lists and orders."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def moved_complex(cx: ConeComplex, u: IntMatrix) -> ConeComplex:
    """``cx`` under ``P -> U P`` and ``G -> U G U^-1``."""
    u_inv = inverse_unimodular(u)
    # facet a . x <= b of P becomes (a U^-1) . y <= b of U P
    image = LatticePolytope(
        [u.apply(v) for v in cx.polytope.vertices],
        [(u_inv.transpose().apply(a), b) for a, b in cx.polytope.facets],
    )
    return ConeComplex(
        image, generate_group([u @ g @ u_inv for g in cx.base_group.elements])
    )


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
    return trivial_complex(LatticePolytope(((2, -1), (-1, 2), (-1, -1))))


@pytest.fixture(scope="session")
def quintic_a5():
    return quintic_complex("(12)(34)", "(12345)")


@pytest.fixture(scope="session")
def quintic_sym5():
    return quintic_complex("(12)", "(12345)")
