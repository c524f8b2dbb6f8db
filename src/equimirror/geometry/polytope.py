"""Full-dimensional lattice polytopes with exact facet data.

A polytope is stored by its (sorted, deduplicated) integer vertices plus
its facet inequalities ``a . x <= b`` with primitive normals.  Facets can
be supplied by the caller — the builtin models know theirs — and are
validated; otherwise they are found by a brute-force hyperplane search
through vertex subsets, which is fine for the small hand-written inputs
that reach this path.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import DimensionCap, NotReflexive
from . import counting, scan
from .intlinalg import (
    IntMatrix,
    _as_int,
    _as_int_row,
    hnf_rows,
    integer_kernel,
    primitive,
    vec_dot,
    vec_gcd,
    vec_sub,
)

MAX_DIM = 6
MAX_VERTICES = 64
_SEARCH_BUDGET = 400_000

Vector = Tuple[int, ...]
Facet = Tuple[Vector, int]


class LatticePolytope:
    """An integral polytope of full dimension ``d`` in ``Z^d``."""

    __slots__ = ("vertices", "dim", "facets", "_cone_rows")

    def __init__(
        self,
        vertices: Iterable[Sequence[int]],
        facets: Optional[Iterable[Tuple[Sequence[int], int]]] = None,
    ):
        verts = tuple(sorted(set(map(_as_int_row, vertices))))
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        d = len(verts[0])
        if any(len(v) != d for v in verts):
            raise ValueError("vertices of mixed dimension")
        if d < 1:
            raise ValueError("vertices need at least one coordinate")
        if d > MAX_DIM:
            raise DimensionCap(f"ambient dimension {d} exceeds the cap {MAX_DIM}")
        if len(verts) > MAX_VERTICES:
            raise DimensionCap(f"{len(verts)} vertices exceed the cap {MAX_VERTICES}")
        if _affine_rank(verts) != d:
            raise ValueError("vertices do not span the ambient space")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "dim", d)
        if facets is None:
            fs = _search_facets(verts, d)
        else:
            fs = _validate_facets(verts, d, facets)
        object.__setattr__(self, "facets", fs)
        object.__setattr__(self, "_cone_rows", counting.homogenize(fs))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("LatticePolytope is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticePolytope):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"LatticePolytope(dim={self.dim}, vertices={len(self.vertices)})"

    # -- geometry ------------------------------------------------------------

    @property
    def cone_rows(self) -> Tuple[Vector, ...]:
        """Homogenised facet rows of the cone over the polytope."""
        return self._cone_rows

    def contains(self, point: Sequence[int]) -> bool:
        return all(vec_dot(a, point) <= b for a, b in self.facets)

    def tight_facets(self, point: Sequence[int]) -> Tuple[int, ...]:
        """Indices of the facets the point lies on."""
        return tuple(
            i for i, (a, b) in enumerate(self.facets) if vec_dot(a, point) == b
        )

    def vertex_index(self, point: Sequence[int]) -> int:
        try:
            return self.vertices.index(tuple(point))
        except ValueError:
            raise ValueError(f"{tuple(point)} is not a vertex") from None

    def translate(self, shift: Sequence[int]) -> LatticePolytope:
        s = _as_int_row(shift)
        verts = [tuple(x + y for x, y in zip(v, s)) for v in self.vertices]
        facets = [(a, b + vec_dot(a, s)) for a, b in self.facets]
        return LatticePolytope(verts, facets)

    # -- reflexivity -----------------------------------------------------------

    def is_reflexive(self) -> bool:
        """True when every facet has lattice distance one from the origin."""
        return all(b == 1 for _, b in self.facets)

    def dual_reflexive(self) -> LatticePolytope:
        """The polar dual; vertices are the facet normals.

        Only defined for reflexive polytopes — the dual has integer
        vertices exactly then — and the dual's facets come for free from
        the primal vertices.
        """
        if not self.is_reflexive():
            raise NotReflexive("polar dual requires all facet offsets equal to one")
        dual_vertices = [a for a, _ in self.facets]
        dual_facets = [(v, 1) for v in self.vertices]
        return LatticePolytope(dual_vertices, dual_facets)


def _validate_facets(
    verts: Tuple[Vector, ...], d: int, facets: Iterable[Tuple[Sequence[int], int]]
) -> Tuple[Facet, ...]:
    out: List[Facet] = []
    for a, b in facets:
        av = _as_int_row(a)
        bv = _as_int(b)
        if len(av) != d:
            raise ValueError("facet normal of wrong dimension")
        g = vec_gcd(av)
        if g == 0:
            raise ValueError("zero facet normal")
        if bv % g:
            raise ValueError(f"facet {av} . x <= {bv} has no primitive integer form")
        av = tuple(x // g for x in av)
        bv //= g
        support = max(vec_dot(av, v) for v in verts)
        if support != bv:
            raise ValueError(f"facet {av} . x <= {bv} is not supporting (max {support})")
        tight = [v for v in verts if vec_dot(av, v) == bv]
        if _affine_rank(tight) != d - 1:
            raise ValueError(f"hyperplane {av} . x = {bv} does not meet in a facet")
        out.append((av, bv))
    canon = tuple(sorted(set(out)))
    if len(canon) != len(out):
        raise ValueError("duplicate facets")
    for v in verts:
        if sum(1 for a, b in canon if vec_dot(a, v) == b) < d:
            raise ValueError(f"vertex {v} lies on fewer than {d} facets")
    _check_bounded(canon, d)
    return canon


def _check_bounded(facets: Tuple[Facet, ...], d: int) -> None:
    rows = [(a, 0) for a, _ in facets]
    try:
        rays = scan.count_system(rows, d)
    except ValueError:
        raise ValueError("facet list does not bound the polytope") from None
    if rays != 1:
        raise ValueError("facet list does not bound the polytope")


def _affine_rank(points: Sequence[Vector]) -> int:
    if len(points) <= 1:
        return len(points) - 1
    m = IntMatrix([vec_sub(p, points[0]) for p in points[1:]])
    return hnf_rows(m).nrows


def _search_facets(verts: Tuple[Vector, ...], d: int) -> Tuple[Facet, ...]:
    """Brute-force hyperplane search through d-subsets of the vertices."""
    if comb(len(verts), d) > _SEARCH_BUDGET:
        raise DimensionCap(
            "facet search would be too large; supply the facets explicitly"
        )
    found = {}
    for subset in combinations(range(len(verts)), d):
        rows = IntMatrix([verts[i] + (1,) for i in subset])
        kern = integer_kernel(rows)
        if kern.ncols != 1:
            continue
        normal = primitive(kern.col(0))
        a, negb = normal[:d], normal[d]
        values = [vec_dot(a, v) for v in verts]
        b = -negb
        if all(x <= b for x in values):
            pass
        elif all(x >= b for x in values):
            a, b = tuple(-x for x in a), -b
            values = [-x for x in values]
        else:
            continue
        key = (a, b)
        if key in found:
            continue
        tight = [v for v, x in zip(verts, values) if x == b]
        if _affine_rank(tight) == d - 1:
            found[key] = True
    return tuple(sorted(found))
