"""The face poset of a cone over a polytope, with its group action.

:class:`ConeComplex` takes a full-dimensional lattice polytope and a
matrix group preserving it (:class:`NotInvariant` otherwise) and holds
every face of the cone over the polytope (the polytope placed at height
one), ordered lexicographically by vertex index set so that the apex comes
first, with the Hermite basis of each face's span (the integer kernel of
its tight facet rows) and the induced action of each group element on
each invariant face.  The one fact kept about a restriction is its
characteristic polynomial, one per orbit of (face, element) under
``h . (f, e) = (h f, h e h^-1)`` (conjugate restrictions share it), keyed
by the orbit's :meth:`ConeComplex.canonical` pair; its determinant is read
off the constant term.

Faces are found by intersecting facet vertex sets — the intersection of
two faces is a face, and every proper face is an intersection of facets,
so closing the facet sets under intersection enumerates everything.

The module also provides the abstract cones the recursions run on:
intervals of the face poset read either upward (quotient cones) or
downward (dual face cones), carrying ratios of the concrete
characteristic polynomials.  A primal cone is the quotient by the apex.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..algebra.unipoly import UniPoly
from ..errors import IdentityFailure, NonInvertible, NotInvariant, SubgroupMismatch
from ..groups import MatrixGroup, orbits, stabilizer
from . import counting
from .intlinalg import IntMatrix, char_poly, integer_kernel, solve_in_row_basis
from .polytope import LatticePolytope


@dataclass(frozen=True)
class Face:
    """One face of the cone; ``dim`` is the cone dimension (apex 0)."""

    index: int
    vertex_ids: Tuple[int, ...]
    tight: Tuple[int, ...]
    dim: int
    span: IntMatrix

    @cached_property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertex_ids)


class ConeComplex:
    """Cone over a polytope together with a lattice group action."""

    def __init__(self, polytope: LatticePolytope, group: MatrixGroup):
        d = polytope.dim
        if group.dim != d:
            raise SubgroupMismatch(
                f"group acts on Z^{group.dim} but the polytope lives in Z^{d}"
            )
        self.polytope = polytope
        self.base_group = group
        self.dim = d
        self.cdim = d + 1

        vertex_of = {v: i for i, v in enumerate(polytope.vertices)}
        self._vertex_images = _vertex_action(polytope, group, vertex_of)

        self.group = group.image(_homogenize)
        self.faces = _enumerate_faces(polytope)
        self._index_of_vertexset = {f.vertex_set: f.index for f in self.faces}
        self.apex_index = self._index_of_vertexset[frozenset()]
        self.top_index = self._index_of_vertexset[
            frozenset(range(len(polytope.vertices)))
        ]

        self._below: List[Tuple[int, ...]] = [
            tuple(
                g.index
                for g in self.faces
                if g.vertex_set <= f.vertex_set
            )
            for f in self.faces
        ]
        self._face_maps = self._build_face_maps()
        self._canonical_faces: Dict[int, Tuple[int, ...]] = {}
        self._charpoly: Dict[Tuple[int, int], UniPoly] = {}
        # the dual itself if this complex built it, else a weak back-link
        self._dual = None
        self._dual_faces: Optional[Tuple[int, ...]] = None
        self.tables = None  # the combinatorial tables, set by tables_for
        self.stringy = None  # the stringy E-polynomial, set by e_stringy_reflexive

    # -- plumbing ---------------------------------------------------------

    def _build_face_maps(self) -> Tuple[Tuple[int, ...], ...]:
        maps = []
        for images in self._vertex_images:
            row = []
            for f in self.faces:
                image = frozenset(images[v] for v in f.vertex_ids)
                target = self._index_of_vertexset.get(image)
                if target is None:  # pragma: no cover - impossible for an action
                    raise NotInvariant("group element does not permute the faces")
                row.append(target)
            maps.append(tuple(row))
        return tuple(maps)

    def __repr__(self) -> str:
        return (
            f"ConeComplex(dim={self.cdim}, faces={len(self.faces)}, "
            f"group={self.group.order})"
        )

    # -- poset ---------------------------------------------------------------

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def leq(self, i: int, j: int) -> bool:
        return self.faces[i].vertex_set <= self.faces[j].vertex_set

    def faces_below(self, j: int) -> Tuple[int, ...]:
        """All faces of face ``j``, apex and ``j`` included."""
        return self._below[j]

    def interval(self, i: int, j: int) -> Tuple[int, ...]:
        vs = self.faces[i].vertex_set
        return tuple(g for g in self._below[j] if vs <= self.faces[g].vertex_set)

    # -- action ---------------------------------------------------------------

    def base_element(self, e: int) -> IntMatrix:
        return self.base_group.elements[e]

    def face_image(self, e: int, f: int) -> int:
        return self._face_maps[e][f]

    def is_invariant(self, f: int, e: int) -> bool:
        return self._face_maps[e][f] == f

    def invariant_faces(self, e: int) -> Tuple[int, ...]:
        row = self._face_maps[e]
        return tuple(i for i, target in enumerate(row) if target == i)

    def face_orbits(self) -> Tuple[Tuple[int, ...], ...]:
        act = lambda g, f: self._face_maps[self.group.index_of[g]][f]
        return orbits(self.group, range(self.face_count), act)

    def face_stabilizer(self, f: int) -> MatrixGroup:
        act = lambda g, face: self._face_maps[self.group.index_of[g]][face]
        return stabilizer(self.group, f, act)

    def canonical(self, f: int, e: int) -> Tuple[int, int]:
        """The representative ``(f', r)`` of the orbit of ``(f, e)`` under
        ``h . (f, e) = (h f, h e h^-1)``: ``x`` conjugates ``e`` to its
        class's target ``r``, and ``f'`` is the least face of ``x f``'s
        orbit under the centralizer of ``r``.  Every restriction fact is a
        class function, so it is the same at both pairs."""
        x, r = self.group.conjugator(e)
        least = self._canonical_faces.get(r)
        if least is None:
            maps = [self._face_maps[c] for c in self.group.centralizer(r)]
            least = tuple(
                min(row[f] for row in maps) for f in range(self.face_count)
            )
            self._canonical_faces[r] = least
        return least[self._face_maps[x][f]], r

    # -- restriction data ------------------------------------------------------

    def rho(self, f: int, e: int) -> IntMatrix:
        """Matrix of element ``e`` on the span of face ``f``, in its basis."""
        if not self.is_invariant(f, e):
            raise NotInvariant(f"face {f} is not invariant under element {e}")
        span = self.faces[f].span
        g = self.group.elements[e]
        cols = [solve_in_row_basis(span, g.apply(row)) for row in span.rows]
        return IntMatrix.from_columns(cols)

    def charpoly(self, f: int, e: int) -> UniPoly:
        """Monic characteristic polynomial of the face restriction, the one
        fact kept per orbit of (face, element), computed at the orbit's
        canonical pair."""
        key = self.canonical(f, e)
        hit = self._charpoly.get(key)
        if hit is None:
            hit = char_poly(self.rho(*key))
            # the constant term is (-1)^dim det(rho)
            if hit.coefficient(0) not in (1, -1):  # pragma: no cover - sanity
                raise NonInvertible("face restriction is not unimodular")
            self._charpoly[key] = hit
        return hit

    def char_series(self, f: int, e: int) -> UniPoly:
        """``det(I - rho t)``: the reversal of the monic polynomial."""
        return self.charpoly(f, e).reverse(self.faces[f].dim)

    def detsign(self, f: int, e: int) -> int:
        """``det(rho)``, read off the characteristic polynomial."""
        sign = -1 if self.faces[f].dim % 2 else 1
        return sign * self.charpoly(f, e).coefficient(0)

    # -- counting ---------------------------------------------------------------

    def count_fixed(self, f: int, e: int, m: int, interior: bool = False) -> int:
        """Lattice points of the height-``m`` slice of face ``f`` fixed by
        element ``e`` (relative interior points with ``interior``)."""
        return counting.fixed_slice_count(
            self.polytope.cone_rows,
            self.faces[f].tight,
            self.group.elements[e],
            m,
            interior,
        )

    # -- duality ------------------------------------------------------------------

    def dual(self) -> ConeComplex:
        """The complex of the dual cone (polar dual polytope, dual action).

        Element ``e`` of its group is the contragredient of element ``e``
        here, so element and class indices carry over unchanged.
        Polar duality and the contragredient are involutions, so the dual's
        dual is ``self`` while ``self`` is alive.  The complex that builds
        the dual holds it; the dual links back weakly, so dropping the last
        reference to a model frees it without the cycle collector."""
        dual = self._dual
        if isinstance(dual, weakref.ref):
            dual = dual()
        if dual is None:
            dual = ConeComplex(
                self.polytope.dual_reflexive(), self.base_group.dual_group()
            )
            dual._dual = weakref.ref(self)
            self._dual = dual
        return dual

    def dual_face_index(self, f: int) -> int:
        """Index in ``dual()`` of the face dual to face ``f``.

        Dual vertex ``i`` is primal facet ``i``: the dual's vertices are the
        facet normals, and both lists are sorted by normal (every offset of
        a reflexive polytope is 1).  So the dual face is spanned by the dual
        vertices numbered ``f.tight``; its dimension complements ``f``'s.
        """
        if self._dual_faces is None:
            dual = self.dual()
            normals = tuple(a for a, _ in self.polytope.facets)
            if dual.polytope.vertices != normals:  # pragma: no cover - sanity
                raise IdentityFailure("dual vertices are not the facet normals in order")
            pairs = []
            for face in self.faces:
                j = dual._index_of_vertexset[frozenset(face.tight)]
                if dual.faces[j].dim != self.cdim - face.dim:  # pragma: no cover
                    raise NotInvariant("dual pairing does not complement dimensions")
                pairs.append(j)
            self._dual_faces = tuple(pairs)
        return self._dual_faces[f]


def _vertex_action(polytope, group, vertex_of) -> Tuple[Tuple[int, ...], ...]:
    images = []
    for g in group.elements:
        row = []
        for v in polytope.vertices:
            w = g.apply(v)
            j = vertex_of.get(w)
            if j is None:
                raise NotInvariant(
                    f"element maps vertex {v} to {w}, outside the polytope"
                )
            row.append(j)
        images.append(tuple(row))
    return tuple(images)


def _homogenize(g: IntMatrix) -> IntMatrix:
    return IntMatrix([row + (0,) for row in g.rows] + [(0,) * g.nrows + (1,)])


def _enumerate_faces(polytope: LatticePolytope) -> Tuple[Face, ...]:
    nv = len(polytope.vertices)
    facet_sets = []
    for a, b in polytope.facets:
        tightset = frozenset(
            i for i, v in enumerate(polytope.vertices) if sum(x * y for x, y in zip(a, v)) == b
        )
        facet_sets.append(tightset)

    found = set(facet_sets)
    found.add(frozenset(range(nv)))
    found.add(frozenset())
    frontier = list(found)
    while frontier:
        fresh = []
        for s in frontier:
            for t in facet_sets:
                meet = s & t
                if meet not in found:
                    found.add(meet)
                    fresh.append(meet)
        frontier = fresh

    ordered = sorted(found, key=lambda s: tuple(sorted(s)))
    faces = []
    for idx, vs in enumerate(ordered):
        ids = tuple(sorted(vs))
        tight = tuple(
            i for i, ts in enumerate(facet_sets) if vs <= ts
        )
        # the top face lies on no facet and spans the whole lattice
        span = IntMatrix.identity(polytope.dim + 1)
        if tight:
            span = integer_kernel(IntMatrix([polytope.cone_rows[i] for i in tight])).transpose()
        faces.append(Face(idx, ids, tight, span.nrows, span))
    return tuple(faces)


# -- abstract cones ----------------------------------------------------------


@dataclass(frozen=True)
class AbstractCone:
    """An interval of the face poset read as a cone.

    ``kind == "Q"`` is the quotient cone ``ambient / base``: its faces are
    the faces between ``base`` and ``ambient``, with dimensions measured
    above ``base``.  ``kind == "D"`` is the dual face of ``base`` inside
    the dual of ``ambient``: the same interval read upside down, with
    complementary dimensions.  Characteristic polynomials are exact ratios
    of the concrete ones, so everything stays equivariant without ever
    constructing quotient lattices.
    """

    complex: ConeComplex
    kind: str
    base: int
    ambient: int

    def __post_init__(self):
        if self.kind not in ("Q", "D"):
            raise ValueError(f"unknown abstract cone kind {self.kind!r}")
        if not self.complex.leq(self.base, self.ambient):
            raise ValueError("base face is not a face of the ambient one")

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.kind, self.base, self.ambient)

    @property
    def dim(self) -> int:
        faces = self.complex.faces
        return faces[self.ambient].dim - faces[self.base].dim

    @property
    def top_element(self) -> int:
        return self.ambient if self.kind == "Q" else self.base

    def elements(self) -> Tuple[int, ...]:
        return self.complex.interval(self.base, self.ambient)

    def element_invariant(self, f: int, e: int) -> bool:
        return self.complex.is_invariant(f, e)

    def element_charpoly(self, f: int, e: int) -> UniPoly:
        cx = self.complex
        if self.kind == "Q":
            return cx.charpoly(f, e).exact_div(cx.charpoly(self.base, e))
        return cx.charpoly(self.ambient, e).exact_div(cx.charpoly(f, e))

    def subcone(self, f: int) -> AbstractCone:
        if self.kind == "Q":
            return AbstractCone(self.complex, "Q", self.base, f)
        return AbstractCone(self.complex, "D", f, self.ambient)


def abstract_primal(complex: ConeComplex, face: int) -> AbstractCone:
    """Face ``face`` with its own face poset (quotient by the apex)."""
    return AbstractCone(complex, "Q", complex.apex_index, face)


def abstract_quotient(complex: ConeComplex, base: int, ambient: int) -> AbstractCone:
    """The cone ``ambient / base``."""
    return AbstractCone(complex, "Q", base, ambient)


def abstract_dual_face(complex: ConeComplex, base: int, ambient: int) -> AbstractCone:
    """The face dual to ``base`` inside the dual of ``ambient``."""
    return AbstractCone(complex, "D", base, ambient)
