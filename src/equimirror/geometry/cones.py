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

Vertex sets are int bitmasks while the lattice is built.  Faces are found
by closing the facets' vertex bitmasks under intersection — the
intersection of two faces is a face, and every proper face is an
intersection of facets.  The faces below a face are those on every facet
it lies on, the meet of per-facet face bitmasks, and a face's image under
an element is looked up by the bitmask of its moved vertices.

A dual complex (:meth:`ConeComplex.dual`) is read off its partner instead,
the same face lattice upside down, and orders its faces as its partner
does: face ``i`` is dual to face ``i`` as element ``e`` is to element
``e``, so its apex is not face 0.  Its spans come from its partner's
spans (the annihilator of a face's span is its dual's span), and the two
share one least-face table for :meth:`ConeComplex.canonical`.

The module also provides the abstract cones the recursions run on:
intervals of the face poset read either upward (quotient cones) or
downward (dual face cones), carrying ratios of the concrete
characteristic polynomials.  A primal cone is the quotient by the apex.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import Dict, List, Tuple

from ..algebra.unipoly import UniPoly
from ..errors import NonInvertible, NotInvariant, SubgroupMismatch
from ..groups import MatrixGroup, orbits, stabilizer
from ..records import Frozen
from . import counting
from .intlinalg import IntMatrix, char_poly, integer_kernel, solve_in_row_basis
from .polytope import LatticePolytope


class Face(Frozen):
    """One face of the cone; ``dim`` is the cone dimension (apex 0).

    ``vertex_set`` is ``frozenset(vertex_ids)``, built once here:
    :meth:`ConeComplex.leq` and :meth:`ConeComplex.interval` compare vertex
    sets on every call."""

    __slots__ = ("index", "vertex_ids", "tight", "dim", "span", "vertex_set")

    def __init__(
        self,
        index: int,
        vertex_ids: Tuple[int, ...],
        tight: Tuple[int, ...],
        dim: int,
        span: IntMatrix,
    ):
        self._fill(index, vertex_ids, tight, dim, span, frozenset(vertex_ids))


class ConeComplex:
    """Cone over a polytope together with a lattice group action."""

    def __init__(self, polytope: LatticePolytope, group: MatrixGroup):
        d = polytope.dim
        if group.dim != d:
            raise SubgroupMismatch(
                f"group acts on Z^{group.dim} but the polytope lives in Z^{d}"
            )
        images = _vertex_action(polytope, group)
        faces = _enumerate_faces(polytope)
        below = _faces_below(faces, len(polytope.facets))
        self._setup(polytope, group, faces, below, _face_maps(images, faces))

    def _setup(self, polytope, group, faces, below, face_maps) -> None:
        """Set the fields from the faces, the faces below each one and, per
        element, the index of each face's image; shared by ``__init__`` and
        :meth:`dual`."""
        self.polytope = polytope
        self.base_group = group
        self.dim = polytope.dim
        self.cdim = polytope.dim + 1
        self.group = group.image(_homogenize)
        self.faces = faces
        self.apex_index = next(f.index for f in faces if f.dim == 0)
        self.top_index = next(f.index for f in faces if f.dim == self.cdim)
        self._below: List[Tuple[int, ...]] = below
        self._face_maps = face_maps
        self._canonical_faces: Dict[int, Tuple[int, ...]] = {}
        self._charpoly: Dict[Tuple[int, int], UniPoly] = {}
        # the dual itself if this complex built it, else a weak back-link
        self._dual = None
        self.tables = None  # the combinatorial tables, set by tables_for
        self.stringy = None  # the stringy E-polynomial, set by e_stringy_reflexive

    # -- plumbing ---------------------------------------------------------

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
        here and its face ``i`` is the dual of face ``i`` here, so element,
        class and face indices carry over (its apex is ``self.top_index``).
        Dual vertex ``j`` is facet ``j`` here and dual facet ``j`` is vertex
        ``j`` (both lists are sorted; every offset of a reflexive polytope is
        1), so the dual of face ``i`` has the vertices ``faces[i].tight``,
        lies on the facets ``faces[i].vertex_ids`` and moves as face ``i``
        does, since ``<g^-T a, g v> = <a, v>``: the face maps are shared, and
        the faces below face ``i`` there are the faces above it here.

        The span of the dual of face ``i`` is read off the span here: the
        dual cone's rows are ``(v, -1)`` for the vertices ``v``, so it is the
        integer kernel of face ``i``'s span rows with the height negated,
        at most ``cdim`` rows.  The Hermite form is canonical, so the rows
        are the ones a build from scratch gives.  Both complexes share their
        face maps and their groups share classes, conjugators and
        centralizers, so they share one least-face table for
        :meth:`canonical` too.

        Polar duality and the contragredient are involutions, so the dual's
        dual is ``self`` while ``self`` is alive.  The complex that builds
        the dual holds it; the dual links back weakly, so dropping the last
        reference to a model frees it without the cycle collector."""
        dual = self._dual
        if isinstance(dual, weakref.ref):
            dual = dual()
        if dual is None:
            polytope = self.polytope.dual_reflexive()
            faces = tuple(_dual_face(f, self.cdim) for f in self.faces)
            above = [[] for _ in self.faces]
            for g, below in enumerate(self._below):
                for f in below:
                    above[f].append(g)
            dual = ConeComplex.__new__(ConeComplex)
            group = self.base_group.dual_group()
            dual._setup(polytope, group, faces, list(map(tuple, above)), self._face_maps)
            dual._canonical_faces = self._canonical_faces
            dual._dual = weakref.ref(self)
            self._dual = dual
        return dual


def _vertex_action(polytope, group) -> Tuple[Tuple[int, ...], ...]:
    """Per element, the index of each vertex's image."""
    vertex_of = {v: i for i, v in enumerate(polytope.vertices)}
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


def _face_maps(images, faces) -> Tuple[Tuple[int, ...], ...]:
    """Per element, the index of each face's image, from the vertex images:
    a face is keyed by the bitmask of its vertices."""
    index_of = {_mask(f.vertex_ids): f.index for f in faces}
    maps = []
    for row in images:
        bits = [1 << j for j in row]
        maps.append(
            tuple(index_of[sum(bits[v] for v in f.vertex_ids)] for f in faces)
        )
    return tuple(maps)


def _mask(ids) -> int:
    """The bitmask of a set of indices."""
    return sum(1 << i for i in ids)


def _members(mask: int) -> Tuple[int, ...]:
    """The set bits of ``mask``, low to high."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _homogenize(g: IntMatrix) -> IntMatrix:
    return IntMatrix([row + (0,) for row in g.rows] + [(0,) * g.nrows + (1,)])


def _enumerate_faces(polytope: LatticePolytope) -> Tuple[Face, ...]:
    """Every face, by closing the facets' vertex bitmasks under
    intersection, numbered in lexicographic order of vertex ids."""
    facet_masks = [
        _mask(
            i for i, v in enumerate(polytope.vertices)
            if sum(x * y for x, y in zip(a, v)) == b
        )
        for a, b in polytope.facets
    ]
    found = set(facet_masks)
    found.add((1 << len(polytope.vertices)) - 1)
    found.add(0)
    frontier = list(found)
    while frontier:
        fresh = []
        for s in frontier:
            for t in facet_masks:
                meet = s & t
                if meet not in found:
                    found.add(meet)
                    fresh.append(meet)
        frontier = fresh

    faces = []
    for idx, (vertex_ids, s) in enumerate(sorted((_members(s), s) for s in found)):
        tight = tuple(i for i, t in enumerate(facet_masks) if s & t == s)
        faces.append(_face(polytope, idx, vertex_ids, tight))
    return tuple(faces)


def _faces_below(faces, facet_count: int) -> List[Tuple[int, ...]]:
    """Per face, the indices of the faces below it, ascending.

    A face's vertex set is the intersection of its tight facets' (the
    apex's, of all of them), so ``g`` lies below ``f`` exactly when it lies
    on every facet ``f`` lies on: the faces below ``f`` are the meet of
    the per-facet face bitmasks over ``f.tight``."""
    on_facet = [0] * facet_count
    for f in faces:
        for i in f.tight:
            on_facet[i] |= 1 << f.index
    everything = (1 << len(faces)) - 1
    below = []
    for f in faces:
        mask = everything
        for i in f.tight:
            mask &= on_facet[i]
        below.append(_members(mask))
    return below


def _face(polytope, index, vertex_ids, tight) -> Face:
    """Face ``index`` of the cone over ``polytope``, spanned by the vertices
    ``vertex_ids`` and lying on the facets ``tight``: its span is the
    integer kernel of those facet rows."""
    if tight:
        span = integer_kernel(IntMatrix([polytope.cone_rows[i] for i in tight]))
    else:  # the top face lies on no facet and spans the whole lattice
        span = IntMatrix.identity(polytope.dim + 1)
    return Face(index, vertex_ids, tight, span.nrows, span)


def _dual_face(face: Face, cdim: int) -> Face:
    """The dual of ``face``, with its vertices and facets swapped: its span
    is the integer kernel of ``face``'s span rows with the height negated
    (the apex's partner is the top face, which spans the whole lattice)."""
    if face.span.rows:
        span = integer_kernel(IntMatrix([r[:-1] + (-r[-1],) for r in face.span.rows]))
    else:
        span = IntMatrix.identity(cdim)
    return Face(face.index, face.tight, face.vertex_ids, span.nrows, span)


# -- abstract cones ----------------------------------------------------------


class AbstractCone:
    """An interval of the face poset read as a cone.

    ``kind == "Q"`` is the quotient cone ``ambient / base``: its faces are
    the faces between ``base`` and ``ambient``, with dimensions measured
    above ``base``.  ``kind == "D"`` is the dual face of ``base`` inside
    the dual of ``ambient``: the same interval read upside down, with
    complementary dimensions.  Characteristic polynomials are exact ratios
    of the concrete ones, so everything stays equivariant without ever
    constructing quotient lattices.

    The ``h``/``g`` recursion builds one per subcone it visits, so the
    fields are plain slots behind read-only properties: no per-field
    ``object.__setattr__`` in the constructor.
    """

    __slots__ = ("_complex", "_kind", "_base", "_ambient")

    def __init__(self, complex: ConeComplex, kind: str, base: int, ambient: int):
        if kind not in ("Q", "D"):
            raise ValueError(f"unknown abstract cone kind {kind!r}")
        if not complex.leq(base, ambient):
            raise ValueError("base face is not a face of the ambient one")
        self._complex = complex
        self._kind = kind
        self._base = base
        self._ambient = ambient

    complex = property(attrgetter("_complex"))
    kind = property(attrgetter("_kind"))
    base = property(attrgetter("_base"))
    ambient = property(attrgetter("_ambient"))

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self._kind, self._base, self._ambient)

    @property
    def dim(self) -> int:
        faces = self._complex.faces
        return faces[self._ambient].dim - faces[self._base].dim

    @property
    def top_element(self) -> int:
        return self._ambient if self._kind == "Q" else self._base

    def elements(self) -> Tuple[int, ...]:
        return self._complex.interval(self._base, self._ambient)

    def element_invariant(self, f: int, e: int) -> bool:
        return self._complex.is_invariant(f, e)

    def element_charpoly(self, f: int, e: int) -> UniPoly:
        cx = self._complex
        if self._kind == "Q":
            return cx.charpoly(f, e).exact_div(cx.charpoly(self._base, e))
        return cx.charpoly(self._ambient, e).exact_div(cx.charpoly(f, e))

    def subcone(self, f: int) -> AbstractCone:
        if self._kind == "Q":
            return AbstractCone(self._complex, "Q", self._base, f)
        return AbstractCone(self._complex, "D", f, self._ambient)


def abstract_primal(complex: ConeComplex, face: int) -> AbstractCone:
    """Face ``face`` with its own face poset (quotient by the apex)."""
    return AbstractCone(complex, "Q", complex.apex_index, face)


def abstract_quotient(complex: ConeComplex, base: int, ambient: int) -> AbstractCone:
    """The cone ``ambient / base``."""
    return AbstractCone(complex, "Q", base, ambient)


def abstract_dual_face(complex: ConeComplex, base: int, ambient: int) -> AbstractCone:
    """The face dual to ``base`` inside the dual of ``ambient``."""
    return AbstractCone(complex, "D", base, ambient)
