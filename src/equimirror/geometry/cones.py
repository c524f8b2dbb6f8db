"""The face poset of a cone over a polytope, with its group action.

:class:`ConeComplex` takes a full-dimensional lattice polytope and a
matrix group preserving it (:class:`NotInvariant` otherwise) and holds
every face of the cone over the polytope (the polytope placed at height
one), ordered lexicographically by vertex index set so that the apex comes
first, and the induced action of each group element on the faces.  A face
is lattice data only; its span, the integer kernel of its tight cone rows,
is computed by :meth:`ConeComplex.span` where a value needs it.  The one
fact kept about a restriction is its characteristic polynomial, one per
orbit of (face, element) under ``h . (f, e) = (h f, h e h^-1)`` (conjugate
restrictions share it), keyed by the orbit's :meth:`ConeComplex.canonical`
pair; its determinant is read off the constant term.  The polynomial is a
function of the face's tight cone rows and the element's rows alone, so
behind each complex's memo sits one store for the process, keyed by that
data: a model of another group of the same polytope finds there what an
earlier model computed, whichever order they run in.  A span is built
only when the store misses.  The store holds only tuples and polynomials
and ``counting.clear_cache`` drops it with the counts.

Vertex sets are int bitmasks.  Faces are found by closing the facets'
vertex bitmasks under intersection — the intersection of two faces is a
face, and every proper face is an intersection of facets.  The faces
below a face are those on every facet it lies on, the meet of per-facet
face bitmasks; a face's dimension is one more than the largest below it,
and its image under an element is looked up by the bitmask of its moved
vertices.

A dual complex (:meth:`ConeComplex.dual`) is read off its partner instead,
the same face lattice upside down, and orders its faces as its partner
does: face ``i`` is dual to face ``i`` as element ``e`` is to element
``e``, so its apex is not face 0.  Its characteristic polynomials are
quotients of its partner's (the span of a dual face is the annihilator of
its partner's span, on which an element acts as the contragredient of its
action on the quotient by that span).  The two share one least-face
table for :meth:`ConeComplex.canonical`.

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
from ..errors import NonInvertible, NotAFaceLattice, NotInvariant, SubgroupMismatch
from ..groups import MatrixGroup, orbits, stabilizer
from ..records import Frozen
from . import counting
from .intlinalg import IntMatrix, char_poly, integer_kernel, solve_in_row_basis
from .polytope import LatticePolytope


class Face(Frozen):
    """One face of the cone: the vertices spanning it, the facets it lies
    on, its cone dimension (apex 0) and ``mask``, the bitmask of
    ``vertex_ids``, which :meth:`ConeComplex.leq` and
    :meth:`ConeComplex.interval` compare."""

    __slots__ = ("index", "vertex_ids", "tight", "dim", "mask")

    def __init__(
        self,
        index: int,
        vertex_ids: Tuple[int, ...],
        tight: Tuple[int, ...],
        dim: int,
        mask: int,
    ):
        self._fill(index, vertex_ids, tight, dim, mask)


class ConeComplex:
    """Cone over a polytope together with a lattice group action."""

    def __init__(self, polytope: LatticePolytope, group: MatrixGroup):
        d = polytope.dim
        if group.dim != d:
            raise SubgroupMismatch(
                f"group acts on Z^{group.dim} but the polytope lives in Z^{d}"
            )
        images = _vertex_action(polytope, group)
        faces, below = _enumerate_faces(polytope)
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
        # on a complex read off its partner, the partner's cone rows, faces,
        # homogenized group and charpoly memo; None on a complex built here
        self._partner = None
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
        mask = self.faces[i].mask
        return self.faces[j].mask & mask == mask

    def faces_below(self, j: int) -> Tuple[int, ...]:
        """All faces of face ``j``, apex and ``j`` included."""
        return self._below[j]

    def interval(self, i: int, j: int) -> Tuple[int, ...]:
        faces, mask = self.faces, self.faces[i].mask
        return tuple(g for g in self._below[j] if faces[g].mask & mask == mask)

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

    def span(self, f: int) -> IntMatrix:
        """The Hermite basis of the span of face ``f``, computed on each
        call: the integer kernel of its tight cone rows."""
        rows = [self.polytope.cone_rows[i] for i in self.faces[f].tight]
        return _span(rows, self.cdim)

    def rho(self, f: int, e: int) -> IntMatrix:
        """Matrix of element ``e`` on the span of face ``f``, in its basis."""
        if not self.is_invariant(f, e):
            raise NotInvariant(f"face {f} is not invariant under element {e}")
        return _action(self.span(f), self.group.elements[e])

    def charpoly(self, f: int, e: int) -> UniPoly:
        """Monic characteristic polynomial of the face restriction, the one
        fact kept per orbit of (face, element), computed at the orbit's
        canonical pair ``(f', r)``.

        On a complex read off its partner ``P`` it is
        ``P.charpoly(top, r) / P.charpoly(f', r)``, with ``top`` this
        complex's apex: the element acts on the dual face's span, the
        annihilator of the span of face ``f'`` there, as the contragredient
        of its action on the quotient by that span, and a rational
        characteristic polynomial of finite order is its own contragredient
        (its roots are roots of unity, closed under conjugation)."""
        key = self.canonical(f, e)
        partner = self._partner
        if partner is None:
            return _span_charpoly(
                self.polytope.cone_rows, self.faces, self.group, self._charpoly, key
            )
        hit = self._charpoly.get(key)
        if hit is None:
            top = _span_charpoly(*partner, (self.apex_index, key[1]))
            hit = top.exact_div(_span_charpoly(*partner, key))
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

        The dual does no integer linear algebra when it is built.  Its faces
        get ``cdim - dim`` from the lattice; it keeps its partner's cone
        rows, faces, homogenized group and charpoly memo, and reads each
        :meth:`charpoly` off them.  Both complexes share their face maps and
        their groups share classes, conjugators and centralizers, so they
        share one least-face table for :meth:`canonical` and one canonical
        pair per orbit.

        Polar duality and the contragredient are involutions, so the dual's
        dual is ``self`` while ``self`` is alive.  The complex that builds
        the dual holds it; the dual links back weakly, so dropping the last
        reference to a model frees it without the cycle collector.  What the
        dual keeps of its partner refers to neither complex, so it outlives
        the complex that built it: if that one is gone, the dual's dual is
        rebuilt from that data and is the same complex again, with its
        faces, element order and memo."""
        dual = self._dual
        if isinstance(dual, weakref.ref):
            dual = dual()
        if dual is None:
            polytope = self.polytope.dual_reflexive()
            above = [[] for _ in self.faces]
            for g, below in enumerate(self._below):
                for f in below:
                    above[f].append(g)
            above = list(map(tuple, above))
            dual = ConeComplex.__new__(ConeComplex)
            group = self.base_group.dual_group()
            if self._partner is None:
                faces = tuple(_dual_face(f, self.cdim) for f in self.faces)
                dual._setup(polytope, group, faces, above, self._face_maps)
                dual._partner = (
                    self.polytope.cone_rows, self.faces, self.group, self._charpoly
                )
            else:  # the partner is gone: rebuild it from what was kept of it
                _, faces, homogenized, memo = self._partner
                dual._setup(polytope, group, faces, above, self._face_maps)
                dual.group, dual._charpoly = homogenized, memo
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
    index_of = {f.mask: f.index for f in faces}
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


def _enumerate_faces(polytope: LatticePolytope) -> Tuple[Tuple[Face, ...], list]:
    """Every face, by closing the facets' vertex bitmasks under
    intersection, numbered in lexicographic order of vertex ids, and per
    face the indices of the faces below it, ascending.

    A face's vertex set is the intersection of its tight facets' (the
    apex's, of all of them), so the faces below ``f`` are the meet of the
    per-facet face bitmasks over ``f``'s tight facets.  A face's dimension
    is one more than the largest below it (the apex's is 0), found in order
    of how many faces lie below; :func:`_check_lattice` then rejects a
    lattice that is not a polytope's."""
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

    lattice = sorted((_members(s), s) for s in found)
    tights = [
        tuple(i for i, t in enumerate(facet_masks) if s & t == s) for _, s in lattice
    ]
    on_facet = [0] * len(facet_masks)
    for f, tight in enumerate(tights):
        for i in tight:
            on_facet[i] |= 1 << f
    everything = (1 << len(lattice)) - 1
    below_masks = []
    for tight in tights:
        faces_below = everything
        for i in tight:
            faces_below &= on_facet[i]
        below_masks.append(faces_below)
    below = [_members(s) for s in below_masks]
    dims = [0] * len(lattice)
    for f in sorted(range(len(lattice)), key=lambda f: len(below[f])):
        dims[f] = max((dims[g] + 1 for g in below[f] if g != f), default=0)
    _check_lattice(polytope, lattice, below_masks, dims)
    faces = tuple(
        Face(f, vertex_ids, tights[f], dims[f], s)
        for f, (vertex_ids, s) in enumerate(lattice)
    )
    return faces, below


def _check_lattice(polytope, lattice, below_masks, dims) -> None:
    """Raise :class:`NotAFaceLattice` unless the faces found form the face
    lattice of a polytope with these vertices: it must be atomic (each
    vertex is a face of its own), graded (each face covers only faces one
    dimension lower) and thin (each interval of length two has exactly two
    faces strictly inside).  A facet missing from a validated list, or a
    listed point that is not a vertex, breaks one of the three.

    Covers are bitmasks over face indices: those of face ``f`` are the faces
    of dimension ``dim f - 1`` below it, every face below ``f`` must lie
    below one of them, and each face of dimension ``dim f - 2`` below ``f``
    must lie below exactly two."""

    def named(f: int) -> str:
        return str([list(polytope.vertices[i]) for i in lattice[f][0]])

    faces = {s for _, s in lattice}
    for i, v in enumerate(polytope.vertices):
        if 1 << i not in faces:
            raise NotAFaceLattice(
                f"point {list(v)} is no face on its own: it is not a vertex,"
                " or a facet through it is missing"
            )
    by_dim = [0] * (max(dims) + 1)
    for f, k in enumerate(dims):
        by_dim[k] |= 1 << f
    for f, k in enumerate(dims):
        if k == 0:
            continue
        strict = below_masks[f] & ~(1 << f)
        reached = once = twice = more = 0
        for c in _members(strict & by_dim[k - 1]):
            reached |= below_masks[c]
            if k > 1:
                x = below_masks[c] & by_dim[k - 2]
                more |= twice & x
                twice |= once & x
                once |= x
        if reached != strict:
            raise NotAFaceLattice(
                f"face {named(f)} covers a face more than one dimension lower;"
                " a facet is missing"
            )
        if twice != once or more:
            g = _members((once & ~twice) | more)[0]
            raise NotAFaceLattice(
                f"faces {named(g)} < {named(f)} do not have exactly two faces"
                " between them; a facet is missing"
            )


def _dual_face(face: Face, cdim: int) -> Face:
    """The dual of ``face``, with its vertices and facets swapped and the
    complementary dimension."""
    ids = face.tight
    return Face(face.index, ids, face.vertex_ids, cdim - face.dim, _mask(ids))


def _span(rows, cdim: int) -> IntMatrix:
    """The Hermite basis of the lattice the cone rows ``rows`` cut out in
    ``Z^cdim``, saturated: their integer kernel, or everything for none."""
    if rows:
        return integer_kernel(IntMatrix(rows))
    return IntMatrix.identity(cdim)


def _action(span: IntMatrix, g: IntMatrix) -> IntMatrix:
    """The matrix of ``g`` on the row span of ``span``, in that basis."""
    cols = [solve_in_row_basis(span, g.apply(row)) for row in span.rows]
    return IntMatrix.from_columns(cols)


# face-restriction characteristic polynomials by (tight cone rows,
# element rows), for every complex in the process
_charpolys: Dict[tuple, UniPoly] = {}
counting.clear_with_counts(_charpolys.clear)


def _span_charpoly(cone_rows, faces, group, memo, key: Tuple[int, int]) -> UniPoly:
    """The characteristic polynomial of element ``key[1]`` of ``group`` on
    the span of face ``key[0]`` of ``faces`` in the cone with rows
    ``cone_rows``, kept in ``memo`` and, by the face's tight cone rows and
    the element's rows, in the process-wide store; the span is built only
    when the store misses."""
    hit = memo.get(key)
    if hit is None:
        f, e = key
        rows, g = tuple(cone_rows[i] for i in faces[f].tight), group.elements[e]
        data = (rows, g.rows)
        hit = _charpolys.get(data)
        if hit is None:
            hit = char_poly(_action(_span(rows, g.nrows), g))
            # the constant term is (-1)^dim det(rho)
            if hit.coefficient(0) not in (1, -1):  # pragma: no cover - sanity
                raise NonInvertible("face restriction is not unimodular")
            _charpolys[data] = hit
        memo[key] = hit
    return hit


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
