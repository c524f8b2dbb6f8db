"""The face poset of a cone over a polytope, with its group action.

:class:`ConeComplex` takes a full-dimensional lattice polytope and a
matrix group preserving it (:class:`NotInvariant` otherwise) and holds
the faces of the cone over the polytope and the faces below each one, as
the polytope built and checked them (:mod:`.polytope`), and the induced
action of each group element on the faces.  Only the group's generators
are applied to the vertices, a face's image looked up by the bitmask of
its moved vertices; every other element's face map is composed from
those along the group's closure (element ``x = g a`` maps face ``f`` to
``g (a f)``).  A face is lattice data only; its
span, the integer kernel of its tight cone rows, is computed by
:meth:`ConeComplex.span` where a value needs it.  The one fact kept
about a restriction is its characteristic polynomial, one per orbit of
(face, element) under ``h . (f, e) = (h f, h e h^-1)`` (conjugate
restrictions share it), keyed by the orbit's :meth:`ConeComplex.canonical`
pair; its determinant is read off the constant term.  The polynomial is a
function of the face's tight cone rows and the element's rows alone, so
it is kept in one store for the process, keyed by that data, and no
complex keeps a canonical memo of its own: a model of another group of
the same polytope finds there what an earlier model computed, whichever
order they run in.  A span is built only when the store misses.  The
store holds only tuples and polynomials and ``counting.clear_cache``
drops it with the counts.

Every value a complex's tables hold is a class function of (face,
element) under any lattice symmetry of the polytope, so the stringy
values of a model of a simplex ``P`` and of its mirror, with the sign of
the mirror identity, are read off one complex of ``P`` under its whole
symmetry group ``Aut(P)`` and its dual, kept for the process
(:func:`automorphism_side`): models of different subgroups share its
canonical pairs, tables and stringy values, and build no dual of their
own for them.  That is done only where ``Aut(P)`` is small: at most
:data:`AUT_ORDER_LIMIT` and the model's group cap.

A dual complex (:meth:`ConeComplex.dual`) is built by the same
constructor, on its partner's polar dual and the contragredient group,
and is read off its partner: the polar dual's face lattice is the
partner's upside down, and it orders its faces as its partner does:
face ``i`` is dual to face ``i`` as element ``e`` is to element ``e``,
so its apex is not face 0, and the face maps composed from the
contragredient generators are the partner's.  The build does no integer
linear algebra and checks no lattice.  Its characteristic polynomials are
quotients of its partner's two store values (the span of a dual face is
the annihilator of its partner's span, on which an element acts as the
contragredient of its action on the quotient by that span), and
``UniPoly.exact_div`` keeps each quotient.  The two share one least-face
table for :meth:`ConeComplex.canonical`.

The module also provides the abstract cones the recursions run on:
intervals of the face poset read either upward (quotient cones) or
downward (dual face cones), carrying ratios of the concrete
characteristic polynomials.  A face with its own face poset is the
quotient by the apex, ``abstract_quotient(cx, cx.apex_index, f)``.
"""

from __future__ import annotations

import weakref
from math import factorial
from operator import attrgetter
from typing import Dict, Optional, Tuple

from ..algebra.unipoly import UniPoly, clear_quotients
from ..errors import NonInvertible, NotInvariant, SubgroupMismatch
from ..groups import GROUP_CAP_DEFAULT, MatrixGroup, orbits, stabilizer
from . import counting
from .intlinalg import IntMatrix, char_poly, integer_kernel, solve_in_row_basis
from .polytope import LatticePolytope


class ConeComplex:
    """Cone over a polytope together with a lattice group action.

    ``cap_group`` bounds the groups the complex builds for its own work
    beside ``group`` (the ``Aut(P)`` of :func:`automorphism_side`), as the
    model's cap bounds ``group``; its dual keeps it.

    :class:`NotInvariant` is raised when a generator of ``group`` maps a
    vertex off the polytope: the group preserves it if and only if its
    generators do."""

    def __init__(
        self,
        polytope: LatticePolytope,
        group: MatrixGroup,
        cap_group: int = GROUP_CAP_DEFAULT,
    ):
        d = polytope.dim
        if group.dim != d:
            raise SubgroupMismatch(
                f"group acts on Z^{group.dim} but the polytope lives in Z^{d}"
            )
        faces = polytope.faces
        maps = [()] * group.order
        maps[group.identity_index] = tuple(range(len(faces)))
        generators = [group.elements[g] for g in group.generators]
        images = _face_maps(_vertex_action(polytope, generators), faces)
        for g, image in zip(group.generators, images):
            maps[g] = image
        for x, g, a in group.closure:  # x = g a, so x f = g (a f)
            maps[x] = tuple(map(maps[g].__getitem__, maps[a]))
        self.polytope = polytope
        self.cap_group = cap_group
        self.base_group = group
        self.dim = d
        self.cdim = d + 1
        self.group = group.image(_homogenize)
        self.faces = faces
        self.apex_index = next(f.index for f in faces if f.dim == 0)
        self.top_index = next(f.index for f in faces if f.dim == self.cdim)
        self._below: Tuple[Tuple[int, ...], ...] = polytope.below
        self._face_maps: Tuple[Tuple[int, ...], ...] = tuple(maps)
        self._canonical_faces: Dict[int, Tuple[int, ...]] = {}
        # charpoly by the pair asked for, in front of canonical()
        self._raw_charpoly: Dict[Tuple[int, int], UniPoly] = {}
        # on a complex read off its partner, the partner's polytope and
        # homogenized group; None on a complex built here
        self._partner = None
        # the dual itself if this complex built it, else a weak back-link
        self._dual = None
        self.tables = None  # the combinatorial tables, set by tables_for
        # the stringy E-polynomial's value (a BiLaurent) per class index,
        # each computed once, on demand, by the invariants that read it
        self.stringy_values: Dict[int, object] = {}
        # the affine E-polynomial of a face's slice (a BiLaurent) per
        # canonical pair, kept the same way
        self.affine_values: Dict[Tuple[int, int], object] = {}

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
        (its roots are roots of unity, closed under conjugation).

        The canonical values live in the process-wide store and the
        quotients in ``UniPoly.exact_div``'s; only each pair asked for is
        kept here, so a repeat skips ``canonical``."""
        hit = self._raw_charpoly.get((f, e))
        if hit is not None:
            return hit
        key = self.canonical(f, e)
        partner = self._partner
        if partner is None:
            hit = _span_charpoly(self.polytope, self.group, key)
        else:
            top = _span_charpoly(*partner, (self.apex_index, key[1]))
            hit = top.exact_div(_span_charpoly(*partner, key))
        self._raw_charpoly[(f, e)] = hit
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
        does, since ``<g^-T a, g v> = <a, v>``: the face maps its
        constructor composes from the contragredient generators are this
        complex's, and the faces below face ``i`` there are the faces above
        it here, as :meth:`LatticePolytope.dual_reflexive` reads them.

        The dual is built by the constructor, on
        :meth:`LatticePolytope.dual_reflexive` and
        :meth:`MatrixGroup.dual_group`, so it does no integer linear algebra
        and checks no lattice.  It keeps its partner's polytope and
        homogenized group, and reads each :meth:`charpoly` off the store by
        them.  Both complexes have the same face maps and their groups share
        classes, conjugators and centralizers, so they share one least-face
        table for :meth:`canonical` and one canonical pair per orbit.

        Polar duality and the contragredient are involutions, so the dual's
        dual is ``self`` while ``self`` is alive.  The complex that builds
        the dual holds it; the dual links back weakly, so dropping the last
        reference to a model frees it without the cycle collector.  What the
        dual keeps of its partner refers to neither complex, so it outlives
        the complex that built it: if that one is gone, the dual's dual is
        built again on the kept polytope, under the contragredient of the
        dual's group, whose element ``e`` is the partner's, and is the same
        complex again, its characteristic polynomials read from the store as
        before."""
        dual = self._dual
        if isinstance(dual, weakref.ref):
            dual = dual()
        if dual is None:
            group = self.base_group.dual_group()
            if self._partner is None:
                polytope = self.polytope.dual_reflexive()
                dual = ConeComplex(polytope, group, self.cap_group)
                dual._partner = (self.polytope, self.group)
            else:  # the partner is gone: build it again
                dual = ConeComplex(self._partner[0], group, self.cap_group)
            dual._canonical_faces = self._canonical_faces
            dual._dual = weakref.ref(self)
            self._dual = dual
        return dual


# -- the (P, Aut(P)) complex of a simplex --------------------------------------

# The largest (d + 1)!, the bound on |Aut(P)| of a simplex, for which models
# read the registry.  At 120 (the quintic) the nine-model sweep runs about
# 40% faster and a lone model pays at most about 9 ms (in process) for
# building Aut(P); at 720 and 5,040 a lone model of a small subgroup pays
# more for it than it saves (fermat5 under a 6-cycle 107 -> 181 ms).
AUT_ORDER_LIMIT = 120

# per primal simplex, by its vertices: the complex of Aut(P), made by
# automorphism_side for the first model of P that asks for it
_aut_complexes: Dict[tuple, ConeComplex] = {}
counting.clear_with_counts(_aut_complexes.clear)


def automorphism_side(complex: ConeComplex) -> Optional[ConeComplex]:
    """The side of the process's ``(P, Aut(P))`` complex that matches
    ``complex``, with ``P`` the polytope of ``complex``'s primal side: that
    complex for a primal, its :meth:`ConeComplex.dual` for a dual.

    ``None`` unless ``P`` is a simplex whose bound ``(d + 1)!`` on
    ``|Aut(P)|`` is at most :data:`AUT_ORDER_LIMIT` and ``complex``'s
    ``cap_group``: the caller then sums its own tables.

    ``complex``'s group is a subgroup of ``Aut(P)`` (it preserves ``P``), so
    element ``e`` here is the element with the same matrix there, and a
    class function of ``Aut(P)`` restricts to one here.  The registry makes
    the complex the first time ``P`` is asked for, as
    ``ConeComplex(P, Aut(P))`` with ``Aut(P)`` built from the matrices
    :meth:`LatticePolytope.simplex_automorphisms` finds (a closure checked
    in full, whose face maps are composed from its generators').  A
    model's group of ``|Aut(P)|`` elements is ``Aut(P)`` with the same
    sorted elements, so it is used as it is, and one of order ``(d + 1)!``
    needs no search.  The registry holds no model, so a model
    is still freed by reference counting; ``counting.clear_cache`` empties
    it."""
    partner = complex._partner
    polytope = complex.polytope if partner is None else partner[0]
    bound = factorial(polytope.dim + 1)
    if (
        len(polytope.vertices) != polytope.dim + 1
        or bound > min(AUT_ORDER_LIMIT, complex.cap_group)
    ):
        return None
    shared = _aut_complexes.get(polytope.vertices)
    if shared is None:
        group = complex.base_group
        if partner is not None:  # a dual's elements are the contragredients
            group = group.dual_group()
        if group.order < bound:
            symmetries = polytope.simplex_automorphisms()
            if len(symmetries) > group.order:
                group = MatrixGroup(symmetries)
        shared = ConeComplex(polytope, group, complex.cap_group)
        _aut_complexes[polytope.vertices] = shared
    return shared if partner is None else shared.dual()


def _vertex_action(polytope, elements) -> Tuple[Tuple[int, ...], ...]:
    """Per element, the index of each vertex's image."""
    vertex_of = {v: i for i, v in enumerate(polytope.vertices)}
    images = []
    for g in elements:
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
    vertex_ids = [f.vertex_ids for f in faces]
    maps = []
    for row in images:
        bit = [1 << j for j in row].__getitem__
        maps.append(tuple([index_of[sum(map(bit, ids))] for ids in vertex_ids]))
    return tuple(maps)


def _homogenize(g: IntMatrix) -> IntMatrix:
    rows = tuple(row + (0,) for row in g.rows)
    return IntMatrix._derived(rows + ((0,) * g.nrows + (1,),))


def _span(rows, cdim: int) -> IntMatrix:
    """The Hermite basis of the lattice the cone rows ``rows`` cut out in
    ``Z^cdim``, saturated: their integer kernel, or everything for none."""
    if rows:
        return integer_kernel(IntMatrix._derived(tuple(rows)))
    return IntMatrix.identity(cdim)


def _action(span: IntMatrix, g: IntMatrix) -> IntMatrix:
    """The matrix of ``g`` on the row span of ``span``, in that basis."""
    cols = [solve_in_row_basis(span, g.apply(row)) for row in span.rows]
    return IntMatrix._derived(tuple(zip(*cols)))


# face-restriction characteristic polynomials by (tight cone rows,
# element rows), for every complex in the process
_charpolys: Dict[tuple, UniPoly] = {}
counting.clear_with_counts(_charpolys.clear)
# the exact quotients of UniPoly.exact_div, most of them of these polynomials
counting.clear_with_counts(clear_quotients)


def _span_charpoly(polytope, group, key: Tuple[int, int]) -> UniPoly:
    """The characteristic polynomial of element ``key[1]`` of ``group`` on
    the span of face ``key[0]`` of the cone over ``polytope``, kept in the
    process-wide store by the face's tight cone rows and the element's
    rows; the span is built only when the store misses."""
    f, e = key
    cone_rows, g = polytope.cone_rows, group.elements[e]
    rows = tuple(cone_rows[i] for i in polytope.faces[f].tight)
    data = (rows, g.rows)
    hit = _charpolys.get(data)
    if hit is None:
        hit = char_poly(_action(_span(rows, g.nrows), g))
        # the constant term is (-1)^dim det(rho)
        if hit.coefficient(0) not in (1, -1):  # pragma: no cover - sanity
            raise NonInvertible("face restriction is not unimodular")
        _charpolys[data] = hit
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

    The ``h``/``g`` recursion builds one per (cone, element) it has not seen,
    so the fields are plain slots behind read-only properties: no
    per-field ``object.__setattr__`` in the constructor.
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


def abstract_quotient(complex: ConeComplex, base: int, ambient: int) -> AbstractCone:
    """The cone ``ambient / base``."""
    return AbstractCone(complex, "Q", base, ambient)


def abstract_dual_face(complex: ConeComplex, base: int, ambient: int) -> AbstractCone:
    """The face dual to ``base`` inside the dual of ``ambient``."""
    return AbstractCone(complex, "D", base, ambient)
