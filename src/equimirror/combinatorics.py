"""Equivariant face-count polynomials and their recursions.

For a group element fixing a face, the fixed lattice points of the
dilated face slices have a rational generating function whose numerator
``phi`` is the equivariant analogue of the Ehrhart numerator.  On top of
``phi`` sit three recursively defined families: the ``h``/``g`` pair of
local polynomials of a cone (computed on abstract poset intervals so the
same recursion serves faces, quotients and dual faces), and the
``stilde`` polynomial mixing ``phi`` with ``g`` of relative dual faces.

Everything is evaluated one group element at a time with exact integer
or rational arithmetic.  Each sum over the faces below a face (``stilde``,
``h`` from its children's ``g``, and the convolution and reconstruction
checks) adds every term's coefficient products into one list with
:func:`~equimirror.algebra.unipoly.accumulate` and builds one polynomial
at the end, so no term makes a polynomial of its own.  ``phi`` and
``stilde`` are class functions of
(face, element), so they are memoised per orbit of (face, element) under
simultaneous conjugation and computed only at the orbit's canonical pair
(:meth:`ConeComplex.canonical`); ``h`` and ``g`` are computed once per
interval shape (the dimension and the characteristic polynomials on the
interval, see :class:`HGTable`), however many (cone, element) pairs share
it.  A shape is data, never a complex or a group, so the shapes and their
``h``/``g`` are one store for every complex in the process, dropped by
``counting.clear_cache`` with the counts.  A complex has one set of the
three tables, :class:`Tables`, and
:func:`tables_for` is the only way to get it: the set is kept on the
complex, so every invariant, command and check shares its entries.  A
table refers to its complex weakly, so the two form no reference cycle.
Class-function views over a face's stabilizer are provided on each
table, together with an independent induction-based assembly of the top
polynomial used to cross-check the per-element sums.

``verify_identities`` checks the shared tables against their defining
identities — reciprocity against independently counted interior points,
palindromy, the convolution that characterises ``g``, and the
reconstruction of ``phi`` from lower faces — and reports any offending
(face, class) pair instead of silently trusting the pipeline.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from .algebra.classfun import ClassFun, ClassPoly
from .algebra.unipoly import UniPoly, _built, accumulate, series_ratio
from .errors import NotInvariant, PhiNotPolynomial
from .geometry import counting
from .geometry.cones import (
    AbstractCone,
    ConeComplex,
    abstract_dual_face,
    abstract_quotient,
)
from .records import Frozen

ONE = UniPoly.one()
T_MINUS_ONE = UniPoly((-1, 1))
ONE_MINUS_T = UniPoly((1, -1))

# The zero cone: dimension 0, top polynomial 1, nothing below the top.
_ZERO_SHAPE = (0, ONE, ())


def _fresh_shapes() -> tuple:
    """An empty shape store holding the zero shape: shape -> shape id,
    shape id -> shape, and ``h`` and ``g`` by shape id."""
    return {_ZERO_SHAPE: 0}, [_ZERO_SHAPE], {}, {}


# The shapes of every complex in the process.  Clearing replaces the store
# instead of emptying it: a table keeps the store it was made with, since
# the shape ids in its ``_shape_of`` name shapes of that store only.
_shape_store = _fresh_shapes()


def _clear_shapes() -> None:
    global _shape_store
    _shape_store = _fresh_shapes()


counting.clear_with_counts(_clear_shapes)


class _Table:
    """A table of one complex, which it refers to weakly: the complex keeps
    its tables, and a strong link back would make a reference cycle."""

    def __init__(self, complex: ConeComplex):
        self._complex = weakref.ref(complex)

    @property
    def complex(self) -> ConeComplex:
        return self._complex()


class PhiTable(_Table):
    """Ehrhart numerators of faces at the elements fixing them, one per
    orbit of (face, element), keyed by the canonical pair."""

    def __init__(self, complex: ConeComplex):
        super().__init__(complex)
        self._polys: Dict[Tuple[int, int], UniPoly] = {}

    def poly(self, f: int, e: int) -> UniPoly:
        cx = self.complex
        if not cx.is_invariant(f, e):
            raise NotInvariant(f"face {f} is not fixed by element {e}")
        key = cx.canonical(f, e)
        hit = self._polys.get(key)
        if hit is not None:
            return hit
        f, e = key
        k = cx.faces[f].dim
        if k == 0:
            value = ONE
        else:
            counts = UniPoly([cx.count_fixed(f, e, m) for m in range(k + 1)])
            value = (counts * cx.char_series(f, e)).truncate(k)
            if value.coefficient(k):
                raise PhiNotPolynomial(
                    f"face {f}, element {e}: numerator does not terminate "
                    f"by degree {k - 1}"
                )
            value = value.truncate(k - 1)
        self._polys[key] = value
        return value

    def override(self, f: int, e: int, poly: UniPoly) -> "PhiTable":
        """A copy with one entry replaced — the fault-injection hook used
        by the self-test's negative control.  Entries are kept per orbit,
        so this replaces the value at every pair ``(h f, h e h^-1)`` of
        the orbit of ``(f, e)``."""
        table = PhiTable(self.complex)
        table._polys = dict(self._polys)
        table._polys[self.complex.canonical(f, e)] = poly
        return table


class HGTable(_Table):
    """The local ``h``/``g`` polynomials of abstract cones.

    ``h`` of a k-dimensional cone at a fixing element is monic of degree
    k - 1, assembled from the proper faces; ``g`` is the truncation of
    ``(1 - t) h`` to degrees at most ``(k - 1) / 2``.  The zero cone has
    ``h = g = 1``.

    The recursion reads only the cone's *shape* at the element: its
    dimension, the characteristic polynomial of its top element, and the
    multiset of shapes of the subcones below the fixed ``x`` other than the
    top.  The polynomial of ``x`` that the recursion divides by is the top
    polynomial of the subcone below ``x``, so the child shapes carry it.  By
    induction ``h`` and ``g`` are functions of the shape (Stanley's toric
    ``h``/``g`` depend only on the interval; Stapledon, arXiv:1003.1738,
    gives the equivariant form), so each cone is reduced to an interned
    shape id and the polynomials are computed once per distinct shape.
    A shape mentions no face, element or group, so the interning and the
    polynomials by shape id are one store for every complex in the
    process: a model of another group, or the dual side, finds there the
    shapes an earlier one computed.  The store holds only tuples and
    polynomials; ``counting.clear_cache`` drops it, and tables made after
    that start a new one.  ``_shape_of`` (cone and element to shape id)
    and ``_h`` and ``_g``, the answers to outside calls per (cone,
    element), live on the table and are freed with the complex.
    """

    def __init__(self, complex: ConeComplex):
        super().__init__(complex)
        self._h: Dict[tuple, UniPoly] = {}
        self._g: Dict[tuple, UniPoly] = {}
        # cone.key + (e,) -> shape id
        self._shape_of: Dict[tuple, int] = {}
        # the process's store: shape -> shape id; shape id -> shape; h and
        # g by shape id
        (self._shape_ids, self._shapes,
         self._h_by_shape, self._g_by_shape) = _shape_store

    def h(self, cone: AbstractCone, e: int) -> UniPoly:
        key = cone.key + (e,)
        hit = self._h.get(key)
        if hit is not None:
            return hit
        value = self._shape_h(self._shape(cone.complex, key))
        self._h[key] = value
        return value

    def g(self, cone: AbstractCone, e: int) -> UniPoly:
        key = cone.key + (e,)
        hit = self._g.get(key)
        if hit is not None:
            return hit
        value = self._shape_g(self._shape(cone.complex, key))
        self._g[key] = value
        return value

    def _shape(self, cx: ConeComplex, key: tuple) -> int:
        """The interned shape id of the cone ``(kind, base, ambient)`` of
        ``cx`` at element ``e``, for ``key = (kind, base, ambient, e)``.

        The recursion runs on these flat keys and reads the face maps
        directly; an :class:`AbstractCone` is made only for a key not seen
        before, to read its top polynomial."""
        shape_of = self._shape_of
        sid = shape_of.get(key)
        if sid is not None:
            return sid
        kind, base, ambient, e = key
        faces = cx.faces
        k = faces[ambient].dim - faces[base].dim
        if k == 0:
            return 0
        fixed = cx._face_maps[e]
        quotient = kind == "Q"
        top, bottom = (ambient, base) if quotient else (base, ambient)
        if fixed[top] != top:
            raise NotInvariant(f"cone {key[:3]} is not fixed by element {e}")
        below = []
        for x in cx.interval(base, ambient):
            if x == top or fixed[x] != x:
                continue
            if x == bottom:  # the zero cone
                below.append(0)
                continue
            sub = (kind, base, x, e) if quotient else (kind, x, ambient, e)
            sid = shape_of.get(sub)
            below.append(self._shape(cx, sub) if sid is None else sid)
        below.sort()
        cone = AbstractCone(cx, kind, base, ambient)
        shape = (k, cone.element_charpoly(top, e), tuple(below))
        sid = self._shape_ids.get(shape)
        if sid is None:
            sid = self._shape_ids[shape] = len(self._shapes)
            self._shapes.append(shape)
        shape_of[key] = sid
        return sid

    def _shape_h(self, sid: int) -> UniPoly:
        value = self._h_by_shape.get(sid)
        if value is None:
            value = self._h_by_shape[sid] = self._compute_h(sid)
        return value

    def _shape_g(self, sid: int) -> UniPoly:
        value = self._g_by_shape.get(sid)
        if value is None:
            k = self._shapes[sid][0]
            if k == 0:
                value = ONE
            else:
                value = (ONE_MINUS_T * self._shape_h(sid)).truncate((k - 1) // 2)
            self._g_by_shape[sid] = value
        return value

    def _compute_h(self, sid: int) -> UniPoly:
        k, char_top, below = self._shapes[sid]
        if k == 0:
            return ONE
        acc = []
        for sub in below:
            ratio = char_top.exact_div(T_MINUS_ONE * self._shapes[sub][1])
            accumulate(acc, 1, ratio.coeffs, self._shape_g(sub).coeffs)
        return _built(acc)

    def h_face(self, f: int, e: int) -> UniPoly:
        cx = self.complex
        return self.h(abstract_quotient(cx, cx.apex_index, f), e)

    def g_face(self, f: int, e: int) -> UniPoly:
        cx = self.complex
        return self.g(abstract_quotient(cx, cx.apex_index, f), e)


class StildeTable(_Table):
    """The mixed polynomials combining ``phi`` with dual-face ``g``, one
    per orbit of (face, element), keyed by the canonical pair."""

    def __init__(self, complex: ConeComplex, phi_table: PhiTable, hg_table: HGTable):
        super().__init__(complex)
        self.phi = phi_table
        self.hg = hg_table
        self._polys: Dict[Tuple[int, int], UniPoly] = {}

    def poly(self, f: int, e: int) -> UniPoly:
        cx = self.complex
        if not cx.is_invariant(f, e):
            raise NotInvariant(f"face {f} is not fixed by element {e}")
        key = cx.canonical(f, e)
        hit = self._polys.get(key)
        if hit is not None:
            return hit
        f, e = key
        top_dim = cx.faces[f].dim
        acc = []
        for sub in cx.faces_below(f):
            if not cx.is_invariant(sub, e):
                continue
            sign = -1 if (top_dim - cx.faces[sub].dim) % 2 else 1
            accumulate(
                acc,
                sign * cx.detsign(sub, e),
                self.phi.poly(sub, e).coeffs,
                self.hg.g(abstract_dual_face(cx, sub, f), e).coeffs,
            )
        value = self._polys[key] = _built(acc)
        return value

    def class_poly_by_induction(self, f: Optional[int] = None) -> ClassPoly:
        """The same class function assembled orbit by orbit.

        Each stabilizer contributes its term as a class function which is
        then induced up to the full group; summing over face orbits must
        reproduce :meth:`poly` at ``f`` and one element of each class.
        Used as an independent cross-check of the per-element evaluation.
        """
        cx = self.complex
        if f is None:
            f = cx.top_index
        if any(not cx.is_invariant(f, e) for e in range(cx.group.order)):
            raise NotInvariant("induction form needs a face fixed by the whole group")
        top_dim = cx.faces[f].dim
        total = ClassFun(cx.group, tuple(UniPoly.zero() for _ in cx.group.classes))
        seen = set()
        for sub in cx.faces_below(f):
            if sub in seen:
                continue
            orbit = {cx.face_image(e, sub) for e in range(cx.group.order)}
            seen |= orbit
            stab = cx.face_stabilizer(sub)
            sign = -1 if (top_dim - cx.faces[sub].dim) % 2 else 1
            values = []
            for rep in stab.class_rep_elements():
                e = cx.group.index_of[rep]
                values.append(
                    self.phi.poly(sub, e)
                    * self.hg.g(abstract_dual_face(cx, sub, f), e)
                    * (sign * cx.detsign(sub, e))
                )
            total = total + ClassFun(stab, tuple(values)).induce(cx.group)
        return total


class Tables(Frozen):
    """The three combinatorial tables of one complex, computed lazily."""

    __slots__ = ("phi", "hg", "stilde")

    def __init__(self, phi: PhiTable, hg: HGTable, stilde: StildeTable):
        self._fill(phi, hg, stilde)


def tables_for(complex: ConeComplex) -> Tables:
    """The complex's tables, the only way to get them: they are kept on the
    complex, so every caller shares one set and it is freed with the
    complex."""
    if complex.tables is None:
        phi_table = PhiTable(complex)
        hg_table = HGTable(complex)
        complex.tables = Tables(
            phi_table, hg_table, StildeTable(complex, phi_table, hg_table)
        )
    return complex.tables


def mobius_gamma(complex: ConeComplex, lower: int, upper: int, e: int) -> int:
    """Moebius function of the subposet of faces fixed by element ``e``.

    Both endpoints must be fixed; faces in between that are not fixed
    simply drop out of the poset.
    """
    for f in (lower, upper):
        if not complex.is_invariant(f, e):
            raise NotInvariant(f"face {f} is not fixed by element {e}")
    if not complex.leq(lower, upper):
        return 0
    chain = [
        f for f in complex.interval(lower, upper) if complex.is_invariant(f, e)
    ]
    chain.sort(key=lambda f: complex.faces[f].dim)
    mu: Dict[int, int] = {}
    for f in chain:
        if f == lower:
            mu[f] = 1
            continue
        mu[f] = -sum(
            mu[g] for g in chain if g != f and complex.leq(g, f) and complex.leq(lower, g)
        )
    return mu[upper]


# -- identity verification ----------------------------------------------------

# How many dilation steps beyond the face dimension reciprocity compares.
_RECIPROCITY_DEPTH = 3


class IdentityCheck(Frozen):
    """One identity's failures, as (face, class, message) triples."""

    __slots__ = ("name", "failures")

    def __init__(self, name: str, failures: Tuple[Tuple[int, int, str], ...]):
        self._fill(name, failures)

    @property
    def ok(self) -> bool:
        return not self.failures


class IdentityReport(Frozen):
    """The checks of one verification run."""

    __slots__ = ("checks",)

    def __init__(self, checks: Tuple[IdentityCheck, ...]):
        self._fill(checks)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else f"FAILED x{len(c.failures)}"
            lines.append(f"{c.name}: {status}")
            for f, k, msg in c.failures[:3]:
                lines.append(f"  face {f}, class {k}: {msg}")
        return "\n".join(lines)


def verify_identities(
    complex: ConeComplex, phi_table: Optional[PhiTable] = None
) -> IdentityReport:
    """Re-derive the defining identities of the complex's tables, per
    conjugacy class.

    ``phi_table`` may be a doctored table (see :meth:`PhiTable.override`);
    the reciprocity and reconstruction checks will then point at the
    corrupted face and class.  It is paired with the complex's own ``h``/``g``
    table, which never reads ``phi``, in a throwaway ``Stilde`` table, so the
    shared tables never see the doctored values.
    """
    cx = complex
    tables = tables_for(cx)
    hg_t = tables.hg
    if phi_table is None:
        phi_t, st_t = tables.phi, tables.stilde
    else:
        phi_t, st_t = phi_table, StildeTable(cx, phi_table, hg_t)
    reps = [(k, cx.group.class_reps[k]) for k in range(len(cx.group.classes))]

    reciprocity: List[Tuple[int, int, str]] = []
    h_palin: List[Tuple[int, int, str]] = []
    s_palin: List[Tuple[int, int, str]] = []
    convolution: List[Tuple[int, int, str]] = []
    reconstruction: List[Tuple[int, int, str]] = []

    for k, e in reps:
        for f in cx.invariant_faces(e):
            dim = cx.faces[f].dim
            phi_f = phi_t.poly(f, e)
            char_f = cx.char_series(f, e)
            below = [sub for sub in cx.faces_below(f) if cx.is_invariant(sub, e)]
            if dim > 0:
                order = dim + _RECIPROCITY_DEPTH
                expected = series_ratio(phi_f.reverse(dim), char_f, order)
                got = [
                    cx.count_fixed(f, e, m, interior=True) for m in range(order + 1)
                ]
                if list(expected) != got:
                    reciprocity.append(
                        (f, k, f"interior counts {got} != series {list(expected)}")
                    )

                h_poly = hg_t.h_face(f, e)
                if h_poly != h_poly.reverse(dim - 1):
                    h_palin.append((f, k, f"h = {h_poly} is not palindromic"))

                acc = []
                for sub in below:
                    sign = -1 if cx.faces[sub].dim % 2 else 1
                    accumulate(
                        acc,
                        sign * cx.detsign(sub, e),
                        hg_t.g(abstract_quotient(cx, sub, f), e).coeffs,
                        hg_t.g(abstract_dual_face(cx, cx.apex_index, sub), e).coeffs,
                    )
                total = _built(acc)
                if total:
                    convolution.append((f, k, f"convolution sums to {total}"))

            s_poly = st_t.poly(f, e)
            if s_poly != s_poly.reverse(dim):
                s_palin.append((f, k, f"stilde = {s_poly} is not palindromic"))

            acc = []
            for sub in below:
                ratio = char_f.exact_div(cx.char_series(sub, e))
                phi_sub = phi_t.poly(sub, e).reverse(cx.faces[sub].dim)
                accumulate(acc, 1, phi_sub.coeffs, ratio.coeffs)
            rebuilt = _built(acc)
            if rebuilt != phi_f:
                reconstruction.append((f, k, f"rebuilt {rebuilt} != table {phi_f}"))

    return IdentityReport(
        (
            IdentityCheck("reciprocity", tuple(reciprocity)),
            IdentityCheck("h-palindromy", tuple(h_palin)),
            IdentityCheck("stilde-palindromy", tuple(s_palin)),
            IdentityCheck("g-convolution", tuple(convolution)),
            IdentityCheck("phi-reconstruction", tuple(reconstruction)),
        )
    )
