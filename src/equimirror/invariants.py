"""Hodge-Deligne and stringy invariants of non-degenerate hypersurfaces.

Everything here is assembled from the combinatorial layer: the torus part
is a characteristic polynomial evaluated at ``uv``, the hypersurface part
is a face sum mixing the Ehrhart numerators, the boundary polynomials and
the quotient ``G``-polynomials.  All arithmetic is exact; whenever a
formula promises a polynomial (no negative exponents, bounded degree) that
promise is checked and a violation raises instead of silently truncating.

The tables come from :func:`tables_for`, one set per complex shared by
every function here.  Each stringy value is read off one side: on a
simplex (the Fermat family, its mirror) of dimension at most 4, within
the model's group cap, the complex of the polytope under its whole
lattice symmetry group ``Aut(P)``, shared by the process, at the
``Aut(P)``-class of each class representative; elsewhere the complex
itself.  The side keeps each class's value, summed once on its tables,
and :func:`mirror_check` reads both halves of the mirror identity and its
sign off that side and its dual.  The stratified formula
:func:`e_stringy_strata` runs on the model's own tables and dual, so
:func:`hypersurface_checks` compares the two.  Per-class results are
bundled into :class:`EPoly`.  The coefficients are
stored raw, i.e. as the alternating sums the formulas produce; the
``(-1)^{p+q}`` sign flip that turns them into Hodge numbers happens only
in :func:`hodge_diamond`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Optional, Sequence, Tuple

from .algebra import BiLaurent, ClassFun, ClassPoly, UniPoly
from .algebra.bilaurent import _built, accumulate_uv
from .combinatorics import T_MINUS_ONE, IdentityCheck, IdentityReport, tables_for
from .errors import (
    IdentityFailure,
    InexactDivision,
    NegativeExponent,
    NotReflexive,
    SubgroupMismatch,
)
from .geometry.cones import ConeComplex, abstract_quotient, automorphism_side
from .geometry.intlinalg import char_poly
from .groups import MatrixGroup
from .records import Frozen

_UV_INVERSE = BiLaurent.monomial(-1, -1)


# ---------------------------------------------------------------------------
# per-class container


class EPoly(Frozen):
    """One two-variable polynomial per conjugacy class.

    ``dim`` is the ambient dimension: the torus has dimension ``dim`` and a
    hypersurface in it has dimension ``dim - 1``.  ``kind`` records which
    formula produced the values ("torus", "affine", "stringy-reflexive",
    "stringy-strata").
    """

    __slots__ = ("group", "values", "dim", "kind")

    def __init__(
        self, group: MatrixGroup, values: Tuple[BiLaurent, ...], dim: int, kind: str
    ):
        if len(values) != len(group.classes):
            raise SubgroupMismatch(
                f"{len(values)} values for {len(group.classes)} classes"
            )
        self._fill(group, values, dim, kind)

    def value_at_class(self, k: int) -> BiLaurent:
        return self.values[k]

    def value_of_element(self, e: int) -> BiLaurent:
        """Value at the class of the element with index ``e``."""
        return self.values[self.group.class_of(e)]

    def classfun(self) -> ClassPoly:
        return ClassPoly(self.group, self.values)

    def coefficient(self, p: int, q: int) -> ClassFun:
        """The coefficient of ``u^p v^q`` as a class function."""
        return ClassFun(self.group, tuple(val.coefficient(p, q) for val in self.values))

    def quotient(self) -> BiLaurent:
        """Group average of the per-class values."""
        return self.classfun().average()


def _bounded(value: BiLaurent, cap: int, what: str) -> BiLaurent:
    if not value.is_polynomial():
        raise InexactDivision(f"{what} has a negative exponent: {value}")
    for p, q in value.terms:
        if p > cap or q > cap:
            raise IdentityFailure(f"{what} exceeds degree {cap} in one variable: {value}")
    return value


# ---------------------------------------------------------------------------
# tori


def e_torus(group: MatrixGroup) -> EPoly:
    """``det(uvI - M)`` per class: the equivariant E-polynomial of a torus
    on which the group acts by its own matrices."""
    values = []
    for rep in group.class_reps:
        values.append(BiLaurent.from_unipoly(char_poly(group.elements[rep]), 1, 1))
    return EPoly(group=group, values=tuple(values), dim=group.dim, kind="torus")


def face_torus_value(complex: ConeComplex, f: int, e: int) -> BiLaurent:
    """E-polynomial of the torus orbit of a nonzero face at one element.

    This is ``det(uvI - rho_F)/(uv - 1)``; the division is exact because a
    finite-order map preserving a pointed cone fixes an interior vector.
    """
    if complex.faces[f].dim == 0:
        raise NegativeExponent("the zero face carries no torus")
    reduced = complex.charpoly(f, e).exact_div(T_MINUS_ONE)
    return BiLaurent.from_unipoly(reduced, 1, 1)


# ---------------------------------------------------------------------------
# hypersurfaces in tori


def e_affine_face(complex: ConeComplex, f: int, e: int) -> BiLaurent:
    """E-polynomial of the hypersurface slice in one face's torus.

    For a nonzero face ``F`` and group element ``e`` this evaluates

        (1/uv) * [ det(uvI - rho_F)/(uv-1)
                   + (-1)^{dim F} det(rho_F) *
                     sum over invariant faces F' <= F (including the zero
                     face and F itself) of
                     u^{dim F'} det(rho_{F'}) Stilde(F', v/u) G(F/F', uv) ]

    with all dimensions cone dimensions.  The result is a polynomial; a
    negative exponent surviving the cancellation is an implementation
    fault and raises :class:`InexactDivision`.

    It is a class function of (face, element), so it is computed once per
    orbit, at :meth:`ConeComplex.canonical`'s pair, and kept on the complex
    (``complex.affine_values``).
    """
    key = complex.canonical(f, e)
    value = complex.affine_values.get(key)
    if value is not None:
        return value
    f, e = key
    tables = tables_for(complex)
    faces = complex.faces
    sign = -complex.detsign(f, e) if faces[f].dim % 2 else complex.detsign(f, e)
    total = dict(face_torus_value(complex, f, e).terms)
    for sub in complex.faces_below(f):
        if not complex.is_invariant(sub, e):
            continue
        accumulate_uv(
            total,
            sign * complex.detsign(sub, e),
            faces[sub].dim,
            tables.stilde.poly(sub, e).coeffs,
            tables.hg.g(abstract_quotient(complex, sub, f), e).coeffs,
        )
    value = _built(total) * _UV_INVERSE
    if not value.is_polynomial():
        raise InexactDivision(
            f"affine E-polynomial of face {f} is not polynomial: {value}"
        )
    complex.affine_values[key] = value
    return value


def e_affine_hypersurface(complex: ConeComplex) -> EPoly:
    """Per-class E-polynomial of a non-degenerate hypersurface in the torus."""
    top = complex.top_index
    values = tuple(
        _bounded(e_affine_face(complex, top, e), complex.dim - 1, "affine E-polynomial")
        for e in complex.group.class_reps
    )
    return EPoly(group=complex.group, values=values, dim=complex.dim, kind="affine")


# ---------------------------------------------------------------------------
# stringy invariants of reflexive hypersurfaces


def e_stringy_reflexive(complex: ConeComplex) -> EPoly:
    """Stringy E-polynomial via the pairing of primal and dual Stilde data.

    Per class the value is

        (det(rho)/uv) * sum over invariant faces F (including the zero face
        and the full cone) of
        (-u)^{dim F} det(rho_F) Stilde(F, v/u) Stilde(F*, uv)

    where ``F*`` is the dual face, the same index in the dual complex,
    and its polynomial is evaluated at the contragredient element (the
    same element index there).

    Class ``k`` reads the value the complex's side keeps at its class
    there (:func:`_side_classes`).
    """
    side, classes = _side_classes(complex)
    values = tuple(_stringy_class_value(side, k) for k in classes)
    return EPoly(
        group=complex.group, values=values, dim=complex.dim, kind="stringy-reflexive"
    )


def _side_classes(complex: ConeComplex) -> Tuple[ConeComplex, Tuple[int, ...]]:
    """The side that keeps the stringy values of ``complex`` and, per class
    here, the class there.  They are class functions of (face, element)
    under every lattice symmetry of the polytope, so on a small simplex the
    side is the process's ``(P, Aut(P))`` complex, shared by every model of
    ``P`` (:func:`~equimirror.geometry.cones.automorphism_side`); elsewhere
    it is ``complex`` itself."""
    if not complex.polytope.is_reflexive():
        raise NotReflexive("stringy invariants need a reflexive polytope")
    side = automorphism_side(complex)
    if side is None:
        side = complex
    index_of, class_of = side.base_group.index_of, side.group.class_of
    classes = tuple(
        class_of(index_of[complex.base_element(e)]) for e in complex.group.class_reps
    )
    return side, classes


def _stringy_class_value(complex: ConeComplex, k: int) -> BiLaurent:
    """The stringy value at class ``k`` of the complex, from its tables and
    its dual's, computed once per complex and class."""
    value = complex.stringy_values.get(k)
    if value is not None:
        return value
    e = complex.group.class_reps[k]
    tables = tables_for(complex)
    dual_tables = tables_for(complex.dual())
    top_sign = complex.detsign(complex.top_index, e)
    total = {}
    for face in complex.invariant_faces(e):
        face_dim = complex.faces[face].dim
        sign = complex.detsign(face, e) * (-1 if face_dim % 2 else 1)
        accumulate_uv(
            total,
            top_sign * sign,
            face_dim,
            tables.stilde.poly(face, e).coeffs,
            dual_tables.stilde.poly(face, e).coeffs,
        )
    scaled = _built(total) * _UV_INVERSE
    if not scaled.is_polynomial():
        raise InexactDivision(f"stringy E-polynomial is not polynomial: {scaled}")
    value = _bounded(scaled, complex.dim - 1, "stringy E-polynomial")
    complex.stringy_values[k] = value
    return value


def e_stringy_strata(complex: ConeComplex) -> EPoly:
    """Stringy E-polynomial as a sum of torus-orbit strata.

    Per class: the sum over invariant nonzero faces ``F`` of the affine
    E-polynomial of the slice in ``F``'s torus times ``phi_{F*}[uv]`` of
    the dual face at the contragredient element.  Must agree with
    :func:`e_stringy_reflexive` exactly.
    """
    if not complex.polytope.is_reflexive():
        raise NotReflexive("stringy invariants need a reflexive polytope")
    dual_tables = tables_for(complex.dual())
    values = []
    for e in complex.group.class_reps:
        total = BiLaurent.zero()
        for face in complex.invariant_faces(e):
            if complex.faces[face].dim == 0:
                continue
            slice_part = e_affine_face(complex, face, e)
            weight = BiLaurent.from_unipoly(
                dual_tables.phi.poly(face, e), 1, 1
            )
            total = total + slice_part * weight
        values.append(_bounded(total, complex.dim - 1, "stringy E-polynomial"))
    return EPoly(
        group=complex.group,
        values=tuple(values),
        dim=complex.dim,
        kind="stringy-strata",
    )


def _specialize_v_one(value: BiLaurent) -> BiLaurent:
    """Substitute ``v = 1``, keeping the result exact in ``u``."""
    return BiLaurent(((p, 0), c) for (p, _q), c in value.terms.items())


def hypersurface_checks(complex: ConeComplex) -> IdentityReport:
    """Cross-checks tying the hypersurface formulas to independent data.

    * high coefficients: in total degree above ``d - 1`` the affine
      E-polynomial must agree with ``(1/uv) det(uvI - rho)`` per class;
    * ``v = 1``: the affine E-polynomial must collapse to
      ``(1/u)(det(uI - rho) + (-1)^{d+1} det(rho) phi_C(u))`` per class;
    * stringy self-duality ``E_st(u,v) = (uv)^{d-1} E_st(1/u,1/v)`` and
      the agreement of the two stringy formulas (reflexive only).

    Failures are reported as ``(face, class, message)`` triples like the
    combinatorial identity report, so a hit can be rerun per class.
    """
    cx = complex
    d = cx.dim
    top = cx.top_index
    affine = e_affine_hypersurface(cx)
    phi_table = tables_for(cx).phi
    torus = e_torus(cx.base_group)
    high = []
    collapse = []
    for k, e in enumerate(cx.group.class_reps):
        a_val = affine.value_at_class(k)
        t_val = torus.value_at_class(k) * _UV_INVERSE
        for p, q in sorted(set(a_val.terms) | set(t_val.terms)):
            if p + q <= d - 1:
                continue
            if a_val.coefficient(p, q) != t_val.coefficient(p, q):
                high.append(
                    (top, k, f"coefficient u^{p} v^{q} disagrees with the torus")
                )
        left = _specialize_v_one(a_val)
        sign = cx.detsign(top, e) * (-1 if (d + 1) % 2 else 1)
        bracket = BiLaurent.from_unipoly(
            char_poly(cx.base_element(e)), 1, 0
        ) + sign * BiLaurent.from_unipoly(phi_table.poly(top, e), 1, 0)
        if left != bracket * BiLaurent.monomial(-1, 0):
            collapse.append((top, k, "v = 1 specialization disagrees"))
    checks = [
        IdentityCheck("affine high-degree torus agreement", tuple(high)),
        IdentityCheck("affine v=1 specialization", tuple(collapse)),
    ]
    if cx.polytope.is_reflexive():
        st = e_stringy_reflexive(cx)
        strata = e_stringy_strata(cx)
        self_dual = []
        agreement = []
        inv = BiLaurent.monomial(d - 1, d - 1)
        for k in range(len(cx.group.classes)):
            value = st.value_at_class(k)
            if value != inv * value.invert_u().invert_v():
                self_dual.append(
                    (top, k, "E_st(u,v) != (uv)^(d-1) E_st(1/u,1/v)")
                )
            if value != strata.value_at_class(k):
                agreement.append(
                    (top, k, "paired and stratified stringy formulas disagree")
                )
        checks.append(IdentityCheck("stringy self-duality", tuple(self_dual)))
        checks.append(IdentityCheck("stringy strata agreement", tuple(agreement)))
    return IdentityReport(tuple(checks))


# ---------------------------------------------------------------------------
# the mirror identity


class MirrorReport(Frozen):
    """Both sides of the mirror identity per class, plus the residuals."""

    __slots__ = ("group", "dim", "left", "right", "residual")

    def __init__(
        self,
        group: MatrixGroup,
        dim: int,
        left: Tuple[BiLaurent, ...],
        right: Tuple[BiLaurent, ...],
        residual: Tuple[BiLaurent, ...],
    ):
        self._fill(group, dim, left, right, residual)

    @property
    def verdict(self) -> bool:
        return all(r.is_zero() for r in self.residual)

    def failures(self) -> Tuple[int, ...]:
        return tuple(k for k, r in enumerate(self.residual) if not r.is_zero())


def mirror_check(complex: ConeComplex) -> MirrorReport:
    """Check ``E_st(X; u,v) = (-u)^{d-1} det(rho) E_st(X*; 1/u, v)`` per class,
    with both halves and the sign read off the side of :func:`_side_classes`
    and its dual ``X*``, which shares its class indices: on a small simplex
    the model's own dual is never built."""
    left = e_stringy_reflexive(complex)
    side, classes = _side_classes(complex)
    dual, reps, top = side.dual(), side.group.class_reps, side.top_index
    d = complex.dim
    sign = -1 if (d - 1) % 2 else 1
    rights, residuals = [], []
    for value, k in zip(left.values, classes):
        factor = BiLaurent.monomial(d - 1, 0, sign * side.detsign(top, reps[k]))
        right = factor * _stringy_class_value(dual, k).invert_u()
        rights.append(right)
        residuals.append(value - right)
    return MirrorReport(complex.group, d, left.values, tuple(rights), tuple(residuals))


# ---------------------------------------------------------------------------
# diamonds and Euler characteristics


class Diamond(Frozen):
    """Hodge numbers ``h^{p,q}`` as class functions plus their invariant dims.

    ``entries[p][q]`` is a class function; ``invariant[p][q]`` is the
    dimension of its invariant part, i.e. the Hodge number of the quotient.
    """

    __slots__ = ("group", "size", "entries", "invariant")

    def __init__(
        self,
        group: MatrixGroup,
        size: int,
        entries: Tuple[Tuple[ClassFun, ...], ...],
        invariant: Tuple[Tuple[int, ...], ...],
    ):
        self._fill(group, size, entries, invariant)

    def hodge(self, p: int, q: int) -> ClassFun:
        return self.entries[p][q]

    def invariant_entry(self, p: int, q: int) -> int:
        return self.invariant[p][q]


def hodge_diamond(epoly: EPoly) -> Diamond:
    """Read Hodge numbers off an E-polynomial: ``h^{p,q} = (-1)^{p+q} e^{p,q}``.

    The ambient dimension ``d`` is the one recorded on the polynomial
    (hypersurface dimension ``n = d - 1``).  Exponents outside ``[0, n]``
    raise :class:`NegativeExponent`.  For stringy inputs with ``n >= 1``
    the invariant part of ``h^{0,0}`` must be 1 (the quotient is
    connected); at ``n = 0`` the hypersurface is a set of points, and
    ``h^{0,0}`` counts them.
    """
    n = epoly.dim - 1
    for value in epoly.values:
        for p, q in value.terms:
            if p < 0 or q < 0 or p > n or q > n:
                raise NegativeExponent(
                    f"coefficient u^{p} v^{q} outside the {n}x{n} diamond"
                )
    entries = []
    invariant = []
    for p in range(n + 1):
        row = []
        inv_row = []
        for q in range(n + 1):
            sign = -1 if (p + q) % 2 else 1
            fun = ClassFun(
                epoly.group,
                tuple(sign * value.coefficient(p, q) for value in epoly.values),
            )
            row.append(fun)
            inv_row.append(fun.invariant_dim())
        entries.append(tuple(row))
        invariant.append(tuple(inv_row))
    for p in range(n + 1):
        for q in range(p):
            if entries[p][q].values != entries[q][p].values:
                raise IdentityFailure(
                    f"h^{p},{q} differs from h^{q},{p}: Hodge symmetry broken"
                )
    if n >= 1 and epoly.kind.startswith("stringy") and invariant[0][0] != 1:
        raise IdentityFailure(
            f"invariant h^0,0 is {invariant[0][0]}, expected 1 for a connected quotient"
        )
    return Diamond(
        group=epoly.group,
        size=n,
        entries=tuple(entries),
        invariant=tuple(invariant),
    )


class EulerCharacteristics(Frozen):
    """Per-class Euler characteristics and the quotient value."""

    __slots__ = ("per_class", "quotient")

    def __init__(self, per_class: ClassFun, quotient: int | Fraction):
        self._fill(per_class, quotient)


def euler_characteristics(epoly: EPoly) -> EulerCharacteristics:
    """Evaluate at ``u = v = 1`` per class and average over the group."""
    per_class = ClassFun(epoly.group, tuple(v.at_one() for v in epoly.values))
    return EulerCharacteristics(per_class=per_class, quotient=per_class.average())


# ---------------------------------------------------------------------------
# closed forms for the centrally symmetric family


class ClosedForms(Frozen):
    """Closed-form data for the free central involution on the cube family."""

    __slots__ = ("alpha", "stringy_identity", "quotient")

    def __init__(
        self,
        alpha: UniPoly,
        stringy_identity: BiLaurent,
        quotient: Optional[Tuple[Tuple[int, ...], ...]],
    ):
        self._fill(alpha, stringy_identity, quotient)


def cs_closed_forms(
    d: int, h_pq: Optional[Sequence[Sequence[int]]] = None
) -> ClosedForms:
    """``alpha_d`` plus the halving rule for Hodge numbers of a free quotient.

    ``alpha_d`` is the degree ``d - 1`` palindrome with ``binomial(d, i)``
    in degree ``i`` up to the middle.  The identity-class stringy value of
    the quotient family is ``alpha_d(uv) - u^{d-1} alpha_d(v/u)``.  Given a
    cover diamond ``h_pq`` the quotient diamond follows a three-case rule:
    generically ``h/2``, with ``binomial(d, p)`` added on the diagonal
    below the middle and ``(-1)^d binomial(d, p)`` added on the antidiagonal
    below it.
    """
    if d < 2:
        raise ValueError("closed forms need ambient dimension at least 2")
    coeffs = [0] * d
    for i in range(d):
        j = min(i, d - 1 - i)
        coeffs[i] = comb(d, j)
    alpha = UniPoly(coeffs)
    identity = BiLaurent.from_unipoly(alpha, 1, 1) - (
        BiLaurent.monomial(d - 1, 0) * BiLaurent.from_unipoly(alpha, -1, 1)
    )
    quotient = None
    if h_pq is not None:
        n = d - 1
        if len(h_pq) != n + 1 or any(len(row) != n + 1 for row in h_pq):
            raise ValueError(f"expected a {n + 1}x{n + 1} table")
        rows = []
        for p in range(n + 1):
            row = []
            for q in range(n + 1):
                cp, cq = p, q
                if cp + cq > n:
                    cp, cq = n - cp, n - cq
                if cp > cq:
                    cp, cq = cq, cp
                bonus = 0
                if cp == cq and cp + cq < n:
                    bonus = comb(d, cp)
                elif cp + cq == n and cp < cq:
                    bonus = comb(d, cp) * (1 if d % 2 == 0 else -1)
                half, rem = divmod(h_pq[p][q] + bonus, 2)
                if rem:
                    raise ValueError(
                        f"entry h^{p},{q} = {h_pq[p][q]} is incompatible with a free involution"
                    )
                row.append(half)
            rows.append(tuple(row))
        quotient = tuple(rows)
    return ClosedForms(alpha=alpha, stringy_identity=identity, quotient=quotient)
