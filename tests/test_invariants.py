"""Two-variable invariants: tori, hypersurfaces, stringy data, mirrors."""

from __future__ import annotations

import gc
import json
import math
import random
import weakref
from fractions import Fraction

import pytest
from conftest import at_identity, benchmark_workloads

from equimirror.algebra import BiLaurent, UniPoly
from equimirror.cli.main import run
from equimirror.cli.models import (
    build_cube,
    build_fermat,
    build_model,
    fermat_permutation,
    parse_config,
)
from equimirror.cli.report import element_order
from equimirror.errors import (
    IdentityFailure,
    NegativeExponent,
    NotReflexive,
    SubgroupMismatch,
)
from equimirror.geometry import cones, counting, intlinalg
from equimirror.geometry.cones import ConeComplex
from equimirror.geometry.intlinalg import IntMatrix
from equimirror.geometry.polytope import LatticePolytope
from equimirror.groups import generate_group
from equimirror.invariants import (
    EPoly,
    _stringy_class_value,
    cs_closed_forms,
    e_affine_face,
    e_affine_hypersurface,
    e_stringy_reflexive,
    e_stringy_strata,
    e_torus,
    euler_characteristics,
    hodge_diamond,
    hypersurface_checks,
    mirror_check,
    tables_for,
)

UV = BiLaurent.monomial(1, 1)
U = BiLaurent.monomial(1, 0)
V = BiLaurent.monomial(0, 1)
ONE = BiLaurent.one()


def trivial(polytope):
    return ConeComplex(polytope, generate_group([], rank=polytope.dim))


def quintic(*words):
    gens = [fermat_permutation(w, 4) for w in words]
    return ConeComplex(build_fermat(4), generate_group(gens, rank=4))


def base_class(cx, matrix):
    return cx.base_group.class_index_of_element(matrix)


def mu_signature(diamond, group):
    """h^{2,1} values keyed by (class size, element order)."""
    out = {}
    fun = diamond.hodge(2, 1)
    for k, rep in enumerate(group.class_rep_elements()):
        key = (group.class_sizes[k], element_order(group, rep))
        out.setdefault(key, []).append(fun.value_at_class(k))
    return {key: sorted(vals) for key, vals in out.items()}


# -- tori -----------------------------------------------------------------------


def test_e_torus_trivial_group():
    group = generate_group([], rank=3)
    torus = e_torus(group)
    assert at_identity(torus) == (UV - ONE) ** 3
    assert torus.dim == 3
    assert torus.kind == "torus"


def test_e_torus_quintic_classes(quintic_a5):
    torus = e_torus(quintic_a5.base_group)
    assert at_identity(torus) == (UV - ONE) ** 4
    double = base_class(quintic_a5, fermat_permutation("(12)(34)", 4))
    assert torus.value_at_class(double) == (UV * UV - ONE) ** 2


def test_epoly_plumbing(quintic_a5):
    torus = e_torus(quintic_a5.base_group)
    ident = quintic_a5.base_group.index_of[IntMatrix.identity(4)]
    assert torus.value_of_element(ident) == at_identity(torus)
    coeff = torus.coefficient(4, 4)
    assert set(coeff.values) <= {Fraction(0), Fraction(1)}
    assert torus.quotient() == torus.classfun().average()
    with pytest.raises(SubgroupMismatch):
        EPoly(group=quintic_a5.base_group, values=(ONE,), dim=4, kind="torus")


# -- affine hypersurfaces ----------------------------------------------------------


def test_affine_oracles(segment, simplex1, cubic_curve, quintic_a5):
    # degree 1 in one variable: a single reduced point; degree 2: two of them
    assert at_identity(e_affine_hypersurface(simplex1)) == ONE
    assert at_identity(e_affine_hypersurface(segment)) == 2 * ONE
    assert at_identity(e_affine_hypersurface(cubic_curve)) == UV - U - V - 8 * ONE
    affine = at_identity(e_affine_hypersurface(quintic_a5))
    # affine quintic piece: Euler characteristic of the open stratum
    assert affine.at_one() == Fraction(-625)
    assert affine.coefficient(3, 3) == 1
    assert affine.coefficient(0, 0) == -44


def test_affine_nonreflexive_is_fine(simplex3):
    affine = e_affine_hypersurface(simplex3)
    assert at_identity(affine).is_polynomial()
    assert hypersurface_checks(simplex3).ok


def _affine_face_unmemoised(cx, f, e):
    """``e_affine_face`` as it was before it kept its values: the face sum
    at ``(f, e)`` itself, on the complex's shared tables."""
    tables = tables_for(cx)
    boundary = BiLaurent.zero()
    for sub in cx.faces_below(f):
        if not cx.is_invariant(sub, e):
            continue
        s_part = BiLaurent.from_unipoly(tables.stilde.poly(sub, e), -1, 1)
        g_part = BiLaurent.from_unipoly(
            tables.hg.g(cones.abstract_quotient(cx, sub, f), e), 1, 1
        )
        weight = BiLaurent.monomial(cx.faces[sub].dim, 0, cx.detsign(sub, e))
        boundary = boundary + weight * s_part * g_part
    sign = cx.detsign(f, e) * (-1 if cx.faces[f].dim % 2 else 1)
    torus = BiLaurent.from_unipoly(
        cx.charpoly(f, e).exact_div(UniPoly((-1, 1))), 1, 1
    )
    return (torus + sign * boundary) * BiLaurent.monomial(-1, -1)


def _nonzero_fixed_pair_orbits(cx):
    """The orbits of the invariant pairs ``(f, e)`` with ``f`` not the apex
    under ``h . (f, e) = (h f, h e h^-1)``, counted by brute force."""
    group = cx.group
    fixed = {
        (f, e)
        for e in range(group.order)
        for f in cx.invariant_faces(e)
        if cx.faces[f].dim > 0
    }
    seen, count = set(), 0
    for f, e in sorted(fixed):
        if (f, e) in seen:
            continue
        count += 1
        for h, x in enumerate(group.elements):
            conjugate = group.index_of[x @ group.elements[e] @ group.inv(x)]
            seen.add((cx.face_image(h, f), conjugate))
    assert seen == fixed
    return count


@pytest.mark.parametrize(
    "make",
    [
        lambda: ConeComplex(
            build_cube(3), generate_group([IntMatrix.identity(3).scale(-1)])
        ),
        lambda: ConeComplex(
            build_cube(4), generate_group([IntMatrix.identity(4).scale(-1)])
        ),
        lambda: quintic("(12)(34)", "(123)"),
        lambda: _fermat(3, ("(12)",)),
    ],
    ids=["cube3-central", "cube4-central", "quintic-A4", "fermat3-(12)"],
)
def test_affine_slices_are_kept_once_per_orbit(make):
    """``e_affine_face`` keeps one value per orbit of (face, element), at
    the canonical pair: after ``e_stringy_strata`` on a fresh complex the
    memo holds one entry per orbit of invariant nonzero pairs, and at every
    invariant pair the kept value is the face sum computed there."""
    cx = make()
    assert cx.affine_values == {}
    e_stringy_strata(cx)
    assert len(cx.affine_values) == _nonzero_fixed_pair_orbits(cx)
    assert all(cx.canonical(f, e) == (f, e) for f, e in cx.affine_values)
    checked = 0
    for e in range(cx.group.order):
        for f in cx.invariant_faces(e):
            if cx.faces[f].dim == 0:
                continue
            assert e_affine_face(cx, f, e) == _affine_face_unmemoised(cx, f, e)
            checked += 1
    assert checked >= len(cx.affine_values)
    assert len(cx.affine_values) == _nonzero_fixed_pair_orbits(cx)


# -- the face sums against their operator formulas ---------------------------------


def _stilde_by_operators(cx, f, e):
    """``Stilde`` at ``(f, e)`` with a product and a partial sum per face
    term, on the complex's shared ``phi`` and ``g``."""
    tables = tables_for(cx)
    value = UniPoly.zero()
    for sub in cx.faces_below(f):
        if not cx.is_invariant(sub, e):
            continue
        sign = -1 if (cx.faces[f].dim - cx.faces[sub].dim) % 2 else 1
        value = value + (
            tables.phi.poly(sub, e)
            * tables.hg.g(cones.abstract_dual_face(cx, sub, f), e)
            * (sign * cx.detsign(sub, e))
        )
    return value


def _h_by_operators(hg, sid):
    """``h`` of shape ``sid`` from its children's ``g``, term by term."""
    k, char_top, below = hg._shapes[sid]
    if k == 0:
        return UniPoly.one()
    value = UniPoly.zero()
    for sub in below:
        ratio = char_top.exact_div(UniPoly([-1, 1]) * hg._shapes[sub][1])
        value = value + ratio * hg._shape_g(sub)
    return value


def _stringy_by_operators(cx, k):
    """The stringy value at class ``k``, term by term, on the shared tables
    of the complex and its dual."""
    e = cx.group.class_reps[k]
    tables, dual_tables = tables_for(cx), tables_for(cx.dual())
    total = BiLaurent.zero()
    for face in cx.invariant_faces(e):
        face_dim = cx.faces[face].dim
        primal = BiLaurent.from_unipoly(tables.stilde.poly(face, e), -1, 1)
        partner = BiLaurent.from_unipoly(dual_tables.stilde.poly(face, e), 1, 1)
        sign = cx.detsign(face, e) * (-1 if face_dim % 2 else 1)
        total = total + BiLaurent.monomial(face_dim, 0, sign) * primal * partner
    return total * BiLaurent.monomial(-1, -1) * cx.detsign(cx.top_index, e)


def _canonical_pairs(cx):
    return [
        (f, e)
        for e in range(cx.group.order)
        for f in cx.invariant_faces(e)
        if cx.canonical(f, e) == (f, e)
    ]


@pytest.mark.parametrize(
    "model", ["sym3_cube3", "cube4_central", "quintic_a5", "quintic_a5-Aut(P)"]
)
def test_face_sums_equal_their_operator_formulas(model, request):
    """The table sums add every face term into one coefficient list or map.
    At every canonical pair of the complex (and of its dual, whose ``Stilde``
    the stringy sum reads), ``Stilde``, ``h`` of every shape the table
    reached, ``e_affine_face`` and every stringy class value equal the
    product-and-partial-sum formulas."""
    cx = request.getfixturevalue(model.split("-")[0])
    if model.endswith("Aut(P)"):
        cx = cones.automorphism_side(cx)
        assert cx.group.order == 120
    stringy = [_stringy_class_value(cx, k) for k in range(len(cx.group.classes))]
    assert stringy == [
        _stringy_by_operators(cx, k) for k in range(len(cx.group.classes))
    ]
    affine = 0
    for f, e in _canonical_pairs(cx):
        if cx.faces[f].dim > 0:
            assert e_affine_face(cx, f, e) == _affine_face_unmemoised(cx, f, e)
            affine += 1
    assert affine
    for side in (cx, cx.dual()):
        tables = tables_for(side)
        pairs = _canonical_pairs(side)
        for f, e in pairs:
            assert tables.stilde.poly(f, e) == _stilde_by_operators(side, f, e)
        shapes = set(tables.hg._shape_of.values())
        assert len(shapes) > 1
        for sid in shapes:
            assert tables.hg._shape_h(sid) == _h_by_operators(tables.hg, sid)


def test_hypersurface_checks_green(
    segment, square, cube3_central, sym3_cube3, cubic_curve, quintic_a5
):
    for cx in (segment, square, cube3_central, sym3_cube3, cubic_curve, quintic_a5):
        report = hypersurface_checks(cx)
        assert report.ok, report.summary()


def test_hypersurface_checks_reflexive_sections(cube3_central, simplex3):
    names = [c.name for c in hypersurface_checks(cube3_central).checks]
    assert names == [
        "affine high-degree torus agreement",
        "affine v=1 specialization",
        "stringy self-duality",
        "stringy strata agreement",
    ]
    # non-reflexive models only get the affine checks
    assert [c.name for c in hypersurface_checks(simplex3).checks] == names[:2]


# -- stringy invariants --------------------------------------------------------------


def test_stringy_oracles(square, cube4, quintic_a5):
    assert at_identity(e_stringy_reflexive(square)) == ONE - U - V + UV
    cube_st = at_identity(e_stringy_reflexive(cube4))
    assert cube_st.coefficient(1, 1) == 4
    assert cube_st.coefficient(2, 1) == -68
    assert cube_st.coefficient(0, 0) == 1
    assert cube_st.coefficient(0, 3) == -1
    assert cube_st.coefficient(3, 3) == 1
    quintic_st = at_identity(e_stringy_reflexive(quintic_a5))
    assert quintic_st.coefficient(1, 1) == 1
    assert quintic_st.coefficient(2, 1) == -101


def test_stringy_requires_reflexive(simplex3):
    with pytest.raises(NotReflexive):
        e_stringy_reflexive(simplex3)
    with pytest.raises(NotReflexive):
        e_stringy_strata(simplex3)


def test_stringy_strata_equals_paired(cube3_central, sym3_cube3, quintic_a5):
    for cx in (cube3_central, sym3_cube3, quintic_a5):
        paired = e_stringy_reflexive(cx)
        strata = e_stringy_strata(cx)
        assert paired.values == strata.values


def test_stringy_central_closed_form(cube4_central, cube3_central):
    for cx, d in ((cube4_central, 4), (cube3_central, 3)):
        minus = base_class(cx, IntMatrix.identity(d).scale(-1))
        value = e_stringy_reflexive(cx).value_at_class(minus)
        assert value == cs_closed_forms(d).stringy_identity


# -- diamonds ---------------------------------------------------------------------


def test_diamond_cube4(cube4):
    st = e_stringy_reflexive(cube4)
    dia = hodge_diamond(st)
    assert dia.size == 3
    assert dia.invariant_entry(1, 1) == 4
    assert dia.invariant_entry(2, 1) == 68
    assert dia.invariant_entry(0, 0) == 1
    assert dia.invariant_entry(0, 3) == 1
    assert dia.invariant_entry(1, 0) == 0
    assert euler_characteristics(st).quotient == -128
    dual = hodge_diamond(e_stringy_reflexive(cube4.dual()))
    assert dual.invariant_entry(1, 1) == 68
    assert dual.invariant_entry(2, 1) == 4


def test_diamond_elliptic_curve(cubic_curve):
    st = e_stringy_reflexive(cubic_curve)
    assert at_identity(st) == ONE - U - V + UV
    assert hodge_diamond(st).invariant == ((1, 1), (1, 1))
    assert euler_characteristics(st).quotient == 0


def test_diamond_k3_and_enriques(cube3, cube3_central):
    k3 = hodge_diamond(e_stringy_reflexive(cube3))
    assert k3.invariant == ((1, 0, 1), (0, 20, 0), (1, 0, 1))
    assert euler_characteristics(e_stringy_reflexive(cube3)).quotient == 24
    enriques_st = e_stringy_reflexive(cube3_central)
    enriques = hodge_diamond(enriques_st)
    assert enriques.invariant == ((1, 0, 0), (0, 10, 0), (0, 0, 1))
    assert euler_characteristics(enriques_st).quotient == 12


def test_diamond_cube4_central(cube4_central):
    st = e_stringy_reflexive(cube4_central)
    dia = hodge_diamond(st)
    assert dia.invariant_entry(1, 1) == 4
    assert dia.invariant_entry(2, 1) == 36
    euler = euler_characteristics(st)
    assert euler.quotient == -64
    minus = base_class(cube4_central, IntMatrix.identity(4).scale(-1))
    assert euler.per_class.value_at_class(minus) == 0
    # quotient halving rule reproduces the invariant grid from the cover's
    cover = hodge_diamond(e_stringy_reflexive(cube4_central)).entries
    cover_grid = [
        [int(cover[p][q].value_at_class(base_class(cube4_central, IntMatrix.identity(4))))
         for q in range(4)]
        for p in range(4)
    ]
    assert cs_closed_forms(4, cover_grid).quotient == dia.invariant


def test_diamond_quintic_a5(quintic_a5):
    dia = hodge_diamond(e_stringy_reflexive(quintic_a5))
    assert set(dia.hodge(1, 1).values) == {Fraction(1)}
    assert mu_signature(dia, quintic_a5.base_group) == {
        (1, 1): [101],
        (15, 2): [5],
        (20, 3): [5],
        (12, 5): [1, 1],
    }
    assert dia.invariant_entry(1, 1) == 1
    assert dia.invariant_entry(2, 1) == 5
    dual = hodge_diamond(e_stringy_reflexive(quintic_a5.dual()))
    assert dual.invariant_entry(1, 1) == 5
    assert dual.invariant_entry(2, 1) == 1


def test_diamond_quintic_sym5(quintic_sym5):
    dia = hodge_diamond(e_stringy_reflexive(quintic_sym5))
    assert mu_signature(dia, quintic_sym5.base_group) == {
        (1, 1): [101],
        (10, 2): [-25],
        (15, 2): [5],
        (20, 3): [5],
        (30, 4): [-1],
        (24, 5): [1],
        (20, 6): [-1],
    }
    assert dia.invariant_entry(1, 1) == 1
    assert dia.invariant_entry(2, 1) == 0


def test_subgroup_invariant_h21_regression():
    """Invariant h^{2,1} for the quintic under each permutation subgroup."""
    expected = {
        ("(12)(34)",): 53,
        ("(12)(34)", "(13)(24)"): 29,
        ("(123)",): 37,
        ("(12345)",): 21,
        ("(12)(34)", "(123)"): 13,
        ("(12)(45)", "(23)(45)"): 21,
        ("(12)(35)", "(12345)"): 13,
    }
    for words, h21 in expected.items():
        cx = quintic(*words)
        dia = hodge_diamond(e_stringy_reflexive(cx))
        assert dia.invariant_entry(1, 1) == 1, words
        assert dia.invariant_entry(2, 1) == h21, words


def test_diamond_guards():
    group = generate_group([], rank=2)
    laurent = EPoly(group=group, values=(BiLaurent.monomial(-1, 0),), dim=2, kind="affine")
    with pytest.raises(NegativeExponent):
        hodge_diamond(laurent)
    asym = EPoly(group=group, values=(BiLaurent.monomial(1, 0, -1),), dim=2, kind="affine")
    with pytest.raises(IdentityFailure):
        hodge_diamond(asym)
    disconnected = EPoly(
        group=group, values=(BiLaurent.monomial(0, 0, 2),), dim=2, kind="stringy-reflexive"
    )
    with pytest.raises(IdentityFailure):
        hodge_diamond(disconnected)


# -- the mirror identity ----------------------------------------------------------


def test_mirror_check_verdicts(cube4_central, quintic_a5, quintic_sym5):
    for cx in (cube4_central, quintic_a5, quintic_sym5):
        report = mirror_check(cx)
        assert report.verdict
        assert report.failures() == ()
        assert all(l - r == z for l, r, z in
                   zip(report.left, report.right, report.residual))


def test_mirror_check_subgroup_sweep():
    for words in (
        ("(12)(34)",),
        ("(12)(34)", "(13)(24)"),
        ("(123)",),
        ("(12345)",),
        ("(12)(34)", "(123)"),
        ("(12)(45)", "(23)(45)"),
        ("(12)(35)", "(12345)"),
    ):
        assert mirror_check(quintic(*words)).verdict, words


def test_duality_is_an_involution(cube3_central):
    """``cx.dual().dual()`` is ``cx`` itself, the face and element pairings
    invert each other, and the mirror identity holds seen from the dual.
    Face ``f`` of the dual swaps the vertices and facets of face ``f``, so
    swapping them again gives face ``f`` back."""
    for cx in (cube3_central, quintic("(12345)"), quintic("(12)(34)", "(123)")):
        dual = cx.dual()
        assert dual.dual() is cx
        for f, face in enumerate(cx.faces):
            assert dual.faces[f].vertex_ids == face.tight
            assert dual.faces[f].tight == face.vertex_ids
        for e, g in enumerate(cx.base_group.elements):
            assert dual.base_group.dual_element(dual.base_group.elements[e]) == g
        assert mirror_check(dual).verdict


def test_restriction_to_a_subgroup_commutes(quintic_a5):
    """Restricting the A5 stringy class function to a subgroup gives the
    subgroup's own stringy values, class by class."""
    full = e_stringy_reflexive(quintic_a5).classfun()
    for words in (("(12345)",), ("(12)(34)", "(123)"), ("(12)(34)",)):
        sub = quintic(*words)
        assert full.restrict(sub.group).values == e_stringy_reflexive(sub).values, words


def test_tables_are_freed_with_the_complex():
    cx = ConeComplex(build_cube(3), generate_group([IntMatrix.identity(3).scale(-1)]))
    assert tables_for(cx) is tables_for(cx) is cx.tables
    tables_for(cx.dual())
    ref = weakref.ref(cx)
    del cx
    gc.collect()
    assert ref() is None


def test_models_are_freed_without_the_cycle_collector():
    """Neither the dual back-link nor the tables' link to their complex is
    a reference cycle: dropping the model frees it and its dual at once."""
    gc.disable()
    try:
        cx = quintic("(12)(34)", "(123)")
        assert mirror_check(cx).verdict
        assert cx.dual().dual() is cx
        refs = (weakref.ref(cx), weakref.ref(cx.dual()))
        del cx
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_a_dual_outlives_its_primal(monkeypatch):
    """``ConeComplex(p, g).dual()`` with the primal dropped keeps what its
    characteristic polynomials need: on every invariant pair it agrees
    with the dual of a model kept whole, and so does its mirror check.
    Its own dual is the dropped primal rebuilt from that data, with the
    same faces, spans, elements, face maps and characteristic polynomials
    and no kernel taken; it inherits no memo, and its characteristic polynomials
    are read from the process's store with no ``char_poly`` call.
    Dropping the dual then frees both without the cycle collector."""
    kernels, polys = [], []
    original = intlinalg.integer_kernel

    def counted(matrix):
        kernels.append(matrix)
        return original(matrix)

    def counted_poly(matrix, char_poly=cones.char_poly):
        polys.append(matrix)
        return char_poly(matrix)

    monkeypatch.setattr(cones, "integer_kernel", counted)
    monkeypatch.setattr(cones, "char_poly", counted_poly)
    central = generate_group([IntMatrix.identity(3).scale(-1)])
    builds = (
        lambda: ConeComplex(build_cube(3), central),
        lambda: quintic("(12)(34)", "(12345)"),
    )
    gc.disable()
    try:
        for build in builds:
            whole = build()
            kept = whole.dual()
            dual = build().dual()
            for e in range(dual.group.order):
                for f in dual.invariant_faces(e):
                    assert dual.charpoly(f, e) == kept.charpoly(f, e), (f, e)
                    assert dual.detsign(f, e) == kept.detsign(f, e), (f, e)
                    assert dual.rho(f, e) == kept.rho(f, e), (f, e)
            kernels.clear()
            primal = dual.dual()
            assert kernels == []
            polys.clear()
            values = {
                (f, e): primal.charpoly(f, e)
                for e in range(whole.group.order)
                for f in whole.invariant_faces(e)
            }
            assert polys == []
            assert primal.dual() is dual
            assert primal.base_group.elements == whole.base_group.elements
            assert primal.group.elements == whole.group.elements
            assert primal._face_maps == whole._face_maps
            for face, other in zip(primal.faces, whole.faces, strict=True):
                assert (face.vertex_ids, face.tight, face.dim) == (
                    other.vertex_ids, other.tight, other.dim
                )
                assert primal.span(face.index) == whole.span(other.index)
            for (f, e), value in values.items():
                assert value == whole.charpoly(f, e), (f, e)
            report, reference = mirror_check(dual), mirror_check(kept)
            assert report.verdict
            assert (report.left, report.right) == (reference.left, reference.right)
            refs = (weakref.ref(dual), weakref.ref(primal))
            del dual, primal
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_mirror_check_builds_no_model_dual_on_a_simplex():
    """On a simplex read off the ``(P, Aut(P))`` registry, ``mirror_check``
    takes both halves and the sign off the registry side: it builds no dual
    and no least-face table on the model, a second call adds no stringy
    value to either registry side, and the model is freed by reference
    counting.  cube3 under ``central`` still pairs with its own dual."""
    counting.clear_cache()
    models = [quintic(*words) for _, words in benchmark_workloads().QUINTIC_GROUPS]
    models.append(_fermat(3, ("(12)",)))
    gc.disable()
    try:
        for cx in models:
            assert mirror_check(cx).verdict
            assert cx._dual is None and cx._canonical_faces == {}
            assert not hasattr(cx, "stringy")
            side = cones.automorphism_side(cx)
            kept = (dict(side.stringy_values), dict(side.dual().stringy_values))
            assert kept[0] and kept[1]
            assert mirror_check(cx).verdict and e_stringy_reflexive(cx).values
            assert (side.stringy_values, side.dual().stringy_values) == kept
            assert cx._dual is None
        refs = [weakref.ref(cx) for cx in models]
        del cx, models
        assert all(ref() is None for ref in refs)
        central = generate_group([IntMatrix.identity(3).scale(-1)])
        cube = ConeComplex(build_cube(3), central)
        assert cones.automorphism_side(cube) is None
        assert mirror_check(cube).verdict and cube._dual is not None
        assert cube.stringy_values and cube.dual().stringy_values
        ref = weakref.ref(cube)
        del cube
        assert ref() is None
    finally:
        gc.enable()
    counting.clear_cache()


def _own_dual_mirror_check(cx):
    """The mirror check on the model's own dual: the right half is
    ``e_stringy_reflexive(cx.dual())`` and the sign is read off ``cx``."""
    left = e_stringy_reflexive(cx)
    right_side = e_stringy_reflexive(cx.dual())
    d = cx.dim
    lefts, rights, residuals = [], [], []
    for e in cx.group.class_reps:
        sign = (-1) ** (d - 1) * cx.detsign(cx.top_index, e)
        right = right_side.value_of_element(e).invert_u()
        right = BiLaurent.monomial(d - 1, 0, sign) * right
        lefts.append(left.value_of_element(e))
        rights.append(right)
        residuals.append(lefts[-1] - right)
    return tuple(lefts), tuple(rights), tuple(residuals)


def _check_mirror_against_own_dual(cx):
    """``mirror_check`` on ``cx`` and on its dual gives, class by class, the
    halves and residuals of the check made on each one's own dual."""
    for model in (cx, cx.dual()):
        report = mirror_check(model)
        assert report.verdict
        got = (report.left, report.right, report.residual)
        assert got == _own_dual_mirror_check(model)


@pytest.mark.parametrize(
    "config",
    [
        {"builtin": "cube", "d": 3, "group": ["central"]},
        {"builtin": "cube", "d": 4, "group": ["central"]},
        {"builtin": "fermat", "d": 5, "group": ["(12)"]},
        {"builtin": "fermat", "d": 4, "group": ["(12)(34)", "(123)", "(12345)"],
         "cap_group": 60},
    ],
    ids=["cube3-central", "cube4-central", "fermat5-12", "quintic-a5-cap-60"],
)
def test_mirror_check_agrees_with_the_models_own_dual(config):
    """Off the registry (cubes, ``(d + 1)!`` above ``AUT_ORDER_LIMIT`` or
    the group cap) the side is the model itself, and the check is the one
    made on the model's own dual."""
    config = parse_config(json.dumps(config))
    polytope, group, _ = build_model(config)
    cx = ConeComplex(polytope, group, config.cap_group)
    assert cones.automorphism_side(cx) is None
    _check_mirror_against_own_dual(cx)


# -- the (P, Aut(P)) complex of a simplex ----------------------------------------


def _own_table_stringy(cx):
    """The stringy pairing summed per class on ``cx``'s own tables and its
    dual's, not on the ``(P, Aut(P))`` complex."""
    tables, dual_tables = tables_for(cx), tables_for(cx.dual())
    values = []
    for e in cx.group.class_reps:
        total = BiLaurent.zero()
        for face in cx.invariant_faces(e):
            k = cx.faces[face].dim
            primal = BiLaurent.from_unipoly(tables.stilde.poly(face, e), -1, 1)
            partner = BiLaurent.from_unipoly(dual_tables.stilde.poly(face, e), 1, 1)
            sign = cx.detsign(face, e) * (-1) ** k
            total = total + BiLaurent.monomial(k, 0, sign) * primal * partner
        values.append(total * BiLaurent.monomial(-1, -1, cx.detsign(cx.top_index, e)))
    return tuple(values)


def _fermat(d, words):
    gens = [fermat_permutation(w, d) for w in words]
    return ConeComplex(build_fermat(d), generate_group(gens, rank=d))


def _random_sym5_words(seed):
    """One or two random cycles on the five Fermat coordinates."""
    rng = random.Random(seed)
    return tuple(
        "(" + "".join(map(str, rng.sample(range(1, 6), rng.randint(2, 5)))) + ")"
        for _ in range(rng.randint(1, 2))
    )


_SYM4_SUBGROUPS = (
    (), ("(12)",), ("(12)(34)",), ("(123)",), ("(1234)",), ("(12)", "(34)"),
    ("(12)(34)", "(13)(24)"), ("(1234)", "(13)"), ("(12)(34)", "(123)"),
    ("(12)", "(1234)"),
)

_REFERENCE_MODELS = (
    [(f"sweep-{name}", 4, tuple(words))
     for name, words in benchmark_workloads().QUINTIC_GROUPS]
    + [(f"random-sym5-{seed}", 4, _random_sym5_words(seed)) for seed in range(6)]
    + [(f"fermat3-{''.join(w) or 'trivial'}", 3, w) for w in _SYM4_SUBGROUPS]
    + [(f"fermat{d}-trivial", d, ()) for d in range(2, 6)]
)


@pytest.mark.parametrize(
    "d, words",
    [model[1:] for model in _REFERENCE_MODELS],
    ids=[model[0] for model in _REFERENCE_MODELS],
)
def test_aut_complex_values_restrict_to_each_models_own(d, words):
    """On a simplex with ``(d + 1)! <= AUT_ORDER_LIMIT`` every model reads
    its stringy values off the process's ``(P, Aut(P))`` complex (fermat5
    sums its own tables); class by class, on both sides, they are the
    values the model's own tables give, and the stratified formula, which
    runs on the model's own tables, agrees with them."""
    cx = _fermat(d, words)
    assert mirror_check(cx).verdict
    side = cones.automorphism_side(cx)
    if math.factorial(d + 1) <= cones.AUT_ORDER_LIMIT:
        assert side.base_group.order == math.factorial(d + 1)
    else:
        assert side is None
    for side in (cx, cx.dual()):
        assert e_stringy_reflexive(side).values == _own_table_stringy(side), words
    _check_mirror_against_own_dual(cx)
    assert hypersurface_checks(cx).ok


def test_the_cubic_curve_reads_the_aut_complex(cubic_curve):
    assert e_stringy_reflexive(cubic_curve).values == _own_table_stringy(cubic_curve)
    assert cones.automorphism_side(cubic_curve).group.order == 6


def test_only_an_e_polynomial_builds_the_aut_complex():
    """Building a model and its complex, as the benchmark's set-up does,
    registers no ``(P, Aut(P))`` complex; the first E-polynomial does, for
    the primal polytope only, and ``counting.clear_cache`` drops it."""
    counting.clear_cache()
    config = parse_config(
        json.dumps({"builtin": "fermat", "d": 4, "group": ["(12)(34)", "(123)"]})
    )
    polytope, group, _ = build_model(config)
    cx = ConeComplex(polytope, group)
    tables_for(cx.dual()).stilde.poly(cx.top_index, 0)
    assert cones._aut_complexes == {}
    shared = cones.automorphism_side(cx)
    assert list(cones._aut_complexes) == [polytope.vertices]
    assert cones.automorphism_side(cx.dual()) is shared.dual()
    assert cones.automorphism_side(cx) is shared
    counting.clear_cache()
    assert cones._aut_complexes == {}


def test_a_model_of_the_whole_of_aut_builds_no_second_group(monkeypatch):
    """A model whose group is ``Aut(P)`` lends the registry its group, and
    no vertex permutation is searched for when the order is ``(d + 1)!``;
    the registry's complex composes the same face maps and keeps tables of
    its own."""
    counting.clear_cache()
    cx = quintic("(12)", "(12345)")

    def no_search(polytope):
        raise AssertionError("searched for the symmetries of a full group")

    monkeypatch.setattr(LatticePolytope, "simplex_automorphisms", no_search)
    shared = cones.automorphism_side(cx)
    assert shared is not cx and shared.dual() is not cx.dual()
    assert shared.base_group is cx.base_group
    assert shared._face_maps == cx._face_maps
    assert shared.dual().dual() is shared
    assert mirror_check(cx).verdict
    assert cx.tables is None and shared.tables is not None
    counting.clear_cache()


def test_a_redundant_generator_changes_no_report():
    """Sym5 given ``(12)``, ``(12345)`` and ``(13)`` records two generators,
    since ``(13)`` is in the closure of the first two, and has the elements,
    classes, face maps and ``mirror-check`` report of Sym5 given the first
    two alone."""
    words = ["(12)", "(12345)"]
    runs = []
    for given in (words, words + ["(13)"]):
        counting.clear_cache()
        cx = quintic(*given)
        config = {"builtin": "fermat", "d": 4, "group": given, "commands": ["mirror-check"]}
        report, code = run(parse_config(json.dumps(config)))
        assert code == 0
        group = cx.base_group
        runs.append((
            len(group.generators),
            group.elements,
            group.classes,
            cx._face_maps,
            report.group,
            report.results,
            report.render(),
        ))
    assert runs[1][0] == runs[0][0] == 2
    assert runs[1] == runs[0]
    counting.clear_cache()


def test_a_dual_asking_first_registers_its_primal_side():
    """The registry keys and builds the primal side even when a dual asks
    first, from the dual's contragredient elements and shared face maps."""
    counting.clear_cache()
    for words in (("(12)", "(12345)"), ("(12)(34)",)):
        cx = quintic(*words)
        side = cones.automorphism_side(cx.dual())
        shared = cones._aut_complexes[cx.polytope.vertices]
        assert side is shared.dual()
        assert shared.polytope is cx.polytope and shared.base_group.order == 120
        assert set(shared.base_group.elements) >= set(cx.base_group.elements)
        counting.clear_cache()


@pytest.mark.parametrize(
    "config",
    [
        {"builtin": "fermat", "d": 4, "group": [], "cap_group": 119},
        {"builtin": "fermat", "d": 3, "group": ["(12)"], "cap_group": 2},
        {"builtin": "fermat", "d": 5, "group": ["(12)(34)"]},
        {"vertices": [[int(i == j) for j in range(5)] for i in range(5)] + [[-1] * 5],
         "group": ["(12)"]},
    ],
    ids=["quintic-cap-119", "fermat3-cap-2", "fermat5", "mirror-simplex5"],
)
def test_a_large_aut_builds_no_aut_complex(config):
    """A simplex whose ``(d + 1)!`` exceeds the model's group cap or
    ``AUT_ORDER_LIMIT`` builds no ``Aut(P)``: its models sum their own
    tables, with the values of the registry path."""
    counting.clear_cache()
    config = dict(config, commands=["stringy", "mirror-check"])
    report, code = run(parse_config(json.dumps(config)))
    assert code == 0 and cones._aut_complexes == {}
    uncapped = dict(config, cap_group=10080)
    counting.clear_cache()
    again, _ = run(parse_config(json.dumps(uncapped)))
    assert (again.to_json(), again.render()) == (report.to_json(), report.render())
    counting.clear_cache()


def test_cubes_build_no_aut_complex():
    """Polytopes other than simplices keep their own tables: all ten
    commands on cube4 with ``central`` and ``phi`` on cube5 register no
    ``(P, Aut(P))`` complex."""
    counting.clear_cache()
    commands = ["faces", "phi", "hg", "stilde", "ehodge", "stringy", "mirror-check",
                "diamond", "euler", "identities"]
    for config in (
        {"builtin": "cube", "d": 4, "group": ["central"], "commands": commands},
        {"builtin": "cube", "d": 5, "group": [], "commands": ["phi"]},
    ):
        report, code = run(parse_config(json.dumps(config)))
        assert code == 0
    assert cones._aut_complexes == {}
    counting.clear_cache()  # leave no cube5 counts for later tests to find


# -- closed forms ------------------------------------------------------------------


def test_cs_alpha_polynomials():
    assert cs_closed_forms(3).alpha == UniPoly((1, 3, 1))
    assert cs_closed_forms(4).alpha == UniPoly((1, 4, 4, 1))
    assert cs_closed_forms(5).alpha == UniPoly((1, 5, 10, 5, 1))
    with pytest.raises(ValueError):
        cs_closed_forms(1)


def test_cs_quotient_rule():
    k3_cover = ((1, 0, 1), (0, 20, 0), (1, 0, 1))
    forms = cs_closed_forms(3, k3_cover)
    assert forms.quotient == ((1, 0, 0), (0, 10, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        cs_closed_forms(3, ((1, 0, 1), (0, 21, 0), (1, 0, 1)))
    with pytest.raises(ValueError):
        cs_closed_forms(3, ((1, 0), (0, 10)))


def test_euler_per_class_signs(cube4, quintic_a5):
    cube_euler = euler_characteristics(e_stringy_reflexive(cube4))
    assert cube_euler.per_class.values == (Fraction(-128),)
    quintic_euler = euler_characteristics(e_stringy_reflexive(quintic_a5))
    ident = quintic_a5.base_group.class_index_of_element(IntMatrix.identity(4))
    assert quintic_euler.per_class.value_at_class(ident) == -200
