"""Two-variable invariants: tori, hypersurfaces, stringy data, mirrors."""

from __future__ import annotations

import gc
import weakref
from fractions import Fraction

import pytest
from conftest import at_identity

from equimirror.algebra import BiLaurent, UniPoly
from equimirror.cli.models import build_cross, build_cube, build_fermat, fermat_permutation
from equimirror.cli.report import element_order
from equimirror.errors import (
    IdentityFailure,
    NegativeExponent,
    NotReflexive,
    SubgroupMismatch,
)
from equimirror.geometry import cones, intlinalg
from equimirror.geometry.cones import ConeComplex
from equimirror.geometry.intlinalg import IntMatrix
from equimirror.groups import generate_group
from equimirror.invariants import (
    EPoly,
    cs_closed_forms,
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
    assert hodge_diamond(st).rows() == ((1, 1), (1, 1))
    assert euler_characteristics(st).quotient == 0


def test_diamond_k3_and_enriques(cube3, cube3_central):
    k3 = hodge_diamond(e_stringy_reflexive(cube3))
    assert k3.rows() == ((1, 0, 1), (0, 20, 0), (1, 0, 1))
    assert euler_characteristics(e_stringy_reflexive(cube3)).quotient == 24
    enriques_st = e_stringy_reflexive(cube3_central)
    enriques = hodge_diamond(enriques_st)
    assert enriques.rows() == ((1, 0, 0), (0, 10, 0), (0, 0, 1))
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
    same faces, spans, elements and characteristic polynomials and no
    kernel taken.  Dropping the dual then frees both without the cycle
    collector."""
    kernels = []
    original = intlinalg.integer_kernel

    def counted(matrix):
        kernels.append(matrix)
        return original(matrix)

    monkeypatch.setattr(cones, "integer_kernel", counted)
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
            assert primal.dual() is dual
            assert primal.base_group.elements == whole.base_group.elements
            assert primal.group.elements == whole.group.elements
            for face, other in zip(primal.faces, whole.faces, strict=True):
                assert (face.vertex_ids, face.tight, face.dim) == (
                    other.vertex_ids, other.tight, other.dim
                )
                assert primal.span(face.index) == whole.span(other.index)
            for e in range(whole.group.order):
                for f in whole.invariant_faces(e):
                    assert primal.charpoly(f, e) == whole.charpoly(f, e), (f, e)
            report, reference = mirror_check(dual), mirror_check(kept)
            assert report.verdict
            assert (report.left, report.right) == (reference.left, reference.right)
            refs = (weakref.ref(dual), weakref.ref(primal))
            del dual, primal
            assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_stringy_is_kept_on_the_complex():
    cx = ConeComplex(build_cube(3), generate_group([IntMatrix.identity(3).scale(-1)]))
    st = e_stringy_reflexive(cx)
    assert st is e_stringy_reflexive(cx) is cx.stringy
    own = tables_for(cx)
    assert mirror_check(cx).verdict
    assert cx.dual().stringy is not None  # mirror_check kept the dual's too
    ref = weakref.ref(cx)
    del cx, own  # the tables refer to their complex
    gc.collect()
    assert ref() is None


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
