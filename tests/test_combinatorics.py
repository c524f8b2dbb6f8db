"""Face-count polynomial tables: oracles and defining identities."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from operator import attrgetter

import pytest
from conftest import (
    benchmark_workloads,
    moved_complex,
    quintic_complex,
    random_unimodular,
)

from equimirror.algebra import ClassPoly, UniPoly
from equimirror.algebra.unipoly import truncate_tau
from equimirror.cli.main import run
from equimirror.cli.models import (
    COMMANDS,
    ModelConfig,
    build_cross,
    build_cube,
    build_fermat,
    build_simplex,
    fermat_permutation,
    parse_config,
)
from equimirror.combinatorics import (
    HGTable,
    mobius_gamma,
    tables_for,
    verify_identities,
)
from equimirror.errors import NotInvariant
from equimirror.geometry import cones, counting
from equimirror.geometry.cones import (
    AbstractCone,
    ConeComplex,
    abstract_dual_face,
    abstract_quotient,
)
from equimirror.geometry.intlinalg import IntMatrix, char_poly, det
from equimirror.geometry.polytope import LatticePolytope
from equimirror.groups import MatrixGroup, generate_group, inverse_unimodular
from equimirror.invariants import mirror_check


def trivial(polytope):
    return ConeComplex(polytope, generate_group([], rank=polytope.dim))


def base_class(cx, matrix):
    """Class index of a base-lattice matrix (classes align with the cone's)."""
    return cx.base_group.class_index_of_element(matrix)


def ident_class(cx):
    return base_class(cx, IntMatrix.identity(cx.dim))


def top_class_poly(cx, path):
    """The table method ``path`` (``"phi.poly"``, ``"hg.h_face"``, ...) at
    the top face and one element of each class of its stabilizer, as a
    class function of the stabilizer."""
    fn = attrgetter(path)(tables_for(cx))
    stab = cx.face_stabilizer(cx.top_index)
    values = tuple(
        fn(cx.top_index, cx.group.index_of[rep]) for rep in stab.class_rep_elements()
    )
    return ClassPoly(stab, values)


# -- phi ------------------------------------------------------------------------


def test_phi_oracles(cube4, cubic_curve, quintic_a5):
    cube_phi = top_class_poly(cube4, "phi.poly")
    assert cube_phi.value_at_class(ident_class(cube4)) == UniPoly((1, 76, 230, 76, 1))
    curve_phi = top_class_poly(cubic_curve, "phi.poly")
    assert curve_phi.value_at_class(0) == UniPoly((1, 7, 1))
    quintic_phi = top_class_poly(quintic_a5, "phi.poly")
    assert quintic_phi.value_at_class(ident_class(quintic_a5)) == UniPoly(
        (1, 121, 381, 121, 1)
    )


def test_phi_small_faces(cube3):
    table = tables_for(cube3).phi
    assert table.poly(cube3.apex_index, 0) == UniPoly.one()
    vertex = next(f.index for f in cube3.faces if f.dim == 1)
    assert table.poly(vertex, 0) == UniPoly.one()
    edge = next(f.index for f in cube3.faces if f.dim == 2)
    # an edge of the cube has 2m+1 points per dilate: numerator 1 + t
    assert table.poly(edge, 0) == UniPoly((1, 1))


def test_phi_central_involution(cube4_central):
    cp = top_class_poly(cube4_central, "phi.poly")
    minus = base_class(cube4_central, IntMatrix.identity(4).scale(-1))
    assert cp.value_at_class(minus) == UniPoly((1, 4, 6, 4, 1))
    assert cp.value_at_class(ident_class(cube4_central)) == UniPoly((1, 76, 230, 76, 1))


def test_phi_palindromic_iff_reflexive(cube3, cross3, simplex3, quintic_a5):
    for cx in (cube3, cross3, quintic_a5):
        top = top_class_poly(cx, "phi.poly")
        for k in range(len(top.group.classes)):
            assert top.value_at_class(k).is_palindromic(cx.dim)
    not_reflexive = top_class_poly(simplex3, "phi.poly").value_at_class(0)
    assert not not_reflexive.is_palindromic(simplex3.dim)


def test_phi_requires_invariance(sym3_cube3):
    cx = sym3_cube3
    table = tables_for(cx).phi
    e = next(
        e for e in range(cx.group.order)
        if cx.invariant_faces(e) != tuple(range(cx.face_count))
    )
    moved = next(f for f in range(cx.face_count) if not cx.is_invariant(f, e))
    with pytest.raises(NotInvariant):
        table.poly(moved, e)


# -- h and g ----------------------------------------------------------------------


def test_hg_oracles(cube4, simplex3):
    k = ident_class(cube4)
    h = top_class_poly(cube4, "hg.h_face").value_at_class(k)
    assert h == UniPoly((1, 12, 14, 12, 1))
    assert top_class_poly(cube4, "hg.g_face").value_at_class(k) == UniPoly((1, 11, 2))
    cross4 = trivial(build_cross(4))
    assert top_class_poly(cross4, "hg.g_face").value_at_class(0) == UniPoly((1, 3, 2))
    simplex_h = top_class_poly(simplex3, "hg.h_face").value_at_class(0)
    assert simplex_h == UniPoly((1, 1, 1, 1))
    assert top_class_poly(simplex3, "hg.g_face").value_at_class(0) == UniPoly.one()


def test_hg_by_trace_on_permuted_cube(sym3_cube3):
    cx = sym3_cube3
    h_cp = top_class_poly(cx, "hg.h_face")
    g_cp = top_class_poly(cx, "hg.g_face")
    h_by_trace = {
        rep.trace(): h_cp.value_at_class(k)
        for k, rep in zip(range(len(cx.base_group.classes)),
                          cx.base_group.class_rep_elements())
    }
    assert h_by_trace == {
        3: UniPoly((1, 5, 5, 1)),
        1: UniPoly((1, 3, 3, 1)),
        0: UniPoly((1, 2, 2, 1)),
    }
    g_by_trace = {
        rep.trace(): g_cp.value_at_class(k)
        for k, rep in zip(range(len(cx.base_group.classes)),
                          cx.base_group.class_rep_elements())
    }
    assert g_by_trace == {
        3: UniPoly((1, 4)),
        1: UniPoly((1, 2)),
        0: UniPoly((1, 1)),
    }


def test_h_monic_palindromic_everywhere(cube3_central, sym3_cube3, cross3):
    for cx in (cube3_central, sym3_cube3, cross3):
        top_dim = cx.cdim
        cp = top_class_poly(cx, "hg.h_face")
        for k in range(len(cp.group.classes)):
            value = cp.value_at_class(k)
            assert value.degree == top_dim - 1
            assert value.coefficient(value.degree) == 1
            assert value.is_palindromic(top_dim - 1)
            g_val = top_class_poly(cx, "hg.g_face").value_at_class(k)
            assert 2 * g_val.degree <= top_dim - 1


def _direct_hg(cone, e, memo):
    """``(h, g)`` of ``cone`` at element ``e`` by the defining recursion,
    memoised only per (cone, element)."""
    key = cone.key + (e,)
    if key in memo:
        return memo[key]
    k = cone.dim
    if k == 0:
        h = g = UniPoly.one()
    else:
        top = cone.top_element
        char_top = cone.element_charpoly(top, e)
        h = UniPoly.zero()
        for x in cone.elements():
            if x == top or not cone.element_invariant(x, e):
                continue
            ratio = char_top.exact_div(UniPoly((-1, 1)) * cone.element_charpoly(x, e))
            h = h + ratio * _direct_hg(cone.subcone(x), e, memo)[1]
        g = truncate_tau(UniPoly((1, -1)) * h, Fraction(k - 1, 2))
    memo[key] = (h, g)
    return h, g


# generators of the 3-cube's symmetry group (order 48)
_SIGNED_PERMS3 = (
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((-1, 0, 0), (0, 1, 0), (0, 0, 1)),
)


def _random_subgroup(rng, generators):
    """The group generated by one or two random elements of the group
    that ``generators`` generate."""
    full = generate_group([IntMatrix(g) for g in generators])
    return generate_group(rng.sample(full.elements, rng.randint(1, 2)))


def test_shape_memo_equals_direct_recursion():
    """Every ``h``/``g`` of an interval, quotient and dual reading, at every
    element fixing it, equals the plain (cone, element) recursion."""
    rng = random.Random(8117)
    signed_perms2 = (((0, 1), (1, 0)), ((-1, 0), (0, 1)))
    hexagon = LatticePolytope(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))
    prism = LatticePolytope(
        [(x, y, z) for x, y in ((1, 0), (0, 1), (-1, -1)) for z in (-1, 1)]
    )
    models = [
        (build_cube(2), signed_perms2),
        (build_cube(3), _SIGNED_PERMS3),
        (build_cross(3), _SIGNED_PERMS3),
        (build_simplex(3), _SIGNED_PERMS3[:2]),
        (build_fermat(3), [fermat_permutation(w, 3) for w in ("(12)", "(1234)")]),
        (hexagon, (((0, -1), (1, 1)), ((0, 1), (1, 0)))),
        (prism, (((0, -1, 0), (1, -1, 0), (0, 0, 1)), ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
                 ((1, 0, 0), (0, 1, 0), (0, 0, -1)))),
    ]
    complexes = [
        ConeComplex(polytope, _random_subgroup(rng, gens))
        for polytope, gens in models
        for _ in range(2)
    ]
    # -I and the quarter turn fix the same faces, but their h differ
    rotation = ConeComplex(build_cube(2), generate_group([IntMatrix(((0, -1), (1, 0)))]))
    complexes.append(rotation)
    compared = 0
    for cx in complexes:
        table = tables_for(cx).hg
        memo = {}
        for e in range(cx.group.order):
            fixed = cx.invariant_faces(e)
            for lo in fixed:
                for hi in fixed:
                    if not cx.leq(lo, hi):
                        continue
                    for cone in (abstract_quotient(cx, lo, hi),
                                 abstract_dual_face(cx, lo, hi)):
                        assert (table.h(cone, e), table.g(cone, e)) == _direct_hg(
                            cone, e, memo
                        ), (cx, cone.key, e)
                        compared += 1
    assert compared > 4000

    top = rotation.top_index
    minus = rotation.base_group.index_of[IntMatrix.identity(2).scale(-1)]
    quarter = rotation.base_group.index_of[IntMatrix(((0, -1), (1, 0)))]
    assert rotation.invariant_faces(minus) == rotation.invariant_faces(quarter)
    assert rotation.invariant_faces(minus) == (rotation.apex_index, top)
    table = tables_for(rotation).hg
    assert table.h_face(top, minus) == UniPoly((1, 2, 1))
    assert table.h_face(top, quarter) == UniPoly((1, 0, 1))


def test_hg_computes_each_shape_once(monkeypatch):
    """All ten commands on cube4 with ``central`` compute ``h`` once per
    distinct shape: a few dozen polynomials, not one per (cone, element).
    The shape store is process-wide, so it is emptied first: shapes left by
    earlier tests would be found there and never computed."""
    counting.clear_cache()
    computed = []
    compute_h = HGTable._compute_h

    def counted(self, sid):
        computed.append((self, sid))
        return compute_h(self, sid)

    monkeypatch.setattr(HGTable, "_compute_h", counted)
    config = ModelConfig(builtin="cube", d=4, group=("central",), commands=COMMANDS)
    _report, code = run(config)
    assert code == 0
    assert len(computed) == len(set(computed))
    assert 0 < len(computed) < 50


def test_shapes_read_one_charpoly_per_cone(monkeypatch):
    """Building a shape reads only its top's polynomial: a child's label is
    the top polynomial of its own shape.  All ten commands on cube4 with
    ``central`` call ``element_charpoly`` about 2,000 times, not ~10,000."""
    calls = []
    element_charpoly = AbstractCone.element_charpoly

    def counting(self, f, e):
        calls.append((self.key, f, e))
        return element_charpoly(self, f, e)

    monkeypatch.setattr(AbstractCone, "element_charpoly", counting)
    config = ModelConfig(builtin="cube", d=4, group=("central",), commands=COMMANDS)
    _report, code = run(config)
    assert code == 0
    assert 0 < len(calls) < 2500


# -- stilde ----------------------------------------------------------------------


def test_stilde_oracles(cube4, square, cubic_curve, quintic_a5):
    assert top_class_poly(cube4, "stilde.poly").value_at_class(
        ident_class(cube4)
    ) == UniPoly((0, 1, 68, 68, 1))
    for cx in (square, cubic_curve):
        assert top_class_poly(cx, "stilde.poly").value_at_class(0) == UniPoly((0, 1, 1))
    quintic = top_class_poly(quintic_a5, "stilde.poly")
    assert quintic.value_at_class(ident_class(quintic_a5)) == UniPoly(
        (0, 1, 101, 101, 1)
    )
    cross4 = trivial(build_cross(4))
    cross_stilde = top_class_poly(cross4, "stilde.poly")
    assert cross_stilde.value_at_class(0) == UniPoly((0, 1, 4, 4, 1))


def test_stilde_vanishes_on_simplicial_proper_faces():
    cross4 = trivial(build_cross(4))
    table = tables_for(cross4).stilde
    for face in cross4.faces:
        if 0 < face.dim < cross4.cdim:
            assert table.poly(face.index, 0) == UniPoly.zero()


def test_stilde_palindromic_on_reflexive(cube4_central, quintic_a5):
    for cx in (cube4_central, quintic_a5):
        cp = top_class_poly(cx, "stilde.poly")
        for k in range(len(cp.group.classes)):
            assert cp.value_at_class(k).is_palindromic(cx.cdim)


def test_stilde_induction_crosscheck(sym3_cube3, cube4_central, quintic_a5):
    for cx in (sym3_cube3, cube4_central, quintic_a5):
        table = tables_for(cx).stilde
        assert top_class_poly(cx, "stilde.poly") == table.class_poly_by_induction()


# -- unimodular change of coordinates ---------------------------------------------


def test_tables_invariant_under_unimodular_map(sym3_cube3):
    """``P -> U P`` with ``G -> U G U^-1`` leaves every top-face table
    unchanged class by class; element order is lexicographic, so the class
    of ``g`` is matched to the class of ``U g U^-1``, not by index."""
    cx = sym3_cube3
    u = random_unimodular(random.Random(2), cx.dim)
    u_inv = inverse_unimodular(u)
    assert not u.is_identity()
    group = cx.base_group
    moved = moved_complex(cx, u)
    assert moved.base_group.order == group.order
    match = [
        moved.base_group.class_index_of_element(u @ g @ u_inv)
        for g in group.class_rep_elements()
    ]
    assert sorted(match) == list(range(len(group.classes)))
    assert match != sorted(match)  # this seed reorders the classes
    pairs = [
        (top_class_poly(cx, "phi.poly"), top_class_poly(moved, "phi.poly")),
        (top_class_poly(cx, "hg.h_face"), top_class_poly(moved, "hg.h_face")),
        (top_class_poly(cx, "hg.g_face"), top_class_poly(moved, "hg.g_face")),
        (top_class_poly(cx, "stilde.poly"), top_class_poly(moved, "stilde.poly")),
    ]
    for ours, theirs in pairs:
        for k, k_moved in enumerate(match):
            assert ours.value_at_class(k) == theirs.value_at_class(k_moved)


# -- polar duality ---------------------------------------------------------------------


def _top_tables(cx, e):
    tables, top = tables_for(cx), cx.top_index
    return (
        tables.phi.poly(top, e),
        tables.hg.h_face(top, e),
        tables.hg.g_face(top, e),
        tables.stilde.poly(top, e),
    )


def test_dual_tables_match_an_independent_dual(sym3_cube3, cube4_central, quintic_a5):
    """``cx.dual()``, whose group keeps the primal's element indices, has
    the top-face ``phi``, ``h``, ``g`` and ``Stilde`` of a dual built from
    scratch on the sorted contragredient group, at elements matched by
    matrix."""
    rng = random.Random(52113)
    # signed permutations (the first three groups) are their own
    # contragredients; A5 in Fermat coordinates and subgroups moved by a
    # unimodular map mostly are not, so the sorted rebuild numbers their
    # elements differently
    models = [cube4_central, quintic_complex("(12)(34)", "(123)"), sym3_cube3]
    models += [quintic_a5] + [
        moved_complex(
            ConeComplex(build_cube(3), _random_subgroup(rng, _SIGNED_PERMS3)),
            random_unimodular(rng, 3),
        )
        for _ in range(2)
    ]
    reordered = 0
    for cx in models:
        dual, group = cx.dual(), cx.base_group
        contragredients = MatrixGroup(map(group.dual_element, group.elements))
        p = dual.polytope
        rebuilt = ConeComplex(LatticePolytope(p.vertices, p.facets), contragredients)
        reordered += rebuilt.base_group.elements != dual.base_group.elements
        for e, g in enumerate(dual.base_group.elements):
            matched = rebuilt.base_group.index_of[g]
            assert _top_tables(dual, e) == _top_tables(rebuilt, matched), (cx, e)
    assert reordered >= 2  # the sorted rebuild really numbers elements differently


# -- one entry per orbit of (face, element) ------------------------------------------


def _is_abelian(group):
    return all(a @ b == b @ a for a in group.elements for b in group.elements)


def test_orbit_keyed_tables_match_raw_values(sym3_cube3):
    """Tables keep one entry per orbit of (face, element), so every fixed
    pair is checked against values computed here at that very pair: the
    characteristic polynomial and determinant of ``rho(f, e)``, and
    ``phi`` as fixed-point counts times ``det(I - rho t)``."""
    models = [sym3_cube3, quintic_complex("(12)(34)", "(123)")]
    rng = random.Random(13)
    models += [
        ConeComplex(build_cube(3), _random_subgroup(rng, _SIGNED_PERMS3))
        for _ in range(4)
    ]
    assert sum(not _is_abelian(cx.group) for cx in models) >= 3
    for cx in models:
        phi = tables_for(cx).phi
        for e in range(cx.group.order):
            for f in cx.invariant_faces(e):
                rho = cx.rho(f, e)
                raw = char_poly(rho)
                assert cx.charpoly(f, e) == raw, (f, e)
                assert cx.detsign(f, e) == det(rho), (f, e)
                k = cx.faces[f].dim
                if k == 0:
                    assert phi.poly(f, e) == UniPoly.one()
                    continue
                counts = UniPoly([cx.count_fixed(f, e, m) for m in range(k + 1)])
                raw_phi = (counts * raw.reverse(k)).truncate(k - 1)
                assert phi.poly(f, e) == raw_phi, (f, e)


def _fixed_pair_orbits(cx) -> int:
    """Orbits of the fixed (face, element) pairs under
    ``h . (f, e) = (h f, h e h^-1)``, by brute force over the group."""
    group = cx.group
    fixed = {(f, e) for e in range(group.order) for f in cx.invariant_faces(e)}
    seen = set()
    count = 0
    for f, e in sorted(fixed):
        if (f, e) in seen:
            continue
        count += 1
        for h, x in enumerate(group.elements):
            conjugate = group.index_of[x @ group.elements[e] @ group.inv(x)]
            seen.add((cx.face_image(h, f), conjugate))
    assert seen == fixed
    return count


def test_mirror_check_keeps_one_entry_per_orbit(monkeypatch):
    """The quintic's models compute on the process's ``(P, Aut(P))``
    complex.  Once a subgroup's model has built it and the whole group's
    model has asked for every class, the process has computed one
    restriction characteristic polynomial and keeps one store entry per
    orbit of fixed pairs under ``Aut(P)``; every fixed pair of either side
    reads them with no further ``char_poly``, and each side keeps one
    ``phi`` per orbit."""
    polys = []

    def counted(matrix, char_poly=cones.char_poly):
        polys.append(matrix)
        return char_poly(matrix)

    monkeypatch.setattr(cones, "char_poly", counted)
    counting.clear_cache()
    for words in (("(12)(34)", "(12345)"), ("(12)", "(12345)")):
        assert mirror_check(quintic_complex(*words)).verdict
    shared = cones.automorphism_side(quintic_complex())
    assert shared.group.order == 120
    orbits = _fixed_pair_orbits(shared)
    assert len(polys) == len(cones._charpolys) == orbits
    for side in (shared, shared.dual()):
        assert _fixed_pair_orbits(side) == orbits
        for e in range(side.group.order):
            for f in side.invariant_faces(e):
                side.charpoly(f, e)
        assert len(tables_for(side).phi._polys) == orbits
    assert len(polys) == len(cones._charpolys) == orbits


def test_phi_is_effective_on_cyclic_subgroups():
    """Stapledon's effectiveness (arXiv:1003.1738): with an invariant
    non-degenerate hypersurface, ``phi_i`` of the top face restricted to any
    cyclic ``H = <e>`` is a character, so ``<Res_H phi_i, 1>`` is a
    non-negative integer."""
    central = [
        ConeComplex(build_cube(n), generate_group([IntMatrix.identity(n).scale(-1)]))
        for n in (3, 4)
    ]
    fermat3 = ConeComplex(
        build_fermat(3),
        generate_group([fermat_permutation("(12)(34)", 3)], rank=3),
    )
    checked = 0
    for model in [quintic_complex("(12)", "(12345)"), fermat3, *central]:
        for cx in (model, model.dual()):
            phi, top, group = tables_for(cx).phi, cx.top_index, cx.group
            one = IntMatrix.identity(cx.cdim)
            for g in group.elements:
                cyclic, power = [one], g
                while power != one:
                    cyclic.append(power)
                    power = power @ g
                values = [phi.poly(top, group.index_of[p]) for p in cyclic]
                for i in range(cx.dim + 1):
                    mean = Fraction(sum(v.coefficient(i) for v in values), len(cyclic))
                    assert mean.denominator == 1 and mean >= 0, (g, i)
                    checked += 1
    assert checked == 1252


# -- Moebius function --------------------------------------------------------------


def test_mobius_basics(cube3):
    apex, top = cube3.apex_index, cube3.top_index
    assert mobius_gamma(cube3, apex, apex, 0) == 1
    assert mobius_gamma(cube3, apex, top, 0) == (-1) ** cube3.cdim
    v1, v2 = [f.index for f in cube3.faces if f.dim == 1][:2]
    assert mobius_gamma(cube3, v1, v2, 0) == 0


def test_mobius_closed_form(sym3_cube3, cube4_central, quintic_a5):
    """On the fixed subposet the Moebius function factors through the
    determinant signs of the endpoint restrictions."""
    rng = random.Random(1405)
    for cx in (sym3_cube3, cube4_central, quintic_a5):
        for e in (cx.group.index_of[g] for g in cx.group.class_rep_elements()):
            fixed = cx.invariant_faces(e)
            for _ in range(12):
                lo = rng.choice(fixed)
                hi = rng.choice(fixed)
                if not cx.leq(lo, hi):
                    continue
                gap = cx.faces[hi].dim - cx.faces[lo].dim
                expected = (
                    (-1) ** gap * cx.detsign(lo, e) * cx.detsign(hi, e)
                )
                assert mobius_gamma(cx, lo, hi, e) == expected


# -- the identity suite --------------------------------------------------------------


def test_verify_identities_names(segment):
    report = verify_identities(segment)
    assert [c.name for c in report.checks] == [
        "reciprocity",
        "h-palindromy",
        "stilde-palindromy",
        "g-convolution",
        "phi-reconstruction",
    ]
    assert report.ok
    assert "reciprocity: ok" in report.summary()


def test_verify_identities_spread(
    square, cube3_central, sym3_cube3, cross3, simplex3, cubic_curve, quintic_a5
):
    for cx in (square, cube3_central, sym3_cube3, cross3, simplex3,
               cubic_curve, quintic_a5):
        assert verify_identities(cx).ok


def test_verify_identities_catches_fault(cube3):
    table = tables_for(cube3).phi
    top = cube3.top_index
    doctored = table.override(top, 0, table.poly(top, 0) + UniPoly.monomial(1))
    report = verify_identities(cube3, phi_table=doctored)
    assert not report.ok
    reciprocity = next(c for c in report.checks if c.name == "reciprocity")
    assert any(f == top for f, _k, _msg in reciprocity.failures)
    # the doctored run leaves the complex's shared tables untouched
    assert tables_for(cube3).phi.poly(top, 0) == UniPoly((1, 23, 23, 1))
    assert verify_identities(cube3).ok


def test_verify_identities_uses_the_shared_tables():
    cx = trivial(build_cube(3))
    assert cx.tables is None
    assert verify_identities(cx).ok
    assert cx.tables is tables_for(cx)
    assert cx.tables.hg._h and cx.tables.stilde._polys


# -- process-wide stores ------------------------------------------------------------


def _recording(monkeypatch):
    """Record every face-restriction ``char_poly`` and ``_compute_h`` call."""
    restrictions, shapes = [], []
    compute_h = HGTable._compute_h

    def recording_char_poly(m, original=cones.char_poly):
        restrictions.append(m)
        return original(m)

    def recording_compute_h(self, sid):
        shapes.append(sid)
        return compute_h(self, sid)

    # cones calls intlinalg.char_poly through its own module binding
    monkeypatch.setattr(cones, "char_poly", recording_char_poly)
    monkeypatch.setattr(HGTable, "_compute_h", recording_compute_h)
    return restrictions, shapes


def _run_models(models):
    """Each model's report JSON, the models run in order in this process."""
    reports = {}
    for name, config in models:
        report, code = run(parse_config(json.dumps(config)))
        assert code == 0, name
        reports[name] = report.to_json()
    return reports


def test_sweep_reports_and_work_do_not_depend_on_model_order(monkeypatch):
    """The sweep's nine quintic models read their stringy values off one
    ``(P, Aut(P))`` complex, and the charpoly and shape stores are keyed by
    data, so the models give the same reports in every seeded order and
    alone, and every order computes each distinct restriction polynomial
    and each distinct shape's ``h`` exactly once: 36 and 18, against 49
    and 18 when each model read its mirror sign off its own complex, 130
    and 18 when each model summed its own tables and 248 and 194 for
    per-complex memos.  A span is taken only for a restriction polynomial
    the store lacks, so ``cones`` takes no more kernels."""
    workloads = benchmark_workloads()
    restrictions, shapes = _recording(monkeypatch)
    kernels = []

    def recording_kernel(m, original=cones.integer_kernel):
        kernels.append(m)
        return original(m)

    monkeypatch.setattr(cones, "integer_kernel", recording_kernel)

    def cold(models):
        counting.clear_cache()
        del restrictions[:], shapes[:], kernels[:]
        return _run_models(models)

    # seed 33 runs the whole group Sym5 first, so it lends the registry its group
    orders = [workloads.plan("quintic-mirror-sweep", seed) for seed in (1, 2, 3, 33)]
    names = [[name for name, _ in models] for models in orders]
    assert len({tuple(n) for n in names}) == 4 and names[3][0] == "Sym5"
    assert sorted(names[0]) == sorted(name for name, _ in workloads.QUINTIC_GROUPS)
    alone = {}
    for model in orders[0]:
        alone.update(cold([model]))
    for models in orders:
        assert cold(models) == alone
        assert (len(restrictions), len(shapes)) == (36, 18)
        assert len(kernels) <= len(restrictions)


def test_stores_filled_by_other_models_give_the_computed_values(monkeypatch):
    """After the benchmark's sweep and cube4 runs have filled the stores,
    fresh complexes of the A5 and Z2 quintics and of cube4 under ``central``
    find every restriction polynomial and shape there.  The quintics read
    their stringy values off the quintic's ``(P, Aut(P))`` complex, so its
    two sides and cube4's are checked: on each, every value is the one
    computed afresh, ``charpoly`` against ``char_poly(rho)`` at every
    invariant pair, ``h``/``g`` of every cone the tables used against a new
    table made after the stores are cleared."""
    workloads = benchmark_workloads()
    counting.clear_cache()
    _run_models(
        workloads.plan("quintic-mirror-sweep", 1)
        + workloads.plan("cube4-central-all", 1)
    )
    restrictions, shapes = _recording(monkeypatch)
    models = [
        quintic_complex("(12)(34)", "(12345)"),
        quintic_complex("(12)(34)"),
        ConeComplex(build_cube(4), generate_group([IntMatrix.identity(4).scale(-1)])),
    ]
    for cx in models:
        assert mirror_check(cx).verdict
    assert restrictions == [] and shapes == []
    shared = cones.automorphism_side(models[0])
    assert cones.automorphism_side(models[1]) is shared
    sides = [shared, shared.dual(), models[2], models[2].dual()]
    checked = 0
    for side in sides:
        for e in range(side.group.order):
            for f in side.invariant_faces(e):
                assert side.charpoly(f, e) == char_poly(side.rho(f, e)), (side, f, e)
                checked += 1
    # the invariant (face, element) pairs, both sides: under Aut(P) = Sym5,
    # 120 elements times the 6 face orbits (Burnside); on cube4, its 82
    # faces under the identity and the apex and top under -I
    assert checked == 2 * 120 * 6 + 2 * (82 + 2)
    used = [(side, tables_for(side).hg) for side in sides]
    counting.clear_cache()
    compared = 0
    for side, table in used:
        fresh = HGTable(side)
        assert table._g  # the stringy polynomial reads g of dual faces
        for memo, method in ((table._h, fresh.h), (table._g, fresh.g)):
            for (kind, base, ambient, e), value in memo.items():
                assert method(AbstractCone(side, kind, base, ambient), e) == value
                compared += 1
    assert shapes  # the fresh tables computed their shapes again
    assert compared > 100


def test_clear_cache_drops_the_stores_but_not_a_tables_shape_ids():
    """``counting.clear_cache`` empties the charpoly and shape stores.  A
    table made before the clear keeps the store it started with, whose ids
    its ``_shape_of`` holds, and still answers as a fresh table does."""
    cx = trivial(build_cube(3))
    old = tables_for(cx).hg
    old.h_face(cx.top_index, 0)
    assert cones._charpolys
    counting.clear_cache()
    assert not cones._charpolys
    twin = trivial(build_cube(3))
    fresh = HGTable(twin)
    assert fresh._shapes == [fresh._shapes[0]] and old._shapes is not fresh._shapes
    # a new model interns its shapes in the new store first
    square = trivial(build_cube(2))
    tables_for(square).hg.h_face(square.top_index, 0)
    for f in range(cx.face_count):
        assert old.h_face(f, 0) == fresh.h_face(f, 0)
        assert old.g_face(f, 0) == fresh.g_face(f, 0)
