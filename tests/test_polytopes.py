"""Polytopes, face lattices of their cones, duality, group actions."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from conftest import moved_complex, quintic_complex, random_unimodular

from equimirror.cli.main import _QUINTIC_GROUPS, run
from equimirror.cli.models import (
    _BUILDERS,
    build_cross,
    build_cube,
    build_fermat,
    build_simplex,
    fermat_permutation,
    parse_config,
)
from equimirror.errors import (
    NotAFaceLattice,
    NotInvariant,
    NotReflexive,
    SubgroupMismatch,
)
from equimirror.geometry.cones import ConeComplex
from equimirror.geometry import cones, counting, intlinalg
from equimirror.geometry import polytope as polytope_module
from equimirror.geometry.intlinalg import IntMatrix, det, hnf_rows, integer_kernel
from equimirror.geometry.polytope import LatticePolytope
from equimirror.groups import (
    MatrixGroup,
    generate_group,
    parse_cycles,
    permutation_matrix,
    stabilizer,
)
from equimirror.invariants import mirror_check


def f_vector(cx: ConeComplex) -> Counter:
    return Counter(face.dim for face in cx.faces)


def trivial(polytope):
    return ConeComplex(polytope, generate_group([], rank=polytope.dim))


def test_polytope_construction_and_facet_search():
    tri = LatticePolytope(((0, 0), (1, 0), (0, 1)))
    assert tri.dim == 2
    assert len(tri.facets) == 3
    assert all(b >= 0 for _, b in tri.facets)  # contains the origin
    assert any(a[0] + a[1] > b for a, b in tri.facets)  # not (1, 1)
    # explicit facets must agree with the hull
    with pytest.raises(ValueError):
        LatticePolytope(((0, 0), (1, 0), (0, 1)), facets=(((1, 1), 2),))


def test_polytope_guards():
    with pytest.raises(ValueError):
        LatticePolytope(((0, 0), (1, 1)))  # not full-dimensional
    with pytest.raises(ValueError):
        LatticePolytope(())


def test_polytope_refuses_non_integral_input():
    # truncating these entries would silently build the unit square
    square_facets = (((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0))
    unit = ((0, 0), (1, 0), (0, 1), (1, 1))
    assert LatticePolytope(unit, square_facets).vertices == tuple(sorted(unit))
    for vertices, facets in (
        (((0.5, 0), (1, 0), (0, 1), (1.9, 1)), None),
        (unit, (((1.7, 0), 1),) + square_facets[1:]),
        (unit, (((1, 0), 1.5),) + square_facets[1:]),
        ((("0", 0), (1, 0), (0, 1), (1, 1)), None),
    ):
        with pytest.raises(ValueError, match="must be integers"):
            LatticePolytope(vertices, facets)


def test_reflexive_predicates():
    assert build_cube(3).is_reflexive()
    assert build_cross(3).is_reflexive()
    assert build_fermat(4).is_reflexive()
    assert not build_simplex(3).is_reflexive()
    with pytest.raises(NotReflexive):
        build_simplex(3).dual_reflexive()


def test_reflexive_duality_involution():
    for p in (build_cube(3), build_cross(4), build_fermat(3)):
        dual = p.dual_reflexive()
        assert dual.is_reflexive()
        assert dual.dual_reflexive() == p
    assert sorted(build_cube(3).dual_reflexive().vertices) == sorted(
        build_cross(3).vertices
    )


def test_face_counts():
    assert f_vector(trivial(build_cube(3))) == Counter({0: 1, 1: 8, 2: 12, 3: 6, 4: 1})
    counts4 = f_vector(trivial(build_cube(4)))
    assert counts4 == Counter({0: 1, 1: 16, 2: 32, 3: 24, 4: 8, 5: 1})
    assert sum(counts4.values()) == 82
    # boolean lattice for simplices
    for d in (1, 2, 3):
        assert trivial(build_simplex(d)).face_count == 2 ** (d + 1)
    quintic = trivial(build_fermat(4))
    assert quintic.face_count == 32


def test_every_builtin_face_lattice_passes_the_check():
    """Up to d = 6, simplex and fermat past their builtin range: cube and
    cross have 3^d + 1 cone faces, the simplices 2^(d + 1)."""
    for d in range(1, 7):
        assert trivial(build_cube(d)).face_count == 3**d + 1
        assert trivial(build_cross(d)).face_count == 3**d + 1
        assert trivial(build_simplex(d)).face_count == 2 ** (d + 1)
        if d > 1:
            assert trivial(build_fermat(d)).face_count == 2 ** (d + 1)


def test_incomplete_facet_lists_are_rejected():
    """Each given facet is validated alone, so a list missing some passes
    that; the face lattice it closes up into is not a polytope's.  All 206
    lists that drop one facet of a builtin (d <= 5) or two (d <= 3) fail
    the lattice check when the polytope is built."""
    rejected = 0
    builtins = ((build_cube, 1), (build_cross, 1), (build_simplex, 1), (build_fermat, 2))
    for build, lo in builtins:
        for d in range(lo, 6):
            full = build(d)
            for r in (1, 2) if d <= 3 else (1,):
                for dropped in itertools.combinations(full.facets, r):
                    facets = [f for f in full.facets if f not in dropped]
                    with pytest.raises(NotAFaceLattice, match="missing"):
                        LatticePolytope(full.vertices, facets)
                    rejected += 1
    assert rejected == 206


def test_random_incomplete_facet_lists_are_rejected():
    """Inline polytopes on random lattice points of a sphere ``x . x = r^2``
    (each one a vertex of their hull), d = 2..4: the searched facets
    build, and the list without any one of them, or three random pairs,
    raises :class:`NotAFaceLattice`, also a ``ValueError``."""
    rng = random.Random(2029)
    lists = 0
    for d, r2 in ((2, 25), (3, 9), (4, 4)):
        side = range(-math.isqrt(r2), math.isqrt(r2) + 1)
        sphere = [
            p for p in itertools.product(side, repeat=d) if sum(x * x for x in p) == r2
        ]
        for _ in range(6):
            full = LatticePolytope(rng.sample(sphere, d + 4))
            dropped = [(f,) for f in full.facets]
            dropped += rng.sample(list(itertools.combinations(full.facets, 2)), 3)
            for gone in dropped:
                facets = [f for f in full.facets if f not in gone]
                with pytest.raises(ValueError, match="missing") as info:
                    LatticePolytope(full.vertices, facets)
                assert isinstance(info.value, NotAFaceLattice)
                lists += 1
    assert lists == 206


def test_a_point_that_is_not_a_vertex_is_rejected():
    """An edge point of ``2 cross4`` lies on four facets, but it is no face
    on its own."""
    cross = build_cross(4)
    doubled = [tuple(2 * x for x in v) for v in cross.vertices]
    facets = [(a, 2) for a, _ in cross.facets]
    with pytest.raises(NotAFaceLattice, match=r"point \[1, 1, 0, 0\] is no face"):
        LatticePolytope(doubled + [(1, 1, 0, 0)], facets)
    assert trivial(LatticePolytope(doubled, facets)).face_count == 3**4 + 1


def test_a_lattice_that_is_not_graded_is_rejected():
    """A made-up poset on the square's vertices: three edges 01, 12 and 02
    under the top and vertex 3 under no edge.  Each vertex below an edge
    lies on exactly two of them, so only gradedness fails: the top covers
    vertex 3, two dimensions down."""
    square = build_cube(2)
    ids = [(), (0,), (1,), (2,), (3,), (0, 1), (1, 2), (0, 2), (0, 1, 2, 3)]
    lattice = [(s, sum(1 << i for i in s)) for s in ids]
    below = [
        sum(1 << g for g, t in enumerate(ids) if set(t) <= set(s)) for s in ids
    ]
    dims = [0, 1, 1, 1, 1, 2, 2, 2, 3]
    with pytest.raises(NotAFaceLattice, match="more than one dimension lower"):
        polytope_module._check_lattice(square.vertices, lattice, below, dims)


def test_poset_structure(cube3):
    apex, top = cube3.apex_index, cube3.top_index
    assert cube3.faces[apex].dim == 0
    assert cube3.faces[top].dim == cube3.cdim
    for f in range(cube3.face_count):
        assert cube3.leq(apex, f)
        assert cube3.leq(f, top)
        assert apex in cube3.faces_below(f)
        assert f in cube3.faces_below(f)
    # an edge of the cube: interval to top is a chain of length complements
    edge = next(f.index for f in cube3.faces if f.dim == 2)
    assert len(cube3.interval(edge, top)) == 1 + 2 + 1  # edge, 2 squares, top


def test_intervals_are_eulerian(cube3, cross3, simplex3):
    """Every proper interval has as many even faces as odd ones."""
    rng = random.Random(7)
    for cx in (cube3, cross3, simplex3):
        for _ in range(40):
            i = rng.randrange(cx.face_count)
            j = rng.randrange(cx.face_count)
            if not cx.leq(i, j):
                continue
            window = cx.interval(i, j)
            balance = sum((-1) ** cx.faces[g].dim for g in window)
            assert balance == (0 if i != j else (-1) ** cx.faces[i].dim)


def test_face_span_dimensions(cube4):
    for face in cube4.faces:
        span = cube4.span(face.index)
        assert span.nrows == face.dim
        if face.dim:
            # the span contains each cone generator of the face
            from equimirror.geometry.intlinalg import solve_in_row_basis

            for vid in face.vertex_ids:
                point = cube4.polytope.vertices[vid] + (1,)
                solve_in_row_basis(span, point)


def saturated_vertex_span(polytope, face) -> IntMatrix:
    """Reference span of a face: the saturation of its homogenized
    vertices, i.e. the annihilator of their annihilator, in Hermite form."""
    if not face.vertex_ids:
        return IntMatrix(())
    gens = IntMatrix([polytope.vertices[i] + (1,) for i in face.vertex_ids])
    # the rows of each kernel are the vectors orthogonal to every given row
    annihilator = integer_kernel(gens)
    if annihilator.nrows == 0:
        return IntMatrix.identity(polytope.dim + 1)
    return integer_kernel(annihilator)


def test_face_spans_are_saturated_vertex_spans():
    """The span cut out by the tight facet rows is the saturation of the
    vertex span, entry for entry, on both sides of the builtins and on
    inline polytopes with non-simple vertices and non-unimodular cones.
    The dimension the lattice gives a face is the rank of its homogenized
    vertices."""
    polytopes = [build_cube(d) for d in (1, 2, 3, 4)]
    polytopes += [build_cross(d) for d in (2, 3, 4)]
    polytopes += [build_simplex(d) for d in (1, 2, 3)]
    polytopes += [build_fermat(d) for d in (2, 3, 4)]
    polytopes += [p.dual_reflexive() for p in polytopes if p.is_reflexive()]
    polytopes += [
        # square pyramids: four facets meet at the apex, and with the apex
        # at height 3 the cones over the side facets are not unimodular
        LatticePolytope(((0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1))),
        LatticePolytope(((0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 3))),
        LatticePolytope(((0, 0), (3, 0), (0, 1))),
    ]
    checked = 0
    for polytope in polytopes:
        cx = trivial(polytope)
        for face in cx.faces:
            assert cx.span(face.index) == saturated_vertex_span(polytope, face), (
                polytope, face
            )
            gens = IntMatrix([polytope.vertices[i] + (1,) for i in face.vertex_ids])
            assert face.dim == hnf_rows(gens).nrows, (polytope, face)
            checked += 1
    assert checked == 676


def test_vertex_set_is_built_once(cube3):
    """A face keeps the vertex bitmask the lattice build made, on both
    sides of a pair."""
    for face in cube3.faces + cube3.dual().faces:
        assert face.mask == polytope_module._mask(face.vertex_ids)
        assert polytope_module._members(face.mask) == face.vertex_ids


def _counted_kernels(monkeypatch):
    """Record the matrix of every integer kernel ``cones`` takes."""
    calls = []
    original = intlinalg.integer_kernel

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(cones, "integer_kernel", counted)
    return calls


def test_building_a_complex_takes_no_kernel(monkeypatch):
    """Faces are lattice data only: building cube4's and cube5's complexes
    and cube5's dual takes no integer kernel.  CLI ``phi`` on cube5 takes
    one, the apex's span, which the dual's top-face quotient reaches."""
    calls = _counted_kernels(monkeypatch)
    cx = trivial(build_cube(4))
    assert cx.face_count == 82
    assert calls == []
    cube5 = trivial(build_cube(5))
    cube5.dual()
    assert calls == []
    report, code = run(parse_config('{"builtin": "cube", "d": 5, "commands": ["phi"]}'))
    assert code == 0 and "phi[C*](class 0)" in report.render()
    # the apex lies on every facet; its span is the kernel of all ten rows
    assert [m.rows for m in calls] == [cube5.polytope.cone_rows]


def test_group_must_preserve_polytope():
    asym = LatticePolytope(((0, 0), (3, 0), (0, 1)))
    swap = IntMatrix([[0, 1], [1, 0]])
    with pytest.raises(NotInvariant):
        ConeComplex(asym, generate_group([swap]))
    with pytest.raises(SubgroupMismatch):
        ConeComplex(build_cube(3), generate_group([swap]))
    # -I preserves the rhombus and the swap does not: one generator of two
    # moving a vertex off is enough
    rhombus = LatticePolytope(((1, 0), (-1, 0), (0, 2), (0, -2)))
    ConeComplex(rhombus, generate_group([IntMatrix.identity(2).scale(-1)]))
    with pytest.raises(NotInvariant):
        ConeComplex(rhombus, generate_group([IntMatrix.identity(2).scale(-1), swap]))
    # a group given by its element set has every element as a generator
    with pytest.raises(NotInvariant):
        ConeComplex(asym, MatrixGroup([IntMatrix.identity(2), swap]))


def _reference_face_maps(cx: ConeComplex):
    """Per element of ``cx``'s base group, each face's image, found by
    applying the element to every vertex: the vertex-action reference."""
    verts = cx.polytope.vertices
    vertex_of = {v: i for i, v in enumerate(verts)}
    face_of = {frozenset(f.vertex_ids): f.index for f in cx.faces}
    maps = []
    for g in cx.base_group.elements:
        moved = [vertex_of[g.apply(v)] for v in verts]
        maps.append(
            tuple(face_of[frozenset(moved[j] for j in f.vertex_ids)] for f in cx.faces)
        )
    return tuple(maps)


def _usual_groups(name: str, d: int):
    """Generator sets of a builtin's usual groups: trivial, ``central``,
    the coordinate permutations and, up to ``d = 4``, all signed
    permutations for the cube and the cross-polytope; the coordinate
    permutations for the simplex and all ``d + 1`` homogeneous ones for
    the Fermat simplex."""
    def cycle(n):
        return "(" + "".join(str(k) for k in range(1, n + 1)) + ")"

    minus = IntMatrix.identity(d).scale(-1)
    perms = [] if d == 1 else [
        permutation_matrix(parse_cycles(w), d) for w in ("(12)", cycle(d))
    ]
    if name == "fermat":
        return [[], [fermat_permutation(w, d) for w in ("(12)", cycle(d + 1))]]
    if name == "simplex":
        return [[], perms] if perms else [[]]
    flip = IntMatrix([[-1 if i == j == 0 else int(i == j) for j in range(d)]
                      for i in range(d)])
    out = [[], [minus], perms + [minus]]
    if d <= 4:
        out.append(perms + [flip])
    return out


def test_composed_face_maps_match_the_vertex_action():
    """Face maps composed from the generators' along the closure equal the
    vertex-action reference on every element: every builtin up to
    ``d = 5`` under its usual groups, the quintic sweep's groups, a
    ``stabilizer``-built group, the ``(P, Aut(P))`` registry side and
    duals.  Building a complex applies only the generators, each to every
    vertex once."""
    models = []
    for name, lo in (("cube", 1), ("cross", 1), ("simplex", 1), ("fermat", 2)):
        for d in range(lo, 6):
            polytope = _BUILDERS[name](d)
            for gens in _usual_groups(name, d):
                models.append((polytope, generate_group(gens, rank=d)))
    quintic = build_fermat(4)
    for words in _QUINTIC_GROUPS.values():
        gens = [fermat_permutation(w, 4) for w in words]
        models.append((quintic, generate_group(gens)))
    sym5 = models[-8][1]
    assert sym5.order == 120 and models[-9][1].order == 60
    vertex = quintic.vertices[0]
    models.append((quintic, stabilizer(sym5, vertex, lambda g, v: g.apply(v))))
    assert models[-1][1].order == 24
    applied = []
    original = IntMatrix.apply

    def counted(self, v):
        applied.append(v)
        return original(self, v)

    complexes = []
    for polytope, group in models:
        polytope.faces  # the face lattice, built apart from the complex
        applied.clear()
        IntMatrix.apply = counted
        try:
            cx = ConeComplex(polytope, group)
        finally:
            IntMatrix.apply = original
        assert len(applied) == len(group.generators) * len(polytope.vertices)
        complexes.append(cx)
    counting.clear_cache()
    shared = cones.automorphism_side(quintic_complex("(12)(34)", "(123)"))
    assert shared.base_group.order == 120
    # the 3-cube under its 48 signed permutations, and the quintic under A5
    b3 = next(cx for cx in complexes if cx.base_group.order == 48 and cx.face_count == 28)
    a5 = complexes[-10]
    assert a5.base_group.order == 60
    complexes += [shared, shared.dual(), b3.dual(), a5.dual()]
    for cx in complexes:
        assert cx._face_maps == _reference_face_maps(cx), cx
    counting.clear_cache()


def test_homogenized_group_alignment(sym3_cube3):
    cx = sym3_cube3
    assert cx.group.order == cx.base_group.order == 6
    assert cx.group.classes == cx.base_group.classes
    for e, g in enumerate(cx.group.elements):
        assert g.rows[-1] == (0, 0, 0, 1)
        assert IntMatrix(tuple(r[:-1] for r in g.rows[:-1])) == cx.base_element(e)


def test_invariant_faces_and_orbits(sym3_cube3):
    cx = sym3_cube3
    ident = cx.group.index_of[IntMatrix.identity(4)]
    assert cx.invariant_faces(ident) == tuple(range(cx.face_count))
    orbs = cx.face_orbits()
    assert sum(len(o) for o in orbs) == cx.face_count
    # orbit-stabilizer on every face
    for orb in orbs:
        stab = cx.face_stabilizer(orb[0])
        assert len(orb) * stab.order == cx.group.order
    # coordinate permutations fix the two diagonal vertices of the cube
    vertex_faces = [f.index for f in cx.faces if f.dim == 1]
    fixed_vertices = [
        f for f in vertex_faces
        if all(cx.is_invariant(f, e) for e in range(cx.group.order))
    ]
    assert len(fixed_vertices) == 2


def test_quintic_face_orbits(quintic_a5):
    orbs = quintic_a5.face_orbits()
    by_dim = Counter()
    for orb in orbs:
        by_dim[quintic_a5.faces[orb[0]].dim] += 1
    # apex and top are alone; each proper dimension forms a single orbit
    assert by_dim == Counter({0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1})


def test_rho_and_charpoly(sym3_cube3):
    cx = sym3_cube3
    swap = permutation_matrix(parse_cycles("(12)"), 3)
    e = next(
        i for i, g in enumerate(cx.group.elements)
        if IntMatrix(tuple(r[:-1] for r in g.rows[:-1])) == swap
    )
    top = cx.top_index
    assert cx.rho(top, e).nrows == cx.cdim
    assert cx.detsign(top, e) == -1
    assert cx.charpoly(top, e).degree == cx.cdim
    assert cx.char_series(top, e) == cx.charpoly(top, e).reverse(cx.cdim)
    # apex restriction is the empty matrix with charpoly 1
    assert cx.charpoly(cx.apex_index, e).degree == 0
    moved = next(
        f.index for f in cx.faces if f.dim == 1 and not cx.is_invariant(f.index, e)
    )
    with pytest.raises(NotInvariant):
        cx.rho(moved, e)


def test_detsign_is_det_of_rho(sym3_cube3, cube3_central):
    """``detsign`` is read off the characteristic polynomial's constant
    term; it must equal the determinant of the restriction on every fixed
    face, odd-dimensional ones included."""
    square = ConeComplex(build_cube(2), generate_group([IntMatrix(((0, -1), (1, 0)))]))
    for cx in (sym3_cube3, cube3_central, square, quintic_complex("(12345)")):
        for e in range(cx.group.order):
            for f in cx.invariant_faces(e):
                assert cx.detsign(f, e) == det(cx.rho(f, e)), (cx, f, e)


def test_rho_is_the_action_in_the_span_basis(sym3_cube3, quintic_a5):
    """Column ``i`` of ``rho(f, e)`` holds the coordinates of ``g . b_i``
    in the face's span basis: ``g . b_i == sum_j rho[j][i] b_j``.  A
    transposed ``rho`` has the same characteristic polynomial, so only an
    identity like this one tells the two apart.  The A5 quintic's dual,
    whose group is not its own contragredient, reads its spans off its
    partner's."""
    square = ConeComplex(build_cube(2), generate_group([IntMatrix(((0, -1), (1, 0)))]))
    checked = 0
    for cx in (sym3_cube3, square, quintic_complex("(12345)"), quintic_a5.dual()):
        for e, g in enumerate(cx.group.elements):
            for f in cx.invariant_faces(e):
                span = cx.span(f)
                rho = cx.rho(f, e)
                for i, b in enumerate(span.rows):
                    image = tuple(
                        sum(rho[j][i] * bj[k] for j, bj in enumerate(span.rows))
                        for k in range(span.ncols)
                    )
                    assert g.apply(b) == image, (cx, f, e, i)
                    checked += 1
    assert checked > 100


def test_count_fixed_matches_polytope_counts(cube3_central):
    cx = cube3_central
    top = cx.top_index
    minus = cx.base_group.index_of[IntMatrix.identity(3).scale(-1)]
    ident = cx.base_group.index_of[IntMatrix.identity(3)]
    for m in range(3):
        assert cx.count_fixed(top, ident, m) == (2 * m + 1) ** 3
        assert cx.count_fixed(top, minus, m) == 1
    assert cx.count_fixed(cx.apex_index, ident, 0) == 1
    assert cx.count_fixed(cx.apex_index, ident, 1) == 0


def test_dual_complex(cube3):
    """Face ``f`` of the dual is the dual of face ``f``: the dual's faces
    are distinct, complement dimensions and reverse the order."""
    dual = cube3.dual()
    assert dual.polytope == build_cross(3)
    assert dual.face_count == cube3.face_count
    seen = set()
    for f in range(cube3.face_count):
        assert dual.faces[f].index == f
        assert dual.faces[f].dim == cube3.cdim - cube3.faces[f].dim
        seen.add(dual.faces[f].mask)
    assert len(seen) == cube3.face_count
    # order-reversing
    for f in range(cube3.face_count):
        for g in range(cube3.face_count):
            if cube3.leq(f, g):
                assert dual.leq(g, f)


def test_dual_face_pairing_is_equivariant(sym3_cube3, quintic_a5):
    """The pairing ``f -> f`` between a complex and its dual is a bijection
    that complements dimensions, reverses order and commutes with the
    action: element ``e`` of the dual (the contragredient of ``e``) maps the
    dual of ``f`` to the dual of ``e f``, read off the dual vertices it
    moves.  Neither group is its own contragredient, so a mix-up of primal
    and dual elements would show."""
    moved = moved_complex(sym3_cube3, random_unimodular(random.Random(1907), 3))
    for cx in (quintic_a5, moved):
        group, dual = cx.base_group, cx.dual()
        assert any(group.dual_element(g) != g for g in group.elements)
        vertex_of = {v: i for i, v in enumerate(dual.polytope.vertices)}
        face_of = {face.mask: face.index for face in dual.faces}
        assert sorted(face_of.values()) == list(range(dual.face_count))
        for f, face in enumerate(cx.faces):
            assert dual.faces[f].dim == cx.cdim - face.dim
            for g in cx.faces_below(f):
                assert dual.leq(f, g)
            for e, h in enumerate(dual.base_group.elements):
                moved_vertices = polytope_module._mask(
                    vertex_of[h.apply(dual.polytope.vertices[i])]
                    for i in dual.faces[f].vertex_ids
                )
                assert face_of[moved_vertices] == dual.face_image(e, f)
                assert dual.face_image(e, f) == cx.face_image(e, f)


def _dual_reference_models(quintic_sym5, quintic_a5):
    for build, low in ((build_cube, 1), (build_cross, 1), (build_simplex, 1),
                       (build_fermat, 2)):
        for d in range(low, 6):
            polytope = build(d)
            if polytope.is_reflexive():
                yield trivial(polytope)
    for build in (build_cube, build_cross):
        for d in range(1, 5):
            yield ConeComplex(build(d), generate_group([IntMatrix.identity(d).scale(-1)]))
    yield quintic_sym5
    yield quintic_a5
    yield moved_complex(quintic_a5, random_unimodular(random.Random(2203), 4))


def test_dual_complex_matches_a_fresh_build(quintic_sym5, quintic_a5):
    """The dual read off the primal is the complex built from scratch on
    the polar dual and the dual group, up to numbering: matched by vertex
    set, each face has the same vertices, facets, dimension, span (the one
    the dual's ``rho`` derives), faces below it and image under every
    element, and the characteristic polynomial read off the primal's is
    the fresh build's, from its ``rho``, on every invariant pair.  The
    fresh build validates the dual's vertices and facets and enumerates
    their lattice anew."""
    models = 0
    for cx in _dual_reference_models(quintic_sym5, quintic_a5):
        dual = cx.dual()
        p = dual.polytope
        polytope = LatticePolytope(p.vertices, p.facets)
        fresh = ConeComplex(polytope, cx.base_group.dual_group())
        assert dual.polytope == fresh.polytope
        assert dual.face_count == fresh.face_count
        index = {face.mask: face.index for face in fresh.faces}
        match = [index[face.mask] for face in dual.faces]
        assert sorted(match) == list(range(fresh.face_count))
        for face, j in zip(dual.faces, match):
            other = fresh.faces[j]
            assert face.vertex_ids == other.vertex_ids, (cx, face.index)
            assert face.tight == other.tight, (cx, face.index)
            assert face.dim == other.dim, (cx, face.index)
            assert dual.span(face.index) == fresh.span(j), (cx, face.index)
        for f in range(dual.face_count):
            below = sorted(match[g] for g in dual.faces_below(f))
            assert below == list(fresh.faces_below(match[f])), (cx, f)
        for e in range(cx.group.order):
            for f in range(dual.face_count):
                assert match[dual.face_image(e, f)] == fresh.face_image(e, match[f])
            for f in dual.invariant_faces(e):
                assert dual.charpoly(f, e) == fresh.charpoly(match[f], e), (cx, f, e)
        assert match[dual.apex_index] == fresh.apex_index
        assert match[dual.top_index] == fresh.top_index
        models += 1
    assert models == 25


def reference_lattice(polytope, group):
    """The faces of the cone over ``polytope`` as ``(vertex_ids, tight)`` in
    lexicographic order, the faces below each one and, per element of
    ``group``, the index of each face's image: the frozenset comprehensions
    the bitmask build replaced."""
    facet_sets = [
        frozenset(
            i for i, v in enumerate(polytope.vertices)
            if sum(x * y for x, y in zip(a, v)) == b
        )
        for a, b in polytope.facets
    ]
    found = set(facet_sets) | {frozenset(range(len(polytope.vertices))), frozenset()}
    frontier = list(found)
    while frontier:
        fresh = {s & t for s in frontier for t in facet_sets} - found
        found |= fresh
        frontier = list(fresh)
    order = sorted(found, key=lambda s: tuple(sorted(s)))
    faces = [
        (tuple(sorted(s)), tuple(i for i, t in enumerate(facet_sets) if s <= t))
        for s in order
    ]
    below = [tuple(j for j, t in enumerate(order) if t <= s) for s in order]
    index_of = {s: i for i, s in enumerate(order)}
    vertex_of = {v: i for i, v in enumerate(polytope.vertices)}
    maps = [
        [
            index_of[frozenset(vertex_of[g.apply(polytope.vertices[v])] for v in s)]
            for s in order
        ]
        for g in group.elements
    ]
    return faces, below, maps


def test_face_lattice_matches_the_frozenset_reference(quintic_sym5, quintic_a5):
    """On both sides of the 25 dual reference models, the bitmask build
    gives the reference's faces, faces below and face images.  A primal
    numbers its faces as the reference does; a dual is matched to it by
    vertex set, and its reference is taken on a polytope validated afresh
    from the dual's vertices and facets."""
    models = 0
    for cx in _dual_reference_models(quintic_sym5, quintic_a5):
        for side in (cx, cx.dual()):
            p = side.polytope
            reference = p if side is cx else LatticePolytope(p.vertices, p.facets)
            faces, below, maps = reference_lattice(reference, side.base_group)
            index = {polytope_module._mask(ids): i for i, (ids, _) in enumerate(faces)}
            match = [index[face.mask] for face in side.faces]
            if side is cx:
                assert match == list(range(len(faces)))
            assert sorted(match) == list(range(len(faces)))
            for face, j in zip(side.faces, match):
                assert (face.vertex_ids, face.tight) == faces[j], (side, face.index)
                assert sorted(match[g] for g in side.faces_below(face.index)) == list(
                    below[j]
                ), (side, face.index)
            for e in range(side.group.order):
                for f, j in enumerate(match):
                    assert match[side.face_image(e, f)] == maps[e][j], (side, e, f)
        models += 1
    assert models == 25


def test_dual_spans_are_taken_on_demand(monkeypatch):
    """A dual is read off its partner with no integer linear algebra:
    building cube5's dual takes no kernel, and the mirror check on the A5
    quintic calls ``rho`` on no read-off dual and, reading its stringy
    values off the registry side, builds no dual of the model.  The span a
    dual's ``rho`` takes on demand follows the primal's rule, one kernel of
    the dual's own tight cone rows per face but its top."""
    cx = trivial(build_cube(5))
    calls = _counted_kernels(monkeypatch)
    dual = cx.dual()
    assert calls == []
    for f in range(dual.face_count):
        assert dual.rho(f, 0).nrows == dual.faces[f].dim
    # one kernel per face but the dual's top, the apex's partner
    assert len(calls) == dual.face_count - 1 == 243

    read_off = []
    rho = ConeComplex.rho

    def recorded(self, f, e):
        read_off.append(self._partner is not None)
        return rho(self, f, e)

    monkeypatch.setattr(ConeComplex, "rho", recorded)
    quintic = quintic_complex("(12)(34)", "(123)", "(12345)")
    assert mirror_check(quintic).verdict
    side = cones.automorphism_side(quintic)
    assert side.stringy_values and side.dual().stringy_values
    assert quintic._dual is None and not any(read_off)


def test_partners_share_one_least_face_table(quintic_a5):
    """A complex and its dual share their face maps, classes, conjugators
    and centralizers, so they share one least-face table: the dual takes
    its partner's, and ``canonical`` agrees on every pair, also under A5,
    which is not its own contragredient in Fermat coordinates."""
    quintic = quintic_complex("(12)", "(12345)")
    assert mirror_check(quintic).verdict
    assert quintic.dual()._canonical_faces is quintic._canonical_faces
    cx, dual = quintic_a5, quintic_a5.dual()
    assert any(g != cx.base_group.dual_element(g) for g in cx.base_group.elements)
    for f in range(cx.face_count):
        for e in range(cx.group.order):
            # the orbit representative from the dual's own maps and group
            x, r = dual.group.conjugator(e)
            least = min(
                dual.face_image(c, dual.face_image(x, f))
                for c in dual.group.centralizer(r)
            )
            assert cx.canonical(f, e) == dual.canonical(f, e) == (least, r), (f, e)


def test_faces_are_enumerated_once_per_pair(monkeypatch):
    """A dual complex takes its faces from its partner: the face closure
    runs once for the pair, when the primal polytope is built, on the
    mirror check and on CLI ``phi``."""
    cube5 = build_cube(5)
    enumerated = []
    enumerate_faces = polytope_module._enumerate_faces

    def counted(vertices, facets):
        enumerated.append(vertices)
        return enumerate_faces(vertices, facets)

    monkeypatch.setattr(polytope_module, "_enumerate_faces", counted)
    quintic = quintic_complex("(12)", "(12345)")
    assert mirror_check(quintic).verdict
    assert enumerated == [quintic.polytope.vertices]
    enumerated.clear()
    report, code = run(parse_config('{"builtin": "cube", "d": 5, "commands": ["phi"]}'))
    assert code == 0 and "phi[C*](class 0)" in report.render()
    assert enumerated == [cube5.vertices]


def test_dual_reflexive_reads_the_lattice_upside_down(monkeypatch):
    """The polar dual neither validates facets nor enumerates faces: its
    face ``i`` is face ``i`` with vertices and facets swapped and the
    complementary dimension, and the faces below it are those above face
    ``i``.  Matched by vertex set, that is the lattice a fresh build of
    the dual finds; the dual's dual is the polytope, lattice and all."""
    polytopes = [build(d) for build in (build_cube, build_cross) for d in range(1, 6)]
    polytopes += [build_fermat(d) for d in range(2, 6)]
    fresh = [
        LatticePolytope([a for a, _ in p.facets], [(v, 1) for v in p.vertices])
        for p in polytopes
    ]

    def refused(*args):
        raise AssertionError("the polar dual is checked again")

    monkeypatch.setattr(polytope_module, "_validate_facets", refused)
    monkeypatch.setattr(polytope_module, "_enumerate_faces", refused)
    fields = lambda face: (face.index, face.vertex_ids, face.tight, face.dim, face.mask)
    for p, reference in zip(polytopes, fresh):
        dual = p.dual_reflexive()
        assert dual == reference and dual.facets == reference.facets
        assert dual.cone_rows == reference.cone_rows
        index = {face.mask: face.index for face in reference.faces}
        match = [index[face.mask] for face in dual.faces]
        assert sorted(match) == list(range(len(reference.faces)))
        for f, (face, primal) in enumerate(zip(dual.faces, p.faces)):
            other = reference.faces[match[f]]
            assert fields(face)[1:] == fields(other)[1:], (p, f)
            assert face.index == f and face.dim == p.dim + 1 - primal.dim
            above = [g for g, below in enumerate(p.below) if f in below]
            assert list(dual.below[f]) == above, (p, f)
            below = sorted(match[g] for g in dual.below[f])
            assert below == list(reference.below[match[f]]), (p, f)
        twice = dual.dual_reflexive()
        assert twice == p and twice.below == p.below
        assert list(map(fields, twice.faces)) == list(map(fields, p.faces))


def test_dual_group_keeps_element_indices(cube4_central, quintic_a5):
    """Element ``e`` of the dual's group is the contragredient of element
    ``e``, for the base and the homogenized group alike (A5 in Fermat
    coordinates is not its own contragredient)."""
    for cx in (cube4_central, quintic_a5):
        group, dual = cx.base_group, cx.dual()
        for e, g in enumerate(group.elements):
            assert dual.base_group.elements[e] == group.dual_element(g)
            assert dual.group.elements[e] == cx.group.dual_element(cx.group.elements[e])


# -- the lattice symmetries of a simplex -----------------------------------------


def _brute_force_symmetries(polytope):
    """The linear map of every vertex permutation, where integral: ``L`` solves
    ``v_i . L^T = v_s(i)`` for all ``i`` at once, by Gauss-Jordan
    elimination over the rationals."""
    verts, d = polytope.vertices, polytope.dim
    found = set()
    for perm in itertools.permutations(range(len(verts))):
        system = [
            [Fraction(x) for x in v + verts[perm[i]]] for i, v in enumerate(verts)
        ]
        for c in range(d):
            p = next(i for i in range(c, len(system)) if system[i][c])
            system[c], system[p] = system[p], system[c]
            system[c] = [x / system[c][c] for x in system[c]]
            for i, row in enumerate(system):
                if i != c and row[c]:
                    system[i] = [x - row[c] * y for x, y in zip(row, system[c])]
        # the rows left over must read 0 = 0, and L^T is integral
        if any(any(row[d:]) for row in system[d:]):
            continue
        transpose = [row[d:] for row in system[:d]]
        if all(x.denominator == 1 for row in transpose for x in row):
            found.add(IntMatrix(zip(*transpose)))
    return found


_SIMPLICES = (
    [("fermat", d, build_fermat(d)) for d in range(2, 6)]
    + [("simplex", d, build_simplex(d)) for d in range(1, 6)]
    + [
        ("cubic-curve", 2, LatticePolytope(((2, -1), (-1, 2), (-1, -1)))),
        ("triangle", 2, LatticePolytope(((1, 0), (0, 1), (-2, -3)))),
    ]
)


@pytest.mark.parametrize(
    "name, d, polytope", _SIMPLICES, ids=[f"{n}{d}" for n, d, _ in _SIMPLICES]
)
def test_simplex_automorphisms_match_a_brute_force_filter(name, d, polytope):
    """``Aut(P)`` of a simplex is every vertex permutation whose linear map
    is integral; each element is unimodular and maps the vertex set onto
    itself."""
    found = polytope.simplex_automorphisms()
    assert set(found) == _brute_force_symmetries(polytope)
    assert len(set(found)) == len(found)
    verts = polytope.vertices
    for g in found:
        assert det(g) in (1, -1)
        assert sorted(g.apply(v) for v in verts) == sorted(verts)
    expected = {"fermat": math.factorial(d + 1), "simplex": math.factorial(d)}
    orders = dict(expected, **{"cubic-curve": 6, "triangle": 1})
    assert len(found) == orders[name]


def test_simplex_automorphisms_need_a_simplex():
    with pytest.raises(ValueError):
        build_cube(2).simplex_automorphisms()
