"""Finite integer matrix groups: generation, classes, actions, duals."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import random_unimodular

import equimirror.groups as groups_module
from equimirror.algebra import ClassFun
from equimirror.cli.main import _QUINTIC_GROUPS
from equimirror.cli.models import ModelConfig, build_model, fermat_permutation
from equimirror.cli.report import element_order
from equimirror.errors import CapExceeded, NonInvertible, NotAnAction, SubgroupMismatch
from equimirror.geometry.cones import ConeComplex
from equimirror.geometry.intlinalg import IntMatrix, det
from equimirror.groups import (
    MatrixGroup,
    generate_group,
    inverse_unimodular,
    orbits,
    parse_cycles,
    permutation_matrix,
    stabilizer,
)


def perm_group(words, n):
    return generate_group([permutation_matrix(parse_cycles(w), n) for w in words])


def test_parse_cycles():
    assert parse_cycles("(12)") == {1: 2, 2: 1}
    assert parse_cycles("(123)") == {1: 2, 2: 3, 3: 1}
    assert parse_cycles("(12)(34)") == {1: 2, 2: 1, 3: 4, 4: 3}
    assert parse_cycles("") == {}
    with pytest.raises(ValueError):
        parse_cycles("(11)")
    with pytest.raises(ValueError):
        parse_cycles("(12)(13)")
    with pytest.raises(ValueError):
        parse_cycles("12)")


def test_permutation_matrix():
    m = permutation_matrix(parse_cycles("(12)"), 3)
    assert m.apply((1, 0, 0)) == (0, 1, 0)
    assert m.apply((0, 0, 1)) == (0, 0, 1)
    assert m @ m == IntMatrix.identity(3)


def _adjugate_inverse(m: IntMatrix) -> IntMatrix:
    """``det(M) * adj(M)``: the inverse of a unimodular ``M`` by cofactors."""
    n = m.nrows
    cofactor = [
        [
            (-1) ** (i + j)
            * det(IntMatrix([r[:j] + r[j + 1:] for k, r in enumerate(m.rows) if k != i]))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return IntMatrix(cofactor).transpose().scale(det(m))


def test_inverse_unimodular():
    u = IntMatrix([[2, 1], [1, 1]])
    assert inverse_unimodular(u) == IntMatrix([[1, -1], [-1, 2]])
    rng = random.Random(1515)
    for n in range(7):
        identity = IntMatrix.identity(n)
        for _ in range(12):
            u = random_unimodular(rng, n) if n else identity
            inv = inverse_unimodular(u)
            assert u @ inv == inv @ u == identity
            assert inv == _adjugate_inverse(u)
    for singular in ([[1, 2], [2, 4]], [[2, 0], [0, 1]], [[0, 1, 0], [2, 0, 0], [0, 0, 1]]):
        m = IntMatrix(singular)
        with pytest.raises(NonInvertible, match=f"determinant {det(m)},"):
            inverse_unimodular(m)


def test_generate_group_orders():
    assert perm_group(["(12)"], 2).order == 2
    assert perm_group(["(123)"], 3).order == 3
    assert perm_group(["(12)", "(123)"], 3).order == 6
    assert perm_group(["(12)", "(12345)"], 5).order == 120
    assert perm_group(["(12)(34)", "(12345)"], 5).order == 60
    # the full signed-permutation symmetry group of the 3-cube
    cube_syms = generate_group(
        [
            permutation_matrix(parse_cycles("(12)"), 3),
            permutation_matrix(parse_cycles("(123)"), 3),
            IntMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ]
    )
    assert cube_syms.order == 48


def test_generate_group_guards():
    with pytest.raises(CapExceeded):
        generate_group(
            [permutation_matrix(parse_cycles("(12)"), 5),
             permutation_matrix(parse_cycles("(12345)"), 5)],
            cap=60,
        )
    with pytest.raises(NonInvertible):
        generate_group([IntMatrix([[2]])])
    with pytest.raises(ValueError):
        generate_group([IntMatrix.identity(2)], rank=3)
    assert generate_group([], rank=3).order == 1
    # an infinite group fails closed: the shear's orbit of e_2 never ends
    with pytest.raises(CapExceeded):
        generate_group([[[1, 1], [0, 1]]], cap=50)
    with pytest.raises(NonInvertible, match="determinant 2"):
        MatrixGroup([IntMatrix.identity(2), IntMatrix([[2, 0], [0, 1]])])


def test_matrix_group_rejects_non_group_element_sets():
    identity = IntMatrix.identity(2)
    with pytest.raises(ValueError, match="does not contain the identity"):
        MatrixGroup([IntMatrix([[0, 1], [1, 0]])])
    with pytest.raises(ValueError, match="not closed under inversion"):
        MatrixGroup([identity, IntMatrix([[1, 1], [0, 1]])])
    # every element is an involution, but the reflection conjugates the
    # swap to the anti-swap, which is missing
    with pytest.raises(ValueError, match="not closed under multiplication"):
        MatrixGroup([identity, IntMatrix([[0, 1], [1, 0]]), IntMatrix([[-1, 0], [0, 1]])])
    # closed under inversion and under conjugation (the elements commute),
    # but -I * diag(1, -1) = diag(-1, 1) is missing
    with pytest.raises(ValueError, match="not closed under multiplication"):
        MatrixGroup([identity, identity.scale(-1), IntMatrix([[1, 0], [0, -1]])])


def hyperoctahedral_generators(n):
    """Generators of ``B_n``, the signed permutation matrices of order
    ``2^n n!``: a transposition, an ``n``-cycle and one sign change."""
    flip = [list(r) for r in IntMatrix.identity(n).rows]
    flip[0][0] = -1
    cycle = "(" + "".join(str(k) for k in range(1, n + 1)) + ")"
    return [
        permutation_matrix(parse_cycles("(12)"), n),
        permutation_matrix(parse_cycles(cycle), n),
        IntMatrix(flip),
    ]


def reference_generate(gens):
    """The closure by matrix products, right-multiplying by generators."""
    identity = IntMatrix.identity(gens[0].nrows)
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = {a @ g for a in frontier for g in gens} - seen
        seen |= frontier
    return seen


def reference_build(elements):
    """The matrix-product build of a group's structure: sorted elements,
    inverses by Hermite form, and classes found by conjugating each
    representative ``r`` by every ``x`` in element order, the first ``x``
    reaching a member being its transporter."""
    els = sorted(set(elements))
    index_of = {g: i for i, g in enumerate(els)}
    inverse = [index_of[inverse_unimodular(g)] for g in els]
    target, transporter = [-1] * len(els), [-1] * len(els)
    classes, centralizers = [], {}
    for i, g in enumerate(els):
        if target[i] >= 0:
            continue
        members, fixing = [], []
        for x_idx, x in enumerate(els):
            m = index_of[els[inverse[x_idx]] @ g @ x]
            if target[m] < 0:
                target[m], transporter[m] = i, x_idx
                members.append(m)
            if m == i:
                fixing.append(x_idx)
        centralizers[i] = tuple(fixing)
        classes.append(tuple(sorted(members)))
    return {
        "elements": tuple(els),
        "inverse": inverse,
        "classes": tuple(classes),
        "reps": tuple(c[0] for c in classes),
        "sizes": tuple(len(c) for c in classes),
        "centralizers": centralizers,
        "conjugators": [(transporter[m], target[m]) for m in range(len(els))],
    }


def test_permutation_build_matches_matrix_reference():
    """The permutation build gives exactly the matrix-product build's
    elements, inverses, classes, centralizers and transporters, on
    signed permutation groups, on their conjugates by unimodular
    matrices (which are not signed permutations) and on stabilizers."""
    rng = random.Random(1717)
    cases = [[fermat_permutation(w, 4) for w in ws] for ws in _QUINTIC_GROUPS.values()]
    cases += [hyperoctahedral_generators(3), hyperoctahedral_generators(4)]
    for gens in cases[:2] + cases[-2:]:
        u = random_unimodular(rng, gens[0].nrows)
        u_inv = inverse_unimodular(u)
        cases.append([u @ g @ u_inv for g in gens])
    checked = []
    for gens in cases:
        group = generate_group(gens)
        checked.append((group, reference_build(reference_generate(gens))))
        pair = (1, 1) + (0,) * (group.dim - 2)
        for point in (group.elements[-1].col(0), pair):
            subgroup = stabilizer(group, point, lambda g, v: g.apply(v))
            checked.append((subgroup, reference_build(subgroup.elements)))
    assert [g.order for g, _ in checked[::3]] == [
        60, 120, 2, 4, 3, 5, 12, 6, 10, 48, 384, 60, 120, 48, 384
    ]
    for group, ref in checked:
        assert group.elements == ref["elements"]
        assert group._inverse == ref["inverse"]
        assert group.classes == ref["classes"]
        assert group.class_reps == ref["reps"]
        assert group.class_sizes == ref["sizes"]
        assert {r: group.centralizer(r) for r in group.class_reps} == ref["centralizers"]
        assert [group.conjugator(m) for m in range(group.order)] == ref["conjugators"]
        assert group.identity_index == group.index_of[IntMatrix.identity(group.dim)]
        for m, g in enumerate(group.elements):
            assert group.class_of(m) == group.class_index_of_element(g)
            # the transporters of m are C(r) x; x is the first of them
            x, r = group.conjugator(m)
            xm = group.elements[x]
            xs = [group.index_of[group.elements[c] @ xm] for c in group.centralizer(r)]
            assert x == min(xs)


def test_group_build_forms_no_matrix_products(monkeypatch):
    """Closure, inverses and classes run on permutations: no matrix
    product, where a matrix build makes thousands.  The determinant guard
    still runs, even on the trivial group."""
    products, dets = [], []

    def counting_matmul(a, b, matmul=IntMatrix.__matmul__):
        products.append((a, b))
        return matmul(a, b)

    def recording_det(m):
        dets.append(m)
        return det(m)

    monkeypatch.setattr(IntMatrix, "__matmul__", counting_matmul)
    # groups calls intlinalg.det through its own module binding
    monkeypatch.setattr(groups_module, "det", recording_det)
    sym5 = generate_group([fermat_permutation(w, 4) for w in _QUINTIC_GROUPS["Sym5"]])
    b4 = generate_group(hyperoctahedral_generators(4))
    assert (sym5.order, b4.order) == (120, 384)
    assert products == []
    dets.clear()
    trivial = generate_group([], rank=5)
    assert trivial.order == 1
    assert dets == [IntMatrix.identity(5)]


def power_order(g: IntMatrix) -> int:
    """The order of ``g`` by repeated matrix products."""
    identity = IntMatrix.identity(g.nrows)
    power, n = g, 1
    while power != identity:
        power = power @ g
        n += 1
    return n


def test_element_orders_match_matrix_powers():
    """Orders read off the basis-vector-orbit permutations, per class, are
    those of repeated products, on every element of the nine quintic
    groups, ``B4`` and cube4's ``central`` (and its cone and dual images)."""
    groups = [
        generate_group([fermat_permutation(w, 4) for w in ws])
        for ws in _QUINTIC_GROUPS.values()
    ]
    groups.append(generate_group(hyperoctahedral_generators(4)))
    polytope, central, _ = build_model(ModelConfig(builtin="cube", d=4, group=("central",)))
    cx = ConeComplex(polytope, central)
    groups += [central, cx.group, cx.dual().group]
    for group in groups:
        for k, members in enumerate(group.classes):
            for e in members:
                g = group.elements[e]
                assert element_order(group, g) == group.class_orders[k] == power_order(g)
    assert sorted(set(groups[-4].class_orders)) == [1, 2, 3, 4, 6, 8]


def test_class_structure_sym3():
    g = perm_group(["(12)", "(123)"], 3)
    assert sorted(g.class_sizes) == [1, 2, 3]
    # identity is alone in its class
    ident = IntMatrix.identity(3)
    k = g.class_index_of_element(ident)
    assert g.class_sizes[k] == 1
    # class index lookup fails for outsiders
    with pytest.raises(SubgroupMismatch):
        g.class_index_of_element(IntMatrix.identity(3).scale(-1))
    reps = g.class_rep_elements()
    assert len(reps) == 3
    assert {m.trace() for m in reps} == {3, 1, 0}


def test_class_structure_a5_and_sym5():
    a5 = perm_group(["(12)(34)", "(12345)"], 5)
    assert sorted(a5.class_sizes) == [1, 12, 12, 15, 20]
    sym5 = perm_group(["(12)", "(12345)"], 5)
    assert sorted(sym5.class_sizes) == [1, 10, 15, 20, 20, 24, 30]
    assert sum(sym5.class_sizes) == 120


def test_classes_partition_and_conjugation():
    rng = random.Random(2024)
    g = perm_group(["(12)", "(1234)"], 4)
    assert g.order == 24
    assert sum(g.class_sizes) == g.order
    for _ in range(60):
        a = rng.choice(g.elements)
        h = rng.choice(g.elements)
        conj = h @ a @ g.inv(h)
        assert g.class_index_of_element(conj) == g.class_index_of_element(a)
        assert det(conj) == det(a)
        assert conj.trace() == a.trace()


def test_elements_sorted_and_inverse_table():
    g = perm_group(["(123)"], 3)
    assert list(g.elements) == sorted(g.elements)
    for a in g.elements:
        assert a @ g.inv(a) == IntMatrix.identity(3)


def test_orbits_and_stabilizer():
    sym3 = perm_group(["(12)", "(123)"], 3)
    points = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    orbs = orbits(sym3, points, lambda g, v: g.apply(v))
    assert [len(o) for o in orbs] == [3, 1]
    stab = stabilizer(sym3, (0, 0, 1), lambda g, v: g.apply(v))
    # orbit-stabilizer: |orbit| * |stabilizer| = |group|
    assert stab.order * 3 == sym3.order
    with pytest.raises(NotAnAction):
        orbits(sym3, [(1, 0, 0)], lambda g, v: g.apply(v))


def test_orbit_stabilizer_random():
    rng = random.Random(88)
    group = perm_group(["(12)", "(12345)"], 5)
    points = [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]
    for _ in range(20):
        v = rng.choice(points)
        orb = next(o for o in orbits(group, points, lambda g, x: g.apply(x)) if v in o)
        stab = stabilizer(group, v, lambda g, x: g.apply(x))
        assert len(orb) * stab.order == group.order


def test_dual_group():
    g = perm_group(["(12)", "(123)"], 3)
    dual = g.dual_group()
    assert dual.order == g.order
    # permutation matrices are orthogonal, so the dual action permutes the
    # same matrices; class data must agree
    assert sorted(dual.class_sizes) == sorted(g.class_sizes)
    for a in g.elements:
        d = g.dual_element(a)
        assert d == g.inv(a).transpose()
        assert d in dual.index_of


def random_signed_permutation(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(rng.sample(range(n), n)):
        rows[j][i] = rng.choice((-1, 1))
    return IntMatrix(rows)


def homogenize(g):
    return IntMatrix([r + (0,) for r in g.rows] + [(0,) * g.nrows + (1,)])


def assert_same_group(image, rebuilt):
    """``image`` is ``rebuilt`` up to the order of its elements: the same
    matrices, inverses and class partition, matched by matrix."""
    assert sorted(image.elements) == list(rebuilt.elements)
    to_rebuilt = [rebuilt.index_of[g] for g in image.elements]
    assert [to_rebuilt[j] for j in image._inverse] == [
        rebuilt._inverse[i] for i in to_rebuilt
    ]
    classes = {frozenset(to_rebuilt[m] for m in c) for c in image.classes}
    assert classes == {frozenset(c) for c in rebuilt.classes}
    for i, g in enumerate(image.elements):
        assert i in image.classes[image.class_index_of_element(g)]
        # the shared conjugating elements and centralizers hold in the image
        x, r = image.conjugator(i)
        xm = image.elements[x]
        assert xm @ g @ image.inv(xm) == image.elements[r]
    for r, size in zip(image.class_reps, image.class_sizes):
        rm, centralizer = image.elements[r], image.centralizer(r)
        for c in centralizer:
            assert image.elements[c] @ rm == rm @ image.elements[c]
        assert len(centralizer) * size == image.order


def test_image_equals_rebuild(sym3_cube3):
    """The image of a group under a homomorphism keeps its source's element
    indices and shares its inverses and classes; up to that correspondence
    it is what a from-scratch (sorted) build of the image gives."""
    rng = random.Random(36)
    gens = {n: [random_signed_permutation(rng, n) for _ in range(2)] for n in (3, 4)}
    sources = [sym3_cube3.base_group]
    for n, gs in gens.items():
        sources.append(generate_group(gs))
        u = random_unimodular(rng, n)
        u_inv = inverse_unimodular(u)
        sources.append(generate_group([u @ g @ u_inv for g in gs]))
    for group in sources:
        n = group.dim
        u = random_unimodular(rng, n)
        u_inv = inverse_unimodular(u)
        homs = (homogenize, group.dual_element, lambda g: u @ g @ u_inv)
        for hom in homs:
            image = group.image(hom)
            assert image.elements == tuple(map(hom, group.elements))
            assert_same_group(image, MatrixGroup(map(hom, group.elements)))
        rebuilt = MatrixGroup(map(group.dual_element, group.elements))
        assert_same_group(group.dual_group(), rebuilt)
    # the cone complex's own homogenized group
    homogenized = MatrixGroup(map(homogenize, sources[0].elements))
    assert_same_group(sym3_cube3.group, homogenized)
    with pytest.raises(ValueError):
        sources[1].image(lambda g: IntMatrix.identity(3))


def test_standard_characters():
    g = perm_group(["(12)", "(123)"], 3)
    triv = ClassFun(g, (1,) * len(g.classes))
    assert triv.invariant_dim() == 1
    sgn = ClassFun(g, tuple(det(g.elements[i]) for i in g.class_reps))
    assert sgn.average() == Fraction(0)
    assert (sgn * sgn) == triv
