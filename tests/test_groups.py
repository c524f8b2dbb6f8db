"""Finite integer matrix groups: generation, classes, actions, duals."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import random_unimodular

import equimirror.groups as groups_module
from equimirror.algebra import ClassFun
from equimirror.cli.main import _QUINTIC_GROUPS
from equimirror.cli.models import (
    ModelConfig,
    build_fermat,
    build_model,
    fermat_permutation,
)
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
    # the shear is unimodular, but its square is missing: it maps the
    # column (1, 1) to (2, 1), off the orbit of the set's columns
    with pytest.raises(ValueError, match="not closed under multiplication"):
        MatrixGroup([identity, IntMatrix([[1, 1], [0, 1]])])
    # every element is an involution, but the reflection conjugates the
    # swap to the anti-swap, which is missing
    with pytest.raises(ValueError, match="not closed under multiplication"):
        MatrixGroup([identity, IntMatrix([[0, 1], [1, 0]]), IntMatrix([[-1, 0], [0, 1]])])
    # closed under inversion and under conjugation (the elements commute),
    # but -I * diag(1, -1) = diag(-1, 1) is missing
    with pytest.raises(ValueError, match="not closed under multiplication"):
        MatrixGroup([identity, identity.scale(-1), IntMatrix([[1, 0], [0, -1]])])


def test_element_set_build_checks_closure_in_full():
    """``MatrixGroup(S)`` builds exactly when ``S`` is closed under
    products, over every subset holding the identity of the 8 signed
    permutations of ``Z^2`` and of Sym3 as permutation matrices: those are
    the 10 and 6 subgroups, and every other subset raises ``ValueError``."""
    signed = generate_group(hyperoctahedral_generators(2))
    sym3 = perm_group(["(12)", "(123)"], 3)
    for group, subgroups in ((signed, 10), (sym3, 6)):
        one = IntMatrix.identity(group.dim)
        others = [g for g in group.elements if g != one]
        closed_sets = 0
        for mask in range(1 << len(others)):
            subset = {one} | {g for k, g in enumerate(others) if mask >> k & 1}
            if all(a @ b in subset for a in subset for b in subset):
                closed_sets += 1
                built = MatrixGroup(subset)
                assert set(built.elements) == subset
                assert_closure_generates(built)
            else:
                with pytest.raises(ValueError, match="not closed under multiplication"):
                    MatrixGroup(subset)
        assert closed_sets == subgroups


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


def greedy_generators(group, candidates):
    """Indices of the candidates that are not in the closure (by matrix
    products) of the ones picked before them: the generators a build
    records."""
    picked, held = [], {IntMatrix.identity(group.dim)}
    for c in candidates:
        if c not in held:
            picked.append(c)
            held = reference_generate(picked)
    return [group.index_of[c] for c in picked]


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


def assert_same_fields(built, ref):
    """``built`` and ``ref`` agree on every field a caller reads: elements,
    indices, inverses, classes, conjugators and centralizers."""
    assert built.elements == ref.elements
    assert built.index_of == ref.index_of
    assert built.identity_index == ref.identity_index
    assert [built.inv(g) for g in built.elements] == [ref.inv(g) for g in ref.elements]
    assert built._inverse == ref._inverse
    assert built.classes == ref.classes
    assert built.class_reps == ref.class_reps
    assert built.class_sizes == ref.class_sizes
    assert built.class_orders == ref.class_orders
    assert [built.conjugator(e) for e in range(built.order)] == [
        ref.conjugator(e) for e in range(ref.order)
    ]
    assert [built.centralizer(r) for r in built.class_reps] == [
        ref.centralizer(r) for r in ref.class_reps
    ]


def assert_closure_generates(group):
    """Every closure triple ``(x, g, a)`` has ``x = g a`` with ``g`` a
    generator and ``a`` the identity or an earlier ``x``, and the triples
    reach every non-identity element exactly once."""
    els, one = group.elements, group.identity_index
    assert one not in group.generators
    assert len(set(group.generators)) == len(group.generators)
    known = {one}
    for x, g, a in group.closure:
        assert g in group.generators and a in known and x not in known
        assert els[x] == els[g] @ els[a]
        known.add(x)
    assert known == set(range(group.order))


def test_closure_build_matches_the_element_set_build():
    """A group ``generate_group`` builds from its closure, with no ``det``,
    second orbit or per-element ``images``, equals the group the public
    constructor builds from its element set, field by field: on the
    sweep's nine groups, ``Aut`` of fermat3 and fermat4, ``B4`` and two of
    its subgroups, seeded random generator sets and Sym5 with a redundant
    third generator.  The closure records how the group was generated: a
    candidate is a generator only when the ones before it do not generate
    it, for the given generators and for the sorted element set alike, and
    the homogenized and contragredient images keep that record."""
    cases = [[fermat_permutation(w, 4) for w in ws] for ws in _QUINTIC_GROUPS.values()]
    for d in (3, 4):
        cycle = "(" + "".join(str(k) for k in range(1, d + 2)) + ")"
        cases.append([fermat_permutation("(12)", d), fermat_permutation(cycle, d)])
    b4 = hyperoctahedral_generators(4)
    cases += [b4, b4[:2], [b4[0], b4[2]]]
    rng = random.Random(3301)
    for _ in range(8):
        n = rng.randint(2, 4)
        gens = [random_signed_permutation(rng, n) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            u = random_unimodular(rng, n)
            u_inv = inverse_unimodular(u)
            gens = [u @ g @ u_inv for g in gens]
        # a repeated generator and the identity add no generator
        gens += [gens[0], IntMatrix.identity(n)]
        cases.append(gens)
    # (13) is in the group (12) and (12345) generate
    cases.append([fermat_permutation(w, 4) for w in ("(12)", "(12345)", "(13)")])
    orders = []
    for gens in cases:
        built = generate_group(gens)
        ref = MatrixGroup(built.elements)
        orders.append(built.order)
        assert_same_fields(built, ref)
        assert_closure_generates(built)
        assert_closure_generates(ref)
        assert list(built.generators) == greedy_generators(built, gens)
        assert list(ref.generators) == greedy_generators(ref, ref.elements)
        for image in (built.image(homogenize), built.dual_group()):
            assert (image.generators, image.closure) == (built.generators, built.closure)
            assert_closure_generates(image)
    assert orders[:14] == [60, 120, 2, 4, 3, 5, 12, 6, 10, 24, 120, 384, 24, 8]
    aut = {d: set(build_fermat(d).simplex_automorphisms()) for d in (3, 4)}
    assert set(generate_group(cases[9]).elements) == aut[3]
    assert set(generate_group(cases[10]).elements) == aut[4]


def test_group_build_forms_no_matrix_products(monkeypatch):
    """Closure, inverses and classes run on permutations: no matrix
    product, where a matrix build makes thousands.  The determinant guard
    runs on the given generators, on the trivial group's identity and, for
    an element set (``Aut`` of the quintic from its 120 matrices), on the
    generators the closure records only; the closure applies each recorded
    generator, and no other matrix, once to each point of the orbit."""
    aut_elements = list(build_fermat(4).simplex_automorphisms())
    products, dets, actions, closing = [], [], [], []

    def counting_matmul(a, b, matmul=IntMatrix.__matmul__):
        products.append((a, b))
        return matmul(a, b)

    def recording_det(m):
        dets.append(m)
        return det(m)

    def counting_apply(m, vec, apply=IntMatrix.apply):
        if closing:
            actions.append(m)
        return apply(m, vec)

    def marked_close(group, *args, close=MatrixGroup._close, **kwargs):
        closing.append(group)
        try:
            return close(group, *args, **kwargs)
        finally:
            closing.pop()

    def expected_actions(group):
        """Each recorded generator once per point of the orbit of the basis
        vectors, the set of all columns of all elements."""
        points = {col for g in group.elements for col in zip(*g.rows)}
        return [group.elements[g] for g in group.generators for _ in points]

    monkeypatch.setattr(IntMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(IntMatrix, "apply", counting_apply)
    monkeypatch.setattr(MatrixGroup, "_close", marked_close)
    # groups calls intlinalg.det through its own module binding
    monkeypatch.setattr(groups_module, "det", recording_det)
    sym5_gens = [fermat_permutation(w, 4) for w in _QUINTIC_GROUPS["Sym5"]]
    sym5 = generate_group(sym5_gens)
    b4 = generate_group(hyperoctahedral_generators(4))
    assert (sym5.order, b4.order) == (120, 384)
    assert products == []
    # only the generators' determinants are taken, none of an element's
    assert dets == sym5_gens + hyperoctahedral_generators(4)
    assert len(sym5.generators) + len(b4.generators) == 5
    assert actions == expected_actions(sym5) + expected_actions(b4)
    dets.clear()
    trivial = generate_group([], rank=5)
    assert trivial.order == 1
    assert dets == [IntMatrix.identity(5)]
    dets.clear()
    actions.clear()
    aut = MatrixGroup(aut_elements)
    assert aut.order == 120 and set(aut.elements) == set(sym5.elements)
    assert products == []
    assert 2 <= len(aut.generators) < 120
    assert dets == [aut.elements[g] for g in aut.generators]
    assert actions == expected_actions(aut)


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
