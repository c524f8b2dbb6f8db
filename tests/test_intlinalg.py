"""Exact integer matrix algorithms."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from conftest import random_unimodular

from equimirror.algebra import UniPoly
from equimirror.cli import main as cli
from equimirror.cli.models import COMMANDS, parse_config
from equimirror.geometry import cones, counting
from equimirror.geometry.intlinalg import (
    IntMatrix,
    _as_int,
    char_poly,
    det,
    hnf_rows,
    integer_kernel,
    primitive,
    solve_in_row_basis,
)
from equimirror.groups import inverse_unimodular


def rand_matrix(rng: random.Random, n: int, m: int, lo: int = -5, hi: int = 5) -> IntMatrix:
    return IntMatrix([[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)])


def test_matrix_basics():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m.col(1) == (2, 4)
    assert m.transpose() == IntMatrix([[1, 3], [2, 4]])
    assert m.trace() == 5
    assert (m @ IntMatrix.identity(2)) == m
    assert m.apply((1, 1)) == (3, 7)
    assert IntMatrix.from_columns([(1, 3), (2, 4)]) == m
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(AttributeError):
        m.rows = ()


def _outcome(convert, value):
    """What ``convert(value)`` returns or raises, comparably."""
    try:
        return ("ok", convert(value))
    except Exception as exc:
        return (type(exc), str(exc))


def test_int_matrix_row_check_matches_the_per_entry_check():
    values = [0, -7, 2**70, True, False, 2.0, -0.0, Fraction(4, 2), 1.5,
              Fraction(1, 2), "3", None, math.nan, math.inf, -math.inf, [1]]
    accepted = [v for v in values if _outcome(_as_int, v)[0] == "ok"]
    assert accepted == values[:8]
    for value in values:
        expected = _outcome(_as_int, value)
        for row in ([value], [1, value, 2], (x for x in [3, value])):
            got = _outcome(lambda r: IntMatrix([r]).rows[0], row)
            if expected[0] == "ok":
                assert got[0] == "ok", (value, got)
                assert all(type(x) is int for x in got[1])
                assert expected[1] in got[1]
            else:
                assert got == expected, (value, got)
    # the first bad entry is named, even when a later one fails differently
    with pytest.raises(ValueError, match=r"got 1\.5"):
        IntMatrix([[1, 1.5, None]])
    with pytest.raises(TypeError):
        IntMatrix([[1, None, 1.5]])
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix([[1, 2], [3.0]])


def test_det_oracles():
    assert det(IntMatrix.identity(4)) == 1
    assert det(IntMatrix([[2, 1], [1, 1]])) == 1
    assert det(IntMatrix([[1, 2], [2, 4]])) == 0
    assert det(IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 1
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix(())) == 1


def test_det_multiplicative():
    rng = random.Random(4242)
    for _ in range(80):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        b = rand_matrix(rng, n, n)
        assert det(a @ b) == det(a) * det(b)
        assert det(a.transpose()) == det(a)


def test_char_poly_oracles():
    assert char_poly(IntMatrix.identity(2)) == UniPoly((1, -2, 1))
    assert char_poly(IntMatrix([[0, 1], [1, 0]])) == UniPoly((-1, 0, 1))
    swap4 = IntMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    # two 2-cycles: (t^2 - 1)^2
    assert char_poly(swap4) == UniPoly((1, 0, -2, 0, 1))


def test_char_poly_conjugation_invariant():
    rng = random.Random(777)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, -3, 3)
        u = random_unimodular(rng, n)
        conj = u @ a @ inverse_unimodular(u)
        assert char_poly(conj) == char_poly(a)
        # constant coefficient is (-1)^n det
        cp = char_poly(a)
        assert cp.coefficient(0) == (-1) ** n * det(a)
        assert cp.coefficient(n - 1) == -a.trace()


def _matches_determinants(a: IntMatrix) -> bool:
    """``char_poly(a)`` against Bareiss ``det(t I - a)`` at ``t = 0..n``:
    both have degree at most ``n``, so ``n + 1`` values fix the polynomial."""
    n = a.nrows
    cp = char_poly(a)
    if cp.degree != n or cp.leading() != 1:
        return False
    return all(
        cp.evaluate(t)
        == det(IntMatrix([
            [t * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(a.rows)
        ]))
        for t in range(n + 1)
    )


def test_char_poly_matches_determinants_random():
    rng = random.Random(1931)
    for _ in range(150):
        n = rng.randint(0, 6)
        a = rand_matrix(rng, n, n, -3, 3)
        assert _matches_determinants(a), a


def test_char_poly_matches_determinants_on_face_restrictions(cube4_central, quintic_a5):
    checked = 0
    for model in (cube4_central, quintic_a5):
        for cx in (model, model.dual()):
            for e in range(cx.group.order):
                for f in cx.invariant_faces(e):
                    assert _matches_determinants(cx.rho(f, e)), (cx, f, e)
                    checked += 1
    # the invariant (face, element) pairs of both models, on both sides
    assert checked == 888


def test_package_forms_no_matrix_products(monkeypatch):
    """Characteristic polynomials, face bases and group builds run on
    integer rows: every command on cube3 with ``central`` and the quintic
    mirror check under A5 form no ``IntMatrix`` product, while the face
    restrictions really are computed: the process-wide charpoly store is
    emptied first, so restrictions left there by earlier tests are not
    merely looked up."""
    counting.clear_cache()
    products, restrictions = [], []

    def counting_matmul(a, b, matmul=IntMatrix.__matmul__):
        products.append((a, b))
        return matmul(a, b)

    def recording_char_poly(m, original=cones.char_poly):
        restrictions.append(m)
        return original(m)

    monkeypatch.setattr(IntMatrix, "__matmul__", counting_matmul)
    # cones calls intlinalg.char_poly through its own module binding
    monkeypatch.setattr(cones, "char_poly", recording_char_poly)
    configs = [
        {"builtin": "cube", "d": 3, "group": ["central"], "commands": list(COMMANDS)},
        {"builtin": "fermat", "d": 4, "group": ["(12)(34)", "(123)", "(12345)"],
         "commands": ["mirror-check"]},
    ]
    for config in configs:
        report, code = cli.run(parse_config(json.dumps(config)))
        assert code == 0
    assert report.results["mirror-check"]["verdict"] is True
    assert restrictions
    assert products == []


def test_integer_kernel_oracles():
    k = integer_kernel(IntMatrix([[2, 4]]))
    assert k.shape == (1, 2)
    # primitive generator of { (x, y) : 2x + 4y = 0 }, as the one row
    assert primitive(k.rows[0]) == k.rows[0]
    assert IntMatrix([[2, 4]]) @ k.transpose() == IntMatrix.zero(1, 1)
    assert integer_kernel(IntMatrix.identity(3)).nrows == 0
    full = integer_kernel(IntMatrix.zero(2, 3))
    assert full.shape == (3, 3)
    assert det(full) in (1, -1)


def test_integer_kernel_random():
    rng = random.Random(515)
    for _ in range(80):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = rand_matrix(rng, n, m, -4, 4)
        ker = integer_kernel(a)
        # M x = 0 for each basis row
        for row in ker.rows:
            assert len(row) == m
            assert a.apply(row) == (0,) * n
        rank = hnf_rows(a).nrows
        assert rank + ker.nrows == m
        # the kernel basis is a row Hermite form, which the face bases in
        # ``counting`` and the face spans in ``cones`` read directly
        assert hnf_rows(ker) == ker
        # saturation: a primitive multiple of any kernel vector stays inside
        if ker.nrows:
            combo = [rng.randint(-3, 3) for _ in range(ker.nrows)]
            vec = primitive(ker.transpose().apply(combo))
            if any(vec):
                solve_in_row_basis(ker, vec)


def test_hnf_rows_canonical():
    rng = random.Random(31)
    for _ in range(60):
        a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -4, 4)
        h = hnf_rows(a)
        assert hnf_rows(h) == h
        # every original row lies in the integer row span of the HNF basis
        for row in a.rows:
            solve_in_row_basis(h, row)
        # pivots positive, entries above them reduced
        for i, hrow in enumerate(h.rows):
            lead = next(j for j, x in enumerate(hrow) if x)
            assert hrow[lead] > 0
            for above in range(i):
                assert 0 <= h.rows[above][lead] < hrow[lead]


def test_solve_in_row_basis_errors():
    basis = IntMatrix([[1, 0, 0], [0, 2, 0]])
    assert solve_in_row_basis(basis, (3, 4, 0)) == (3, 2)
    with pytest.raises(ValueError, match="not in the integer row span"):
        solve_in_row_basis(basis, (0, 1, 0))  # fractional coordinate
    with pytest.raises(ValueError, match="outside the span"):
        solve_in_row_basis(basis, (0, 0, 1))  # outside the span
    with pytest.raises(ValueError):
        solve_in_row_basis(IntMatrix(()), (1, 0))
    dependent = IntMatrix([[1, 2, 0], [2, 4, 0]])
    with pytest.raises(ValueError, match="not in row echelon form"):
        solve_in_row_basis(dependent, (1, 2, 0))
    # an echelon basis that is not reduced: the first row is nonzero at the
    # second pivot, so substitution has real work to do
    skew = IntMatrix([[1, 1, 0], [0, 1, 1]])
    assert solve_in_row_basis(skew, (2, -1, -3)) == (2, -3)
    assert solve_in_row_basis(skew, (0, 0, 0)) == (0, 0)
    # the normal (1, -1, 1) and (1, 0, 0) lie outside the rational span;
    # the final reconstruction check catches both
    with pytest.raises(ValueError, match="outside the span"):
        solve_in_row_basis(skew, (1, -1, 1))
    with pytest.raises(ValueError, match="outside the span"):
        solve_in_row_basis(skew, (1, 0, 0))
    # the lattice spanned by (1, 1, 0) and (0, 2, 2) is not saturated:
    # (0, 1, 1) lies in its rational span with coordinates (0, 1/2)
    with pytest.raises(ValueError, match="not in the integer row span"):
        solve_in_row_basis(IntMatrix([[1, 1, 0], [0, 2, 2]]), (0, 1, 1))


def test_solve_in_row_basis_rejects_bad_input():
    """A basis that is not in echelon form fails closed, even when the
    vector lies in its span; so does a vector of the wrong length."""
    with pytest.raises(ValueError, match="not in row echelon form"):
        solve_in_row_basis(IntMatrix([[0, 1], [1, 0]]), (1, 1))
    with pytest.raises(ValueError, match="not in row echelon form"):
        solve_in_row_basis(IntMatrix([[1, 0], [0, 0]]), (1, 0))
    with pytest.raises(ValueError, match="length 2 for a basis of width 3"):
        solve_in_row_basis(IntMatrix([[1, 0, 0]]), (1, 0))
    with pytest.raises(ValueError, match="length 4 for a basis of width 3"):
        solve_in_row_basis(IntMatrix([[1, 0, 0]]), (1, 0, 0, 0))


def rand_echelon(rng: random.Random, k: int, n: int) -> IntMatrix:
    """Random echelon basis: ``k`` rows with increasing pivot columns,
    nonzero pivots of either sign and arbitrary entries elsewhere right of
    the pivot, so usually not reduced."""
    pivots = sorted(rng.sample(range(n), k))
    rows = []
    for p in pivots:
        row = [0] * n
        row[p] = rng.choice((-3, -2, -1, 1, 2, 3))
        for j in range(p + 1, n):
            row[j] = rng.randint(-6, 6)
        rows.append(row)
    return IntMatrix(rows)


def test_solve_in_row_basis_recovers_coordinates():
    """Random echelon bases, reduced or not, and random integer
    coordinates: the solve returns exactly the coordinates used."""
    rng = random.Random(7331)
    for _ in range(60):
        k = rng.randint(1, 4)
        n = rng.randint(k, 5)
        basis = rand_echelon(rng, k, n)
        if rng.random() < 0.5:
            basis = hnf_rows(basis)  # the reduced form of the same lattice
        coords = tuple(rng.randint(-9, 9) for _ in range(k))
        vector = tuple(
            sum(c * row[j] for c, row in zip(coords, basis.rows)) for j in range(n)
        )
        assert solve_in_row_basis(basis, vector) == coords


def test_primitive():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-3, 3)) == (-1, 1)
