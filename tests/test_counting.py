"""Lattice point counts on cone slices, plain and fixed."""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from conftest import iter_system, slice_system

from equimirror.cli.models import build_cube, build_cross, build_fermat, build_simplex
from equimirror.cli.models import fermat_permutation
from equimirror.geometry import scan
from equimirror.geometry.counting import cache_size, fixed_slice_count, homogenize
from equimirror.geometry.intlinalg import IntMatrix, integer_kernel


def count_polytope(polytope, m, matrix=None, interior=False):
    rows = homogenize(polytope.facets)
    g = matrix if matrix is not None else IntMatrix.identity(polytope.dim + 1)
    return fixed_slice_count(rows, (), g, m, interior)


def fixed_slice_points(cone_rows, tight, matrix, m, interior=False):
    """The points ``fixed_slice_count`` counts (sorted), in cone coordinates.

    The slice system's variables are coordinates in the Hermite basis of
    the fixed lattice of the face, height first; the basis is rebuilt here
    from the face's equalities, so a point is read back without the
    counting code's own rows."""
    system = slice_system(cone_rows, tight, matrix, m, interior)
    if system is None:
        return ()
    n = matrix.nrows
    equalities = [cone_rows[i] for i in tight] + [
        row[:i] + (row[i] - 1,) + row[i + 1:]
        for i, row in enumerate(matrix.rows)
        if row != tuple(int(i == j) for j in range(n))
    ]
    if equalities:
        kernel = integer_kernel(IntMatrix([r[-1:] + r[:-1] for r in equalities]))
    else:
        kernel = IntMatrix.identity(n)
    basis = [v[1:] + v[:1] for v in kernel.rows]
    g = basis[0][-1] if basis else 0
    prefix = (m // g,) if g else ()
    return tuple(
        sorted(
            tuple(sum(c * b[i] for c, b in zip(prefix + z, basis)) for i in range(n))
            for z in iter_system(*system)
        )
    )


def homog(matrix):
    """Extend a d x d matrix to act on the cone coordinates."""
    n = matrix.nrows
    rows = [list(r) + [0] for r in matrix.rows]
    rows.append([0] * n + [1])
    return IntMatrix(rows)


def test_cube_counts():
    cube = build_cube(3)
    for m in range(5):
        assert count_polytope(cube, m) == (2 * m + 1) ** 3
        if m:
            assert count_polytope(cube, m, interior=True) == (2 * m - 1) ** 3
    assert count_polytope(cube, 0, interior=True) == 0
    assert count_polytope(cube, -1) == 0


def test_simplex_counts():
    for d in range(1, 5):
        simplex = build_simplex(d)
        for m in range(5):
            assert count_polytope(simplex, m) == comb(m + d, d)


def test_cross_counts():
    cross = build_cross(3)
    # octahedron: known Ehrhart values
    assert [count_polytope(cross, m) for m in range(4)] == [1, 7, 25, 63]


def test_fermat_counts():
    quintic = build_fermat(4)
    for m in (0, 1, 2, 5, 6):
        assert count_polytope(quintic, m) == comb(5 * m + 4, 4)
    assert count_polytope(quintic, 5) == 23751
    assert count_polytope(quintic, 6) == 46376


def test_interior_reciprocity():
    """interior(m) equals (-1)^d * L(-m) for the closed-form counters."""
    cube = build_cube(4)
    for m in range(1, 4):
        assert count_polytope(cube, m, interior=True) == (2 * m - 1) ** 4
    simplex = build_simplex(3)
    for m in range(1, 6):
        # (-1)^3 C(-m + 3, 3) = C(m - 1, 3)
        assert count_polytope(simplex, m, interior=True) == comb(m - 1, 3)


def test_fixed_counts_under_symmetry():
    cube = build_cube(3)
    rows = homogenize(cube.facets)
    minus = homog(IntMatrix.identity(3).scale(-1))
    # the only point of the m-dilate fixed by -I is the origin
    assert [fixed_slice_count(rows, (), minus, m) for m in range(4)] == [1, 1, 1, 1]
    assert fixed_slice_count(rows, (), minus, 1, interior=True) == 1
    swap = homog(IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    # fixed points have x = y: (2m+1)^2 of them in the m-dilate
    for m in range(4):
        assert fixed_slice_count(rows, (), swap, m) == (2 * m + 1) ** 2


def test_fixed_counts_fermat_permutation():
    quintic = build_fermat(4)
    rows = homogenize(quintic.facets)
    g = homog(fermat_permutation("(12)(34)", 4))
    counts = [fixed_slice_count(rows, (), g, m) for m in range(4)]
    # the fixed subcone is 3-dimensional, so growth is cubic in m
    assert counts[0] == 1
    diffs3 = [counts[i + 3] - 3 * counts[i + 2] + 3 * counts[i + 1] - counts[i] for i in range(1)]
    assert all(d == counts[3] - 3 * counts[2] + 3 * counts[1] - counts[0] for d in diffs3)


def test_tight_facets_select_faces():
    cube = build_cube(3)
    rows = homogenize(cube.facets)
    ident = IntMatrix.identity(4)
    # one tight facet: a square face, (2m+1)^2 points per dilate
    for m in range(3):
        assert fixed_slice_count(rows, (0,), ident, m) == (2 * m + 1) ** 2
    # all facets tight at once: empty except height 0
    all_tight = tuple(range(len(cube.facets)))
    assert fixed_slice_count(rows, all_tight, ident, 0) == 1
    assert fixed_slice_count(rows, all_tight, ident, 1) == 0


def test_points_match_counts():
    rng = random.Random(505)
    square = build_cube(2)
    rows = homogenize(square.facets)
    mats = [
        IntMatrix.identity(3),
        homog(IntMatrix([[0, 1], [1, 0]])),
        homog(IntMatrix.identity(2).scale(-1)),
    ]
    for _ in range(30):
        m = rng.randint(0, 4)
        g = rng.choice(mats)
        interior = rng.random() < 0.5
        pts = fixed_slice_points(rows, (), g, m, interior)
        assert len(pts) == fixed_slice_count(rows, (), g, m, interior)
        for p in pts:
            assert p[-1] == m
            assert g.apply(p) == p
            for row in rows:
                s = sum(c * x for c, x in zip(row, p))
                assert s < 0 if interior else s <= 0
    assert fixed_slice_points(rows, (), mats[0], -1) == ()


def test_cache_grows_and_clears():
    from equimirror.geometry import counting

    counting.clear_cache()
    assert cache_size() == 0
    assert not counting._bases
    assert not scan._plans
    cube = build_cube(2)
    count_polytope(cube, 1)
    assert cache_size() == 1
    assert len(counting._bases) == 1
    assert len(scan._plans) == 1
    count_polytope(cube, 1)
    count_polytope(cube, 2)
    assert cache_size() == 2
    assert len(counting._bases) == 1
    # the two heights share one coefficient system, so one plan
    assert len(scan._plans) == 1
    counting.clear_cache()
    assert cache_size() == 0
    assert not counting._bases
    assert not scan._plans


# Runs the benchmark's three workloads' models in a fresh process, then
# clears the counting cache, and prints the size of every module-level
# dict, list and set of the package (and of those inside a module-level
# tuple, such as the shape store) at import, after the runs and after the
# clear, with the shape store as it is left.
_STORES_PROBE = """
import importlib, json, pkgutil, sys
import equimirror
for info in pkgutil.walk_packages(equimirror.__path__, "equimirror."):
    importlib.import_module(info.name)
from equimirror.cli.main import run
from equimirror.cli.models import parse_config
from equimirror import combinatorics
from equimirror.geometry import counting
import workloads

def sizes():
    out = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("equimirror"):
            continue
        for key, value in vars(module).items():
            if key.startswith("__"):
                continue
            parts = value if isinstance(value, tuple) else (value,)
            for i, part in enumerate(parts):
                if isinstance(part, (dict, list, set)):
                    out[f"{name}.{key}" + (f"[{i}]" if part is not value else "")] = len(part)
    return out

before = sizes()
for workload in ("cube4-central-all", "quintic-mirror-sweep", "cube5-phi"):
    command = workloads.WORKLOADS[workload].get("command")
    for name, config in workloads.plan(workload, 1):
        if command:
            config = dict(config, commands=[command])
        assert run(parse_config(json.dumps(config)))[1] == 0, name
filled = sizes()
counting.clear_cache()
store = combinatorics._shape_store
print(json.dumps({
    "before": before,
    "filled": filled,
    "cleared": sizes(),
    "shapes": [list(store[0].values()), len(store[1]), len(store[2]), len(store[3])],
    "zero": store[1][0] == combinatorics._ZERO_SHAPE,
}))
"""


def test_clear_cache_empties_every_store_the_workloads_fill():
    """After the benchmark's three workloads' models run in one process,
    ``counting.clear_cache`` leaves the count bases, elimination plans,
    charpoly store, ``(P, Aut(P))`` registry and quotient store empty and
    the shape store holding only the zero shape; every module-level store
    of the package is back to its size at import, so a store that is not
    registered with ``clear_with_counts`` fails here."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _STORES_PROBE],
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")]),
        },
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    named = (
        "equimirror.geometry.counting._bases",
        "equimirror.geometry.scan._plans",
        "equimirror.geometry.cones._charpolys",
        "equimirror.geometry.cones._aut_complexes",
        "equimirror.algebra.unipoly._quotients",
    )
    for name in named:
        assert result["filled"][name] > 0, name
        assert result["cleared"][name] == 0, name
    assert result["shapes"] == [[0], 1, 0, 0] and result["zero"]
    assert result["filled"]["equimirror.combinatorics._shape_store[1]"] > 1
    assert result["cleared"] == result["before"]


def test_height_step_above_one():
    """The flip ``(x, h) -> (h - x, h)`` of ``[0, 1]`` fixes ``x = h / 2``:
    its fixed lattice has height step 2, so odd dilates hold no point."""
    rows = homogenize([((-1,), 0), ((1,), 1)])
    flip = IntMatrix([[-1, 1], [0, 1]])
    for m in range(8):
        even = m % 2 == 0
        assert fixed_slice_count(rows, (), flip, m) == (1 if even else 0)
        assert fixed_slice_count(rows, (), flip, m, interior=True) == (
            1 if even and m >= 2 else 0
        )
        assert fixed_slice_points(rows, (), flip, m) == (((m // 2, m),) if even else ())
    assert fixed_slice_count(rows, (), flip, -2) == 0


def brute_force_count(rows, tight, matrix, m, interior):
    """Enumerate ``[-m, m]^d`` at height ``m`` and test every condition."""
    d = matrix.nrows - 1
    total = 0
    for x in itertools.product(range(-m, m + 1), repeat=d):
        y = x + (m,)
        if matrix.apply(y) != y:
            continue
        ok = True
        for i, row in enumerate(rows):
            s = sum(c * v for c, v in zip(row, y))
            if i in tight:
                ok = s == 0
            else:
                ok = s < 0 if interior else s <= 0
            if not ok:
                break
        total += ok
    return total


def signed_permutations(d, rng, count):
    """A few homogenised coordinate permutations with sign changes."""
    mats = [IntMatrix.identity(d + 1)]
    for _ in range(count):
        perm = list(range(d))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(d)]
        rows = [[0] * d for _ in range(d)]
        for i, j in enumerate(perm):
            rows[i][j] = signs[i]
        mats.append(homog(IntMatrix(rows)))
    return mats


@pytest.mark.parametrize("build", [build_cube, build_cross, build_simplex])
@pytest.mark.parametrize("d", [2, 3])
def test_counts_match_brute_force(build, d):
    """Every vertex of these polytopes lies in ``[-1, 1]^d``, so the box
    ``[-m, m]^d`` holds the whole ``m``-dilate."""
    rng = random.Random(d)
    polytope = build(d)
    rows = polytope.cone_rows
    faces = [(), (0,), (0, len(rows) - 1), tuple(range(len(rows)))]
    for matrix in signed_permutations(d, rng, 3):
        for tight in faces:
            for m in range(4):
                for interior in (False, True):
                    expected = brute_force_count(rows, tight, matrix, m, interior)
                    got = fixed_slice_count(rows, tight, matrix, m, interior)
                    assert got == expected, (polytope, tight, matrix, m, interior)


def test_one_kernel_per_face_and_element(monkeypatch):
    from equimirror.geometry import counting

    calls = []
    original = counting.integer_kernel

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(counting, "integer_kernel", counted)
    counting.clear_cache()
    rows = homogenize(build_cube(3).facets)
    swap = homog(IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    for m in range(6):
        for interior in (False, True):
            fixed_slice_count(rows, (0,), swap, m, interior)
    assert len(calls) == 1
    counting.clear_cache()
