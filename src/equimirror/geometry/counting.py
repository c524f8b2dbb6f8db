"""Fixed-point lattice counts on cone slices.

Everything the equivariant tables need reduces to counting integer points
of one kind of system.  The cone over a polytope sits in ``Z^(d+1)`` with
the last coordinate as the height; a face is selected by turning the
facet inequalities containing it into equalities, and fixing by a group
element adds the equalities ``(g - I) y = 0``.  These equalities are
eliminated once per (face, element) by a saturated integer basis of their
kernel, taken with the height as the first coordinate.  That basis is in
Hermite form, so its first column has height ``g >= 0`` and every other
column height 0 with no further reduction; the remaining facet rows are
written in it.

A height ``m`` slice is then a substitution, not a constraint: it is empty
unless ``g`` divides ``m`` (for ``g = 0`` unless ``m = 0``), and otherwise
fixing the first coordinate to ``m / g`` leaves a finite inequality system
in the other coordinates, which ``scan.count_system`` counts with exact
integers.  Only the right-hand sides depend on ``m``, so every slice of a
(face, element) pair has the same coefficient rows: ``scan`` eliminates
them once and replays the elimination for each height, and a box-like
slice is counted as a product of ranges.

Each slice family, one ``(cone rows, tight facets, element)``, has one
process-wide memo entry: its basis, ``g``, its rows and the counts found
so far, keyed by ``(m, interior)``.  A count is asked for over and over
while the recursions assemble their tables, and across models that share
a face and an element.  ``scan`` keeps its elimination plans beside these
entries; :func:`clear_cache` drops both.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import scan
from .intlinalg import IntMatrix, integer_kernel, vec_dot

Row = Tuple[int, ...]
# (basis, g, rows, counts by (m, interior)), one per slice family
Family = Tuple[IntMatrix, int, Tuple[Row, ...], Dict[Tuple[int, bool], int]]

_bases: Dict[tuple, Family] = {}


def cache_size() -> int:
    """The number of counts held."""
    return sum(len(family[3]) for family in _bases.values())


def clear_cache() -> None:
    """Forget every count, face basis and elimination plan."""
    _bases.clear()
    scan.clear_plans()


def homogenize(facets: Iterable[Tuple[Sequence[int], int]]) -> Tuple[Row, ...]:
    """Facet inequalities ``a . x <= b`` of the polytope become rows
    ``(a, -b)`` that cut out the cone at every height at once."""
    return tuple(tuple(a) + (-b,) for a, b in facets)


def _face_basis(
    cone_rows: Tuple[Row, ...], tight: Tuple[int, ...], matrix: IntMatrix
) -> Family:
    """The fixed lattice of a face, height first: ``(basis, g, rows,
    counts)``.

    ``basis`` has one column per kernel coordinate; column 0 has height
    ``g >= 0`` and the others height 0 (``g = 0`` when the whole kernel
    lies at height 0).  ``rows`` are the non-tight cone rows written in
    the basis; ``counts`` is the family's count memo.
    """
    key = (cone_rows, tight, matrix.rows)
    hit = _bases.get(key)
    if hit is not None:
        return hit
    n = matrix.nrows
    eq_rows = [cone_rows[i] for i in tight]
    # the nonzero rows of g - I
    for i, row in enumerate(matrix.rows):
        delta = row[:i] + (row[i] - 1,) + row[i + 1:]
        if any(delta):
            eq_rows.append(delta)
    # with the height as coordinate 0 the Hermite kernel basis has height
    # g >= 0 in its first vector and 0 in every other one
    if eq_rows:
        kernel = integer_kernel(IntMatrix([r[-1:] + r[:-1] for r in eq_rows]))
    else:
        kernel = IntMatrix.identity(n)
    vectors = kernel.rows
    g = vectors[0][0] if vectors else 0
    # back to the cone's coordinate order: the basis has the vectors as its
    # columns and one row per coordinate, even when the kernel is trivial
    columns = [v[1:] + v[:1] for v in vectors]
    basis = IntMatrix([[c[i] for c in columns] for i in range(n)])
    skip = set(tight)
    rows = tuple(
        tuple(vec_dot(row, c) for c in columns)
        for i, row in enumerate(cone_rows)
        if i not in skip
    )
    entry = _bases[key] = (basis, g, rows, {})
    return entry


def _slice(
    family: Family, m: int, interior: bool
) -> Optional[Tuple[List[Tuple[Row, int]], int]]:
    basis, g, rows, _ = family
    rhs = -1 if interior else 0
    if g == 0:
        if m != 0:
            return None
        return [(row, rhs) for row in rows], basis.ncols
    if m < 0 or m % g:
        return None
    t = m // g
    return [(row[1:], rhs - row[0] * t) for row in rows], basis.ncols - 1


def slice_system(
    cone_rows: Tuple[Row, ...],
    tight: Tuple[int, ...],
    matrix: IntMatrix,
    m: int,
    interior: bool = False,
) -> Optional[Tuple[List[Tuple[Row, int]], int]]:
    """The inequality system ``(rows, k)`` of the height-``m`` slice of the
    face picked out by ``tight``, fixed by ``matrix``.

    Its variables are the face basis coordinates after the substituted
    height coordinate (all of them when ``g = 0``).  ``None`` when the
    slice has no lattice point because ``g`` does not divide ``m``.
    """
    return _slice(_face_basis(cone_rows, tight, matrix), m, interior)


def fixed_slice_count(
    cone_rows: Tuple[Row, ...],
    tight: Tuple[int, ...],
    matrix: IntMatrix,
    m: int,
    interior: bool = False,
) -> int:
    """Number of integer points of the height-``m`` slice of the face
    picked out by ``tight``, fixed by ``matrix``.

    With ``interior`` the remaining facet inequalities are strict, which
    counts the relative interior of the face instead.
    """
    if m < 0:
        return 0
    family = _face_basis(cone_rows, tight, matrix)
    counts, key = family[3], (m, interior)
    hit = counts.get(key)
    if hit is None:
        system = _slice(family, m, interior)
        hit = counts[key] = 0 if system is None else scan.count_system(*system)
    return hit


def fixed_slice_points(
    cone_rows: Tuple[Row, ...],
    tight: Tuple[int, ...],
    matrix: IntMatrix,
    m: int,
    interior: bool = False,
) -> Tuple[Tuple[int, ...], ...]:
    """The points themselves (sorted), for tests and small searches."""
    family = _face_basis(cone_rows, tight, matrix)
    system = _slice(family, m, interior)
    if system is None:
        return ()
    basis, g = family[:2]
    prefix = (m // g,) if g else ()
    return tuple(sorted(basis.apply(prefix + z) for z in scan.iter_system(*system)))
