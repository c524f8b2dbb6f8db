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
process-wide memo entry: the number of basis vectors, ``g``, its rows and
the counts found so far, keyed by ``(m, interior)``.  A count is asked for
over and over while the recursions assemble their tables, and across
models that share a face and an element.

This is one of four process-wide memos, each keyed by data alone (rows,
matrices, polynomials), so a model of any group reuses what another model
of the same polytope left and the work done does not depend on the order
the models run in.  Beside these counts, ``scan`` keeps its elimination
plans, ``cones`` the characteristic polynomial of each face restriction
(by tight cone rows and element rows) and ``combinatorics`` the
``h``/``g`` interval shapes.  None holds a complex or a group, so a model
is freed by reference counting as before.  :func:`clear_cache` drops all
four: the two above this module register how with
:func:`clear_with_counts`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import scan
from .intlinalg import IntMatrix, integer_kernel, vec_dot

Row = Tuple[int, ...]
# (basis size, g, rows, counts by (m, interior)), one per slice family
Family = Tuple[int, int, Tuple[Row, ...], Dict[Tuple[int, bool], int]]

_bases: Dict[tuple, Family] = {}

# how to drop the process-wide memos of the modules above this one
_clears: List[Callable[[], None]] = []


def cache_size() -> int:
    """The number of counts held."""
    return sum(len(family[3]) for family in _bases.values())


def clear_with_counts(clear: Callable[[], None]) -> None:
    """Have :func:`clear_cache` call ``clear``, which drops a process-wide
    memo kept by a module that imports this one."""
    _clears.append(clear)


def clear_cache() -> None:
    """Forget every count, face basis, elimination plan, face-restriction
    characteristic polynomial and ``h``/``g`` shape."""
    _bases.clear()
    scan.clear_plans()
    for clear in _clears:
        clear()


def homogenize(facets: Iterable[Tuple[Sequence[int], int]]) -> Tuple[Row, ...]:
    """Facet inequalities ``a . x <= b`` of the polytope become rows
    ``(a, -b)`` that cut out the cone at every height at once."""
    return tuple(tuple(a) + (-b,) for a, b in facets)


def _face_basis(
    cone_rows: Tuple[Row, ...], tight: Tuple[int, ...], matrix: IntMatrix
) -> Family:
    """The fixed lattice of a face, height first: ``(k, g, rows, counts)``.

    Its basis has ``k`` vectors; vector 0 has height ``g >= 0`` and the
    others height 0 (``g = 0`` when the whole kernel lies at height 0).
    ``rows`` are the non-tight cone rows written in the basis; ``counts``
    is the family's count memo.
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
    # back to the cone's coordinate order
    columns = [v[1:] + v[:1] for v in vectors]
    skip = set(tight)
    rows = tuple(
        tuple(vec_dot(row, c) for c in columns)
        for i, row in enumerate(cone_rows)
        if i not in skip
    )
    entry = _bases[key] = (len(columns), g, rows, {})
    return entry


def _slice(
    family: Family, m: int, interior: bool
) -> Optional[Tuple[List[Tuple[Row, int]], int]]:
    k, g, rows, _ = family
    rhs = -1 if interior else 0
    if g == 0:
        if m != 0:
            return None
        return [(row, rhs) for row in rows], k
    if m < 0 or m % g:
        return None
    t = m // g
    return [(row[1:], rhs - row[0] * t) for row in rows], k - 1


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
