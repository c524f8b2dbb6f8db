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

The memo is keyed by the slice *system*, not by the face and element
that gave it: the slice width, ``g``, the coefficient rows and their
height coefficients, with the counts found so far keyed by ``(m,
interior)``.  A count is a function of the system alone, and the order of
its rows and a repeated row change nothing (any row order eliminates to
the same integer points, see ``scan.eliminate``), so the rows are put in
one canonical order, sorted with exact duplicates dropped.  Faces whose
fixed lattices give the same inequalities, such as the six facets of a
cube under the identity, then share one entry and one elimination plan
and are walked once per ``(m, interior)``.  A family, one ``(cone rows,
tight facets, element)``, still needs its own kernel, so a second map
leads from each family to its system.  A count is asked for over and over
while the recursions assemble their tables, and across models that share
a system.

This is one of five process-wide memos, each keyed by data alone (rows,
matrices, polynomials), so a model of any group reuses what another model
of the same polytope left and the work done does not depend on the order
the models run in.  Beside these counts, ``scan`` keeps its elimination
plans, ``cones`` the characteristic polynomial of each face restriction
(by tight cone rows and element rows), ``combinatorics`` the ``h``/``g``
interval shapes and ``algebra`` the quotient store of
``UniPoly.exact_div`` (by the coefficients of both operands; a division
with a remainder is never kept).  None holds a complex or a group, so a
model is freed by reference counting as before.  One more store is keyed
by a polytope: for each simplex ``P`` an E-polynomial was asked of,
``cones`` keeps one complex of ``P`` under its whole lattice symmetry
group ``Aut(P)``, whose stringy values every model of ``P`` reads; it
holds no model.  :func:`clear_cache` drops all six: the modules above this
one register how with :func:`clear_with_counts`.  The memos a complex
keeps for itself (its characteristic polynomials and their reversals by
the pair asked for, its affine and stringy values) go with the complex.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import scan
from .intlinalg import IntMatrix, integer_kernel, vec_dot

Row = Tuple[int, ...]
# (slice width, g, coefficient rows, height coefficients, counts by
# (m, interior)), one per slice system
Family = Tuple[int, int, Tuple[Row, ...], Tuple[int, ...], Dict[Tuple[int, bool], int]]

# slice system (the first four fields of its Family) -> its Family
_systems: Dict[tuple, Family] = {}
# (cone rows, tight facets, element rows) -> the Family of its system
_bases: Dict[tuple, Family] = {}

# how to drop the process-wide memos of the modules above this one
_clears: List[Callable[[], None]] = []


def cache_size() -> int:
    """The number of counts held, one per ``(system, m, interior)``."""
    return sum(len(family[4]) for family in _systems.values())


def clear_with_counts(clear: Callable[[], None]) -> None:
    """Have :func:`clear_cache` call ``clear``, which drops a process-wide
    memo kept by a module that imports this one."""
    _clears.append(clear)


def clear_cache() -> None:
    """Forget every count, face basis, elimination plan, face-restriction
    characteristic polynomial, ``h``/``g`` shape, exact quotient and
    ``(P, Aut(P))`` complex."""
    _systems.clear()
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
    """The fixed lattice of a face, height first:
    ``(k, g, coeffs, heights, counts)``.

    Vector 0 of its basis has height ``g >= 0`` and the others height 0
    (``g = 0`` when the whole kernel lies at height 0).  The non-tight
    cone rows written in the basis are split once: for ``g > 0`` the
    coefficient of vector 0, fixed to ``m / g`` in a slice, goes to
    ``heights`` and the rest of the row to ``coeffs``; for ``g = 0`` the
    rows are ``coeffs`` whole.  The ``(coeffs, heights)`` pairs are sorted
    with exact duplicates dropped, so equal systems are equal tuples.
    ``k`` is the width of ``coeffs``, the number of variables of a slice;
    ``counts`` is the system's count memo, shared by every family with
    that system.  Every slice shares the ``coeffs`` tuples.
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
        kernel = integer_kernel(
            IntMatrix._derived(tuple(r[-1:] + r[:-1] for r in eq_rows))
        )
    else:
        kernel = IntMatrix.identity(n)
    vectors = kernel.rows
    g = vectors[0][0] if vectors else 0
    # back to the cone's coordinate order
    columns = [v[1:] + v[:1] for v in vectors]
    skip = set(tight)
    rows = [
        tuple(vec_dot(row, c) for c in columns)
        for i, row in enumerate(cone_rows)
        if i not in skip
    ]
    # one canonical order: the count does not depend on it
    if g:
        pairs = sorted(set((row[1:], row[0]) for row in rows))
        coeffs = tuple(cs for cs, _ in pairs)
        heights = tuple(h for _, h in pairs)
    else:
        coeffs, heights = tuple(sorted(set(rows))), ()
    system = (len(columns) - (g > 0), g, coeffs, heights)
    entry = _systems.get(system)
    if entry is None:
        entry = _systems[system] = system + ({},)
    _bases[key] = entry
    return entry


def _slice(
    family: Family, m: int, interior: bool
) -> Optional[Tuple[List[Tuple[Row, int]], int]]:
    k, g, coeffs, heights, _ = family
    rhs = -1 if interior else 0
    if g == 0:
        if m != 0:
            return None
        return [(cs, rhs) for cs in coeffs], k
    if m < 0 or m % g:
        return None
    t = m // g
    return [(cs, rhs - h * t) for cs, h in zip(coeffs, heights)], k


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
    counts, key = family[4], (m, interior)
    hit = counts.get(key)
    if hit is None:
        system = _slice(family, m, interior)
        hit = counts[key] = 0 if system is None else scan.count_system(*system)
    return hit
