"""Exact integer linear algebra.

Small dense matrices over the integers, with the handful of fraction-free
algorithms the rest of the package relies on: Bareiss determinants,
Faddeev-LeVerrier characteristic polynomials, integer kernels via tracked
unimodular column operations and row Hermite normal forms (Cohen, *A
Course in Computational Algebraic Number Theory*, 2.4).  Everything returns
plain ``int`` entries; nothing here ever touches floating point.

Every algorithm works on one arithmetic, lists of integer rows read from
``matrix.rows``; none builds a matrix sum or product.  ``IntMatrix`` is
the validated, hashable container those rows come in.  Besides shape,
access and ``transpose``, it keeps ``apply`` (matrix times vector, the
group action), ``scale`` (scalar elements such as ``-I``), ``trace``
(reported per class), and ``@``, ``zero`` and ``is_identity``, which tests
use to build reference results and to count products.

Every lattice basis this module returns is a Hermite normal form: rows
(``integer_kernel`` returns its kernel vectors as rows too) in echelon
order, positive pivots, entries above each pivot reduced.  One routine on
lists of integer rows computes that form for ``hnf_rows`` and
``integer_kernel``, and each result is put in one ``IntMatrix``.  The form
is canonical, so a lattice has one basis however it was reached.  Callers
read that form directly: ranks are Hermite lengths, the first kernel
vector is the only one nonzero at the first coordinate, coordinates in a
basis are read by substitution (``solve_in_row_basis``) rather than by a
solve, and the inverse of a unimodular ``M`` is the right block of the
Hermite form of ``[M | I]`` (``groups.inverse_unimodular``).

Entries are checked to be exactly integral once per row
(``_as_int_row``), the one check every ``IntMatrix`` a caller builds and
every polytope input goes through.  A matrix whose rows the package
computed from checked integers (a transpose, a Hermite basis, a
homogenized or contragredient group element) is made by
``IntMatrix._derived``, which does not check them again.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, List, Sequence, Tuple

from ..algebra.unipoly import UniPoly


def _as_int(x) -> int:
    """Convert an exactly integral value, refusing anything lossy.

    Truncating a float (or coercing a string) here would corrupt data
    silently; integral Fractions are fine.
    """
    n = int(x)
    if n != x:
        raise ValueError(f"entries must be integers, got {x!r}")
    return n


def _as_int_row(row: Iterable) -> Tuple[int, ...]:
    """A row as a tuple of ints, by the same test as ``_as_int`` per entry.

    ``int(x) == x`` for every entry is exactly what ``_as_int`` checks, so
    the whole row is converted and compared at once; only a row that fails
    is walked entry by entry, which raises at its first bad entry.
    """
    row = tuple(row)
    try:
        ints = tuple(map(int, row))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints == row:
        return ints
    return tuple(_as_int(x) for x in row)


class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples.

    Instances hash and compare lexicographically by rows, which is what
    makes group-element ordering (and hence every downstream iteration
    order) deterministic.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]):
        rs = tuple(map(_as_int_row, rows))
        if rs:
            width = len(rs[0])
            if any(len(r) != width for r in rs):
                raise ValueError("ragged rows in matrix")
        object.__setattr__(self, "rows", rs)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("IntMatrix is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def _derived(cls, rows: Tuple[Tuple[int, ...], ...]) -> IntMatrix:
        """A matrix of rows computed from checked integers: a tuple of
        ``int`` tuples of one width, kept as it is, without the check."""
        matrix = object.__new__(cls)
        _set_rows(matrix, rows)
        return matrix

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls._derived(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @classmethod
    def zero(cls, n: int, m: int) -> IntMatrix:
        return cls(tuple((0,) * m for _ in range(n)))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence[int]]) -> IntMatrix:
        if not cols:
            return cls(())
        return cls(tuple(tuple(col[i] for col in cols) for i in range(len(cols[0]))))

    # -- shape and access -----------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, i: int) -> Tuple[int, ...]:
        return self.rows[i]

    def col(self, j: int) -> Tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(self.col(j) for j in range(self.ncols))

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_identity(self) -> bool:
        return self.is_square() and self == IntMatrix.identity(self.nrows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __lt__(self, other: IntMatrix) -> bool:
        return self.rows < other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "IntMatrix(" + "; ".join(" ".join(map(str, r)) for r in self.rows) + ")"

    # -- arithmetic --------------------------------------------------------------

    def scale(self, c: int) -> IntMatrix:
        return IntMatrix(tuple(tuple(c * a for a in r) for r in self.rows))

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        bt = other.columns()
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, colv)) for colv in bt)
                for row in self.rows
            )
        )

    def apply(self, vec: Sequence[int]) -> Tuple[int, ...]:
        """Matrix-vector product."""
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def transpose(self) -> IntMatrix:
        return IntMatrix._derived(self.columns())

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.nrows))


_set_rows = IntMatrix.rows.__set__


def det(matrix: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if not matrix.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = matrix.nrows
    if n == 0:
        return 1
    a: List[List[int]] = [list(r) for r in matrix.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def char_poly(matrix: IntMatrix) -> UniPoly:
    """``det(t*I - A)`` with integer coefficients, by Faddeev-LeVerrier.

    Runs on the rows: ``M_1 = I``, ``c_{n-k} = -tr(A M_k) / k`` and
    ``M_{k+1} = A M_k + c_{n-k} I``.  Every division is exact over the
    integers, and a remainder raises.
    """
    if not matrix.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    a = matrix.rows
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = tuple(zip(*m))
        m = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]
        c, r = divmod(-sum(m[i][i] for i in range(n)), k)
        if r:  # pragma: no cover - impossible for integer input
            raise ArithmeticError("inexact division in characteristic polynomial")
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return UniPoly(coeffs)


def _echelon(
    rows: List[List[int]], width: int
) -> Tuple[List[Tuple[int, List[int]]], List[List[int]]]:
    """Row echelon form of the integer rows ``rows`` on their first
    ``width`` coordinates, by gcd steps (unimodular row operations).

    Returns ``(pivots, rest)``: ``pivots`` pairs each pivot coordinate, in
    increasing order, with the one row whose leading entry sits there;
    ``rest`` holds the other rows, zero at every one of those coordinates.
    Together they are a unimodular transform of ``rows``.
    """
    pivots = []
    rest = rows
    for c in range(width):
        if not rest:
            break
        live = [r for r in rest if r[c]]
        if not live:
            continue
        rest = [r for r in rest if not r[c]]
        # subtract the row of least entry at c from the others until it is
        # the only one left nonzero there; each round shrinks the least entry
        while len(live) > 1:
            sizes = [abs(r[c]) for r in live]
            p = live.pop(sizes.index(min(sizes)))
            nxt = [p]
            for r in live:
                q = r[c] // p[c]
                r = [x - q * y for x, y in zip(r, p)]
                (nxt if r[c] else rest).append(r)
            live = nxt
        pivots.append((c, live[0]))
    return pivots, rest


def _hermite(rows: List[List[int]], width: int) -> List[List[int]]:
    """The nonzero rows of the row Hermite normal form of the integer rows
    ``rows`` of width ``width``."""
    out: List[List[int]] = []
    # reduce entries above each pivot, left to right: each pivot row has
    # zeros in all earlier pivot columns, so this order never un-reduces one
    for c, p in _echelon(rows, width)[0]:
        if p[c] < 0:
            p = [-x for x in p]
        for i, r in enumerate(out):
            q = r[c] // p[c]
            if q:
                out[i] = [x - q * y for x, y in zip(r, p)]
        out.append(p)
    return out


def integer_kernel(matrix: IntMatrix) -> IntMatrix:
    """Basis of ``{x : M x = 0}`` over the integers, as the rows of a
    Hermite normal form.

    The basis spans the kernel saturatedly: any integer solution is an
    integer combination of the rows.  Returns a ``k x ncols`` matrix; ``k``
    may be zero, and then the matrix has no rows.
    """
    rows = matrix.rows
    n, m = matrix.ncols, matrix.nrows
    # the rows of [M^T | I]: reducing the M^T part is a unimodular column
    # reduction of M that the identity part records, so the rows it leaves
    # zero there carry a basis of the kernel
    aug = [[r[j] for r in rows] + [0] * n for j in range(n)]
    for j in range(n):
        aug[j][m + j] = 1
    rest = _echelon(aug, m)[1]
    return IntMatrix._derived(tuple(map(tuple, _hermite([r[m:] for r in rest], n))))


def hnf_rows(matrix: IntMatrix) -> IntMatrix:
    """Row Hermite normal form with zero rows dropped.

    Pivots are positive, entries above each pivot are reduced to the range
    ``[0, pivot)``; the result is the canonical basis of the row span.
    """
    hermite = _hermite([list(r) for r in matrix.rows], matrix.ncols)
    return IntMatrix._derived(tuple(map(tuple, hermite)))


def solve_in_row_basis(basis: IntMatrix, vector: Sequence[int]) -> Tuple[int, ...]:
    """Integer coordinates of ``vector`` in the row span of an echelon basis.

    ``basis`` must be in row echelon form (no zero row, pivot columns
    strictly increasing), as every Hermite basis from this module is.  The
    coordinates are then read off by forward substitution at the pivots
    ``p_i``: ``c_i = (v[p_i] - sum_{j<i} c_j b_j[p_i]) / b_i[p_i]``.
    Raises ValueError for a non-echelon basis, a vector of the wrong
    length, a fractional coordinate (the vector is only in the rational
    span, so the basis was not saturated) or a vector outside the span.
    """
    if basis.nrows == 0:
        if any(vector):
            raise ValueError("vector outside the span of an empty basis")
        return ()
    pivots: List[int] = []
    for row in basis.rows:
        p = next((j for j, x in enumerate(row) if x), -1)
        if p < 0 or (pivots and p <= pivots[-1]):
            raise ValueError("basis is not in row echelon form")
        pivots.append(p)
    if len(vector) != basis.ncols:
        raise ValueError(
            f"vector of length {len(vector)} for a basis of width {basis.ncols}"
        )
    coords: List[int] = []
    for row, p in zip(basis.rows, pivots):
        s = vector[p] - sum(c * b[p] for c, b in zip(coords, basis.rows))
        q, r = divmod(s, row[p])
        if r:
            raise ValueError("vector not in the integer row span")
        coords.append(q)
    out = tuple(coords)
    check = [sum(cc * row[j] for cc, row in zip(out, basis.rows)) for j in range(basis.ncols)]
    if tuple(check) != tuple(vector):
        raise ValueError("vector outside the span")
    return out


def vec_sub(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def vec_dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def vec_gcd(a: Sequence[int]) -> int:
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def primitive(a: Sequence[int]) -> Tuple[int, ...]:
    """Divide a vector by the gcd of its entries (zero vector unchanged)."""
    g = vec_gcd(a)
    if g <= 1:
        return tuple(a)
    return tuple(x // g for x in a)
