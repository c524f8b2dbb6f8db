"""Exact integer linear algebra.

Small dense matrices over the integers, with the handful of fraction-free
algorithms the rest of the package relies on: Bareiss determinants,
Faddeev-LeVerrier characteristic polynomials, integer kernels via tracked
unimodular column operations and row Hermite normal forms.  Everything
returns plain ``int`` entries; nothing here ever touches floating point.

Every algorithm works on one arithmetic, lists of integer rows read from
``matrix.rows``; none builds a matrix sum or product.  ``IntMatrix`` is
the validated, hashable container those rows come in.  Besides shape,
access and ``transpose``, it keeps ``apply`` (matrix times vector, the
group action), ``scale`` (scalar elements such as ``-I``), ``trace``
(reported per class), and ``@``, ``zero`` and ``is_identity``, which tests
use to build reference results and to count products.

Every lattice basis this module returns is a Hermite normal form: rows
(kernel vectors, for ``integer_kernel``) in echelon order, positive
pivots, entries above each pivot reduced.  Callers read that form
directly: ranks are Hermite lengths, the first kernel vector is the only
one nonzero at the first coordinate, coordinates in a basis are read by
substitution (``solve_in_row_basis``) rather than by a solve, and the
inverse of a unimodular ``M`` is the right block of the Hermite form of
``[M | I]`` (``groups.inverse_unimodular``).

Entries are checked to be exactly integral once per row
(``_as_int_row``), the one check every ``IntMatrix`` and every polytope
input goes through.
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
    def identity(cls, n: int) -> IntMatrix:
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

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
        return IntMatrix(self.columns())

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.nrows))


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


def _gcd_reduce_columns(a: List[List[int]], u: List[List[int]], row: int, start: int) -> bool:
    """Clear row ``row`` to a single nonzero entry at column ``start``.

    Works by repeated column subtractions (unimodular), mirroring every
    operation in ``u``.  Returns True when a pivot remains.
    """
    ncols = len(a[0]) if a else 0
    while True:
        pivot = -1
        best = 0
        for j in range(start, ncols):
            x = abs(a[row][j])
            if x and (pivot < 0 or x < best):
                pivot, best = j, x
        if pivot < 0:
            return False
        done = True
        for j in range(start, ncols):
            if j == pivot or a[row][j] == 0:
                continue
            q = a[row][j] // a[row][pivot]
            for i in range(len(a)):
                a[i][j] -= q * a[i][pivot]
            for i in range(len(u)):
                u[i][j] -= q * u[i][pivot]
            if a[row][j] != 0:
                done = False
        if done:
            if pivot != start:
                for i in range(len(a)):
                    a[i][pivot], a[i][start] = a[i][start], a[i][pivot]
                for i in range(len(u)):
                    u[i][pivot], u[i][start] = u[i][start], u[i][pivot]
            return True


def integer_kernel(matrix: IntMatrix) -> IntMatrix:
    """Basis of ``{x : M x = 0}`` over the integers, as matrix columns.

    The basis spans the kernel saturatedly (any integer solution is an
    integer combination of the columns), and its transpose is a row
    Hermite normal form.  Returns an ``ncols x k`` matrix; ``k`` may be
    zero.
    """
    n = matrix.ncols
    a = [list(r) for r in matrix.rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    start = 0
    for row in range(matrix.nrows):
        if start >= n:
            break
        if _gcd_reduce_columns(a, u, row, start):
            start += 1
    kernel_rows = IntMatrix([[u[i][j] for i in range(n)] for j in range(start, n)])
    return IntMatrix.from_columns(hnf_rows(kernel_rows).rows)


def hnf_rows(matrix: IntMatrix) -> IntMatrix:
    """Row Hermite normal form with zero rows dropped.

    Pivots are positive, entries above each pivot are reduced to the range
    ``[0, pivot)``; the result is the canonical basis of the row span.
    """
    a = [list(r) for r in matrix.rows]
    nrows = len(a)
    ncols = matrix.ncols
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        # gcd-reduce entries in this column at or below pivot_row
        while True:
            best_i = -1
            best = 0
            for i in range(pivot_row, nrows):
                x = abs(a[i][col])
                if x and (best_i < 0 or x < best):
                    best_i, best = i, x
            if best_i < 0:
                break
            a[pivot_row], a[best_i] = a[best_i], a[pivot_row]
            done = True
            for i in range(pivot_row + 1, nrows):
                if a[i][col]:
                    q = a[i][col] // a[pivot_row][col]
                    a[i] = [x - q * y for x, y in zip(a[i], a[pivot_row])]
                    if a[i][col]:
                        done = False
            if done:
                break
        if pivot_row < nrows and a[pivot_row][col]:
            if a[pivot_row][col] < 0:
                a[pivot_row] = [-x for x in a[pivot_row]]
            pivots.append((pivot_row, col))
            pivot_row += 1
    # reduce entries above each pivot, left to right: each pivot row has
    # zeros in all earlier pivot columns, so this order never un-reduces one
    for r, c in pivots:
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
    return IntMatrix([row for row in a[:pivot_row]])


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
