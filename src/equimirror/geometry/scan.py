"""Integer inequality systems: elimination, then counting.

``prepare_levels`` turns a list of rows ``coeffs . x <= rhs`` (everything
integer, strict inequalities already tightened to ``<= rhs - 1`` by the
caller) into per-variable level systems via Fourier-Motzkin elimination.
Rows are gcd-normalised with floored right-hand sides — valid because we
only ever care about integer points — and deduplicated keeping the
tightest bound.

``levels[j]`` then holds rows ``(c_0, ..., c_j, rhs)`` with ``c_j != 0``,
meaning ``sum c_i x_i <= rhs``, and by the projection property the rows
at level ``j`` bound ``x_j`` exactly once ``x_0 .. x_{j-1}`` are fixed.
``count_levels`` walks the levels innermost-last and counts the last one
in closed form; ``prepare_levels -> count_levels`` is the one route from
rows to a count.  The scan is pure Python with exact integers, so no
entry is too large for it.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, List, Sequence, Tuple

from ..errors import DimensionCap

Row = Tuple[int, ...]
Levels = List[Tuple[Row, ...]]

# Slice counts on the 5-cross-polytope combine at most 2,209 row pairs in one
# elimination step; on the 6-cross-polytope one step needs 667,489.
FM_PAIR_CAP = 100_000


def compiled_available() -> bool:
    """Always False: there is no compiled scan kernel."""
    return False


def backend_name(levels: Levels | None = None) -> str:
    """The scan backend that counts ``levels``: always ``"python"``."""
    return "python"


def prepare_levels(
    rows: Iterable[Tuple[Sequence[int], int]], k: int
) -> Tuple[bool, Levels]:
    """Eliminate variables from the last to the first.

    Returns ``(feasible, levels)`` where ``levels[j]`` holds the rows
    bounding ``x_j`` given ``x_0 .. x_{j-1}`` (each row is the tuple
    ``(c_0, ..., c_j, rhs)``).  ``feasible`` is False when the constant
    rows are already contradictory; the levels are then meaningless.
    A step that would combine over ``FM_PAIR_CAP`` row pairs raises
    :class:`DimensionCap` instead of running for minutes.
    """
    feasible = True
    pool: dict = {}

    def add(coeffs: Tuple[int, ...], rhs: int) -> None:
        nonlocal feasible
        g = 0
        for c in coeffs:
            g = gcd(g, c)
        if g == 0:
            if rhs < 0:
                feasible = False
            return
        if g > 1:
            coeffs = tuple(c // g for c in coeffs)
            rhs //= g
        prev = pool.get(coeffs)
        if prev is None or rhs < prev:
            pool[coeffs] = rhs

    for coeffs, rhs in rows:
        cs = tuple(int(c) for c in coeffs)
        if len(cs) != k:
            raise ValueError(f"row of width {len(cs)} in a {k}-variable system")
        add(cs, int(rhs))

    levels: Levels = [()] * k
    for j in range(k - 1, -1, -1):
        here = [(c, r) for c, r in pool.items() if c[j] != 0]
        pool = {c: r for c, r in pool.items() if c[j] == 0}
        levels[j] = tuple(sorted(c[: j + 1] + (r,) for c, r in here))
        positive = sum(1 for c, _ in here if c[j] > 0)
        pairs = positive * (len(here) - positive)
        if pairs > FM_PAIR_CAP:
            raise DimensionCap(
                f"elimination would combine {pairs} row pairs (cap {FM_PAIR_CAP})"
            )
        for cp, rp in here:
            if cp[j] <= 0:
                continue
            for cn, rn in here:
                if cn[j] >= 0:
                    continue
                alpha, beta = cp[j], -cn[j]
                add(
                    tuple(beta * a + alpha * b for a, b in zip(cp, cn)),
                    beta * rp + alpha * rn,
                )
    return feasible, levels


def _bounds(rows: Sequence[Row], x: List[int], j: int) -> Tuple[int, int]:
    """Integer range [lo, hi] for x_j given the prefix x[0:j]; hi < lo means empty."""
    lo = None
    hi = None
    for row in rows:
        s = row[-1]
        for i in range(j):
            s -= row[i] * x[i]
        c = row[j]
        if c > 0:
            b = s // c
            if hi is None or b < hi:
                hi = b
        else:
            b = -(s // (-c))
            if lo is None or b > lo:
                lo = b
    if lo is None or hi is None:
        raise ValueError("unbounded direction in lattice scan")
    return lo, hi


def count_levels(levels: Levels) -> int:
    """Count the integer solutions of a prepared (feasible) system."""
    k = len(levels)
    if k == 0:
        return 1  # zero variables: the empty point, feasibility already checked
    x = [0] * k

    def rec(j: int) -> int:
        lo, hi = _bounds(levels[j], x, j)
        if hi < lo:
            return 0
        if j == k - 1:
            return hi - lo + 1
        total = 0
        for val in range(lo, hi + 1):
            x[j] = val
            total += rec(j + 1)
        return total

    return rec(0)


def count_system(rows: Iterable[Tuple[Sequence[int], int]], k: int) -> int:
    """Count integer points satisfying all rows (k variables)."""
    feasible, levels = prepare_levels(rows, k)
    if not feasible:
        return 0
    return count_levels(levels)


def iter_system(
    rows: Iterable[Tuple[Sequence[int], int]], k: int
) -> Iterator[Tuple[int, ...]]:
    """Yield the integer points themselves, in lexicographic order."""
    feasible, levels = prepare_levels(rows, k)
    if not feasible:
        return
    if k == 0:
        yield ()
        return
    x = [0] * k

    def rec(j: int) -> Iterator[Tuple[int, ...]]:
        lo, hi = _bounds(levels[j], x, j)
        for val in range(lo, hi + 1):
            x[j] = val
            if j == k - 1:
                yield tuple(x)
            else:
                yield from rec(j + 1)

    yield from rec(0)
