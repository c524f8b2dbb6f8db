"""Integer inequality systems: elimination, then counting.

``prepare_levels`` turns a list of rows ``coeffs . x <= rhs`` (everything
integer, strict inequalities already tightened to ``<= rhs - 1`` by the
caller) into per-variable level systems via Fourier-Motzkin elimination.
Rows are gcd-normalised with floored right-hand sides — valid because we
only ever care about integer points — and deduplicated keeping the
tightest bound.

Counting then walks the levels innermost-last; the compiled kernel
(``_scan``, built from Cython) is used automatically when it imported
successfully and ``_fits_int64`` proves that its arithmetic stays within
64 bits, otherwise the pure-Python twin takes over with arbitrary
precision.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, List, Sequence, Tuple

from . import scan_py

try:  # pragma: no cover - exercised indirectly via backend tests
    from . import _scan  # type: ignore[attr-defined]
except ImportError:  # pragma: no cover
    _scan = None

_INT64_GUARD = 2**31

Levels = List[Tuple[Tuple[int, ...], ...]]


def compiled_available() -> bool:
    return _scan is not None


def backend_name(levels: Levels | None = None) -> str:
    if _scan is not None and (levels is None or _fits_int64(levels)):
        return "compiled"
    return "python"


def prepare_levels(
    rows: Iterable[Tuple[Sequence[int], int]], k: int
) -> Tuple[bool, Levels]:
    """Eliminate variables from the last to the first.

    Returns ``(feasible, levels)`` where ``levels[j]`` holds the rows
    bounding ``x_j`` given ``x_0 .. x_{j-1}`` (each row is the tuple
    ``(c_0, ..., c_j, rhs)``).  ``feasible`` is False when the constant
    rows are already contradictory; the levels are then meaningless.
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


def _fits_int64(levels: Levels) -> bool:
    """True when the compiled kernel provably stays inside signed 64 bits.

    Entries beyond ``2**31`` stay with the Python backend outright.  The
    proof propagates an integer box for ``x_0 .. x_{j-1}`` level by level:
    a row ``c . x <= rhs`` at level ``j`` bounds ``x_j`` by
    ``(rhs - min over the box of sum c_i x_i) / c_j``, so every prefix the
    scan visits lies in the box.  The kernel's running sum
    ``rhs - sum c_i x_i`` is then at most ``|rhs| + sum |c_i| * max|x_i|``
    in size, its loop counter at most ``max|x_j| + 1`` and its point count
    at most the product of the box widths; all must stay below ``2**63``.
    An unbounded level is left to the Python backend, which reports it.
    """
    limit = 2**63
    boxes: List[Tuple[int, int]] = []
    volume = 1
    for j, lev in enumerate(levels):
        lo = hi = None
        for row in lev:
            if any(value > _INT64_GUARD or value < -_INT64_GUARD for value in row):
                return False
            rhs = row[-1]
            size = abs(rhs)
            low = 0
            for c, (blo, bhi) in zip(row, boxes):
                size += abs(c) * max(-blo, bhi)
                low += c * blo if c > 0 else c * bhi
            if size >= limit:
                return False
            c = row[j]
            if c > 0:
                b = (rhs - low) // c
                hi = b if hi is None else min(hi, b)
            else:
                b = -((rhs - low) // -c)
                lo = b if lo is None else max(lo, b)
        if lo is None or hi is None:
            return False
        if hi < lo:
            return True  # no prefix reaches a deeper level
        volume *= hi - lo + 1
        if max(-lo, hi) + 1 >= limit or volume >= limit:
            return False
        boxes.append((lo, hi))
    return True


def count_levels(levels: Levels, force_backend: str | None = None) -> int:
    """Count the integer solutions of a prepared (feasible) system."""
    if not levels:
        return 1  # zero variables: the empty point, feasibility already checked
    if force_backend == "python":
        return scan_py.count_levels(levels)
    if force_backend == "compiled":
        if _scan is None:
            raise RuntimeError("compiled scan kernel is not available")
        return _scan.count_levels(list(levels))
    if force_backend is not None:
        raise ValueError(f"unknown backend {force_backend!r}")
    if _scan is not None and _fits_int64(levels):
        return _scan.count_levels(list(levels))
    return scan_py.count_levels(levels)


def count_system(rows: Iterable[Tuple[Sequence[int], int]], k: int) -> int:
    """Count integer points satisfying all rows (k variables)."""
    feasible, levels = prepare_levels(rows, k)
    if not feasible:
        return 0
    return count_levels(levels)


def iter_system(
    rows: Iterable[Tuple[Sequence[int], int]], k: int
) -> Iterator[Tuple[int, ...]]:
    """Yield the integer points themselves (always the pure backend)."""
    feasible, levels = prepare_levels(rows, k)
    if not feasible:
        return
    yield from scan_py.iter_levels(levels)
