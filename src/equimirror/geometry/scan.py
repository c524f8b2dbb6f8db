"""Integer inequality systems: elimination, then counting.

``prepare_levels`` turns a list of rows ``coeffs . x <= rhs`` (everything
integer, strict inequalities already tightened to ``<= rhs - 1`` by the
caller) into per-variable level systems via Fourier-Motzkin elimination.
Rows are gcd-normalised with floored right-hand sides — valid because we
only ever care about integer points — and deduplicated keeping the
tightest bound.

Which rows survive, which pairs combine and how the levels sort depend on
the coefficients alone, and the slices of one face at different heights
share their coefficients.  So the elimination runs once per coefficient
system (:func:`eliminate`, memoised here for the life of the process and
dropped by :func:`clear_plans`), and each call replays it on its own
right-hand sides: floor-divide, combine, keep the least per row.  The
plan combines only the pairs that Chernikov's rule keeps, so its levels
hold far fewer rows than a full elimination's (2, 14, 18, 54 and 32
instead of 2, 94, 82, 54 and 32 on the 5-cross-polytope's top-face
slices) and admit the same integer points.

``levels[j]`` then holds rows ``(c_0, ..., c_j, rhs)`` with ``c_j != 0``,
meaning ``sum c_i x_i <= rhs``, and by the projection property the rows
at level ``j`` bound ``x_j`` exactly once ``x_0 .. x_{j-1}`` are fixed.
``count_levels`` counts the trailing levels that read no earlier variable
(all of them in a box) once, as a product of their ranges, and walks the
levels above them point by point, carrying one least residual per
coefficient suffix down the walk (:func:`_walk_layout`, laid out once per
plan); ``prepare_levels -> count_levels`` is the one route from rows to a
count.  The scan is pure Python with exact integers, so no entry is too
large for it.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import DimensionCap

Row = Tuple[int, ...]
Levels = List[Tuple[Row, ...]]
Plan = tuple

# With Chernikov pruning, slice counts on the 5-cross-polytope meet at most
# 729 row pairs in one elimination step and on the 6-cross-polytope 6,561
# (2,209 and 667,489 without pruning).
FM_PAIR_CAP = 100_000

# elimination plans by (k, coefficient rows), for the life of the process
_plans: Dict[tuple, Plan] = {}


class _PlannedLevels(list):
    """Levels from a plan, carrying the plan's walk layout (None when
    fewer than two levels are walked)."""

    __slots__ = ("walk",)


def clear_plans() -> None:
    """Forget every elimination plan."""
    _plans.clear()


def compiled_available() -> bool:
    """Always False: there is no compiled scan kernel."""
    return False


def backend_name(levels: Levels | None = None) -> str:
    """The scan backend that counts ``levels``: always ``"python"``."""
    return "python"


def eliminate(k: int, coeffs: Tuple[Row, ...]) -> Plan:
    """Fourier-Motzkin elimination of the coefficient rows alone, keeping
    only the combinations that Chernikov's rule calls for.

    Which rows a step keeps, which pairs it combines and how the levels
    sort depend only on the coefficients, so the elimination is planned
    once per coefficient system and :func:`_replay` carries any
    right-hand sides through it.  The plan is
    ``(row_slot, row_div, nslots, steps, walk)``:

    - per input row, its pool slot (-1 for an all-zero row) and the gcd
      that divides it;
    - per step, in elimination order, the eliminated variable ``j``, its
      level as sorted ``(prefix, slot)`` pairs, and the kept pairs
      ``(sp, beta, sn, alpha, target, gcd)``: slot ``sp`` (``c_j =
      alpha > 0``) and slot ``sn`` (``c_j = -beta < 0``) combine as
      ``beta*sp + alpha*sn`` into ``target`` (-1 for an all-zero
      combination) after dividing by ``gcd``;
    - the walk layout of the levels (see :func:`_walk_layout`), or None
      when :func:`count_levels` walks fewer than two of them.

    **The rule** (Chernikov 1965; Imbert 1990).  Each slot has a history,
    the bitmask of input slots combined into it: an input slot starts with
    its own bit, a combination has the union of its pair's, and a slot
    reached again keeps the history with the fewest bits.  At the ``s``-th
    eliminated variable, a pair whose combined history has more than
    ``s + 1`` bits is skipped.  Chernikov's argument: over the reals, the
    rows that describe the projection after ``s`` eliminations come from
    the extreme rays of ``{lambda >= 0 : lambda . A_E = 0}`` (``E`` the
    eliminated columns), and an extreme ray combines at most ``s + 1``
    input rows.  Were every derivation's history kept, each such row's
    pair would pass the test, and the kept rows would describe the same
    projections as the full elimination.  One history per slot is cheaper
    but loses that guarantee: a later pair may need a history the slot
    dropped.

    **Why counts stay exact.**  Every input row still sits at the level of
    its last nonzero coefficient, and every combined row, floored after
    division by its gcd, holds at every integer point of the input.  So
    :func:`count_levels` admits exactly the input's integer points, however
    many combined rows are skipped, and raises only at a level whose rows
    all have one sign.  If a pruned level has rows of one sign only, which
    happens on some bounded systems (``tests/test_scan.py`` has one), the
    elimination is planned again without pruning.  So a pruned plan has
    rows of both signs at every level, as has the full elimination, whose
    rows include its rows, and the walk raises exactly where the full
    elimination's does.  The feasibility flag may differ from the full
    elimination's (a skipped all-zero combination), never the count.

    Raises :class:`DimensionCap` for a step whose ``len(pos) * len(neg)``
    exceeds ``FM_PAIR_CAP``.
    """
    plan = _eliminate(k, coeffs, True)
    return plan if plan is not None else _eliminate(k, coeffs, False)


def _eliminate(k: int, coeffs: Tuple[Row, ...], prune: bool) -> Plan | None:
    """The plan of :func:`eliminate`, pruned or not; None when pruning
    leaves a level with rows of one sign only."""
    slot_of: Dict[Row, int] = {}
    key_of: List[Row] = []
    history: List[int] = []
    live: List[int] = []

    def normalise(cs: Row, h: int) -> Tuple[int, int]:
        # h is the derivation's history; 0 for an input row
        g = 0
        for c in cs:
            g = gcd(g, c)
        if g == 0:
            return -1, 0
        if g > 1:
            cs = tuple(c // g for c in cs)
        s = slot_of.get(cs)
        if s is None:
            s = slot_of[cs] = len(key_of)
            key_of.append(cs)
            history.append(h or 1 << s)
            live.append(s)
        elif h and h.bit_count() < history[s].bit_count():
            history[s] = h
        return s, g

    row_slot: List[int] = []
    row_div: List[int] = []
    for cs in coeffs:
        s, g = normalise(cs, 0)
        row_slot.append(s)
        row_div.append(g)

    steps = []
    for eliminated, j in enumerate(range(k - 1, -1, -1), 1):
        here = [s for s in live if key_of[s][j] != 0]
        live[:] = [s for s in live if key_of[s][j] == 0]
        pos = [s for s in here if key_of[s][j] > 0]
        neg = [s for s in here if key_of[s][j] < 0]
        combos = len(pos) * len(neg)
        if combos > FM_PAIR_CAP:
            raise DimensionCap(
                f"elimination would combine {combos} row pairs (cap {FM_PAIR_CAP})"
            )
        if prune and not combos:
            return None
        level = sorted((key_of[s][: j + 1], s) for s in here)
        pairs = []
        for sp in pos:
            cp, hp, alpha = key_of[sp], history[sp], key_of[sp][j]
            for sn in neg:
                h = hp | history[sn]
                if prune and h.bit_count() > eliminated + 1:
                    continue
                cn, beta = key_of[sn], -key_of[sn][j]
                t, g = normalise(tuple(beta * a + alpha * b for a, b in zip(cp, cn)), h)
                pairs.append((sp, beta, sn, alpha, t, g))
        steps.append((j, level, pairs))
    coeffs = [[prefix for prefix, _ in level] for _, level, _ in reversed(steps)]
    walked = _free_start(coeffs)
    walk = _walk_layout(coeffs[:walked]) if walked > 1 else None
    return row_slot, row_div, len(key_of), steps, walk


def _replay(plan: Plan, rhs: List[int]) -> Tuple[bool, Levels]:
    """``(feasible, levels)`` for right-hand sides ``rhs`` of the planned
    rows: floor-divide by each row's gcd, combine ``beta*rp + alpha*rn``
    over the kept pairs, keep the least per slot, and fail on a negative
    all-zero row.  The levels carry the plan's walk layout."""
    row_slot, row_div, nslots, steps, walk = plan
    feasible = True
    bound: List[int | None] = [None] * nslots
    for s, g, r in zip(row_slot, row_div, rhs):
        if s < 0:
            if r < 0:
                feasible = False
            continue
        r //= g
        old = bound[s]
        if old is None or r < old:
            bound[s] = r
    levels = _PlannedLevels([()] * len(steps))
    levels.walk = walk
    for j, level, pairs in steps:
        levels[j] = tuple(p + (bound[s],) for p, s in level)
        for sp, beta, sn, alpha, t, g in pairs:
            r = beta * bound[sp] + alpha * bound[sn]
            if t < 0:
                if r < 0:
                    feasible = False
                continue
            r //= g
            old = bound[t]
            if old is None or r < old:
                bound[t] = r
    return feasible, levels


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

    The elimination is planned once per coefficient system (see
    :func:`eliminate`) and replayed for each call's right-hand sides.
    """
    coeffs: List[Row] = []
    rhs: List[int] = []
    for cs, r in rows:
        cs = tuple(int(c) for c in cs)
        if len(cs) != k:
            raise ValueError(f"row of width {len(cs)} in a {k}-variable system")
        coeffs.append(cs)
        rhs.append(int(r))
    key = (k, tuple(coeffs))
    plan = _plans.get(key)
    if plan is None:
        plan = _plans[key] = eliminate(k, key[1])
    return _replay(plan, rhs)


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


def _free_start(levels: Sequence[Sequence[Row]]) -> int:
    """The first of the trailing levels that read no earlier variable
    (every ``row[:j]`` is zero, as in a box); level 0 reads none, so 0
    when every level is free.  The rows may carry their right-hand sides
    or not."""
    t = len(levels)
    while t > 0 and not any(any(row[: t - 1]) for row in levels[t - 1]):
        t -= 1
    return t


def _free_tail(levels: Levels) -> Tuple[int, List[Tuple[int, int]]]:
    """``(t, ranges)``: levels ``t..k-1`` read no earlier variable (see
    :func:`_free_start`), and ``ranges`` are their fixed integer ranges
    ``[lo, hi]``."""
    t = _free_start(levels)
    x = [0] * len(levels)
    return t, [_bounds(levels[j], x, j) for j in range(t, len(levels))]


def _walk_layout(coeffs: Sequence[Sequence[Row]]) -> tuple:
    """The layout of the walk over levels whose coefficient rows (no
    right-hand sides) are ``coeffs[0..last]``, ``last >= 1``.

    Node ``j`` of the walk has ``x_0 .. x_{j-1}`` fixed and keeps one
    residual ``rhs - sum_{i<j} c_i x_i`` per key ``(L, (c_j, ..., c_L))``,
    ``j < L <= last``: the rows of level ``L`` that share the coefficients
    of the variables not yet fixed are one constraint from here on, and
    only their least residual binds.  For a value ``v`` of ``x_j``, the
    keys of level ``j + 1`` bound ``x_{j+1}`` by ``(r - c_j v) / c_{j+1}``,
    and each deeper key hands ``r - c_j v`` to node ``j + 1``'s key
    ``(L, (c_{j+1}, ..., c_L))``, the least of all that land on it.

    Returns ``(root, nodes)``.  ``root = (first, extra)`` fills node 0's
    residuals from the levels: ``first`` holds one ``(L, i)`` row per
    residual, ``extra`` one ``(L, i, e)`` per further row of the same key.
    ``nodes[j] = (upper, lower, shifts, extra)``:

    - ``upper``/``lower``: ``(e, c_j, |c_{j+1}|)`` per key of level
      ``j + 1`` with ``c_{j+1} > 0`` / ``< 0``;
    - ``shifts``: ``c_j`` of the first key handed to each of node
      ``j + 1``'s residuals, which sit at the front in that order, so
      ``[r - a v for r, a in zip(res, shifts)]`` is node ``j + 1``'s
      vector before the merge;
    - ``extra``: ``(e, c_j, target)`` for the other keys, min-merged in.

    Everything depends on the coefficients alone, so a planned system
    builds it once, in :func:`eliminate`.
    """
    last = len(coeffs) - 1
    nodes = []
    index: Dict[tuple, int] = {}  # node j + 1's keys -> their residuals
    for j in range(last - 1, -1, -1):
        keys = {(L, row[j:]) for L in range(j + 1, last + 1) for row in coeffs[L]}
        first: List[tuple] = [None] * len(index)
        merged, bounding = [], []
        for key in sorted(keys):
            L, suffix = key
            if L == j + 1:
                bounding.append(key)
                continue
            target = index[(L, suffix[1:])]
            if first[target] is None:
                first[target] = key
            else:
                merged.append((key, target))
        order = first + [key for key, _ in merged] + bounding
        index = {key: e for e, key in enumerate(order)}
        sides = [(index[key], *key[1]) for key in bounding]
        nodes.append((
            tuple((e, a, c) for e, a, c in sides if c > 0),
            tuple((e, a, -c) for e, a, c in sides if c < 0),
            tuple(suffix[0] for _, suffix in first),
            tuple((index[key], key[1][0], target) for key, target in merged),
        ))
    nodes.reverse()
    first = [None] * len(index)
    extra = []
    for L in range(1, last + 1):
        for i, row in enumerate(coeffs[L]):
            e = index[(L, row)]
            if first[e] is None:
                first[e] = (L, i)
            else:
                extra.append((L, i, e))
    return (tuple(first), tuple(extra)), tuple(nodes)


def count_levels(levels: Levels) -> int:
    """Count the integer solutions of a prepared (feasible) system.

    The free trailing levels (see :func:`_free_tail`) are counted once,
    as the product of their range sizes; the levels above them are
    walked point by point, one subtraction per coefficient suffix for
    each value (see :func:`_walk_layout`).  Levels from
    :func:`prepare_levels` carry their plan's layout; others get one
    built here.
    """
    t, ranges = _free_tail(levels)
    tail = 1
    for lo, hi in ranges:
        if hi < lo:
            return 0
        tail *= hi - lo + 1
    if t == 0:
        return tail  # also zero variables: the empty point
    lo, hi = _bounds(levels[0], [], 0)
    if hi < lo:
        return 0
    if t == 1:
        return (hi - lo + 1) * tail
    walk = getattr(levels, "walk", None)
    if walk is None:
        walk = _walk_layout([[tuple(r[:-1]) for r in level] for level in levels[:t]])
    (first, extra), nodes = walk
    res = [levels[L][i][-1] for L, i in first]
    for L, i, e in extra:
        r = levels[L][i][-1]
        if r < res[e]:
            res[e] = r
    penultimate = t - 2

    def rec(j: int, lo: int, hi: int, res: List[int]) -> int:
        upper, lower, shifts, extra = nodes[j]
        if not upper or not lower:
            raise ValueError("unbounded direction in lattice scan")
        upper = [(res[e], a, c) for e, a, c in upper]
        lower = [(res[e], a, c) for e, a, c in lower]
        total = 0
        for v in range(lo, hi + 1):
            next_hi = next_lo = None
            for r, a, c in upper:
                b = (r - a * v) // c
                if next_hi is None or b < next_hi:
                    next_hi = b
            for r, a, c in lower:
                b = -((r - a * v) // c)
                if next_lo is None or b > next_lo:
                    next_lo = b
            if next_hi < next_lo:
                continue
            if j == penultimate:
                total += next_hi - next_lo + 1
                continue
            below = [r - a * v for r, a in zip(res, shifts)]
            for e, a, target in extra:
                r = res[e] - a * v
                if r < below[target]:
                    below[target] = r
            total += rec(j + 1, next_lo, next_hi, below)
        return total

    return rec(0, lo, hi, res) * tail


def count_system(rows: Iterable[Tuple[Sequence[int], int]], k: int) -> int:
    """Count integer points satisfying all rows (k variables)."""
    feasible, levels = prepare_levels(rows, k)
    if not feasible:
        return 0
    return count_levels(levels)
