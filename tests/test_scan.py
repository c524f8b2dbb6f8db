"""Inequality-system elimination and point counting."""

from __future__ import annotations

import itertools
import random

import pytest

from equimirror.errors import DimensionCap
from equimirror.geometry import scan


def brute_count(rows, k, box=12):
    """Count integer points of ``coeffs . x <= rhs`` by exhausting a box.

    Only valid when the true solution set lies inside ``[-box, box]^k``.
    """
    total = 0
    for point in itertools.product(range(-box, box + 1), repeat=k):
        if all(sum(c * x for c, x in zip(coeffs, point)) <= rhs for coeffs, rhs in rows):
            total += 1
    return total


def unit_box_rows(k, lo, hi):
    rows = []
    for j in range(k):
        e = [0] * k
        e[j] = 1
        rows.append((tuple(e), hi))
        rows.append((tuple(-x for x in e), -lo))
    return rows


def test_box_counts():
    rows = unit_box_rows(3, 0, 4)
    assert scan.count_system(rows, 3) == 5**3
    feasible, levels = scan.prepare_levels(rows, 3)
    assert feasible
    assert scan.count_levels(levels) == 125


def test_infeasible_systems():
    # x <= -1 and -x <= -1 cannot both hold
    rows = [((1,), -1), ((-1,), -1)]
    feasible, _ = scan.prepare_levels(rows, 1)
    assert not feasible
    assert scan.count_system(rows, 1) == 0
    # contradiction hidden behind an elimination step
    rows2 = [((1, 1), 0), ((-1, -1), -1)]
    assert scan.count_system(rows2, 2) == 0


def test_zero_variables():
    assert scan.count_system([], 0) == 1
    feasible, levels = scan.prepare_levels([((), -1)], 0)
    assert not feasible


def test_simplex_count():
    # x, y, z >= 0, x + y + z <= m has C(m + 3, 3) points
    for m in (0, 1, 4, 7):
        rows = [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), m)]
        expected = (m + 1) * (m + 2) * (m + 3) // 6
        assert scan.count_system(rows, 3) == expected


def test_iter_system_matches_count():
    rows = [((-1, 0), 0), ((0, -1), 0), ((2, 3), 6)]
    points = sorted(scan.iter_system(rows, 2))
    assert len(points) == scan.count_system(rows, 2)
    assert points == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (3, 0)]


def test_counts_match_box_enumeration_random():
    """Counts and point lists agree with box enumeration on random systems."""
    rng = random.Random(60646)
    for trial in range(90):
        k = rng.randint(1, 3)
        # a bounding box keeps every system finite; extra random cuts vary it
        rows = unit_box_rows(k, rng.randint(-4, 0), rng.randint(0, 4))
        for _ in range(rng.randint(0, 3)):
            coeffs = tuple(rng.randint(-3, 3) for _ in range(k))
            rows.append((coeffs, rng.randint(-4, 6)))
        expected = brute_count(rows, k)
        feasible, levels = scan.prepare_levels(rows, k)
        got = scan.count_levels(levels) if feasible else 0
        assert got == expected, (trial, rows)
        if feasible and expected:
            pts = list(scan.iter_system(rows, k))
            assert len(pts) == expected
            assert len(set(pts)) == expected


def test_big_coefficients_count_exactly():
    # far beyond the 64-bit comfort zone: exact arithmetic must still win
    big = 10**12
    rows = [((1,), big), ((-1,), 0)]
    assert scan.count_system(rows, 1) == big + 1
    _, levels = scan.prepare_levels(rows, 1)
    assert scan.backend_name(levels) == "python"


def test_backend_name():
    assert scan.backend_name() == "python"
    assert scan.compiled_available() is False


def test_running_sum_past_int64_counts_exactly():
    """Every entry is within 2**31, yet ``-2**31*x0 - 2**31*x1`` reaches
    2**63 on the box ``x0, x1 in [2**31 - 1, 2**31]``: a 64-bit running sum
    would overflow, exact integers count all 4 points."""
    big = 2**31
    rows = [
        ((1, 0, 0), big),
        ((-1, 0, 0), -(big - 1)),
        ((0, 1, 0), big),
        ((0, -1, 0), -(big - 1)),
        ((0, 0, 1), 2**30),
        ((0, 0, -1), -(2**30)),
        ((-big, -big, 1), 1004036884),
    ]
    feasible, levels = scan.prepare_levels(rows, 3)
    assert feasible
    assert all(abs(v) <= big for lev in levels for row in lev for v in row)
    assert scan.count_levels(levels) == 4
    assert scan.count_system(rows, 3) == 4


def fan_rows(positive, negative):
    """Rows ``i x0 + x1 <= 1000`` and ``i x0 - x1 <= 1000``: eliminating
    ``x1`` combines ``positive * negative`` distinct pairs."""
    return [((i, 1), 1000) for i in range(positive)] + [
        ((i, -1), 1000) for i in range(negative)
    ]


def test_fm_pair_cap_fails_closed(monkeypatch):
    # over the real cap: refused before any pair is combined
    over = int(scan.FM_PAIR_CAP**0.5) + 1
    with pytest.raises(DimensionCap, match="row pairs"):
        scan.prepare_levels(fan_rows(over, over), 2)
    with pytest.raises(DimensionCap):
        scan.count_system(fan_rows(over, over), 2)
    # the cap is inclusive: a step of exactly the cap still runs
    monkeypatch.setattr(scan, "FM_PAIR_CAP", 6)
    feasible, levels = scan.prepare_levels(fan_rows(2, 3), 2)
    assert feasible and len(levels[1]) == 5
    with pytest.raises(DimensionCap, match="9 row pairs"):
        scan.prepare_levels(fan_rows(3, 3), 2)
