"""Inequality-system elimination and point counting."""

from __future__ import annotations

import itertools
import json
import random
from math import comb, gcd

import pytest
from conftest import trivial_complex

from equimirror.algebra import UniPoly
from equimirror.cli.main import run
from equimirror.cli.models import build_cross, build_cube, build_fermat, parse_config
from equimirror.errors import DimensionCap
from equimirror.geometry import counting, scan
from equimirror.geometry.counting import homogenize, slice_system
from equimirror.geometry.intlinalg import IntMatrix, det
from equimirror.invariants import tables_for

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
    # a refused system leaves no elimination plan behind: it fails again
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


# ---------------------------------------------------------------------------
# the planned elimination against a straight one


def reference_prepare_levels(rows, k):
    """Fourier-Motzkin elimination with the right-hand sides carried
    along, one full elimination per call: the reference for the plan and
    replay of :func:`scan.prepare_levels`."""
    feasible = True
    pool = {}

    def add(coeffs, rhs):
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

    levels = [()] * k
    for j in range(k - 1, -1, -1):
        here = [(c, r) for c, r in pool.items() if c[j] != 0]
        pool = {c: r for c, r in pool.items() if c[j] == 0}
        levels[j] = tuple(sorted(c[: j + 1] + (r,) for c, r in here))
        positive = sum(1 for c, _ in here if c[j] > 0)
        pairs = positive * (len(here) - positive)
        if pairs > scan.FM_PAIR_CAP:
            raise DimensionCap(
                f"elimination would combine {pairs} row pairs (cap {scan.FM_PAIR_CAP})"
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


def random_coefficient_rows(rng, k):
    """A bounded system's coefficient rows: a box, random cuts with
    non-unit gcds, a repeated row and an all-zero row."""
    rows = [r for r, _ in unit_box_rows(k, 0, 0)]
    for _ in range(rng.randint(1, 5)):
        scale = rng.choice((1, 2, 3, 6))
        rows.append(tuple(scale * rng.randint(-3, 3) for _ in range(k)))
    rows.append(rng.choice(rows))
    rows.append((0,) * k)
    rng.shuffle(rows)
    return rows


def assert_matches_reference(rows, k):
    """The pruned levels count what the full elimination's count (0 when
    infeasible), and each pruned level row is a reference row's
    coefficients with a right-hand side no tighter than the reference's:
    a skipped derivation can leave a slot's bound weaker, never stronger.
    Returns ``(reference feasible, count, rows pruned away)``."""
    ref_feasible, ref_levels = reference_prepare_levels(rows, k)
    feasible, levels = scan.prepare_levels(rows, k)
    expected = reference_count_levels(ref_levels) if ref_feasible else 0
    assert (scan.count_levels(levels) if feasible else 0) == expected, rows
    for level, ref_level in zip(levels, ref_levels):
        ref_rhs = {row[:-1]: row[-1] for row in ref_level}
        for row in level:
            assert row[-1] >= ref_rhs[row[:-1]], (rows, row)
    return ref_feasible, expected, sum(map(len, ref_levels)) - sum(map(len, levels))


def test_replay_matches_reference_random():
    rng = random.Random(31337)
    scan.clear_plans()
    outcomes = set()
    for trial in range(150):
        k = rng.randint(1, 4)
        coeffs = random_coefficient_rows(rng, k)
        # several right-hand sides in a row on one coefficient system: the
        # first call plans the elimination, the others replay it
        for rhs_round in range(4):
            rows = [(c, rng.randint(-2, 9)) for c in coeffs]
            feasible, count, _ = assert_matches_reference(rows, k)
            if k <= 3 and rhs_round == 0:
                assert brute_count(rows, k, box=9) == count, (trial, rows)
            outcomes.add(feasible)
    assert outcomes == {True, False}
    # a negative all-zero row makes the system infeasible at any other rhs
    coeffs = [(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]
    for zero_rhs, feasible in ((0, True), (-1, False), (3, True)):
        rows = list(zip(coeffs, (2, 2, 2, 2, zero_rhs)))
        assert scan.prepare_levels(rows, 2)[0] is feasible
        assert assert_matches_reference(rows, 2)[1] == (25 if feasible else 0)


def random_simplex_rows(rng, k):
    """A bounded system that is no box: ``k`` independent random rows, the
    negated sum of them (so only the origin has every row ``<= 0``), and
    random cuts."""
    while True:
        rows = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(k)]
        if det(IntMatrix(rows)):
            break
    rows.append(tuple(-sum(column) for column in zip(*rows)))
    rows += [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(0, 3))]
    rng.shuffle(rows)
    return rows


def test_pruned_counts_match_reference_up_to_five_variables():
    """Bounded systems up to ``k = 5``: no walked level is left unbounded
    (a ``ValueError`` would fail the test), the counts are the full
    elimination's, and pruning drops rows on a good share of them."""
    rng = random.Random(5150)
    scan.clear_plans()
    pruned = nonzero = 0
    for trial in range(120):
        k = rng.randint(2, 5)
        coeffs = random_coefficient_rows(rng, k) if trial % 2 else random_simplex_rows(rng, k)
        for _ in range(2):
            _, count, dropped = assert_matches_reference(
                [(c, rng.randint(-3, 8)) for c in coeffs], k
            )
            nonzero += count > 0
            pruned += dropped > 0
    assert nonzero > 100 and pruned > 60


def test_one_sided_pruned_level_is_planned_again_in_full():
    """One smallest history per slot is not all of Chernikov's argument: on
    this bounded system (only the origin has every row ``<= 0``) the pruned
    plan leaves a level whose rows all have one sign.  The elimination is
    then planned in full, and every count stays bounded and exact."""
    coeffs = (
        (-2, -1, 2, -2), (1, -2, -1, -2), (1, 0, 1, -1), (0, 1, 2, 0),
        (-2, 2, -1, 1), (2, -2, -2, -2), (0, -2, 1, 2),
    )
    assert scan._eliminate(4, coeffs, True) is None
    assert scan.eliminate(4, coeffs) == scan._eliminate(4, coeffs, False)
    assert scan.count_system([(c, 0) for c in coeffs], 4) == 1
    rng = random.Random(7)
    for _ in range(20):
        assert_matches_reference([(c, rng.randint(0, 6)) for c in coeffs], 4)


@pytest.mark.parametrize("polytope", [build_cube(5), build_cross(5)], ids=["cube5", "cross5"])
def test_replay_matches_reference_on_top_face_slices(polytope):
    cone_rows = homogenize(polytope.facets)
    identity = IntMatrix.identity(polytope.dim + 1)
    for m in range(7):
        for interior in (False, True):
            rows, k = slice_system(cone_rows, (), identity, m, interior)
            assert_matches_reference(rows, k)


def test_cross5_top_face_plan_is_pruned():
    """Chernikov's rule keeps a fraction of the rows the full elimination
    carries through the 5-cross-polytope's top-face slices."""
    polytope = build_cross(5)
    rows, k = slice_system(
        homogenize(polytope.facets), (), IntMatrix.identity(polytope.dim + 1), 3, False
    )
    _, levels = scan.prepare_levels(rows, k)
    _, ref_levels = reference_prepare_levels(rows, k)
    assert [len(level) for level in ref_levels] == [2, 94, 82, 54, 32]
    for level, most in zip(levels, [2, 14, 18, 54, 32]):
        assert len(level) <= most


def test_phi_eliminates_once_per_coefficient_system(monkeypatch):
    """A ``phi`` run asks for many heights of few coefficient systems; each
    system is eliminated once and every other call replays its plan."""
    eliminations, systems = [], []
    eliminate, prepare = scan.eliminate, scan.prepare_levels

    def counted_eliminate(k, coeffs):
        eliminations.append((k, coeffs))
        return eliminate(k, coeffs)

    def recorded_prepare(rows, k):
        rows = list(rows)
        systems.append((k, tuple(tuple(c) for c, _ in rows)))
        return prepare(rows, k)

    monkeypatch.setattr(scan, "eliminate", counted_eliminate)
    monkeypatch.setattr(scan, "prepare_levels", recorded_prepare)
    counting.clear_cache()
    config = {"builtin": "cube", "d": 3, "group": ["central"], "commands": ["phi"]}
    run(parse_config(json.dumps(config)))
    counting.clear_cache()
    assert len(eliminations) == len(set(systems)) == len(set(eliminations))
    assert len(eliminations) < len(systems) // 3


# ---------------------------------------------------------------------------
# free trailing levels counted as a product


def assert_counts_match(rows, k, box=8):
    expected = brute_count(rows, k, box)
    feasible, levels = scan.prepare_levels(rows, k)
    assert (scan.count_levels(levels) if feasible else 0) == expected
    points = list(scan.iter_system(rows, k))
    assert len(points) == len(set(points)) == expected
    assert points == sorted(points)
    return levels


def test_all_levels_free_is_a_product():
    rows = unit_box_rows(3, -2, 1) + [((0, 2, 0), 3)]  # x1 <= 1, after gcd
    levels = assert_counts_match(rows, 3)
    assert scan._free_tail(levels) == (0, [(-2, 1), (-2, 1), (-2, 1)])
    assert scan.count_levels(levels) == 64


def test_free_tail_under_a_dependent_level():
    # x0 in [0, 3], -x0 <= x1 <= x0, then x2 and x3 free of both
    rows = unit_box_rows(4, -1, 2) + [((-1, 1, 0, 0), 0), ((-1, -1, 0, 0), 0)]
    levels = assert_counts_match(rows, 4)
    assert scan._free_tail(levels)[0] == 2


def test_free_level_above_a_dependent_one_is_walked():
    # x1 reads no earlier variable, but x2 <= x1 reads it: no level is in
    # the free tail, and x1 must stay in the walk
    rows = unit_box_rows(3, 0, 3) + [((0, -1, 1), 0)]
    levels = assert_counts_match(rows, 3)
    assert not any(row[0] for row in levels[1])
    assert any(row[1] for row in levels[2])
    assert scan._free_tail(levels)[0] == 3


def test_empty_free_level_counts_zero():
    # hand-built levels: x1 <= 2 and x1 >= 5 never both hold, whatever x0 is
    levels = [((1, 3), (-1, 0)), ((0, 1, 2), (0, -1, -5))]
    assert scan.count_levels(levels) == 0
    rows = [((1, 0), 3), ((-1, 0), 0), ((0, 1), 2), ((0, -1), -5)]
    assert brute_count(rows, 2) == 0
    assert list(scan.iter_system(rows, 2)) == []


# ---------------------------------------------------------------------------
# walked levels bounded from one least residual per coefficient suffix


def reference_count_levels(levels):
    """The walk that bounds each level row by row at every prefix point:
    the reference for :func:`scan.count_levels`."""
    t, ranges = scan._free_tail(levels)
    tail = 1
    for lo, hi in ranges:
        if hi < lo:
            return 0
        tail *= hi - lo + 1
    if t == 0:
        return tail
    x = [0] * t
    last = t - 1

    def rec(j):
        lo, hi = scan._bounds(levels[j], x, j)
        if hi < lo:
            return 0
        if j == last:
            return (hi - lo + 1) * tail
        total = 0
        for val in range(lo, hi + 1):
            x[j] = val
            total += rec(j + 1)
        return total

    return rec(0)


def grouped_rows(rng, k):
    """A bounded system whose rows repeat a few ``(c_{j-1}, c_j)`` pairs,
    with non-unit and negative coefficients, under different prefixes."""
    rows = unit_box_rows(k, rng.randint(-3, 0), rng.randint(0, 3))
    pairs = [(rng.randint(-3, 3), rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(3)]
    for _ in range(rng.randint(2, 6)):
        head = [rng.randint(-2, 2) for _ in range(k - 2)]
        rows.append((tuple(head) + rng.choice(pairs), rng.randint(-4, 8)))
    if rng.random() < 0.3:
        rows.append(rng.choice(rows))
    rng.shuffle(rows)
    return rows


def test_grouped_bounds_match_reference_random():
    rng = random.Random(20261019)
    nonzero = 0
    for trial in range(200):
        k = rng.randint(2, 4)
        rows = grouped_rows(rng, k)
        feasible, levels = scan.prepare_levels(rows, k)
        if not feasible:
            continue
        expected = reference_count_levels(levels)
        assert scan.count_levels(levels) == expected, (trial, rows)
        if k <= 3:
            assert expected == brute_count(rows, k, box=4), (trial, rows)
        nonzero += expected > 0
    assert nonzero > 100


@pytest.mark.parametrize("polytope", [build_cube(5), build_cross(5)], ids=["cube5", "cross5"])
def test_grouped_bounds_match_reference_on_top_face_slices(polytope):
    cone_rows = homogenize(polytope.facets)
    identity = IntMatrix.identity(polytope.dim + 1)
    for m in range(7):
        for interior in (False, True):
            rows, k = slice_system(cone_rows, (), identity, m, interior)
            feasible, levels = scan.prepare_levels(rows, k)
            if feasible:
                assert scan.count_levels(levels) == reference_count_levels(levels)


def test_unbounded_walked_level_raises_when_reached():
    # x1 <= x0 + 2 has no lower bound; the walk reaches level 1 only when
    # level 0's range is non-empty
    unbounded = ((-1, 1, 2),)
    reached = [((1, 3), (-1, 0)), unbounded]
    for count in (reference_count_levels, scan.count_levels):
        with pytest.raises(ValueError, match="unbounded direction in lattice scan"):
            count(reached)
        assert count([((1, -1), (-1, 0)), unbounded]) == 0


def suffix_rows(rng, k):
    """A bounded system whose rows share coefficient suffixes
    ``(c_j, ..., c_L)`` under different prefixes at several depths: each
    row is a random head, then a tail from a small pool per length, then
    zeros.  Coefficients are negative and non-unit too, and some rows are
    repeated."""
    rows = unit_box_rows(k, rng.randint(-2, 0), rng.randint(0, 2))
    tails = {
        n: [
            tuple(rng.randint(-3, 3) for _ in range(n - 1))
            + (rng.choice((-3, -2, -1, 1, 2, 3)),)
            for _ in range(2)
        ]
        for n in range(1, k)
    }
    for _ in range(rng.randint(3, 8)):
        last = rng.randint(1, k - 1)
        tail = rng.choice(tails[rng.randint(1, last)])
        head = tuple(rng.randint(-2, 2) for _ in range(last + 1 - len(tail)))
        rows.append((head + tail + (0,) * (k - 1 - last), rng.randint(-3, 6)))
    for _ in range(rng.randint(0, 2)):
        rows.append(rng.choice(rows))
    rng.shuffle(rows)
    return rows


def test_suffix_walk_matches_reference_random():
    """Counts on systems whose suffixes merge at several node levels, from
    the planned layout, from one built on the spot for plain lists, and
    with repeated level rows that node 0 merges."""
    rng = random.Random(271828)
    merged_at, nonzero = set(), 0
    for trial in range(150):
        k = rng.randint(2, 5)
        rows = suffix_rows(rng, k)
        feasible, levels = scan.prepare_levels(rows, k)
        if not feasible:
            continue
        expected = reference_count_levels(levels)
        assert scan.count_levels(levels) == expected, (trial, rows)
        if k <= 3:
            assert expected == brute_count(rows, k, box=3), (trial, rows)
        nonzero += expected > 0
        assert scan.count_levels(list(levels)) == expected, (trial, rows)
        if levels.walk is not None:
            (_, root_extra), nodes = levels.walk
            assert not root_extra
            merged_at.update(j for j, node in enumerate(nodes) if node[3])
        repeated = [
            tuple(level) + tuple(
                row[:-1] + (row[-1] + rng.randint(-1, 2),)
                for row in rng.sample(level, rng.randint(0, len(level)))
            )
            for level in levels
        ]
        assert scan.count_levels(repeated) == reference_count_levels(repeated), (
            trial, repeated
        )
    assert nonzero > 80
    assert {0, 1, 2} <= merged_at


@pytest.mark.parametrize(
    "polytope", [build_cross(6), build_fermat(5)], ids=["cross6", "fermat5"]
)
def test_suffix_walk_matches_reference_on_top_face_slices(polytope):
    """The 6-cross-polytope's slices collapse many rows into few suffixes;
    ``6 Delta_5``'s (the Fermat sextic) collapse none."""
    cone_rows = homogenize(polytope.facets)
    identity = IntMatrix.identity(polytope.dim + 1)
    for m in range(5):
        for interior in (False, True):
            rows, k = slice_system(cone_rows, (), identity, m, interior)
            feasible, levels = scan.prepare_levels(rows, k)
            if feasible:
                assert scan.count_levels(levels) == reference_count_levels(levels)


def ehrhart_numerator(count, d):
    """The numerator of ``sum_m count(m) t^m`` over ``(1 - t)^(d + 1)``,
    for ``count`` a polynomial of degree ``d``."""
    values = [count(m) for m in range(d + 1)]
    return [
        sum((-1) ** i * comb(d + 1, i) * values[n - i] for i in range(n + 1))
        for n in range(d + 1)
    ]


def test_six_dimensional_phi_matches_closed_form_ehrhart_numerators():
    """An oracle outside the scan: ``m`` times the 6-cube holds
    ``(2m + 1)^6`` lattice points and ``m`` times the 6-cross-polytope
    ``sum_k 2^k C(6, k) C(m, k)``, so ``phi`` at the identity is the
    numerator of each Ehrhart series."""
    cube = ehrhart_numerator(lambda m: (2 * m + 1) ** 6, 6)
    cross = ehrhart_numerator(
        lambda m: sum(2**k * comb(6, k) * comb(m, k) for k in range(7)), 6
    )
    assert cube == [1, 722, 10543, 23548, 10543, 722, 1]
    assert cross == [1, 6, 15, 20, 15, 6, 1]
    counting.clear_cache()
    for polytope, numerator in ((build_cube(6), cube), (build_cross(6), cross)):
        cx = trivial_complex(polytope)
        assert tables_for(cx).phi.poly(cx.top_index, 0) == UniPoly(numerator)
    counting.clear_cache()


def test_phi_lays_out_the_walk_once_per_coefficient_system(monkeypatch):
    """``phi`` of the 5-cube walks the slices of one family only, the
    5-cross-polytope's top face (the cube's slices are boxes): its walk
    layout is built once, in the plan, and every height reads it."""
    layouts = []
    walk_layout = scan._walk_layout

    def counted_walk_layout(coeffs):
        layouts.append(coeffs)
        return walk_layout(coeffs)

    monkeypatch.setattr(scan, "_walk_layout", counted_walk_layout)
    counting.clear_cache()
    config = {"builtin": "cube", "d": 5, "group": [], "commands": ["phi"]}
    run(parse_config(json.dumps(config)))
    counting.clear_cache()
    assert len(layouts) == 1
    assert [len(level) for level in layouts[0]] == [2, 14, 18, 54, 32]

