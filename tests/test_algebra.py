"""Exact polynomial and class-function arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from equimirror.algebra import (
    BiLaurent,
    ClassFun,
    UniPoly,
    series_inverse,
    series_ratio,
)
from equimirror.algebra import bilaurent, unipoly
from equimirror.errors import InexactDivision
from equimirror.groups import generate_group, parse_cycles, permutation_matrix


def test_unipoly_basics():
    p = UniPoly((1, 2, 1))
    assert p.degree == 2
    assert p.coefficient(1) == 2
    assert p.coefficient(5) == 0
    assert p == UniPoly.one() + 2 * UniPoly.monomial(1) + UniPoly.monomial(2)
    assert (UniPoly.one() + UniPoly.monomial(1)) ** 2 == p
    assert p.evaluate(1) == 4
    assert p.evaluate(Fraction(1, 2)) == Fraction(9, 4)
    assert str(UniPoly.zero()) == "0"


def test_unipoly_trims_trailing_zeros():
    assert UniPoly((1, 0, 0)) == UniPoly((1,))
    assert UniPoly((0, 0)).is_zero()
    assert UniPoly(()).degree == -1


def test_exact_div_oracle():
    num = UniPoly((1, 2, 1))
    assert num.exact_div(UniPoly((1, 1))) == UniPoly((1, 1))
    with pytest.raises(InexactDivision):
        UniPoly((1, 1, 1)).exact_div(UniPoly((1, 1)))


def test_reverse_and_palindromes():
    p = UniPoly((1, 12, 14, 12, 1))
    assert p.reverse(4) == p
    assert p != p.reverse(5)
    q = UniPoly((1, 3))
    assert q.reverse(3) == UniPoly((0, 0, 3, 1))


def test_truncate():
    p = UniPoly((1, 1, 1, 1))
    assert p.truncate(1) == UniPoly((1, 1))
    assert p.truncate(-1) == UniPoly.zero()
    # the g cutoff floor((k - 1) / 2) at k = 4 and k = 5
    assert p.truncate((4 - 1) // 2) == UniPoly((1, 1))
    assert p.truncate((5 - 1) // 2) == UniPoly((1, 1, 1))


def test_series_inverse_and_ratio():
    den = UniPoly((1, -1))  # 1 - t
    geom = series_inverse(den, 5)
    assert list(geom) == [Fraction(1)] * 6
    # (1 + t) / (1 - t) = 1 + 2t + 2t^2 + ...
    ratio = series_ratio(UniPoly((1, 1)), den, 4)
    assert list(ratio) == [Fraction(1)] + [Fraction(2)] * 4
    with pytest.raises(ZeroDivisionError):
        series_inverse(UniPoly((0, 1)), 3)


def test_unipoly_random_roundtrips():
    rng = random.Random(20260814)
    for _ in range(120):
        a = UniPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 6))])
        b = UniPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 6))])
        if b.is_zero():
            continue
        product = a * b
        assert product.exact_div(b) == a
        assert product.evaluate(3) == a.evaluate(3) * b.evaluate(3)
        d = max(a.degree, 0)
        assert a.reverse(d).reverse(d) == a


def test_bilaurent_basics():
    uv = BiLaurent.monomial(1, 1)
    one = BiLaurent.one()
    poly = uv - one
    assert poly.coefficient(1, 1) == 1
    assert poly.coefficient(0, 0) == -1
    assert poly.at_one() == 0
    assert (poly * poly).coefficient(2, 2) == 1
    assert poly.is_polynomial()
    assert not (poly * BiLaurent.monomial(-1, 0)).is_polynomial()


def test_bilaurent_from_unipoly_exponent_maps():
    p = UniPoly((1, 2, 3))  # 1 + 2t + 3t^2
    assert BiLaurent.from_unipoly(p, 1, 1) == (
        BiLaurent.one()
        + BiLaurent.monomial(1, 1, 2)
        + BiLaurent.monomial(2, 2, 3)
    )
    # t -> v/u, the substitution used for the Stilde factor
    mixed = BiLaurent.from_unipoly(p, -1, 1)
    assert mixed.coefficient(-2, 2) == 3
    assert mixed.coefficient(-1, 1) == 2


def test_bilaurent_involutions():
    b = BiLaurent.monomial(2, 1, 3) - BiLaurent.monomial(0, 1) + BiLaurent.one()
    assert b.invert_u().invert_u() == b
    assert b.invert_v().invert_v() == b
    assert b.invert_u().invert_v().coefficient(-2, -1) == 3


def test_bilaurent_exact_div():
    a = BiLaurent.monomial(1, 1) - BiLaurent.one()
    b = BiLaurent.monomial(1, 1) + BiLaurent.one()
    assert (a * b).exact_div(a) == b
    # monomials are units: dividing by uv shifts exponents
    shifted = a.exact_div(BiLaurent.monomial(1, 1))
    assert shifted == BiLaurent.one() - BiLaurent.monomial(-1, -1)
    with pytest.raises(InexactDivision):
        (a + BiLaurent.monomial(3, 0)).exact_div(b)
    with pytest.raises(ZeroDivisionError):
        a.exact_div(BiLaurent.zero())


def test_bilaurent_random_roundtrips():
    rng = random.Random(99)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randint(-2, 3), rng.randint(-2, 3))
            terms[key] = terms.get(key, 0) + rng.randint(-4, 4)
        return BiLaurent(terms)

    for _ in range(120):
        a, b = rand_poly(), rand_poly()
        if b.is_zero():
            continue
        assert (a * b).exact_div(b) == a
        assert (a * b).at_one() == a.at_one() * b.at_one()
        assert (a + b).invert_v() == a.invert_v() + b.invert_v()
        assert (a * b).invert_u() == a.invert_u() * b.invert_u()


def test_bilaurent_json_is_sorted():
    b = BiLaurent.monomial(2, 0) + BiLaurent.monomial(0, 1, Fraction(1, 2))
    assert b.to_json() == {"0,1": [1, 2], "2,0": [1, 1]}
    assert list(b.to_json()) == sorted(b.to_json())


# -- the integer-first representation ------------------------------------------
#
# Every stored coefficient is an ``int`` when it is integral and a
# ``Fraction`` with denominator > 1 otherwise.  Results are checked against
# plain ``Fraction`` arithmetic on coefficient lists and dicts.


def assert_int_first(value):
    coeffs = value.coeffs if isinstance(value, UniPoly) else value.terms.values()
    for c in coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def _rand_coeff(rng):
    """Ints, proper fractions and integral Fractions such as 4/2."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-5, 5)
    if kind == 1:
        return Fraction(rng.randint(-5, 5), rng.choice((2, 3)))
    return Fraction(2 * rng.randint(-3, 3), 2)


def _oracle_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    return out


def _oracle_series_ratio(num, den, order):
    inv = [Fraction(1) / den[0]]
    for n in range(1, order + 1):
        s = sum(
            (Fraction(den[k]) * inv[n - k] for k in range(1, min(n, len(den) - 1) + 1)),
            Fraction(0),
        )
        inv.append(-s / den[0])
    return [
        sum((Fraction(num[k]) * inv[n - k] for k in range(min(n, len(num) - 1) + 1)),
            Fraction(0))
        for n in range(order + 1)
    ]


def _trimmed(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_unipoly_coefficients_are_int_first():
    rng = random.Random(20261018)
    for _ in range(150):
        a = [_rand_coeff(rng) for _ in range(rng.randint(1, 5))]
        b = [_rand_coeff(rng) for _ in range(rng.randint(1, 5))]
        pa, pb = UniPoly(a), UniPoly(b)
        assert_int_first(pa)
        total = pa + pb
        longer, shorter = (a, b) if len(a) >= len(b) else (b, a)
        expected = [Fraction(x) for x in longer]
        for i, y in enumerate(shorter):
            expected[i] += y
        assert total.coeffs == _trimmed(expected)
        assert_int_first(total)
        product = pa * pb
        assert product.coeffs == _trimmed(_oracle_mul(a, b))
        assert_int_first(product)
        assert_int_first(pa * Fraction(2, 3))
        k = rng.randint(0, 3)
        rev = pa.reverse(len(a) - 1 + k)
        assert rev.coeffs == _trimmed([0] * k + a[::-1])
        assert_int_first(rev)
        if not pb.is_zero():
            quotient = product.exact_div(pb)
            assert quotient == pa
            assert_int_first(quotient)
        if b[0] != 0:
            order = rng.randint(0, 6)
            series = series_ratio(pa, pb, order)
            assert series == _oracle_series_ratio(a, b, order)
            for c in series:
                assert type(c) is int or c.denominator > 1, repr(c)


def test_unipoly_exact_div_keeps_ints_until_a_true_fraction():
    # the monic divisions of the h recursion stay in plain integers
    num = UniPoly((-1, 0, 0, 0, 1))
    q = num.exact_div(UniPoly((-1, 1)))
    assert q == UniPoly((1, 1, 1, 1))
    assert all(type(c) is int for c in q.coeffs)
    # leading coefficient 2: the quotient is genuinely non-integral
    q = UniPoly((1, 3, 2)).exact_div(UniPoly((2, 2)))
    assert q.coeffs == (Fraction(1, 2), 1)
    assert_int_first(q)
    assert UniPoly((Fraction(1, 2), Fraction(1, 2))).exact_div(UniPoly((1, 1))) == (
        Fraction(1, 2)
    )
    with pytest.raises(InexactDivision):
        UniPoly((1, 0, 1)).exact_div(UniPoly((1, 2)))
    # integral Fractions on the way in come out as ints
    p = UniPoly((Fraction(4, 2), Fraction(1, 2), Fraction(-3, 3)))
    assert [type(c) for c in p.coeffs] == [int, Fraction, int]
    assert hash(p) == hash(UniPoly((2, Fraction(1, 2), -1)))
    assert type(p.evaluate(2)) is int
    assert p.to_json() == {"0": [2, 1], "1": [1, 2], "2": [-1, 1]}


def test_bilaurent_coefficients_are_int_first():
    rng = random.Random(1018)

    def rand_terms():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (rng.randint(-2, 2), rng.randint(-2, 2))
            terms[key] = terms.get(key, 0) + _rand_coeff(rng)
        return terms

    for _ in range(150):
        ta, tb = rand_terms(), rand_terms()
        a, b = BiLaurent(ta), BiLaurent(tb)
        assert_int_first(a)
        expected = {k: Fraction(v) for k, v in ta.items()}
        for k, v in tb.items():
            expected[k] = expected.get(k, Fraction(0)) + v
        total = a + b
        assert total.terms == {k: v for k, v in expected.items() if v}
        assert_int_first(total)
        assert_int_first(a - b)
        expected = {}
        for (p1, q1), c1 in ta.items():
            for (p2, q2), c2 in tb.items():
                key = (p1 + p2, q1 + q2)
                expected[key] = expected.get(key, Fraction(0)) + Fraction(c1) * c2
        product = a * b
        assert product.terms == {k: v for k, v in expected.items() if v}
        assert_int_first(product)
        if not b.is_zero():
            quotient = product.exact_div(b)
            assert quotient == a
            assert_int_first(quotient)
        assert type(a.at_one()) is int or a.at_one().denominator > 1


def test_bilaurent_exact_div_int_first_edges():
    assert all(type(c) is int for c in BiLaurent.one().terms.values())
    assert type(BiLaurent.monomial(1, 2, Fraction(6, 3)).coefficient(1, 2)) is int
    uv = BiLaurent.monomial(1, 1)
    # leading coefficient 2: (uv + 1/2) = (2uv + 1) / 2
    q = (uv * 2 + 1).exact_div(BiLaurent.monomial(0, 0, 2))
    assert q.terms == {(1, 1): 1, (0, 0): Fraction(1, 2)}
    assert_int_first(q)
    q = (uv * uv - 1).exact_div(uv * 2 + 2)
    assert q == uv * Fraction(1, 2) - Fraction(1, 2)
    assert_int_first(q)
    with pytest.raises(InexactDivision):
        (uv * uv + 1).exact_div(uv + 1)
    merged = BiLaurent([((0, 0), Fraction(1, 2)), ((0, 0), Fraction(1, 2))])
    assert merged.terms == {(0, 0): 1}
    assert_int_first(merged)


def _sym3():
    return generate_group(
        [
            permutation_matrix(parse_cycles("(12)"), 3),
            permutation_matrix(parse_cycles("(123)"), 3),
        ]
    )


def test_classfun_average_and_invariant_dim():
    group = _sym3()
    assert group.order == 6
    # the permutation character of the natural action: fixed points
    values = tuple(Fraction(rep.trace()) for rep in group.class_rep_elements())
    chi = ClassFun(group, values)
    # natural representation = trivial + standard, so one invariant line
    assert chi.invariant_dim() == 1
    broken = ClassFun(group, tuple(v + Fraction(1, 3) for v in values))
    with pytest.raises(ValueError):
        broken.invariant_dim()
    # plain int values average to a plain int
    ints = ClassFun(group, tuple(rep.trace() for rep in group.class_rep_elements()))
    assert type(ints.average()) is int
    assert ints.invariant_dim() == 1
    assert type(ClassFun(group, (1,) * len(group.classes)).average()) is int


def test_classfun_induce_matches_orbit_counts():
    """Induction of the trivial character counts fixed cosets.

    For Sym3 and the subgroup generated by one transposition the induced
    character is the permutation character on 3 points.
    """
    group = _sym3()
    sub = generate_group([permutation_matrix(parse_cycles("(12)"), 3)])
    triv = ClassFun(sub, (Fraction(1),) * len(sub.classes))
    induced = triv.induce(group)
    natural = ClassFun(
        group, tuple(Fraction(rep.trace()) for rep in group.class_rep_elements())
    )
    assert induced == natural
    # Frobenius reciprocity for the trivial characters
    assert induced.invariant_dim() == 1


def test_classfun_induce_matches_textbook_formula():
    """Induction from non-abelian subgroups of Sym4 with polynomial values
    agrees with ``(1/|H|) * sum over x in G with x^-1 g x in H`` of the
    value at ``x^-1 g x``, evaluated here by conjugating with every ``x``."""
    from equimirror.groups import inverse_unimodular

    def perms(*words):
        return generate_group([permutation_matrix(parse_cycles(w), 4) for w in words])

    rng = random.Random(1011)
    parent = perms("(12)", "(1234)")
    for sub in (perms("(12)", "(123)"), perms("(13)", "(1234)"),
                perms("(123)", "(12)(34)"), parent):
        chi = ClassFun(
            sub,
            tuple(UniPoly([rng.randint(-4, 4) for _ in range(3)]) for _ in sub.classes),
        )
        expected = []
        for g in parent.class_rep_elements():
            total = UniPoly.zero()
            for x in parent.elements:
                y = inverse_unimodular(x) @ g @ x
                if y in sub.index_of:
                    total = total + chi.value_of(y)
            expected.append(total * Fraction(1, sub.order))
        assert chi.induce(parent).values == tuple(expected)


def test_classfun_restrict_roundtrip():
    group = _sym3()
    sub = generate_group([permutation_matrix(parse_cycles("(123)"), 3)])
    chi = ClassFun(
        group, tuple(Fraction(rep.trace()) for rep in group.class_rep_elements())
    )
    res = chi.restrict(sub)
    assert res.group is sub
    assert res.value_of(sub.elements[0]) == chi.value_of(sub.elements[0])


def test_classfun_polynomial_average():
    group = generate_group(
        [permutation_matrix(parse_cycles("(12)"), 2)]
    )
    fn = ClassFun(group, (UniPoly((1, 1)), UniPoly((1, -1))))
    # class order: identity sorts after the swap matrix, so check via value_of
    avg = fn.average()
    assert avg == UniPoly((1,)) or avg == UniPoly((1, 0))
    assert avg == UniPoly.one()


# -- the quotient store ----------------------------------------------------------


def _oracle_div(num, den):
    """Long division on ``Fraction`` coefficient lists, as ``exact_div`` ran
    before it kept its quotients: the canonical quotient coefficients, or
    None when a remainder is left."""
    rem = [Fraction(c) for c in num]
    quo = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(den) - 1] / den[-1]
        quo[k] = c
        for i, d in enumerate(den):
            rem[k + i] -= c * d
    if any(rem):
        return None
    return tuple(
        c.numerator if c.denominator == 1 else c for c in _trimmed(quo)
    )


def test_quotient_store_keeps_exact_quotients_and_never_a_remainder():
    """``exact_div`` keeps each quotient by the coefficients of the pair:
    on seeded random polynomials, ``Fraction`` coefficients included, the
    first and every repeat call give the quotient long division gives, a
    pair that leaves a remainder raises on every call and is never kept,
    and ``counting.clear_cache`` empties the store."""
    from equimirror.geometry import counting

    counting.clear_cache()
    assert not unipoly._quotients
    rng = random.Random(20261020)
    exact = inexact = 0
    for _ in range(200):
        a = UniPoly([_rand_coeff(rng) for _ in range(rng.randint(1, 5))])
        b = UniPoly([_rand_coeff(rng) for _ in range(rng.randint(1, 4))])
        if a.is_zero() or b.is_zero():
            continue
        r = UniPoly([_rand_coeff(rng) for _ in range(b.degree)])
        for num in (a * b, a * b + r):
            expected = _oracle_div(num.coeffs, b.coeffs)
            key = (num.coeffs, b.coeffs)
            if expected is None:
                for _ in range(3):
                    with pytest.raises(InexactDivision):
                        num.exact_div(b)
                assert key not in unipoly._quotients
                inexact += 1
                continue
            first = num.exact_div(b)
            assert first.coeffs == expected
            assert_int_first(first)
            assert unipoly._quotients[key] is first
            for _ in range(2):
                again = num.exact_div(b)
                assert again.coeffs == expected
                assert_int_first(again)
            exact += 1
    assert exact > 150 and inexact > 50
    assert any(
        type(c) is Fraction for q in unipoly._quotients.values() for c in q.coeffs
    )
    counting.clear_cache()
    assert not unipoly._quotients


# -- the accumulate kernels --------------------------------------------------------
#
# The face sums add each term's coefficient products into one list or map
# and build one polynomial at the end.  Every sum here is compared with the
# operator arithmetic it replaces: a product and a partial sum per term.


def _kernel_terms(rng, fractions):
    """Seeded terms ``(s, a, b)``: signs of both kinds, empty operands, and
    ``int`` or (with ``fractions``) mixed coefficients, zeros included."""

    def operand():
        n = rng.choice((0, 1, 2, 3, 4, 5))
        if fractions:
            return UniPoly([_rand_coeff(rng) for _ in range(n)]).coeffs
        return UniPoly([rng.randint(-4, 4) for _ in range(n)]).coeffs

    return [
        (rng.choice((1, -1, 2, -3)), operand(), operand())
        for _ in range(rng.randint(0, 5))
    ]


def _uv_term(s, shift, a, b):
    """``s * u^shift * a(v/u) * b(uv)`` as the Laurent operators build it."""
    return (
        BiLaurent.monomial(shift, 0, s)
        * BiLaurent.from_unipoly(UniPoly(a), -1, 1)
        * BiLaurent.from_unipoly(UniPoly(b), 1, 1)
    )


def test_accumulate_matches_the_operator_sum():
    rng = random.Random(20261022)
    for trial in range(400):
        terms = _kernel_terms(rng, fractions=trial % 2 == 1)
        # every other sum also subtracts its own terms again: it cancels to 0
        if trial % 3 == 0:
            terms += [(-s, a, b) for s, a, b in terms]
        acc = []
        expected = UniPoly.zero()
        for s, a, b in terms:
            unipoly.accumulate(acc, s, a, b)
            expected = expected + UniPoly(a) * UniPoly(b) * s
        got = unipoly._built(acc)
        assert got.coeffs == expected.coeffs
        assert_int_first(got)
        if trial % 3 == 0:
            assert got.is_zero()


def test_accumulate_edges():
    acc = []
    unipoly.accumulate(acc, 1, (), (1, 2))
    unipoly.accumulate(acc, -1, (3,), ())
    assert acc == [] and unipoly._built(acc).is_zero()
    # a longer accumulator is not cut to the product's length
    acc = [0, 0, 0, 7]
    unipoly.accumulate(acc, -1, (1, 1), (1,))
    assert unipoly._built(acc) == UniPoly((-1, -1, 0, 7))
    # a Fraction sum that comes out integral is stored as an int
    acc = []
    unipoly.accumulate(acc, 1, (Fraction(1, 2),), (1, Fraction(1, 3)))
    unipoly.accumulate(acc, 1, (Fraction(1, 2),), (1, Fraction(5, 3)))
    got = unipoly._built(acc)
    assert got.coeffs == (1, 1) and [type(c) for c in got.coeffs] == [int, int]
    # a Fraction sum that cancels leaves no trailing zero behind
    acc = []
    unipoly.accumulate(acc, 1, (1, Fraction(1, 2)), (1, 1))
    unipoly.accumulate(acc, -1, (0, Fraction(1, 2)), (1, 1))
    assert unipoly._built(acc).coeffs == (1, 1)


def test_accumulate_uv_matches_the_operator_sum():
    rng = random.Random(1022)
    for trial in range(400):
        terms = [
            (s, rng.randint(-2, 4), a, b)
            for s, a, b in _kernel_terms(rng, fractions=trial % 2 == 1)
        ]
        if trial % 3 == 0:
            terms += [(-s, shift, a, b) for s, shift, a, b in terms]
        # the affine sum starts from the torus value's terms
        start = BiLaurent.zero()
        if trial % 5 == 0:
            start = BiLaurent.from_unipoly(UniPoly([_rand_coeff(rng) for _ in "abc"]), 1, 1)
        out = dict(start.terms)
        expected = start
        for s, shift, a, b in terms:
            bilaurent.accumulate_uv(out, s, shift, a, b)
            expected = expected + _uv_term(s, shift, a, b)
        got = bilaurent._built(out)
        assert got.terms == expected.terms
        assert_int_first(got)
        if trial % 3 == 0 and start.is_zero():
            assert got.is_zero()


def test_accumulate_uv_edges():
    out = {}
    bilaurent.accumulate_uv(out, 1, 3, (), (1, 2))
    bilaurent.accumulate_uv(out, -1, 0, (3,), ())
    assert bilaurent._built(out).is_zero()
    # t^k of a and t^m of b meet at u^(shift - k + m) v^(k + m)
    out = {}
    bilaurent.accumulate_uv(out, -2, 1, (0, 1), (0, 0, 3))
    assert out == {(2, 3): -6}
    # a Fraction sum that comes out integral is stored as an int
    out = {}
    bilaurent.accumulate_uv(out, 1, 0, (Fraction(1, 2),), (1,))
    bilaurent.accumulate_uv(out, 1, 0, (Fraction(3, 2),), (1,))
    got = bilaurent._built(out)
    assert got.terms == {(0, 0): 2} and type(got.terms[(0, 0)]) is int
