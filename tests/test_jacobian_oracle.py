"""Equivariant Hodge numbers of Fermat hypersurfaces against the Jacobian ring.

Let ``X`` be the Fermat hypersurface of degree ``N = d + 1`` in ``P^d``, and
``σ`` a permutation of its ``d + 1`` coordinates.  Griffiths' residue map
(Griffiths, *Ann. of Math.* 1969) identifies ``H^{d-1-q,q}_prim(X)`` with
the degree ``N (q + 1) - (d + 1) = (d + 1) q`` part of the Jacobian ring
``C[x_0..x_d]/(x_i^d)``, twisted by the sign of ``σ``, because the form
``Ω`` picks it up.  The ring has the monomial basis ``x^a`` with
``a ∈ {0..d-1}^{d+1}``, which ``σ`` permutes, so the trace of ``σ`` there
is ``sign(σ)`` times the number of exponent vectors of that degree with
``a∘σ = a``.  Off the middle row ``X`` has the cohomology of ``P^{d-1}``,
on which ``σ`` acts trivially, and on the middle diagonal of an even-
dimensional ``X`` the hyperplane class adds 1.

That closed form needs no polytope, cone or count, so it is an oracle
independent of the package: ``src/`` is used only to build each model and
to name the permutation behind each class representative.  Every class
value of ``hodge_diamond(e_stringy_reflexive(cx))`` is checked against it.
The quintic and fermat3 and fermat2 read their values off the
``(P, Aut(P))`` registry; fermat5's ``|Aut(P)| = 720`` is over the
registry's limit, so it runs on its own tables.
"""

from __future__ import annotations

from itertools import product

import pytest

from equimirror.cli.main import _QUINTIC_GROUPS
from equimirror.cli.models import build_fermat, fermat_permutation
from equimirror.geometry.cones import ConeComplex
from equimirror.groups import generate_group
from equimirror.invariants import e_stringy_reflexive, hodge_diamond

MODELS = (
    *((4, gens) for gens in _QUINTIC_GROUPS.values()),
    (4, ("(12)",)),
    (4, ()),
    (3, ("(12)", "(1234)")),
    (3, ("(12)",)),
    (3, ("(1234)",)),
    (3, ("(123)",)),
    (3, ()),
    (2, ("(12)", "(123)")),
    (2, ("(12)",)),
    (2, ()),
    (5, ("(12)",)),
    (5, ("(123456)",)),
    (5, ("(12)(34)(56)",)),
    (5, ()),
)


def coordinate_permutation(matrix, d: int) -> tuple:
    """The permutation ``σ`` of the coordinates ``0..d`` that ``matrix``
    is on the Fermat lattice, the sum-zero hyperplane of ``Z^{d+1}`` with
    the last coordinate dropped: basis vector ``j`` lifts to
    ``e_j - e_d`` and goes to ``e_σ(j) - e_σ(d)``."""
    perm = []
    for j in range(d):
        column = matrix.apply(tuple(int(i == j) for i in range(d)))
        lifted = column + (-sum(column),)
        assert sorted(lifted) == [-1] + [0] * (d - 1) + [1], lifted
        perm.append(lifted.index(1))
    return tuple(perm) + (lifted.index(-1),)


def cycle_lengths(perm: tuple) -> list:
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def jacobian_hodge(perm: tuple, d: int, p: int, q: int) -> int:
    """The trace of ``perm`` on ``H^{p,q}`` of the degree ``d + 1`` Fermat
    hypersurface in ``P^d`` by the Jacobian ring.  A fixed exponent vector
    is constant on each cycle, so it is one exponent per cycle."""
    if p + q != d - 1:
        return int(p == q)
    lengths = cycle_lengths(perm)
    sign = (-1) ** (len(perm) - len(lengths))
    fixed = sum(
        sum(n * b for n, b in zip(lengths, exponents)) == (d + 1) * q
        for exponents in product(range(d), repeat=len(lengths))
    )
    return sign * fixed + int(p == q and (d - 1) % 2 == 0)


def oracle_diamond(group, d: int):
    """Per class of ``group``, the oracle's diamond at its representative,
    and the quotient diamond: the oracle's average over every element."""
    perms = [coordinate_permutation(g, d) for g in group.elements]
    per_class = [
        [[jacobian_hodge(perms[rep], d, p, q) for q in range(d)] for p in range(d)]
        for rep in group.class_reps
    ]
    quotient = [[0] * d for _ in range(d)]
    for p, q in product(range(d), repeat=2):
        total = sum(jacobian_hodge(perm, d, p, q) for perm in perms)
        assert total % len(perms) == 0
        quotient[p][q] = total // len(perms)
    return per_class, quotient


@pytest.mark.parametrize(
    "d, words", MODELS, ids=[f"fermat{d}-{','.join(w) or 'trivial'}" for d, w in MODELS]
)
def test_fermat_diamond_matches_the_jacobian_ring(d, words):
    group = generate_group([fermat_permutation(w, d) for w in words], rank=d)
    cx = ConeComplex(build_fermat(d), group)
    diamond = hodge_diamond(e_stringy_reflexive(cx))
    per_class, quotient = oracle_diamond(cx.base_group, d)
    for k, expected in enumerate(per_class):
        got = [[diamond.hodge(p, q).values[k] for q in range(d)] for p in range(d)]
        assert got == expected, (words, k)
    assert [list(row) for row in diamond.invariant] == quotient, words


def test_the_jacobian_ring_gives_the_computed_quotient_row():
    """Invariant ``h^{2,1}`` of the quintic under the seven subgroups of
    ``A5`` that criterion 3 names, from the closed form alone: the row the
    package computes there (ROADMAP, "The one failing test")."""
    row = []
    for name in ("Z2", "Z2xZ2", "Z3", "Z5", "A4", "Sym3", "D5"):
        gens = [fermat_permutation(w, 4) for w in _QUINTIC_GROUPS[name]]
        _, quotient = oracle_diamond(generate_group(gens, rank=4), 4)
        row.append(quotient[2][1])
    assert row == [53, 29, 37, 21, 13, 21, 13]
