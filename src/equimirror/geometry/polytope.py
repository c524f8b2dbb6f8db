"""Full-dimensional lattice polytopes with exact facet data and their
checked face lattices.

A polytope is stored by its (sorted, deduplicated) integer vertices, its
facet inequalities ``a . x <= b`` with primitive normals, and the face
lattice of the cone over it (the polytope placed at height one).  Facets
can be supplied by the caller — the builtin models know theirs — and are
validated; otherwise they are found by a brute-force hyperplane search
through vertex subsets, which is fine for the small hand-written inputs
that reach this path.  The lattice is built on vertex bitmasks
(:func:`_enumerate_faces`) and checked (:func:`_check_lattice`) once per
polytope; a polar dual reads it upside down.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import DimensionCap, NotAFaceLattice, NotReflexive
from ..records import Frozen
from . import counting
from .intlinalg import (
    IntMatrix,
    _as_int,
    _as_int_row,
    det,
    hnf_rows,
    integer_kernel,
    primitive,
    vec_dot,
    vec_gcd,
    vec_sub,
)

MAX_DIM = 6
MAX_VERTICES = 64
_SEARCH_BUDGET = 400_000

Vector = Tuple[int, ...]
Facet = Tuple[Vector, int]


class Face(Frozen):
    """One face of the cone: the vertices spanning it, the facets it lies
    on, its cone dimension (apex 0) and ``mask``, the bitmask of
    ``vertex_ids``, which :meth:`ConeComplex.leq` and
    :meth:`ConeComplex.interval` compare."""

    __slots__ = ("index", "vertex_ids", "tight", "dim", "mask")

    def __init__(
        self,
        index: int,
        vertex_ids: Tuple[int, ...],
        tight: Tuple[int, ...],
        dim: int,
        mask: int,
    ):
        self._fill(index, vertex_ids, tight, dim, mask)


class LatticePolytope(Frozen):
    """An integral polytope of full dimension ``d`` in ``Z^d`` with the
    face lattice of the cone over it: ``faces`` in lexicographic order of
    vertex ids (the apex first) and, per face, ``below``, the faces below
    it, ascending, itself and the apex included.

    Each given facet is checked alone: a primitive integer form, supporting,
    meeting the vertices in rank ``d - 1``, listed once; it is then a facet
    of ``conv(V)``.  The lattice check makes the list complete and every
    point a vertex, so the facets bound and each vertex lies on ``d`` of
    them.  With none listed, no vertex is a face of its own.  Otherwise,
    the facets of ``conv(V)`` being connected through ridges, a missing
    facet ``F`` meets a listed ``G`` in a ridge ``R`` that no other listed
    facet contains, so ``R`` is no face found: for ``d <= 2`` a vertex is
    then no face of its own (not atomic), for ``d >= 3`` an interval below
    ``G`` is not thin.
    """

    __slots__ = ("vertices", "dim", "facets", "_cone_rows", "faces", "below")

    def __init__(
        self,
        vertices: Iterable[Sequence[int]],
        facets: Optional[Iterable[Tuple[Sequence[int], int]]] = None,
    ):
        verts = tuple(sorted(set(map(_as_int_row, vertices))))
        if not verts:
            raise ValueError("a polytope needs at least one vertex")
        d = len(verts[0])
        if any(len(v) != d for v in verts):
            raise ValueError("vertices of mixed dimension")
        if d < 1:
            raise ValueError("vertices need at least one coordinate")
        if d > MAX_DIM:
            raise DimensionCap(f"ambient dimension {d} exceeds the cap {MAX_DIM}")
        if len(verts) > MAX_VERTICES:
            raise DimensionCap(f"{len(verts)} vertices exceed the cap {MAX_VERTICES}")
        if _affine_rank(verts) != d:
            raise ValueError("vertices do not span the ambient space")
        if facets is None:
            fs = _search_facets(verts, d)
        else:
            fs = _validate_facets(verts, d, facets)
        self._setup(verts, fs, *_enumerate_faces(verts, fs))

    def _setup(self, vertices, facets, faces, below) -> None:
        """Set the fields from the vertices, the facets, the faces and the
        faces below each one; shared by ``__init__`` and
        :meth:`dual_reflexive`."""
        dim = len(vertices[0])
        self._fill(vertices, dim, facets, counting.homogenize(facets), faces, below)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticePolytope):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"LatticePolytope(dim={self.dim}, vertices={len(self.vertices)})"

    # -- geometry ------------------------------------------------------------

    @property
    def cone_rows(self) -> Tuple[Vector, ...]:
        """Homogenised facet rows of the cone over the polytope."""
        return self._cone_rows

    # -- reflexivity -----------------------------------------------------------

    def is_reflexive(self) -> bool:
        """True when every facet has lattice distance one from the origin."""
        return all(b == 1 for _, b in self.facets)

    def simplex_automorphisms(self) -> Tuple[IntMatrix, ...]:
        """``Aut(P)`` of a simplex: the unimodular maps preserving it.

        The ``d + 1`` vertices span ``R^d``, so ``d`` of them, the rows of
        ``W``, are a basis, and a vertex permutation ``s`` is the action of
        at most one linear map ``L``: the one with ``det W * L^T = adj(W)
        W_s``, ``W_s`` the images of the rows.  Each of the ``(d + 1)!``
        permutations is kept when that product is divisible by ``det W``
        and ``L`` sends the last vertex where ``s`` does.  Then ``L`` is
        integral and ``L P = P``, so ``|det L| = 1``."""
        verts, d = self.vertices, self.dim
        if len(verts) != d + 1:
            raise ValueError(f"{len(verts)} vertices, not a simplex in Z^{d}")
        for rest in range(d, -1, -1):
            basis = [i for i in range(d + 1) if i != rest]
            rows = [verts[i] for i in basis]
            scale = det(IntMatrix._derived(tuple(rows)))
            if scale:
                break
        # adj(W) = det W * W^-1 has the (k, c) cofactor of W at (c, k)
        cofactors = [
            [
                (-1) ** (k + c) * det(IntMatrix._derived(tuple(
                    r[:c] + r[c + 1:] for i, r in enumerate(rows) if i != k
                )))
                for c in range(d)
            ]
            for k in range(d)
        ]
        # row k of W_s being vertex v adds cofactor (k, c) * v[r] to
        # det W * L[r][c]; flat, row by row
        terms = [
            [tuple(cof[c] * v[r] for r in range(d) for c in range(d)) for v in verts]
            for cof in cofactors
        ]
        out = []
        for perm in permutations(range(d + 1)):
            scaled = [
                sum(x) for x in zip(*(t[perm[i]] for t, i in zip(terms, basis)))
            ]
            if any(x % scale for x in scaled):
                continue
            entries = [x // scale for x in scaled]
            matrix = IntMatrix._derived(
                tuple(tuple(entries[r * d:r * d + d]) for r in range(d))
            )
            if matrix.apply(verts[rest]) == verts[perm[rest]]:
                out.append(matrix)
        return tuple(out)

    def dual_reflexive(self) -> LatticePolytope:
        """The polar dual of a reflexive polytope (its vertices are integral
        exactly then), read off this lattice upside down and not checked
        again.  Dual vertex ``j`` is facet normal ``j`` and dual facet ``j``
        is ``v_j . x <= 1`` (both lists sorted), so dual face ``i`` is face
        ``i`` with vertices and facets swapped, dimension ``cdim - dim`` and
        the faces above it below it; its apex is not face 0."""
        if not self.is_reflexive():
            raise NotReflexive("polar dual requires all facet offsets equal to one")
        cdim = self.dim + 1
        faces = tuple(
            Face(f.index, f.tight, f.vertex_ids, cdim - f.dim, _mask(f.tight))
            for f in self.faces
        )
        above = [[] for _ in self.faces]
        for g, below in enumerate(self.below):
            for f in below:
                above[f].append(g)
        dual = LatticePolytope.__new__(LatticePolytope)
        dual._setup(
            tuple(a for a, _ in self.facets),
            tuple((v, 1) for v in self.vertices),
            faces,
            tuple(map(tuple, above)),
        )
        return dual


def _validate_facets(
    verts: Tuple[Vector, ...], d: int, facets: Iterable[Tuple[Sequence[int], int]]
) -> Tuple[Facet, ...]:
    out: List[Facet] = []
    for a, b in facets:
        av = _as_int_row(a)
        bv = _as_int(b)
        if len(av) != d:
            raise ValueError("facet normal of wrong dimension")
        g = vec_gcd(av)
        if g == 0:
            raise ValueError("zero facet normal")
        if bv % g:
            raise ValueError(f"facet {av} . x <= {bv} has no primitive integer form")
        av = tuple(x // g for x in av)
        bv //= g
        support = max(vec_dot(av, v) for v in verts)
        if support != bv:
            raise ValueError(f"facet {av} . x <= {bv} is not supporting (max {support})")
        tight = [v for v in verts if vec_dot(av, v) == bv]
        if _affine_rank(tight) != d - 1:
            raise ValueError(f"hyperplane {av} . x = {bv} does not meet in a facet")
        out.append((av, bv))
    canon = tuple(sorted(set(out)))
    if len(canon) != len(out):
        raise ValueError("duplicate facets")
    return canon


def _affine_rank(points: Sequence[Vector]) -> int:
    if len(points) <= 1:
        return len(points) - 1
    m = IntMatrix._derived(tuple(vec_sub(p, points[0]) for p in points[1:]))
    return hnf_rows(m).nrows


def _search_facets(verts: Tuple[Vector, ...], d: int) -> Tuple[Facet, ...]:
    """Brute-force hyperplane search through d-subsets of the vertices."""
    if comb(len(verts), d) > _SEARCH_BUDGET:
        raise DimensionCap(
            "facet search would be too large; supply the facets explicitly"
        )
    found = {}
    for subset in combinations(range(len(verts)), d):
        rows = IntMatrix._derived(tuple(verts[i] + (1,) for i in subset))
        kern = integer_kernel(rows)
        if kern.nrows != 1:
            continue
        normal = primitive(kern.rows[0])
        a, negb = normal[:d], normal[d]
        values = [vec_dot(a, v) for v in verts]
        b = -negb
        if all(x <= b for x in values):
            pass
        elif all(x >= b for x in values):
            a, b = tuple(-x for x in a), -b
            values = [-x for x in values]
        else:
            continue
        key = (a, b)
        if key in found:
            continue
        tight = [v for v, x in zip(verts, values) if x == b]
        if _affine_rank(tight) == d - 1:
            found[key] = True
    return tuple(sorted(found))


# -- the face lattice ----------------------------------------------------------


def _mask(ids) -> int:
    """The bitmask of a set of indices."""
    return sum(1 << i for i in ids)


def _members(mask: int) -> Tuple[int, ...]:
    """The set bits of ``mask``, low to high."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _enumerate_faces(vertices, facets) -> Tuple[Tuple[Face, ...], tuple]:
    """Every face, by closing the facets' vertex bitmasks under
    intersection, numbered in lexicographic order of vertex ids, and per
    face the indices of the faces below it, ascending.

    A face's vertex set is the intersection of its tight facets' (the
    apex's, of all of them), so the faces below ``f`` are the meet of the
    per-facet face bitmasks over ``f``'s tight facets.  A face's dimension
    is one more than the largest below it (the apex's is 0), found in order
    of how many faces lie below; :func:`_check_lattice` then rejects a
    lattice that is not a polytope's."""
    facet_masks = [
        _mask(
            i for i, v in enumerate(vertices)
            if sum(x * y for x, y in zip(a, v)) == b
        )
        for a, b in facets
    ]
    found = set(facet_masks)
    found.add((1 << len(vertices)) - 1)
    found.add(0)
    frontier = list(found)
    while frontier:
        fresh = []
        for s in frontier:
            for t in facet_masks:
                meet = s & t
                if meet not in found:
                    found.add(meet)
                    fresh.append(meet)
        frontier = fresh

    lattice = sorted((_members(s), s) for s in found)
    tights = [
        tuple(i for i, t in enumerate(facet_masks) if s & t == s) for _, s in lattice
    ]
    on_facet = [0] * len(facet_masks)
    for f, tight in enumerate(tights):
        for i in tight:
            on_facet[i] |= 1 << f
    everything = (1 << len(lattice)) - 1
    below_masks = []
    for tight in tights:
        faces_below = everything
        for i in tight:
            faces_below &= on_facet[i]
        below_masks.append(faces_below)
    below = tuple(_members(s) for s in below_masks)
    dims = [0] * len(lattice)
    for f in sorted(range(len(lattice)), key=lambda f: len(below[f])):
        dims[f] = max((dims[g] + 1 for g in below[f] if g != f), default=0)
    _check_lattice(vertices, lattice, below_masks, dims)
    faces = tuple(
        Face(f, vertex_ids, tights[f], dims[f], s)
        for f, (vertex_ids, s) in enumerate(lattice)
    )
    return faces, below


def _check_lattice(vertices, lattice, below_masks, dims) -> None:
    """Raise :class:`NotAFaceLattice` unless the faces found form the face
    lattice of a polytope with these vertices: it must be atomic (each
    vertex is a face of its own), graded (each face covers only faces one
    dimension lower) and thin (each interval of length two has exactly two
    faces strictly inside).  A facet missing from a validated list, or a
    listed point that is not a vertex, breaks one of the three.

    Covers are bitmasks over face indices: those of face ``f`` are the faces
    of dimension ``dim f - 1`` below it, every face below ``f`` must lie
    below one of them, and each face of dimension ``dim f - 2`` below ``f``
    must lie below exactly two."""

    def named(f: int) -> str:
        return str([list(vertices[i]) for i in lattice[f][0]])

    faces = {s for _, s in lattice}
    for i, v in enumerate(vertices):
        if 1 << i not in faces:
            raise NotAFaceLattice(
                f"point {list(v)} is no face on its own: it is not a vertex,"
                " or a facet through it is missing"
            )
    by_dim = [0] * (max(dims) + 1)
    for f, k in enumerate(dims):
        by_dim[k] |= 1 << f
    for f, k in enumerate(dims):
        if k == 0:
            continue
        strict = below_masks[f] & ~(1 << f)
        reached = once = twice = more = 0
        for c in _members(strict & by_dim[k - 1]):
            reached |= below_masks[c]
            if k > 1:
                x = below_masks[c] & by_dim[k - 2]
                more |= twice & x
                twice |= once & x
                once |= x
        if reached != strict:
            raise NotAFaceLattice(
                f"face {named(f)} covers a face more than one dimension lower;"
                " a facet is missing"
            )
        if twice != once or more:
            g = _members((once & ~twice) | more)[0]
            raise NotAFaceLattice(
                f"faces {named(g)} < {named(f)} do not have exactly two faces"
                " between them; a facet is missing"
            )
