"""Finite groups of unimodular integer matrices.

A :class:`MatrixGroup` is the closure of a generating set of integer
matrices with determinant +1 or -1.  A group built from an element set
(:func:`generate_group`, :func:`stabilizer`, ``MatrixGroup(...)``) keeps
its elements sorted lexicographically by their rows; every deterministic
iteration order in the package (conjugacy classes, class
representatives, report layouts) derives from that single convention.

Groups are built on permutations, with no matrix products.  The orbit of
the basis vectors ``e_1..e_n`` is the set of all columns of all elements;
every element permutes it, and an element is determined by its *base
image*, the positions of ``g e_1..g e_n`` in the orbit, which are its
columns (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, 2005, ch. 4).  The closure, the inverses and the conjugacy
classes compose these permutations and key elements by base image.

Derived groups (contragredient, homogenized) are images
(:meth:`MatrixGroup.image`): element ``i`` of an image is the image of
element ``i``, so an image keeps its source's order and shares its
inverses and classes, and an element and its contragredient have one
index.

The module also provides generic orbit and stabilizer computations for
group actions on finite sets, and the conjugation-transpose "dual"
homomorphism that matches a group acting on a lattice with the induced
group acting on the dual lattice.
"""

from __future__ import annotations

import copy
from math import lcm
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .errors import CapExceeded, NonInvertible, NotAnAction, SubgroupMismatch
from .geometry.intlinalg import IntMatrix, det, hnf_rows

GROUP_CAP_DEFAULT = 10080

Base = Tuple[int, ...]


def inverse_unimodular(matrix: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +1 or -1.

    Row operations turn ``[M | I]`` into ``[U M | U]``.  For a unimodular
    ``M`` the row Hermite form of ``M`` is the identity, so the Hermite
    form of ``[M | I]`` is ``[I | M^-1]`` and the inverse is its right
    block.
    """
    d = det(matrix)
    if d not in (1, -1):
        raise NonInvertible(f"matrix has determinant {d}, not +-1")
    n = matrix.nrows
    identity = IntMatrix.identity(n)
    hermite = hnf_rows(IntMatrix([r + e for r, e in zip(matrix.rows, identity.rows)]))
    return IntMatrix([r[n:] for r in hermite.rows])


def _perm_order(perm: Base) -> int:
    """The order of a permutation: the lcm of its cycle lengths."""
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = perm[p]
            length += 1
        if length:
            order = lcm(order, length)
    return order


class _Orbit:
    """A finite set of points holding the basis vectors, sorted, and the
    action on it of a matrix given by its base image.

    The image of a point ``p`` under ``g`` is ``sum_k p_k g e_k``, so it
    depends only on the nonzero coefficients of ``p`` and the base image
    at their positions; it is memoised on those.
    """

    def __init__(self, points: Iterable[Tuple[int, ...]], n: int):
        self.points = sorted(points)
        self.position = {p: i for i, p in enumerate(self.points)}
        self.basis: Base = tuple(self.position[e] for e in IntMatrix.identity(n).rows)
        self._terms: List[Tuple[Base, Base]] = []
        for p in self.points:
            support = tuple(k for k, c in enumerate(p) if c)
            self._terms.append((support, tuple(p[k] for k in support)))
        self._memo: Dict[tuple, int] = {}

    def base_of(self, columns: Sequence[Tuple[int, ...]]) -> Base:
        return tuple(map(self.position.__getitem__, columns))

    def images(self, base: Base) -> Base:
        """Position of ``g p`` for every point ``p``, where ``g`` has base
        image ``base``; -1 where ``g p`` is not a point of the set."""
        memo, points, out = self._memo, self.points, []
        for support, coeffs in self._terms:
            key = (coeffs, *map(base.__getitem__, support))
            j = memo.get(key)
            if j is None:
                cols = [points[q] for q in key[1:]]
                image = tuple(
                    sum(c * x for c, x in zip(coeffs, row)) for row in zip(*cols)
                )
                j = memo[key] = self.position.get(image, -1)
            out.append(j)
        return tuple(out)


def generate_group(
    generators: Sequence[IntMatrix],
    cap: int = GROUP_CAP_DEFAULT,
    rank: int | None = None,
) -> "MatrixGroup":
    """Close a generating set under multiplication.

    The orbit of the basis vectors under the generators is found first;
    the closure then runs on base images, each new one the image of a
    known one under a generator's permutation of that orbit, and each
    element's matrix is read off its base image.

    An empty generating set yields the trivial group (of the given
    ``rank``, defaulting to 1, since nothing else pins the rank down).
    Raises :class:`NonInvertible` for a generator whose determinant is not
    +-1, and :class:`CapExceeded` as soon as the closure grows past ``cap``
    elements, or the orbit past ``cap * n`` points (which a group within
    the cap cannot reach, and an infinite group always passes).
    """
    gens = [g if isinstance(g, IntMatrix) else IntMatrix(g) for g in generators]
    if not gens:
        return MatrixGroup([IntMatrix.identity(rank if rank else 1)])
    n = gens[0].nrows
    if rank is not None and rank != n:
        raise ValueError(f"generators have rank {n}, not the requested {rank}")
    for g in gens:
        if not g.is_square() or g.nrows != n:
            raise ValueError("generators must be square matrices of equal size")
        if det(g) not in (1, -1):
            raise NonInvertible(f"generator {g!r} has determinant {det(g)}")
    limit = cap * n
    points = set(IntMatrix.identity(n).rows)
    frontier = list(points)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g.apply(p)
                if q not in points:
                    if len(points) >= limit:
                        raise CapExceeded(
                            f"the orbit of the basis vectors exceeded {limit} points,"
                            f" so the group exceeds the cap of {cap} elements"
                        )
                    points.add(q)
                    nxt.append(q)
        frontier = nxt
    orbit = _Orbit(points, n)
    moves = [orbit.images(orbit.base_of(g.columns())).__getitem__ for g in gens]
    seen = {orbit.basis}
    frontier = [orbit.basis]
    while frontier:
        nxt = []
        for a in frontier:
            for move in moves:
                b = tuple(map(move, a))  # the base image of g a
                if b not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(
                            f"group closure exceeded the cap of {cap} elements"
                        )
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    column = orbit.points.__getitem__
    return MatrixGroup(IntMatrix(zip(*map(column, b))) for b in seen)


class MatrixGroup:
    """A finite group of unimodular integer matrices, given by its full element set.

    The element set must contain the identity and be closed under
    inversion and multiplication.  Every element permutes the orbit of
    the basis vectors (the set of all columns of all elements) and is
    keyed by its base image, the positions of its columns in that orbit.
    The inverse of ``g`` is read off the inverted permutation: its column
    ``j`` is the point that ``g`` sends to ``e_j``.  Closure under
    multiplication is checked only partly: every element must map the
    orbit into itself, and the products ``x^-1 r`` and ``x^-1 r x`` that
    building the conjugacy classes forms for each class representative
    ``r`` must be elements.  That rejects every abelian non-group (there
    every element is a representative), but it is not a full ``|G|^2``
    product check.
    """

    def __init__(self, elements: Iterable[IntMatrix]):
        els = sorted(set(elements))
        if not els:
            raise ValueError("a group needs at least the identity")
        self.elements: Tuple[IntMatrix, ...] = tuple(els)
        self.dim = n = els[0].nrows
        self.index_of: Dict[IntMatrix, int] = {g: i for i, g in enumerate(els)}
        identity = self.index_of.get(IntMatrix.identity(n))
        if identity is None:
            raise ValueError("element set does not contain the identity")
        self.identity_index: int = identity
        if any(g.shape != (n, n) for g in els):
            raise ValueError("elements must be square matrices of equal size")
        columns = [tuple(zip(*g.rows)) for g in els]
        orbit = _Orbit(set().union(*columns), n)
        bases = [orbit.base_of(c) for c in columns]
        by_base = dict(zip(bases, range(len(els))))
        perms: List[Base] = [()] * len(els)
        self._inverse: List[int] = [-1] * len(els)
        into_orbit = True
        for i, g in enumerate(els):
            if self._inverse[i] >= 0:
                continue
            d = det(g)
            if d not in (1, -1):
                raise NonInvertible(f"matrix has determinant {d}, not +-1")
            perm = perms[i] = orbit.images(bases[i])
            try:
                j = by_base.get(tuple(map(perm.index, orbit.basis)))
            except ValueError:  # some e_j is not the image of a point
                j = None
            if j is None:
                raise ValueError("element set is not closed under inversion")
            self._inverse[i] = j
            self._inverse[j] = i
            if -1 in perm:
                into_orbit = False
            elif j != i:
                perms[j] = tuple(sorted(range(len(perm)), key=perm.__getitem__))
        if not into_orbit:
            raise ValueError("element set is not closed under multiplication")
        self._build_classes(bases, by_base, perms)

    # -- structure ----------------------------------------------------------

    def _build_classes(
        self, bases: List[Base], by_base: Dict[Base, int], perms: List[Base]
    ) -> None:
        """Conjugacy classes, plus what :meth:`conjugator` and
        :meth:`centralizer` read: for every member ``m = x^-1 r x`` of the
        class of ``r``, one transporter ``x`` (so ``x m x^-1 = r``), and
        the ``x`` with ``x^-1 r x = r``.  Products are formed on base
        images: ``h g`` has base image ``perm(h)`` applied to that of ``g``.
        A representative's order is that of its permutation of the orbit,
        which spans the lattice: the lcm of its cycle lengths."""
        after = [p.__getitem__ for p in perms]
        before = [after[j] for j in self._inverse]
        target = [-1] * len(bases)
        transporter = [-1] * len(bases)
        self._target, self._transporter = target, transporter
        self._centralizers: Dict[int, Tuple[int, ...]] = {}
        classes, orders = [], []
        for i, base in enumerate(bases):
            if target[i] >= 0:
                continue
            members = []
            fixing = []
            for x_idx, (x_inv, x_base) in enumerate(zip(before, bases)):
                xg = by_base.get(tuple(map(x_inv, base)))  # x^-1 r, then times x
                m = None if xg is None else by_base.get(tuple(map(after[xg], x_base)))
                if m is None:
                    raise ValueError("element set is not closed under multiplication")
                if target[m] < 0:
                    target[m] = i
                    transporter[m] = x_idx
                    members.append(m)
                if m == i:
                    fixing.append(x_idx)
            self._centralizers[i] = tuple(fixing)
            classes.append(tuple(sorted(members)))
            orders.append(_perm_order(perms[i]))
        # classes are found in order of their smallest member, which is
        # also the representative and every member's target
        self.classes: Tuple[Tuple[int, ...], ...] = tuple(classes)
        self.class_reps: Tuple[int, ...] = tuple(c[0] for c in classes)
        self.class_sizes: Tuple[int, ...] = tuple(len(c) for c in classes)
        self.class_orders: Tuple[int, ...] = tuple(orders)
        class_of = {r: k for k, r in enumerate(self.class_reps)}
        self._class_of_index: Tuple[int, ...] = tuple(class_of[r] for r in target)

    def image(self, hom: Callable[[IntMatrix], IntMatrix]) -> "MatrixGroup":
        """The image under an injective homomorphism ``hom``, element ``i``
        going to element ``i``: the image shares this group's inverses,
        classes, conjugating elements and centralizers as they are."""
        out = copy.copy(self)
        out.elements = tuple(hom(g) for g in self.elements)
        out.dim = out.elements[0].nrows
        out.index_of = {g: i for i, g in enumerate(out.elements)}
        if len(out.index_of) != len(out.elements):
            raise ValueError("homomorphism is not injective on the group")
        return out

    @property
    def order(self) -> int:
        return len(self.elements)

    def inv(self, a: IntMatrix) -> IntMatrix:
        return self.elements[self._inverse[self.index_of[a]]]

    def conjugator(self, e: int) -> Tuple[int, int]:
        """``(x, r)`` with ``x e x^-1 = r``, where ``r`` is the one element
        of ``e``'s class that every member is conjugated to (indices)."""
        return self._transporter[e], self._target[e]

    def centralizer(self, r: int) -> Tuple[int, ...]:
        """Indices of the centralizer of ``r``, a target of :meth:`conjugator`."""
        return self._centralizers[r]

    def class_of(self, e: int) -> int:
        """The index of the conjugacy class of the element with index ``e``."""
        return self._class_of_index[e]

    def class_index_of_element(self, element: IntMatrix) -> int:
        idx = self.index_of.get(element)
        if idx is None:
            raise SubgroupMismatch(f"{element!r} is not in this group")
        return self._class_of_index[idx]

    def class_rep_elements(self) -> Tuple[IntMatrix, ...]:
        return tuple(self.elements[i] for i in self.class_reps)

    def __repr__(self) -> str:
        return f"MatrixGroup(order={self.order}, dim={self.dim})"

    # -- dual action ----------------------------------------------------------------

    def dual_element(self, g: IntMatrix) -> IntMatrix:
        """Inverse-transpose, the induced action on the dual lattice."""
        return self.inv(g).transpose()

    def dual_group(self) -> "MatrixGroup":
        return self.image(self.dual_element)


def orbits(
    group: MatrixGroup,
    items: Sequence,
    act: Callable[[IntMatrix, object], object],
) -> List[Tuple]:
    """Orbits of a group action on a finite set of hashable items.

    ``act(g, item)`` must land back inside ``items`` for every ``g``;
    anything else raises :class:`NotAnAction`.  Orbits are returned sorted
    by their smallest member's position in ``items``.
    """
    index = {item: i for i, item in enumerate(items)}
    if len(index) != len(items):
        raise NotAnAction("duplicate items in the action set")
    seen = set()
    out: List[Tuple] = []
    for start, item in enumerate(items):
        if start in seen:
            continue
        # the images of one item under every element are its whole orbit
        orbit = set()
        for g in group.elements:
            img = act(g, item)
            j = index.get(img)
            if j is None:
                raise NotAnAction(f"action image {img!r} left the item set")
            orbit.add(j)
        seen |= orbit
        out.append(tuple(items[j] for j in sorted(orbit)))
    return out


def stabilizer(
    group: MatrixGroup,
    item,
    act: Callable[[IntMatrix, object], object],
) -> MatrixGroup:
    """The subgroup of elements fixing ``item`` under ``act``."""
    return MatrixGroup(g for g in group.elements if act(g, item) == item)


# -- permutation input ------------------------------------------------------------


def parse_cycles(word: str) -> Dict[int, int]:
    """Parse disjoint-cycle notation like ``"(12)(34)"`` into a 1-based map.

    Points are the single digits 1-9, which covers permutation degrees up
    to 9; anything else raises ``ValueError``.
    """
    word = word.replace(" ", "")
    if not word:
        return {}
    perm: Dict[int, int] = {}
    i = 0
    while i < len(word):
        if word[i] != "(":
            raise ValueError(f"expected '(' at position {i} in {word!r}")
        j = word.find(")", i)
        if j < 0:
            raise ValueError(f"unclosed cycle at position {i} in {word!r}")
        points = word[i + 1 : j]
        if any(ch not in "123456789" for ch in points):
            raise ValueError(f"cycle {word[i:j+1]!r} has a point outside 1-9")
        cycle = [int(ch) for ch in points]
        if len(set(cycle)) != len(cycle) or not cycle:
            raise ValueError(f"bad cycle {word[i:j+1]!r}")
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if a in perm:
                raise ValueError(f"point {a} appears in two cycles of {word!r}")
            perm[a] = b
        i = j + 1
    return perm


def permutation_matrix(perm: Dict[int, int], n: int) -> IntMatrix:
    """The ``n x n`` matrix sending basis vector ``e_k`` to ``e_perm(k)``."""
    rows = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        rows[perm.get(k, k) - 1][k - 1] = 1
    return IntMatrix(rows)
