"""Finite groups of unimodular integer matrices.

A :class:`MatrixGroup` is the closure of a generating set of integer
matrices with determinant +1 or -1.  Every group (:func:`generate_group`,
:func:`stabilizer`, ``MatrixGroup(...)``) keeps its elements sorted
lexicographically by their rows; every deterministic iteration order in
the package (conjugacy classes, class representatives, report layouts)
derives from that single convention.

Groups are built on permutations, with no matrix products.  The orbit of
the basis vectors ``e_1..e_n`` is the set of all columns of all elements;
every element permutes it, and an element is determined by its *base
image*, the positions of ``g e_1..g e_n`` in the orbit, which are its
columns (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, 2005, ch. 4).  The closure, the inverses and the conjugacy
classes compose these permutations and key elements by base image.

A group keeps its closure, and there is one way to build one
(:meth:`MatrixGroup._close`).  It takes candidate matrices in order and
makes one a generator only when the closure so far does not hold it; a
generator's determinant is checked and its permutation read with
``apply``, one image per point, and each new element's permutation is a
generator's composed with a known one.  A product of unimodular
generators is unimodular, so nothing is checked per element.
:func:`generate_group` hands it the given generators; ``MatrixGroup``
hands it an element set, sorted, with the closure capped at the set's
size, which checks closure under multiplication in full.  The group
keeps its ``generators`` and one triple ``(x, g, a)`` with ``x = g a``
per other element, so anything else that respects products, such as the
action on faces (:class:`~equimirror.geometry.cones.ConeComplex`), is
computed on the generators and composed along the triples.

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
    hermite = hnf_rows(
        IntMatrix._derived(tuple(r + e for r, e in zip(matrix.rows, identity.rows)))
    )
    return IntMatrix._derived(tuple(r[n:] for r in hermite.rows))


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


def generate_group(
    generators: Sequence[IntMatrix],
    cap: int = GROUP_CAP_DEFAULT,
    rank: int | None = None,
) -> "MatrixGroup":
    """Close a generating set under multiplication.

    Every generator's determinant is checked, the orbit of the basis
    vectors under the generators is found, and the closure
    (:meth:`MatrixGroup._close`) runs on permutations of that orbit with
    the generators as its candidates, so the ``generators`` the group
    records are those given that are not in the closure of the ones
    before them, in the given order.

    An empty generating set is the identity alone (of the given ``rank``,
    defaulting to 1, since nothing else pins the rank down).  Raises
    :class:`NonInvertible` for a generator whose determinant is not +-1,
    and :class:`CapExceeded` as soon as the closure grows past ``cap``
    elements, or the orbit past ``cap * n`` points (which a group within
    the cap cannot reach, and an infinite group always passes).
    """
    gens = [g if isinstance(g, IntMatrix) else IntMatrix(g) for g in generators]
    if not gens:
        gens = [IntMatrix.identity(rank if rank else 1)]
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
    group = MatrixGroup.__new__(MatrixGroup)
    group._close(gens, points, cap)
    return group


class MatrixGroup:
    """A finite group of unimodular integer matrices, given by its full element set.

    The element set must contain the identity and be closed under
    multiplication.  Every element permutes the orbit of the basis
    vectors (the set of all columns of all elements) and is keyed by its
    base image, the positions of its columns in that orbit.  The inverse
    of ``g`` is read off the inverted permutation: its column ``j`` is the
    point that ``g`` sends to ``e_j``.  Closure is checked in full: the
    set's elements, sorted, are the candidates of the closure
    (:meth:`_close`), capped at the set's size.  Every element the
    closure reaches is a product of elements of the set and every element
    of the set is reached, so the set is a group exactly when no
    generator maps a point off the orbit and the closure stays within the
    cap; any other set raises ``ValueError``.  Only the generators'
    determinants are taken.

    The group records how it was generated: ``generators``, the indices
    of its generators (never the identity), and ``closure``, one triple
    ``(x, g, a)`` per other element with ``x = g a``, ``g`` a generator
    and ``a`` the identity or an element of an earlier triple.  A map
    that respects products (a permutation action) is therefore known on
    every element once it is known on the generators.
    """

    def __init__(self, elements: Iterable[IntMatrix]):
        unique = set(elements)
        if not unique:
            raise ValueError("a group needs at least the identity")
        els = sorted(unique)
        n = els[0].nrows
        if any(g.shape != (n, n) for g in els):
            raise ValueError("elements must be square matrices of equal size")
        if IntMatrix.identity(n) not in unique:
            raise ValueError("element set does not contain the identity")
        points = set().union(*(zip(*g.rows) for g in els))
        self._close(els, points, len(els), from_set=True)

    def _close(
        self,
        candidates: Sequence[IntMatrix],
        points: Iterable[Tuple[int, ...]],
        cap: int,
        from_set: bool = False,
    ) -> None:
        """The closure both constructors end in, on permutations of
        ``points``, a set holding the basis vectors and every column of
        every candidate, sorted and keyed by position.

        The candidates are taken in order, and one becomes a generator only
        when the closure so far does not hold it; its permutation is read
        with ``apply``, the position of its image of each point (-1 off the
        set), one pass over the points per generator.  The closure is then
        extended at once: each element is multiplied by each generator
        once, ``|G|`` compositions per generator, the permutation of
        ``g a`` being ``g``'s composed with ``a``'s.  Each new element
        ``x = g a`` is recorded as ``(x, g, a)``, a generator as ``(g, g,
        identity)``, and keyed by its base image, off which its matrix is
        read.  The elements are then sorted and every index renumbered;
        inverses are read off the permutations and the classes built.

        For an element set (``from_set``) a generator's determinant is
        checked here, and one that maps a point off the orbit, or a closure
        past ``cap`` (the set's size), raises ``ValueError``.  For
        :func:`generate_group`, which checked the determinants and the
        orbit, a closure past ``cap`` raises :class:`CapExceeded`.  A
        product of unimodular generators is unimodular, so no other
        determinant is taken."""
        points = sorted(points)
        position = {p: i for i, p in enumerate(points)}
        basis: Base = tuple(
            position[e] for e in IntMatrix.identity(len(points[0])).rows
        )
        perms: List[Base] = [tuple(range(len(points)))]
        bases: List[Base] = [basis]
        found: Dict[Base, int] = {basis: 0}
        closure: List[Tuple[int, int, int]] = []
        generators: List[int] = []
        moves: List[Tuple[int, Callable[[int], int]]] = []

        def add(perm: Base, g: int, a: int) -> None:
            """Record the element with permutation ``perm`` as ``g a`` if
            it is new."""
            base = tuple(map(perm.__getitem__, basis))
            if base not in found:
                x = len(perms)
                if x >= cap:
                    if from_set:
                        raise ValueError("element set is not closed under multiplication")
                    raise CapExceeded(f"group closure exceeded the cap of {cap} elements")
                found[base] = x
                perms.append(perm)
                bases.append(base)
                closure.append((x, g, a))

        a = 1  # elements 1 .. a - 1 were multiplied by every generator
        for candidate in candidates:
            base = tuple(map(position.__getitem__, zip(*candidate.rows)))
            if base in found:
                continue
            if from_set:
                d = det(candidate)
                if d not in (1, -1):
                    raise NonInvertible(f"matrix has determinant {d}, not +-1")
            perm = tuple([position.get(candidate.apply(p), -1) for p in points])
            if -1 in perm:
                raise ValueError("element set is not closed under multiplication")
            x = len(perms)
            generators.append(x)
            add(perm, x, 0)
            move = perm.__getitem__
            for b in range(1, a):  # the known elements times the new generator
                add(tuple(map(move, perms[b])), x, b)
            moves.append((x, move))
            while a < len(perms):  # perms grows as the closure runs
                perm = perms[a]
                for g, move in moves:
                    add(tuple(map(move, perm)), g, a)  # the permutation of g a
                a += 1

        column = points.__getitem__
        elements = [IntMatrix._derived(tuple(zip(*map(column, b)))) for b in bases]
        order = sorted(range(len(elements)), key=[g.rows for g in elements].__getitem__)
        renumber = [0] * len(order)
        for i, old in enumerate(order):
            renumber[old] = i
        self.elements: Tuple[IntMatrix, ...] = tuple(elements[i] for i in order)
        self.dim = len(basis)
        self.index_of: Dict[IntMatrix, int] = {g: i for i, g in enumerate(self.elements)}
        self.identity_index: int = renumber[0]
        bases = [bases[i] for i in order]
        perms = [perms[i] for i in order]
        by_base = dict(zip(bases, range(len(order))))
        inverse = [-1] * len(order)
        for i, perm in enumerate(perms):
            if inverse[i] < 0:
                j = by_base[tuple(map(perm.index, basis))]
                inverse[i] = j
                inverse[j] = i
        self._inverse: List[int] = inverse
        self.generators: Tuple[int, ...] = tuple(renumber[g] for g in generators)
        self.closure: Tuple[Tuple[int, int, int], ...] = tuple(
            (renumber[x], renumber[g], renumber[a]) for x, g, a in closure
        )
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
                xg = by_base[tuple(map(x_inv, base))]  # x^-1 r, then times x
                m = by_base[tuple(map(after[xg], x_base))]
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
        classes, conjugating elements, centralizers, generators and
        closure triples as they are."""
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
