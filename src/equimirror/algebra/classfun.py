"""Class functions on a finite matrix group.

A :class:`ClassFun` assigns one value to each conjugacy class of a group,
stored in the group's canonical class order.  The values are usually
rational numbers (ordinary characters), but the same container works for
polynomial-valued data — one univariate or two-variable polynomial per
class — which is how every equivariant invariant in this package is
returned.  :class:`ClassPoly` is a thin alias kept for readability.

The group object only needs the interface provided by
:class:`equimirror.groups.MatrixGroup`: ``elements``, ``order``,
``classes``, ``class_sizes``, ``class_rep_elements``,
``class_index_of_element`` and ``index_of``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..errors import SubgroupMismatch
from .unipoly import _coerce


def _same_group(a, b) -> bool:
    """Same group, possibly as two objects.

    The element tuple determines the class data, so element equality is
    enough to make values comparable position by position.
    """
    return a is b or a.elements == b.elements


class ClassFun:
    """One value per conjugacy class, aligned with ``group.classes``."""

    __slots__ = ("group", "values")

    def __init__(self, group, values: Sequence):
        if len(values) != len(group.classes):
            raise SubgroupMismatch(
                f"expected {len(group.classes)} class values, got {len(values)}"
            )
        self.group = group
        self.values = tuple(values)

    # -- access ----------------------------------------------------------

    def value_at_class(self, k: int):
        return self.values[k]

    def value_of(self, element):
        """Value at the conjugacy class of ``element`` (a matrix in the group)."""
        return self.values[self.group.class_index_of_element(element)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFun):
            return NotImplemented
        return _same_group(self.group, other.group) and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.group.elements, self.values))

    def __repr__(self) -> str:
        body = ", ".join(str(v) for v in self.values)
        return f"ClassFun[{body}]"

    # -- pointwise algebra --------------------------------------------------

    def _check(self, other: ClassFun):
        if not _same_group(self.group, other.group):
            raise SubgroupMismatch("class functions live on different groups")

    def __add__(self, other) -> ClassFun:
        if isinstance(other, ClassFun):
            self._check(other)
            return ClassFun(
                self.group, tuple(a + b for a, b in zip(self.values, other.values))
            )
        return ClassFun(self.group, tuple(a + other for a in self.values))

    __radd__ = __add__

    def __neg__(self) -> ClassFun:
        return ClassFun(self.group, tuple(-a for a in self.values))

    def __sub__(self, other) -> ClassFun:
        return self + (-other if isinstance(other, ClassFun) else -1 * other)

    def __mul__(self, other) -> ClassFun:
        if isinstance(other, ClassFun):
            self._check(other)
            return ClassFun(
                self.group, tuple(a * b for a, b in zip(self.values, other.values))
            )
        return ClassFun(self.group, tuple(a * other for a in self.values))

    __rmul__ = __mul__

    def map(self, fn) -> ClassFun:
        """Apply ``fn`` to every class value."""
        return ClassFun(self.group, tuple(fn(v) for v in self.values))

    # -- averaging over the group ---------------------------------------------

    def average(self):
        """``(1/|G|) * sum over g`` of the values; works for polynomial values too."""
        total = None
        for size, value in zip(self.group.class_sizes, self.values):
            term = value * size
            total = term if total is None else total + term
        return _scale(total, Fraction(1, self.group.order))

    def invariant_dim(self) -> int:
        """Dimension of the invariant subspace of a rational character.

        The average of a character over the group is always a nonnegative
        integer; anything else means the input was not a character.
        """
        avg = self.average()
        if type(avg) is not int or avg < 0:
            raise ValueError(f"not a character: group average is {avg}")
        return avg

    # -- moving between groups --------------------------------------------------

    def restrict(self, subgroup) -> ClassFun:
        """Restrict to a subgroup (classes of the subgroup may merge or split)."""
        return ClassFun(
            subgroup,
            tuple(self.value_of(g) for g in subgroup.class_rep_elements()),
        )

    def induce(self, parent) -> ClassFun:
        """Induce from this group up to ``parent``.

        The standard formula sums the value at ``x^-1 g x`` over the ``x``
        in ``G`` that conjugate ``g`` into ``H`` and divides by ``|H|``.
        Each member of ``g``'s class is hit ``|G| / |class|`` times, so the
        induced value is ``|G| / (|class| |H|)`` times the sum of the
        values at the class members in ``H``.
        """
        sub = self.group
        vals = []
        for members, size in zip(parent.classes, parent.class_sizes):
            inside = (parent.elements[m] for m in members)
            terms = [self.value_of(y) for y in inside if y in sub.index_of]
            total = sum(terms[1:], terms[0]) if terms else self.values[0] * 0
            vals.append(_scale(total, Fraction(parent.order, size * sub.order)))
        return ClassFun(parent, tuple(vals))


def _scale(value, factor: Fraction):
    """``value * factor``, a scalar result in the integer-first form."""
    out = value * factor
    return _coerce(out) if isinstance(out, Fraction) else out


# Polynomial-valued class functions use the same machinery; the alias keeps
# signatures readable at call sites that return one polynomial per class.
ClassPoly = ClassFun
