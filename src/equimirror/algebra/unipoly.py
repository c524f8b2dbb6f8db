"""Exact univariate polynomials over the rationals.

A :class:`UniPoly` is a dense, immutable coefficient vector with no
trailing zeros.  Coefficients are integer-first: an integral value is
stored as an ``int`` and only a non-integral one as a
``fractions.Fraction`` (with denominator > 1).  :func:`_coerce` is that
rule and :func:`_div` divides under it, with ``divmod`` when both operands
are integers; :mod:`equimirror.algebra.bilaurent` uses the same two
helpers.  Almost every division in the package is by a monic
characteristic polynomial, so in practice the coefficients stay plain
integers.  Everything that manipulates one-variable polynomials
(characteristic polynomials, h/g recursions, numerators of lattice-point
series) goes through this class, so all arithmetic stays exact: there is
no floating point anywhere downstream.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Sequence, Tuple

from ..errors import InexactDivision, NegativeExponent

Rational = Fraction


def _coerce(value):
    """Canonical form of an exact coefficient: ``int`` when integral."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool and other int subclasses
        return int(value)
    raise TypeError(f"expected an integer or Fraction, got {type(value).__name__}")


def _div(a, b):
    """Exact quotient ``a / b`` in canonical form (``b`` nonzero)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coerce(Fraction(a, b))


class UniPoly:
    """Polynomial in one variable ``t`` with exact rational coefficients.

    ``UniPoly([1, 7, 1])`` is ``1 + 7*t + t^2``.  Instances are immutable
    and hashable; the zero polynomial has an empty coefficient tuple and
    degree ``-1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if type(c) is int else _coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("UniPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> UniPoly:
        return cls(())

    @classmethod
    def one(cls) -> UniPoly:
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, c=1) -> UniPoly:
        if k < 0:
            raise NegativeExponent(f"monomial exponent {k} is negative")
        return cls((0,) * k + (c,))

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- ring operations -----------------------------------------------

    def __add__(self, other) -> UniPoly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(map(add, a, b))
        out.extend(a[len(b):])
        return _built(out)

    __radd__ = __add__

    def __neg__(self) -> UniPoly:
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> UniPoly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> UniPoly:
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> UniPoly:
        if isinstance(other, (int, Fraction)):
            return _built([c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return _built(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> UniPoly:
        if n < 0:
            raise NegativeExponent("cannot raise a polynomial to a negative power")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, divisor: UniPoly) -> UniPoly:
        """Return ``self / divisor``, raising :class:`InexactDivision` on a remainder.

        Each quotient is computed once per process: it is kept in a store
        keyed by the coefficients of both operands (:func:`clear_quotients`
        empties it).  A division with a remainder is not kept, so it raises
        on every call."""
        if not isinstance(divisor, UniPoly):
            divisor = UniPoly((divisor,))
        key = (self.coeffs, divisor.coeffs)
        hit = _quotients.get(key)
        if hit is not None:
            return hit
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return UniPoly(())
        rem = list(self.coeffs)
        dc = divisor.coeffs
        dn = len(dc)
        if len(rem) < dn:
            raise InexactDivision(f"{self!r} is not divisible by {divisor!r}")
        lead = dc[-1]
        quo = [0] * (len(rem) - dn + 1)
        for k in range(len(quo) - 1, -1, -1):
            c = rem[k + dn - 1]
            if c:
                c = _div(c, lead)
                quo[k] = c
                for i, d in enumerate(dc):
                    rem[k + i] -= c * d
        if any(rem):
            raise InexactDivision(f"{self!r} is not divisible by {divisor!r}")
        value = _quotients[key] = _built(quo)
        return value

    # -- substitutions and reshaping -------------------------------------

    def truncate(self, max_degree: int) -> UniPoly:
        """Drop every term of degree greater than ``max_degree``."""
        if max_degree < 0:
            return UniPoly(())
        return UniPoly(self.coeffs[: max_degree + 1])

    def reverse(self, k: int) -> UniPoly:
        """Return ``t^k * p(1/t)``; requires ``deg(p) <= k``."""
        if self.degree > k:
            raise NegativeExponent(
                f"cannot reverse degree-{self.degree} polynomial at exponent {k}"
            )
        out = [0] * (k + 1 - len(self.coeffs))
        out.extend(reversed(self.coeffs))
        return _built(out)

    def is_palindromic(self, k: int) -> bool:
        """True when ``p(t) = t^k * p(1/t)``."""
        return self.degree <= k and self == self.reverse(k)

    def evaluate(self, x):
        """Evaluate at ``x`` (Horner); ``x`` may be rational or a UniPoly."""
        acc = UniPoly(()) if isinstance(x, UniPoly) else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc if isinstance(acc, UniPoly) else _coerce(acc)

    # -- presentation ----------------------------------------------------

    def __repr__(self) -> str:
        return f"UniPoly({self!s})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            else:
                var = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    term = var
                elif c == -1:
                    term = f"-{var}"
                else:
                    term = f"{c}*{var}"
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def to_json(self) -> dict:
        """Exponent-keyed map of ``[numerator, denominator]`` pairs."""
        return {
            str(i): [c.numerator, c.denominator]
            for i, c in enumerate(self.coeffs)
            if c != 0
        }


_INT = frozenset((int,))
_set_coeffs = UniPoly.coeffs.__set__


def _built(cs: list) -> UniPoly:
    """``UniPoly(cs)`` for a list computed from the coefficients of clean
    polynomials.  When every entry is an ``int`` it is already in canonical
    form, so only its trailing zeros are dropped; otherwise the normalising
    constructor runs, which keeps the integer-first rule."""
    if not _INT.issuperset(map(type, cs)):
        return UniPoly(cs)
    while cs and not cs[-1]:
        cs.pop()
    poly = object.__new__(UniPoly)
    _set_coeffs(poly, tuple(cs))
    return poly


# exact quotients by (dividend coefficients, divisor coefficients), kept for
# the process; only data, so any caller's division of the same pair hits it
_quotients: Dict[Tuple[tuple, tuple], UniPoly] = {}


def clear_quotients() -> None:
    """Forget every quotient :meth:`UniPoly.exact_div` has kept."""
    _quotients.clear()


def _as_poly(value):
    if isinstance(value, UniPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return UniPoly((value,))
    return NotImplemented


def truncate_tau(p: UniPoly, bound) -> UniPoly:
    """Keep only terms of degree at most ``floor(bound)``.

    ``bound`` may be a half-integer, as in the g-polynomial truncation
    where the cutoff is ``(dim - 1) / 2``.
    """
    if isinstance(bound, Fraction):
        cut = bound.numerator // bound.denominator
    else:
        cut = int(bound)
    return p.truncate(cut)


def series_inverse(p: UniPoly, order: int) -> Sequence:
    """Coefficients of the power series ``1/p`` up to degree ``order``.

    The constant term of ``p`` must be nonzero.  Coefficients follow the
    integer-first rule of :class:`UniPoly`.
    """
    if p.coefficient(0) == 0:
        raise ZeroDivisionError("series inverse needs a nonzero constant term")
    c0 = p.coefficient(0)
    inv = [_div(1, c0)]
    for n in range(1, order + 1):
        s = 0
        for k in range(1, min(n, p.degree) + 1):
            s += p.coefficient(k) * inv[n - k]
        inv.append(_div(-s, c0))
    return inv


def series_ratio(num: UniPoly, den: UniPoly, order: int) -> Sequence:
    """Coefficients of ``num/den`` as a power series up to degree ``order``."""
    inv = series_inverse(den, order)
    out = []
    for n in range(order + 1):
        s = 0
        for k in range(0, min(n, num.degree) + 1):
            s += num.coefficient(k) * inv[n - k]
        out.append(_coerce(s))
    return out
