"""Exact Laurent polynomials in two variables ``u`` and ``v``.

Hodge-style invariants live in ``Z[u, v, u^-1, v^-1]``: intermediate
expressions routinely carry negative exponents (for example after the
substitution ``t -> v/u``) even though the end results are honest
polynomials.  :class:`BiLaurent` stores a sparse map ``(p, q) -> c`` and
supports the handful of exact operations the invariant formulas need,
including exact division with a hard failure when a division does not come
out evenly.  Coefficients follow the integer-first rule of
:mod:`equimirror.algebra.unipoly` (``_coerce`` and ``_div``): an integral
value is an ``int``, only a non-integral one is a ``fractions.Fraction``.
The stringy and affine face sums add each term ``s * u^j * a(v/u) *
b(uv)`` into one term map with :func:`accumulate_uv` and build one Laurent
polynomial per sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Sequence, Tuple

from ..errors import InexactDivision
from .unipoly import _INT, UniPoly, _coerce, _div

Key = Tuple[int, int]


class BiLaurent:
    """Sparse exact Laurent polynomial in ``u`` (first exponent) and ``v``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Key, object] | Iterable[Tuple[Key, object]] = ()):
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        clean: Dict[Key, object] = {}
        for (p, q), c in items:
            key = (int(p), int(q))
            if key in clean:
                c = clean[key] + c
            if type(c) is not int:
                c = _coerce(c)
            if c != 0:
                clean[key] = c
            else:
                clean.pop(key, None)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("BiLaurent is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> BiLaurent:
        return cls({})

    @classmethod
    def one(cls) -> BiLaurent:
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, p: int, q: int, c=1) -> BiLaurent:
        return cls({(p, q): c})

    @classmethod
    def from_unipoly(cls, poly: UniPoly, u_exp: int, v_exp: int) -> BiLaurent:
        """Substitute ``t -> u^u_exp * v^v_exp`` into a one-variable polynomial.

        ``from_unipoly(p, 1, 1)`` is ``p(uv)``; ``from_unipoly(p, -1, 1)``
        is ``p(v/u)``.
        """
        return cls(
            {(k * u_exp, k * v_exp): c for k, c in enumerate(poly.coeffs) if c != 0}
        )

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, p: int, q: int):
        return self.terms.get((p, q), 0)

    def is_polynomial(self) -> bool:
        return all(p >= 0 and q >= 0 for p, q in self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, BiLaurent):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == BiLaurent({(0, 0): other}).terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> BiLaurent:
        other = _as_bilaurent(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return _built(out)

    __radd__ = __add__

    def __neg__(self) -> BiLaurent:
        return BiLaurent({key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> BiLaurent:
        other = _as_bilaurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> BiLaurent:
        return _as_bilaurent(other) + (-self)

    def __mul__(self, other) -> BiLaurent:
        if isinstance(other, (int, Fraction)):
            return _built({key: c * other for key, c in self.terms.items()})
        if not isinstance(other, BiLaurent):
            return NotImplemented
        out: Dict[Key, object] = {}
        for (p1, q1), c1 in self.terms.items():
            for (p2, q2), c2 in other.terms.items():
                key = (p1 + p2, q1 + q2)
                out[key] = out.get(key, 0) + c1 * c2
        return _built(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> BiLaurent:
        if n < 0:
            raise ValueError("negative powers are only defined for monomials")
        out = BiLaurent.one()
        for _ in range(n):
            out = out * self
        return out

    def exact_div(self, divisor: BiLaurent) -> BiLaurent:
        """Divide by ``divisor`` in the Laurent ring, or raise :class:`InexactDivision`.

        Monomials are units here, so both operands are first normalised by
        factoring out their smallest ``u`` and ``v`` exponents; the quotient
        of the normalised parts is computed by single-divisor lexicographic
        reduction and the monomial shift is restored at the end.
        """
        if not isinstance(divisor, BiLaurent):
            divisor = _as_bilaurent(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if self.is_zero():
            return BiLaurent({})
        num_shift, num = _strip_monomial(self)
        den_shift, den = _strip_monomial(divisor)
        lead_key = max(den)
        lead_c = den[lead_key]
        rem = dict(num)
        quo: Dict[Key, object] = {}
        while rem:
            key = max(rem)
            p, q = key[0] - lead_key[0], key[1] - lead_key[1]
            if p < 0 or q < 0:
                raise InexactDivision(f"{self!r} is not divisible by {divisor!r}")
            factor = _div(rem[key], lead_c)
            quo[(p, q)] = factor
            for (dp, dq), dc in den.items():
                k2 = (p + dp, q + dq)
                s = rem.get(k2, 0) - factor * dc
                if s == 0:
                    rem.pop(k2, None)
                else:
                    rem[k2] = s
        shift_p = num_shift[0] - den_shift[0]
        shift_q = num_shift[1] - den_shift[1]
        return BiLaurent(
            {(p + shift_p, q + shift_q): c for (p, q), c in quo.items()}
        )

    # -- substitutions --------------------------------------------------------

    def invert_u(self) -> BiLaurent:
        """Substitute ``u -> 1/u``."""
        return BiLaurent({(-p, q): c for (p, q), c in self.terms.items()})

    def invert_v(self) -> BiLaurent:
        """Substitute ``v -> 1/v``."""
        return BiLaurent({(p, -q): c for (p, q), c in self.terms.items()})

    def at_one(self):
        """Evaluate at ``u = v = 1``."""
        return _coerce(sum(self.terms.values(), 0))

    # -- presentation -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"BiLaurent({self!s})"

    def __str__(self) -> str:
        """Terms by total degree, then by ``u`` exponent: ``1 - v - u + uv``,
        ``3*u^(-1)v^2``; the text reports print."""
        if not self.terms:
            return "0"
        parts = []
        for (p, q) in sorted(self.terms, key=lambda k: (k[0] + k[1], k[0])):
            c = self.terms[(p, q)]
            body = _power("u", p) + _power("v", q)
            if not body:
                body = str(abs(c))
            elif abs(c) != 1:
                body = f"{abs(c)}*{body}"
            parts.append(f"-{body}" if c < 0 else body)
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        """Map ``"p,q" -> [numerator, denominator]`` with sorted keys."""
        return {
            f"{p},{q}": [c.numerator, c.denominator]
            for (p, q), c in sorted(self.terms.items())
        }


_set_terms = BiLaurent.terms.__set__


def _built(out: Dict[Key, object]) -> BiLaurent:
    """``BiLaurent(out)`` for a map computed from the terms of clean Laurent
    polynomials, whose keys are pairs of ``int``.  When every coefficient is
    an ``int`` only the zero terms are dropped; otherwise the normalising
    constructor runs, which keeps the integer-first rule."""
    if not _INT.issuperset(map(type, out.values())):
        return BiLaurent(out)
    value = object.__new__(BiLaurent)
    _set_terms(value, {key: c for key, c in out.items() if c})
    return value


def accumulate_uv(out: Dict[Key, object], s, shift: int, a: Sequence, b: Sequence) -> None:
    """Add ``s * u^shift * a(v/u) * b(uv)`` into the term map ``out`` in place.

    ``a`` and ``b`` are the coefficient sequences of one-variable
    polynomials, constant term first: ``t^k`` of ``a`` and ``t^m`` of ``b``
    meet at ``u^(shift - k + m) v^(k + m)``.  This is the product form of
    the stringy and affine face sums; each sum adds every face's term into
    one map and builds one Laurent polynomial at the end with
    :func:`_built`, which drops the terms that cancelled."""
    get = out.get
    for k, x in enumerate(a):
        if x:
            x *= s
            p = shift - k
            for m, y in enumerate(b):
                if y:
                    key = (p + m, k + m)
                    out[key] = get(key, 0) + x * y


def _power(var: str, e: int) -> str:
    if e == 0:
        return ""
    if e == 1:
        return var
    return f"{var}^{e}" if e > 0 else f"{var}^({e})"


def _as_bilaurent(value):
    if isinstance(value, BiLaurent):
        return value
    if isinstance(value, (int, Fraction)):
        return BiLaurent({(0, 0): value})
    if isinstance(value, UniPoly):
        raise TypeError("substitute the variable explicitly with from_unipoly")
    return NotImplemented


def _strip_monomial(poly: BiLaurent):
    """Factor out ``u^a v^b`` with ``a``, ``b`` the minimal exponents."""
    a = min(p for p, _ in poly.terms)
    b = min(q for _, q in poly.terms)
    return (a, b), {(p - a, q - b): c for (p, q), c in poly.terms.items()}
