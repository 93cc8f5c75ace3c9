"""Exact rational scalars and dense univariate polynomial algebra.

Scalars are ``fractions.Fraction`` values: arbitrary precision, always in
lowest terms with positive denominator, never rounded.  ``Poly`` is a dense
univariate polynomial over them, normalized so the coefficient list carries
no trailing zeros.  Everything downstream (moment tables, Gram matrices,
recurrence-generated sequences) is built on these two types, so equality
checks elsewhere in the package mean exact identity, not closeness.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

RationalLike = Union[Fraction, int, str]

#: Degree of the zero polynomial.  A distinct sentinel (not -1) so that
#: degree arithmetic like deg(p) + deg(q) stays honest for zero operands.
NEG_INF = float("-inf")


def rat(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or ``"num/den"`` string to an exact Fraction.

    Floats are rejected on purpose: admitting them would silently launder
    rounding error into the exact layer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of ``x**k``.  The tuple never has
    trailing zeros; the zero polynomial is the empty tuple with degree
    ``NEG_INF``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> "int | float":
        return len(self._coeffs) - 1 if self._coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self) -> Fraction:
        if not self._coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k, zero beyond the stored degree."""
        return self._coeffs[k] if 0 <= k < len(self._coeffs) else Fraction(0)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other: "Poly | RationalLike") -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, str)):
            return Poly((rat(other),))
        return None

    def __add__(self, other: "Poly | RationalLike") -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        a, b = self._coeffs, q._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self._coeffs))

    def __sub__(self, other: "Poly | RationalLike") -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other: "Poly | RationalLike") -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other: "Poly | RationalLike") -> "Poly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if self.is_zero or q.is_zero:
            return Poly.zero()
        a, b = self._coeffs, q._coeffs
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c: RationalLike) -> "Poly":
        return self * rat(c)

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self._coeffs) if k >= 1))

    def taylor_at(self, c: RationalLike) -> "Poly":
        """Coefficients of p(c + u) as a polynomial in u (exact Taylor shift)."""
        c = rat(c)
        n = len(self._coeffs)
        out = [Fraction(0)] * n
        for j, cj in enumerate(self._coeffs):
            if cj == 0:
                continue
            power = Fraction(1)
            for k in range(j, -1, -1):
                out[k] += cj * math.comb(j, k) * power
                power *= c
        return Poly(out)

    # -- evaluation --------------------------------------------------------

    def eval_float(self, x: float) -> float:
        """Double-precision Horner evaluation."""
        acc = 0.0
        for c in reversed(self._coeffs):
            acc = acc * x + float(c)
        return acc

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        q = self._coerce(other)  # type: ignore[arg-type]
        if q is None:
            return NotImplemented
        return self._coeffs == q._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- serialization / display --------------------------------------------

    def to_strings(self) -> list[str]:
        """Coefficients as exact ``"num/den"`` strings, lowest degree first."""
        return [str(c) for c in self._coeffs]

    def _term_str(self, k: int, mag: Fraction, var: str) -> str:
        if k == 0:
            return str(mag)
        xpow = var if k == 1 else f"{var}^{k}"
        if mag == 1:
            return xpow
        if mag.denominator == 1:
            return f"{mag}{xpow}"
        return f"({mag}){xpow}"

    def to_str(self, var: str = "x") -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            term = self._term_str(k, abs(c), var)
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_latex(self, var: str = "x") -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if mag.denominator == 1:
                coeff = "" if (mag == 1 and k > 0) else str(mag)
            else:
                coeff = rf"\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
            xpow = "" if k == 0 else (var if k == 1 else f"{var}^{{{k}}}")
            term = f"{coeff}{xpow}" or "1"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Poly({list(self._coeffs)!r})"


#: The identity polynomial x, for building expressions like ``X**2 - 5*X + 3``.
X = Poly((0, 1))
