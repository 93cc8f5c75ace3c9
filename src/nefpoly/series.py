"""Truncated formal power series over exact rationals.

A series of order N is a plain list ``[c0, c1, ..., cN]`` of Fractions,
interpreted as ``c0 + c1 u + ... + cN u**N + O(u**(N+1))``.  All coefficient
arithmetic is exact; truncation order is the only approximation anywhere.

These helpers back the power-series layer of the mean parameterization:
the reciprocal of the variance polynomial and term-wise antiderivatives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .ratpoly import RationalLike, rat

Series = list[Fraction]


def pad(c: Sequence[RationalLike], order: int) -> Series:
    """Copy, coerced exact, truncated/zero-padded to length order + 1."""
    out = [rat(x) for x in c[: order + 1]]
    out.extend([Fraction(0)] * (order + 1 - len(out)))
    return out


def multiply(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> Series:
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a[: order + 1]):
        if ca == 0:
            continue
        for j, cb in enumerate(b[: order + 1 - i]):
            out[i + j] += ca * cb
    return out


def reciprocal(c: Sequence[Fraction], order: int) -> Series:
    """Series of 1/c to the given order.  Requires c[0] != 0."""
    if not c or c[0] == 0:
        raise ZeroDivisionError("series has zero constant term")
    c = pad(c, order)
    inv0 = 1 / c[0]
    out = [inv0] + [Fraction(0)] * order
    for n in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += c[k] * out[n - k]
        out[n] = -inv0 * acc
    return out


def integrate(c: Sequence[Fraction], order: int) -> Series:
    """Term-wise antiderivative with constant term 0, to the given order."""
    out = [Fraction(0)] * (order + 1)
    for k, ck in enumerate(c):
        if k + 1 > order:
            break
        out[k + 1] = ck / (k + 1)
    return out

