"""Exact moment-functional inner products and orthogonality verdicts.

The inner product of two polynomials against the anchored base measure
reduces, by linearity, to a dot product of the coefficients of their product
with the raw-moment table, so every Gram entry here is an exact rational.

Two zero patterns are checked on the Gram matrix G[n][q] = <P_n, P_q>:

* the 2-orthogonality pattern: G[n][0] = 0 for n >= 1, and G[n][q] = 0 for
  all n, q >= 1 with n >= 2q (the region q >= 2n follows by symmetry);
  this pattern characterizes cubic variance functions;
* full orthogonality: G diagonal, which characterizes quadratic variance
  functions (the classical Morris situation).

The module also inverts the structure: fitting the four-term recurrence back
out of a sequence recovers (a0, a1, a2, a3, m0) exactly, and three low-order
Gram entries recover (a0, a2, a3) via

    a11 = G[1][1],  a0 = 1/a11,
    a2 = (2 a22 - a11^2) / a11^2,   a22 = G[2][2]/4,
    a3 = 2 a23 / a11^2,             a23 = G[2][3]/12.

The linear coefficient a1 is not determined by those entries (it enters
through the second derivative of the parameter map, not a Gram value), so
gram-side recovery is deliberately partial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .nef_model import MomentTable, NefError
from .polyseq import PolySequence
from .ratpoly import Poly, X


class InsufficientMomentsError(NefError, ValueError):
    """Moment table does not reach the order an inner product needs."""

    def __init__(self, needed: int, available: int):
        self.needed = needed
        self.available = available
        super().__init__(
            f"need moments through order {needed}, table has {available}"
        )


class DegenerateFamilyError(NefError, ValueError):
    """Gram data is degenerate (vanishing <P_1, P_1>); no variance to recover."""


class NonNefSequenceError(NefError, ValueError):
    """Sequence cannot be produced by any anchored variance spec."""


def inner_product(p: Poly, q: Poly, moments: MomentTable) -> Fraction:
    """Exact <p, q> = integral of p*q against the anchored base measure."""
    prod = p * q
    if prod.is_zero:
        return Fraction(0)
    if prod.degree > moments.order:
        raise InsufficientMomentsError(int(prod.degree), moments.order)
    return sum(
        (c * moments.mom[k] for k, c in enumerate(prod.coeffs) if c != 0),
        Fraction(0),
    )


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of exact inner products <P_n, P_q>, 0 <= n, q <= order."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def order(self) -> int:
        return len(self.entries) - 1

    def entry(self, n: int, q: int) -> Fraction:
        return self.entries[n][q]

    def normalized(self, n: int, q: int) -> Fraction:
        """<P_n, P_q> / (n! q!), the natural bilinear-series coefficient."""
        return self.entries[n][q] / (math.factorial(n) * math.factorial(q))

    def leading(self, order: int) -> GramMatrix:
        """Leading block 0 <= n, q <= order: the Gram of the order-`order` prefix."""
        if not 0 <= order <= self.order:
            raise ValueError(f"Gram matrix only reaches order {self.order}")
        return GramMatrix(
            entries=tuple(row[: order + 1] for row in self.entries[: order + 1])
        )

    def to_strings(self) -> list[list[str]]:
        return [[str(v) for v in row] for row in self.entries]


def gram(seq: PolySequence, moments: MomentTable) -> GramMatrix:
    """Full exact Gram matrix of a sequence (needs moments through 2*order)."""
    n = seq.order
    rows = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(i, n + 1):
            v = inner_product(seq.polys[i], seq.polys[j], moments)
            rows[i][j] = v
            rows[j][i] = v
    return GramMatrix(entries=tuple(tuple(r) for r in rows))


def forced_zero(n: int, q: int) -> bool:
    """True where 2-orthogonality forces G[n][q] = 0: n >= 2q or q >= 2n, (n, q) != (0, 0)."""
    return (n, q) != (0, 0) and (n >= 2 * q or q >= 2 * n)


@dataclass(frozen=True)
class Violation:
    n: int
    q: int
    value: Fraction


@dataclass(frozen=True)
class RecoveredVariance:
    """Partial variance data read off the Gram matrix: a1 is not recoverable."""

    a0: Fraction
    a2: Fraction
    a3: Fraction


@dataclass(frozen=True)
class OrthoReport:
    verdict: str  # "two_orthogonal" | "fully_orthogonal" | "neither"
    checked_order: int
    violations: tuple[Violation, ...]


def _scan(g: GramMatrix, must_vanish: Callable[[int, int], bool], verdict: str) -> OrthoReport:
    """Nonzero entries of the lower triangle where must_vanish holds, row by row."""
    bad = tuple(
        Violation(n, q, g.entry(n, q))
        for n in range(1, g.order + 1)
        for q in range(n)
        if must_vanish(n, q) and g.entry(n, q) != 0
    )
    return OrthoReport("neither" if bad else verdict, g.order, bad)


def check_two_orthogonality(g: GramMatrix) -> OrthoReport:
    """Verdict on the 2-orthogonality zero pattern, with violations listed."""
    return _scan(g, forced_zero, "two_orthogonal")


def check_full_orthogonality(g: GramMatrix) -> OrthoReport:
    """Verdict on plain diagonality of the Gram matrix."""
    return _scan(g, lambda n, q: True, "fully_orthogonal")


def recover_variance_from_gram(g: GramMatrix) -> RecoveredVariance:
    """Recover (a0, a2, a3) from G[1][1], G[2][2], G[2][3] exactly."""
    if g.order < 3:
        raise ValueError("need a Gram matrix of order >= 3")
    a11 = g.normalized(1, 1)
    if a11 == 0:
        raise DegenerateFamilyError("<P_1, P_1> = 0: degenerate sequence")
    a22 = g.normalized(2, 2)
    a23 = g.normalized(2, 3)
    return RecoveredVariance(
        a0=1 / a11,
        a2=(2 * a22 - a11**2) / a11**2,
        a3=2 * a23 / a11**2,
    )


def expand_in_basis(target: Poly, basis: list[Poly]) -> list[Fraction]:
    """Exact coordinates of target in a degree-graded polynomial basis.

    Requires deg(basis[k]) = k for every k and deg(target) < len(basis).
    """
    for k, b in enumerate(basis):
        if b.degree != k:
            raise NonNefSequenceError(
                f"basis element {k} has degree {b.degree}, expected {k}"
            )
    if not target.is_zero and target.degree >= len(basis):
        raise ValueError("target degree exceeds the basis")
    coords = [Fraction(0)] * len(basis)
    rem = target
    for k in range(len(basis) - 1, -1, -1):
        if not rem.is_zero and rem.degree == k:
            c = rem.coeffs[k] / basis[k].leading
            coords[k] = c
            rem = rem - basis[k] * c
    return coords


@dataclass(frozen=True)
class ResidualEntry:
    """One coefficient of x*P_n outside the fitted four-term prediction."""

    n: int
    basis_index: int
    delta: Fraction


@dataclass(frozen=True)
class RecurrenceFit:
    m0: Fraction
    a: tuple[Fraction, Fraction, Fraction, Fraction]
    residuals: tuple[ResidualEntry, ...]

    @property
    def exact(self) -> bool:
        return not self.residuals


def fit_recurrence(seq: PolySequence) -> RecurrenceFit:
    """Invert the four-term recurrence from a sequence of length >= 5.

    Expands x*P_n over {P_0..P_{n+1}} for every n < order.  Rows n = 2 and
    n = 3 are the lowest with all four band coefficients active; they fix
    (a0, a1, a2, a3, m0).  Every other row (including the n = 0, 1
    extension rows) is then validated against the fitted prediction, and
    any discrepancy is reported as a residual.
    """
    if seq.order < 4:
        raise NonNefSequenceError("need the sequence through order 4 to fit")
    for k, p in enumerate(seq.polys):
        if p.degree != k:
            raise NonNefSequenceError(
                f"P_{k} has degree {p.degree}; need strictly increasing degrees"
            )
    rows = {
        n: expand_in_basis(X * seq.polys[n], list(seq.polys[: n + 2]))
        for n in range(seq.order)
    }
    c2, c3 = rows[2], rows[3]
    a0 = c2[3]
    a1 = c3[3] - c2[2]
    m0 = 3 * c2[2] - 2 * c3[3]
    a2 = c2[1] / 2 - 1
    a3 = c3[1] / 6

    residuals: list[ResidualEntry] = []
    for n, coords in rows.items():
        for k, got in enumerate(coords):
            want = Fraction(0)
            if k == n + 1:
                want = a0
            elif k == n:
                want = n * a1 + m0
            elif k == n - 1:
                want = n * (a2 * (n - 1) + 1)
            elif k == n - 2:
                want = a3 * n * (n - 1) * (n - 2)
            if got != want:
                residuals.append(ResidualEntry(n=n, basis_index=k, delta=got - want))
    return RecurrenceFit(m0=m0, a=(a0, a1, a2, a3), residuals=tuple(residuals))
