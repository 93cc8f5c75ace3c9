"""Mean-derivative polynomial sequences, built two independent ways.

The sequence attached to a family anchored at m0 is P_n(x), the n-th
derivative in the mean of the density f(x, m) relative to the anchored base
measure, taken at m = m0.  Two constructions are implemented:

* a four-term recurrence driven by the variance coefficients,

      a0 P_{n+1} = (x - n a1 - m0) P_n - n(a2 (n-1) + 1) P_{n-1}
                   - a3 n(n-1)(n-2) P_{n-2},

  extended down to n = 0, 1 with P_{-1} = P_{-2} = 0, which reproduces
  P_0 = 1 and P_1 = (x - m0)/a0;

* the Faa di Bruno expansion of the n-th mean-derivative of
  exp{h(m)}, h(m) = psi(m) x - k(psi(m)), evaluated by the complete Bell
  recurrence (D^{n+1} e^h = D^n (h' e^h)),

      P_{n+1} = sum_{k=0}^{n} C(n, k) g_{k+1}(x) P_{n-k},

  where g_j(x) = j! (psi_j x - (k o psi)_j) is the j-th mean-derivative of
  h at m0, with psi_j and (k o psi)_j exact Taylor coefficients from the
  series layer.  This route never calls the four-term recurrence.

Agreement of the two, coefficient by coefficient in exact arithmetic, is one
of the package's core verification targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .nef_model import VarianceSpec, kpsi_series, psi_series
from .ratpoly import Poly, RationalLike, X, rat


class DegenerateScalingError(ValueError):
    """Scaling a sequence by t = 0 collapses every polynomial past degree 0."""


@dataclass(frozen=True)
class PolySequence:
    """P_0..P_N for one variance spec, with the construction recorded."""

    spec: VarianceSpec
    polys: tuple[Poly, ...]
    provenance: str

    @property
    def m0(self) -> Fraction:
        return self.spec.m0

    @property
    def order(self) -> int:
        return len(self.polys) - 1

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, n: int) -> Poly:
        return self.polys[n]

    def prefix(self, order: int) -> PolySequence:
        """P_0..P_order of this sequence, as if built directly at that order."""
        if not 0 <= order <= self.order:
            raise ValueError(f"sequence only reaches order {self.order}")
        return PolySequence(
            spec=self.spec, polys=self.polys[: order + 1], provenance=self.provenance
        )


def recurrence_sequence(spec: VarianceSpec, order: int) -> PolySequence:
    """Generate P_0..P_order by the four-term recurrence."""
    if order < 0:
        raise ValueError("sequence order must be >= 0")
    a0, a1, a2, a3 = spec.a
    inv_a0 = 1 / a0
    polys = [Poly.one()]
    prev1 = Poly.zero()  # P_{n-1}
    prev2 = Poly.zero()  # P_{n-2}
    for n in range(order):
        shift = X - (n * a1 + spec.m0)
        nxt = shift * polys[n] - (n * (a2 * (n - 1) + 1)) * prev1
        if a3 != 0 and n >= 3:
            nxt = nxt - (a3 * n * (n - 1) * (n - 2)) * prev2
        prev2 = prev1
        prev1 = polys[n]
        polys.append(nxt.scale(inv_a0))
    return PolySequence(spec=spec, polys=tuple(polys), provenance="recurrence")


def faa_di_bruno_sequence(spec: VarianceSpec, order: int) -> PolySequence:
    """Generate P_0..P_order from the mean derivatives by the Bell recurrence.

    P_{n+1} = sum_{k=0}^{n} C(n, k) g_{k+1}(x) P_{n-k}, with g_j(x) the j-th
    mean-derivative at m0 of psi(m) x - k(psi(m)), a degree-1 polynomial
    obtained exactly from the series layer.  O(order^2) polynomial products.
    """
    if order < 0:
        raise ValueError("sequence order must be >= 0")
    polys = [Poly.one()]
    if order >= 1:
        psi = psi_series(spec, order)
        kpsi = kpsi_series(spec, order)
        g = [Poly.zero()]  # g[j], 1-indexed
        for j in range(1, order + 1):
            fj = math.factorial(j)
            g.append(Poly((-fj * kpsi[j], fj * psi[j])))
        for n in range(order):
            total = Poly.zero()
            for k in range(n + 1):
                total = total + (g[k + 1] * polys[n - k]).scale(math.comb(n, k))
            polys.append(total)
    return PolySequence(spec=spec, polys=tuple(polys), provenance="faadibruno")


@dataclass(frozen=True)
class SequenceDiff:
    """Indices where two sequences disagree, with both polynomials."""

    mismatches: tuple[tuple[int, Poly, Poly], ...]

    @property
    def identical(self) -> bool:
        return not self.mismatches


def compare_sequences(a: PolySequence, b: PolySequence) -> SequenceDiff:
    """Coefficient-exact diff of two sequences anchored at the same mean.

    Sequences for different variance specs may be compared (they diff at
    every n >= 1 already through P_1); different anchors make the
    comparison meaningless and are rejected.
    """
    if a.m0 != b.m0:
        raise ValueError("sequences are anchored at different means")
    upto = min(a.order, b.order)
    mism = tuple(
        (n, a.polys[n], b.polys[n])
        for n in range(upto + 1)
        if a.polys[n] != b.polys[n]
    )
    return SequenceDiff(mismatches=mism)


def scale_sequence(seq: PolySequence, t: RationalLike) -> PolySequence:
    """Q_n = t**n P_n.  Degree and the orthogonality zero-pattern survive."""
    t = rat(t)
    if t == 0:
        raise DegenerateScalingError("scaling factor t must be nonzero")
    power = Fraction(1)
    polys = []
    for p in seq.polys:
        polys.append(p.scale(power))
        power *= t
    return PolySequence(
        spec=seq.spec, polys=tuple(polys), provenance=f"{seq.provenance}*t^n"
    )
