"""Exact machinery for natural exponential families anchored at a mean.

A family member with mean m0 is promoted to the base measure, so the whole
local structure of the family is encoded by the variance function expanded
about m0:

    V(m0 + u) = a0 + a1 u + a2 u**2 + a3 u**3,     a0 = V(m0) > 0.

Everything exact in this package is driven by those four coefficients:

* cumulants, via the chain kappa_{n+1}(m) = V(m) * d kappa_n / dm evaluated
  at m0 (kappa_1(m) = m, and V = k'' o psi makes the chain an identity);
* raw moments, via the standard binomial moment/cumulant recursion;
* the Taylor series of the canonical-parameter map psi(m0 + u) and of the
  composed cumulant function (k o psi)(m0 + u), obtained by antidifferentiating
  1/V and (m0 + u)/V, since d(psi)/dm = 1/V and d(k o psi)/dm = m/V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import series
from .ratpoly import Poly, rat


class NefError(Exception):
    """Base class for domain errors raised by this package."""


class MeanDomainError(NefError, ValueError):
    """A mean parameter falls outside a family's domain of means."""


class SingularVarianceError(NefError, ValueError):
    """Variance at the anchor mean is not strictly positive."""


class UnsupportedFamilyError(NefError, LookupError):
    """Requested closed forms or family entry that the catalog lacks."""


@dataclass(frozen=True)
class VarianceSpec:
    """Cubic (or lower degree) variance function anchored at m0.

    ``a = (a0, a1, a2, a3)`` are the coefficients of V(m0 + u) in u.
    a0 is the variance of the base measure itself and must be positive;
    a non-degenerate probability cannot have zero variance.
    """

    m0: Fraction
    a: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "m0", rat(self.m0))
        coeffs = tuple(rat(c) for c in self.a)
        if len(coeffs) != 4:
            raise ValueError("variance spec needs exactly (a0, a1, a2, a3)")
        object.__setattr__(self, "a", coeffs)
        if coeffs[0] <= 0:
            raise SingularVarianceError(
                f"variance at the anchor mean must be positive, got a0 = {coeffs[0]}"
            )

    @property
    def a0(self) -> Fraction:
        return self.a[0]

    @property
    def a1(self) -> Fraction:
        return self.a[1]

    @property
    def a2(self) -> Fraction:
        return self.a[2]

    @property
    def a3(self) -> Fraction:
        return self.a[3]

    def variance_poly(self) -> Poly:
        """V(m0 + u) as an exact polynomial in u."""
        return Poly(self.a)


@dataclass(frozen=True)
class CumulantTable:
    """kappa[n] is the n-th cumulant of the anchored base measure, n = 1..order.

    kappa[0] = 0 by the anchoring convention (the cumulant function vanishes
    at the origin); kappa[1] = m0 and kappa[2] = a0 always hold.
    """

    m0: Fraction
    kappa: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.kappa) - 1


@dataclass(frozen=True)
class MomentTable:
    """mom[n] is the n-th raw moment of the anchored base measure, n = 0..order."""

    m0: Fraction
    mom: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.mom) - 1


def cumulant_polynomials(spec: VarianceSpec, order: int) -> list[Poly]:
    """kappa_n as exact polynomials in u = m - m0, for n = 1..order.

    Index 0 holds the zero polynomial as a placeholder.  The chain is
    kappa_1(u) = m0 + u and kappa_{n+1} = V * d kappa_n / du.
    """
    if order < 1:
        raise ValueError("cumulant order must be >= 1")
    v = spec.variance_poly()
    polys = [Poly.zero(), Poly((spec.m0, 1))]
    for _ in range(1, order):
        polys.append(v * polys[-1].derivative())
    return polys


def cumulants(spec: VarianceSpec, order: int) -> CumulantTable:
    polys = cumulant_polynomials(spec, order)
    kappa = tuple(p.coeff(0) for p in polys)
    return CumulantTable(m0=spec.m0, kappa=kappa)


def raw_moments(table: CumulantTable, order: int | None = None) -> MomentTable:
    """Raw moments from cumulants: mom_{n+1} = sum_k C(n,k) kappa_{k+1} mom_{n-k}."""
    if order is None:
        order = table.order
    if order > table.order:
        raise ValueError(
            f"need cumulants through order {order}, table has {table.order}"
        )
    mom = [Fraction(1)]
    for n in range(order):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += math.comb(n, k) * table.kappa[k + 1] * mom[n - k]
        mom.append(acc)
    return MomentTable(m0=table.m0, mom=tuple(mom))


def moment_table(spec: VarianceSpec, order: int) -> MomentTable:
    """Exact raw moments of the anchored base measure through the given order."""
    if order == 0:
        return MomentTable(m0=spec.m0, mom=(Fraction(1),))
    return raw_moments(cumulants(spec, order), order)


def psi_series(spec: VarianceSpec, order: int) -> list[Fraction]:
    """Taylor coefficients (orders 0..order) of psi(m0 + u) in u.

    psi is the canonical-parameter map anchored so psi(m0) = 0; its
    derivative is 1/V, so the series is the antiderivative of the
    truncated reciprocal of the variance polynomial.
    """
    if order < 1:
        raise ValueError("series order must be >= 1")
    recip = series.reciprocal(list(spec.a), order - 1)
    return series.integrate(recip, order)


def kpsi_series(spec: VarianceSpec, order: int) -> list[Fraction]:
    """Taylor coefficients (orders 0..order) of (k o psi)(m0 + u) in u.

    d(k o psi)/dm = m/V, so this is the antiderivative of
    (m0 + u) * (1/V)(u), anchored to vanish at u = 0.
    """
    if order < 1:
        raise ValueError("series order must be >= 1")
    recip = series.reciprocal(list(spec.a), order - 1)
    integrand = series.multiply([spec.m0, Fraction(1)], recip, order - 1)
    return series.integrate(integrand, order)

