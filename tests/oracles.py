"""Second routes and conveniences that only the tests use.

The runtime builds cumulants by the chain kappa_{n+1} = V * d kappa_n / dm;
`cumulants_via_inversion` reaches them by reverting the series of the
parameter map instead, so the two can be compared exactly.  The remaining
helpers are small views of the catalog and of polynomials that the runtime
never needs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from nefpoly import Poly, VarianceSpec, kpsi_series, psi_series, rat
from nefpoly.families import CATALOG, Family
from nefpoly.nef_model import CumulantTable
from nefpoly.ratpoly import RationalLike
from nefpoly.series import Series, multiply, pad
from nefpoly.table1 import TableComparison, compare_with_printed


def compose(outer: Sequence[Fraction], inner: Sequence[Fraction], order: int) -> Series:
    """outer(inner(u)) to the given order.  Requires inner[0] == 0."""
    if inner and inner[0] != 0:
        raise ValueError("composition needs inner series with zero constant term")
    inner = pad(inner, order)
    # Horner over the outer coefficients, truncating every product.
    out = [Fraction(0)] * (order + 1)
    for ck in reversed(pad(outer, order)):
        out = multiply(out, inner, order)
        out[0] += ck
    return out


def revert(c: Sequence[Fraction], order: int) -> Series:
    """Compositional inverse g with c(g(u)) = u + O(u**(order+1)).

    Requires c[0] == 0 and c[1] != 0.  Solved coefficient by coefficient:
    the order-n coefficient of c(g) is linear in g[n] with slope c[1].
    """
    c = pad(c, order)
    if c[0] != 0:
        raise ValueError("reversion needs zero constant term")
    if c[1] == 0:
        raise ValueError("reversion needs nonzero linear term")
    g = [Fraction(0)] * (order + 1)
    if order >= 1:
        g[1] = 1 / c[1]
    for n in range(2, order + 1):
        err = compose(c, g, n)[n]
        g[n] = -err / c[1]
    return g


def cumulants_via_inversion(spec: VarianceSpec, order: int) -> CumulantTable:
    """Cumulants by the series route, independently of the V * d/dm chain.

    Revert theta = psi(m0 + u) to get u(theta), compose with the series of
    (k o psi), and read kappa_n = n! * [theta**n] k(theta).
    """
    theta_of_u = psi_series(spec, order)
    u_of_theta = revert(theta_of_u, order)
    k_of_theta = compose(kpsi_series(spec, order), u_of_theta, order)
    kappa = tuple(k_of_theta[n] * math.factorial(n) for n in range(order + 1))
    return CumulantTable(m0=spec.m0, kappa=kappa)


def eval_rational(p: Poly, x: RationalLike) -> Fraction:
    """Exact Horner evaluation of p at a rational point."""
    x = rat(x)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def monomial(degree: int, coeff: RationalLike = 1) -> Poly:
    """coeff * x**degree."""
    return Poly((0,) * degree + (coeff,))


def cubic_families() -> list[Family]:
    return [f for f in CATALOG.values() if f.variance_class == "cubic"]


def quadratic_families() -> list[Family]:
    return [f for f in CATALOG.values() if f.variance_class == "quadratic"]


def all_comparisons() -> list[TableComparison]:
    """Printed-table comparison for every cubic family, in catalog order."""
    return [compare_with_printed(f) for f in cubic_families()]
