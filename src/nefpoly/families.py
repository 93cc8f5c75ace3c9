"""Catalog of natural exponential families with polynomial variance functions.

`CATALOG` is one table: six strictly cubic families (inverse Gaussian,
strict arcsine, Takacs, large arcsine, Ressel, Abel: the Letac-Mora
additions), then six quadratic ones (normal, Poisson, binomial, negative
binomial, gamma, hyperbolic cosine: the Morris class).  Each row stores its
variance function V(m) as an exact polynomial in the mean; anchoring at a
rational m0 is an exact Taylor shift.  The class is derived from V, not
stored: deg V <= 2 is quadratic, else cubic.  Four rows come from builders
that take a parameter (inverse Gaussian p, binomial r, negative binomial r,
gamma shape); the other cubic rows are fixed at the conventional unit
parameters, their variance polynomials pinned down by the published
recurrence rows (see :mod:`nefpoly.table1` for the transcription notes).

Inverse Gaussian, normal, Poisson and gamma carry float closed forms (psi,
k and, on the half line, the base density) that power the floating-point
generating-function checks; the other rows are verified purely at the exact
layer.  `guarded` is the one float guard of those checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, TypeVar

from .nef_model import (
    MeanDomainError,
    UnsupportedFamilyError,
    VarianceSpec,
)
from .ratpoly import Poly, RationalLike, rat

Bound = Fraction | None  # open-interval endpoint; None = unbounded
T = TypeVar("T")


def _finite(value: object) -> bool:
    """False if value is a non-finite float, alone or inside (nested) tuples."""
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, tuple) or all(_finite(v) for v in value)


def guarded(evaluate: Callable[[], T], failed: T) -> tuple[T, str | None]:
    """(value, None), or (failed, reason) when evaluate overflows, divides by
    zero, leaves a domain or returns a non-finite float."""
    try:
        value = evaluate()
    except (ArithmeticError, ValueError) as exc:  # MeanDomainError is a ValueError
        return failed, f"{type(exc).__name__}: {exc}"
    if not _finite(value):
        return failed, "FloatingPointError: non-finite result"
    return value, None


@dataclass(frozen=True)
class ClosedForms:
    """Float closed forms of a generating base measure.

    ``psi`` maps a mean to the canonical parameter of the *un-anchored*
    family; ``cumulant`` is k(theta) for the same normalization.
    ``log_density0`` is the log density of the generating measure on
    (0, inf), the one support quadrature integrates over; None otherwise.
    """

    psi: Callable[[float], float]
    cumulant: Callable[[float], float]
    log_density0: Callable[[float], float] | None


@dataclass(frozen=True)
class RebasedForms:
    """Closed forms re-anchored so the member with mean m0 is the base measure.

    The anchored maps satisfy psi(m0) = 0, cumulant(0) = 0, and
    cumulant'(0) = m0.  ``density(x, m)`` is the density of the member with
    mean m relative to the anchored base measure; it equals 1 identically
    at m = m0.
    """

    family: str
    m0: float
    theta0: float
    mean_domain: tuple[float, float]
    _forms: ClosedForms

    def _check_mean(self, m: float) -> None:
        lo, hi = self.mean_domain
        if not (lo < m < hi):
            raise MeanDomainError(
                f"mean {m} outside mean domain ({lo}, {hi}) of family '{self.family}'"
            )

    def psi(self, m: float) -> float:
        self._check_mean(m)
        return self._forms.psi(m) - self.theta0

    def cumulant(self, theta: float) -> float:
        return self._forms.cumulant(theta + self.theta0) - self._forms.cumulant(
            self.theta0
        )

    def density(self, x: float, m: float) -> float:
        """f(x, m) = exp{psi(m) x - k(psi(m))}, the tilt toward mean m."""
        theta = self.psi(m)
        return math.exp(theta * x - self.cumulant(theta))

    @property
    def has_base_density(self) -> bool:
        return self._forms.log_density0 is not None

    def base_density(self, x: float) -> float:
        """Density of the anchored base measure on (0, inf); 0 for x <= 0."""
        if self._forms.log_density0 is None:
            raise UnsupportedFamilyError(
                f"family '{self.family}' has no closed-form density"
            )
        if x <= 0.0:
            return 0.0
        log0 = self._forms.log_density0(x)
        return math.exp(
            log0 + self.theta0 * x - self._forms.cumulant(self.theta0)
        )


@dataclass(frozen=True)
class Family:
    """A catalog entry: variance polynomial, mean domain, optional closed forms."""

    name: str
    params: Mapping[str, Fraction]
    mean_domain: tuple[Bound, Bound]
    variance: Poly  # V(m), exact, in the mean variable
    closed_forms: ClosedForms | None = field(default=None, repr=False)

    @property
    def variance_class(self) -> str:
        """"quadratic" (the Morris class, deg V <= 2) or "cubic" (Letac-Mora)."""
        return "quadratic" if self.variance.degree <= 2 else "cubic"

    @property
    def variance_formula(self) -> str:
        return self.variance.to_str(var="m")

    def _domain_str(self) -> str:
        lo, hi = self.mean_domain
        return f"({'-inf' if lo is None else lo}, {'inf' if hi is None else hi})"

    def contains_mean(self, m: RationalLike) -> bool:
        m = rat(m)
        lo, hi = self.mean_domain
        return (lo is None or m > lo) and (hi is None or m < hi)

    def variance_at(self, m0: RationalLike) -> VarianceSpec:
        """Exact expansion of V about m0: coefficients of V(m0 + u) in u."""
        m0 = rat(m0)
        if not self.contains_mean(m0):
            raise MeanDomainError(
                f"m0 = {m0} outside mean domain {self._domain_str()} "
                f"of family '{self.name}'"
            )
        shifted = self.variance.taylor_at(m0)
        if shifted.degree > 3:  # catalog guarantees degree <= 3
            raise ValueError("variance polynomial has degree > 3")
        return VarianceSpec(m0=m0, a=tuple(shifted.coeff(k) for k in range(4)))

    def rebase(self, m0: RationalLike) -> RebasedForms:
        """Anchor the closed forms at m0 (families with closed forms only)."""
        if self.closed_forms is None:
            raise UnsupportedFamilyError(
                f"family '{self.name}' has no closed forms to rebase"
            )
        m0 = rat(m0)
        if not self.contains_mean(m0):
            raise MeanDomainError(
                f"m0 = {m0} outside mean domain {self._domain_str()} "
                f"of family '{self.name}'"
            )
        lo, hi = self.mean_domain
        domain = (
            -math.inf if lo is None else float(lo),
            math.inf if hi is None else float(hi),
        )
        psi = self.closed_forms.psi
        (m0f, theta0), reason = guarded(lambda: (float(m0), psi(float(m0))), (0.0, 0.0))
        if reason is not None:
            raise MeanDomainError(
                f"m0 = {m0} of family '{self.name}' is out of float range for its "
                f"closed forms ({reason})"
            )
        return RebasedForms(
            family=self.name,
            m0=m0f,
            theta0=theta0,
            mean_domain=domain,
            _forms=self.closed_forms,
        )


def inverse_gaussian(p: RationalLike = 1) -> Family:
    """Inverse Gaussian with shape parameter p: V(m) = m^3 / p^2 on m > 0."""
    p = rat(p)
    if p <= 0:
        raise ValueError("inverse Gaussian parameter p must be positive")
    pf = float(p)
    forms = ClosedForms(
        psi=lambda m: -pf * pf / (2.0 * m * m),
        cumulant=lambda t: -pf * math.sqrt(-2.0 * t),
        log_density0=lambda x: (
            math.log(pf)
            - 0.5 * math.log(2.0 * math.pi)
            - 1.5 * math.log(x)
            - pf * pf / (2.0 * x)
        ),
    )
    return Family(
        name="ig",
        params={"p": p},
        mean_domain=(Fraction(0), None),
        variance=Poly((0, 0, 0, 1 / p**2)),
        closed_forms=forms,
    )


def binomial(trials: RationalLike = 10) -> Family:
    """Binomial with r trials: V(m) = m (1 - m/r) on 0 < m < r."""
    r = rat(trials)
    if r <= 0:
        raise ValueError("binomial trial count must be positive")
    return Family(
        name="binomial",
        params={"r": r},
        mean_domain=(Fraction(0), r),
        variance=Poly((0, 1, -1 / r)),
    )


def negative_binomial(r: RationalLike = 2) -> Family:
    """Negative binomial with size r: V(m) = m (1 + m/r) on m > 0."""
    r = rat(r)
    if r <= 0:
        raise ValueError("negative binomial size must be positive")
    return Family(
        name="negative-binomial",
        params={"r": r},
        mean_domain=(Fraction(0), None),
        variance=Poly((0, 1, 1 / r)),
    )


def gamma(shape: RationalLike = 1) -> Family:
    """Gamma with fixed shape: V(m) = m^2 / shape on m > 0."""
    lam = rat(shape)
    if lam <= 0:
        raise ValueError("gamma shape must be positive")
    lf = float(lam)
    forms = ClosedForms(
        psi=lambda m: 1.0 - lf / m,
        cumulant=lambda t: -lf * math.log1p(-t),
        log_density0=lambda x: (lf - 1.0) * math.log(x) - x - math.lgamma(lf),
    )
    return Family(
        name="gamma",
        params={"shape": lam},
        mean_domain=(Fraction(0), None),
        variance=Poly((0, 0, 1 / lam)),
        closed_forms=forms,
    )


#: Catalog in a fixed, deterministic order: the six cubic families (unit
#: parameters but for the inverse Gaussian), then the six quadratic ones.
CATALOG: dict[str, Family] = {
    f.name: f
    for f in (
        inverse_gaussian(),
        # V(m) = m (m^2 + 1)
        Family(name="strict-arcsine", params={"p": Fraction(1)},
               mean_domain=(Fraction(0), None), variance=Poly((0, 1, 0, 1))),
        # V(m) = m (m + 1)(2m + 1)
        Family(name="takacs", params={"p": Fraction(1), "a": Fraction(1)},
               mean_domain=(Fraction(0), None), variance=Poly((0, 1, 3, 2))),
        # The constant term is reconstructed from the recurrence row (V(1) = 9)
        # together with the slope text V'(m) = 6m^2 + 4m + 1; see table1 notes.
        Family(name="large-arcsine", params={"p": Fraction(1), "a": Fraction(1)},
               mean_domain=(Fraction(0), None), variance=Poly((4, 1, 2, 2))),
        # V(m) = m^2 (m + 1)
        Family(name="ressel", params={"p": Fraction(1)},
               mean_domain=(Fraction(0), None), variance=Poly((0, 0, 1, 1))),
        # V(m) = m (m + 1)^2
        Family(name="abel", params={"p": Fraction(1)},
               mean_domain=(Fraction(0), None), variance=Poly((0, 1, 2, 1))),
        # Unit variance; its density lives on the whole line, so no quadrature.
        Family(name="normal", params={}, mean_domain=(None, None), variance=Poly((1,)),
               closed_forms=ClosedForms(psi=lambda m: m, cumulant=lambda t: 0.5 * t * t,
                                        log_density0=None)),
        # A lattice family: no continuous density.
        Family(name="poisson", params={}, mean_domain=(Fraction(0), None),
               variance=Poly((0, 1)),
               closed_forms=ClosedForms(psi=math.log, cumulant=lambda t: math.exp(t) - 1.0,
                                        log_density0=None)),
        binomial(),
        negative_binomial(),
        gamma(),
        Family(name="hyperbolic-cosine", params={}, mean_domain=(None, None),
               variance=Poly((1, 0, 1))),
    )
}

_ALIASES = {
    "inverse-gaussian": "ig",
    "negbinomial": "negative-binomial",
    "hypcosine": "hyperbolic-cosine",
}


def lookup(name: str) -> Family:
    """Find a catalog family by name (hyphen/underscore insensitive)."""
    key = name.strip().lower().replace("_", "-")
    key = _ALIASES.get(key, key)
    try:
        return CATALOG[key]
    except KeyError:
        known = ", ".join(CATALOG)
        raise UnsupportedFamilyError(
            f"unknown family '{name}' (known: {known})"
        ) from None

