"""Floating-point verification of the generating-function layer.

The exact layer certifies algebraic identities; this module ties them to the
analytic ones, for the families that carry closed forms.  Three probes
compare a truncated series built from exact objects with a closed form:

* partial sums of sum_n (m - m0)^n / n! * P_n(x) against the closed-form
  density f(x, m) of the tilted member; convergence holds in a window
  around m0 whose radius is finite and family-dependent, so probes report
  non-convergence instead of erroring outside it;
* the exponential (Sheffer-type) generating function of the scaled sequence
  Q_n = t^n P_n: sum_n Q_n(x) z^n / n! against exp{a(z) x + b(z)} with
  a(z) = psi(t z + m0) and b(z) = -k(a(z));
* the bilinear identity: exp{k(psi(m) + psi(m')) - k(psi(m)) - k(psi(m'))}
  against the truncated double series 1 + sum a_nq (m - m0)^n (m' - m0)^q
  built from exact normalized Gram entries.

Each returns a `Probe`.  Both sides of a probe are evaluated under the one
float guard, `families.guarded`, so a series or closed form that overflows,
divides by zero, leaves its domain or comes out non-finite makes a
non-converged probe with a ``reason`` instead of an exception.  The Sheffer
probe reuses the partial-sum engine verbatim with weight w = t*z (the two
agree bitwise when handed identical float weights).

A nested exp-sinh trapezoid rule integrates P_n P_q against the base
density on (0, inf) and so cross-checks exact Gram entries end to end,
under the same guard; a family without such a density raises
`UnsupportedFamilyError`.  The module needs only the standard library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .families import RebasedForms, guarded
from .ortho import GramMatrix
from .polyseq import PolySequence
from .ratpoly import RationalLike, rat

# Default absolute tolerances of the float checks; `verify --abs-tol`
# overrides all three.  A quadrature entry passes when it is within
# QUAD_ABS_TOL of the exact Gram entry.
SERIES_ABS_TOL = 1e-8
BILINEAR_ABS_TOL = 1e-6
QUAD_ABS_TOL = 1e-6


@dataclass(frozen=True)
class Probe:
    """Series partial sums at one point, against their closed-form target.

    ``point`` holds the report keys that locate the probe: m and x for the
    density series, t, z and x for the Sheffer series, m and m_prime for the
    bilinear identity (which keeps only its last partial sum).  ``reason``
    says why either side could not be evaluated, if it could not.
    """

    family: str
    m0: float
    point: dict[str, float]
    order: int
    partial_sums: tuple[float, ...]
    target: float
    abs_tol: float
    reason: str | None = None

    @property
    def residuals(self) -> tuple[float, ...]:
        return tuple(abs(s - self.target) for s in self.partial_sums)

    @property
    def residual(self) -> float:
        return abs(self.partial_sums[-1] - self.target)

    @property
    def converged(self) -> bool:
        return self.reason is None and self.residual <= self.abs_tol

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "m0": self.m0,
            **self.point,
            "N": self.order,
            "residual": self.residual if self.reason is None else None,
            "converged": self.converged,
            **({} if self.reason is None else {"reason": self.reason}),
        }


def _probe(
    forms: RebasedForms,
    point: dict[str, float],
    order: int,
    abs_tol: float,
    sides: Callable[[], tuple[tuple[float, ...], float]],
) -> Probe:
    """Evaluate (partial sums, target) under the one guard of every probe."""
    (sums, target), reason = guarded(sides, failed=((math.nan,), math.nan))
    return Probe(
        family=forms.family,
        m0=forms.m0,
        point=point,
        order=order,
        partial_sums=sums,
        target=target,
        abs_tol=abs_tol,
        reason=reason,
    )


def _series_probe(
    seq: PolySequence,
    forms: RebasedForms,
    point: dict[str, float],
    x: float,
    m: float,
    w: float,
    order: int | None,
    abs_tol: float,
) -> Probe:
    """Partial sums S_N = sum_{n<=N} w^n / n! * P_n(x) against the density at (x, m)."""
    if order is None:
        order = seq.order
    if order > seq.order:
        raise ValueError(f"sequence only reaches order {seq.order}")

    def sides() -> tuple[tuple[float, ...], float]:
        sums = []
        acc = 0.0
        wn_over_fact = 1.0  # w^n / n!
        for n, p in enumerate(seq.polys[: order + 1]):
            if n > 0:
                wn_over_fact *= w / n
            acc += wn_over_fact * p.eval_float(x)
            sums.append(acc)
        return tuple(sums), forms.density(x, m)

    return _probe(forms, point, order, abs_tol, sides)


def partial_sum_density(
    seq: PolySequence,
    forms: RebasedForms,
    x: float,
    m: float,
    order: int | None = None,
    abs_tol: float = SERIES_ABS_TOL,
) -> Probe:
    """Probe the density series at (x, m) against the closed-form density."""
    return _series_probe(seq, forms, {"m": m, "x": x}, x, m, m - forms.m0, order, abs_tol)


def sheffer_check(
    seq: PolySequence,
    forms: RebasedForms,
    t: RationalLike,
    z: float,
    x: float,
    order: int | None = None,
    abs_tol: float = SERIES_ABS_TOL,
) -> Probe:
    """Compare sum_n t^n P_n(x) z^n / n! with exp{a(z) x + b(z)}.

    a(z) = psi(t z + m0) and b(z) = -k(a(z)), so the target is exactly the
    closed-form density at mean t z + m0; the sum is the partial-sum engine
    with weight w = t*z.
    """
    t = rat(t)
    if t == 0:
        raise ValueError("Sheffer scaling t must be nonzero")
    tf = float(t)
    w = tf * z
    m = forms.m0 + w
    return _series_probe(seq, forms, {"t": tf, "z": z, "x": x}, x, m, w, order, abs_tol)


def bilinear_identity(
    forms: RebasedForms,
    g: GramMatrix,
    m: float,
    m_prime: float,
    order: int | None = None,
    abs_tol: float = BILINEAR_ABS_TOL,
) -> Probe:
    """exp{k(psi(m) + psi(m')) - k(psi(m)) - k(psi(m'))} vs. the Gram series.

    The series side is 1 + sum_{n,q>=1} a_nq (m-m0)^n (m'-m0)^q truncated at
    the given order, with the exact normalized entries a_nq cast to float.
    """
    if order is None:
        order = g.order
    if order > g.order:
        raise ValueError(f"Gram matrix only reaches order {g.order}")

    def sides() -> tuple[tuple[float, ...], float]:
        th, tp = forms.psi(m), forms.psi(m_prime)
        target = math.exp(forms.cumulant(th + tp) - forms.cumulant(th) - forms.cumulant(tp))
        u, v = m - forms.m0, m_prime - forms.m0
        upow = 1.0
        total = 1.0
        for n in range(1, order + 1):
            upow *= u
            vpow = 1.0
            for q in range(1, order + 1):
                vpow *= v
                anq = g.normalized(n, q)
                if anq != 0:
                    total += float(anq) * upow * vpow
        return (total,), target

    return _probe(forms, {"m": m, "m_prime": m_prime}, order, abs_tol, sides)


@dataclass(frozen=True)
class QuadratureResult:
    n: int
    q: int
    value: float
    error_estimate: float
    converged: bool
    reason: str | None = None  # why the base density could not be evaluated


# A quadrature converges when its error is <= max(ABS_TARGET, REL_TARGET * |value|).
QUAD_REL_TARGET = 1e-8
QUAD_ABS_TARGET = 1e-7
# The exp-sinh rule: trapezoid steps h = 1, 1/2, ..., 2^-QUAD_LEVELS in tau on
# |tau| <= QUAD_T_MAX, where x = m0 exp(pi/2 sinh tau) spans m0 e^(+-43).
QUAD_LEVELS = 6
QUAD_T_MAX = 4


def quadrature_crosscheck(
    forms: RebasedForms,
    seq: PolySequence,
    n: int,
    q: int,
) -> QuadratureResult:
    """Numerically integrate P_n P_q against the base density on (0, inf).

    One nested exp-sinh (double-exponential) trapezoid rule: x = m0 exp(pi/2
    sinh tau) centres the nodes on the base measure's mean and makes the
    integrand decay double-exponentially in tau at both ends.  Each halving
    of the step adds only the odd nodes.  The error estimate is the change
    over the last halving plus the size of the terms at the cut-off
    |tau| = QUAD_T_MAX.  Non-convergence, and an integrand that cannot be
    evaluated (``reason``), are reported through the flag, never raised.
    """
    pn, pq = seq.polys[n], seq.polys[q]

    def term(tau: float) -> float:  # the integrand times dx/dtau
        x = forms.m0 * math.exp(math.pi / 2 * math.sinh(tau))
        dx = x * math.pi / 2 * math.cosh(tau)
        return pn.eval_float(x) * pq.eval_float(x) * forms.base_density(x) * dx

    def integral() -> tuple[float, float]:
        value = total = sum(term(j) for j in range(-QUAD_T_MAX, QUAD_T_MAX + 1))
        h = 1.0
        for _ in range(QUAD_LEVELS):
            h /= 2
            k = round(QUAD_T_MAX / h)
            total += sum(term(j * h) for j in range(1 - k, k, 2))  # the odd, new nodes
            value, previous = h * total, value
        edge = abs(term(-QUAD_T_MAX)) + abs(term(QUAD_T_MAX))
        return value, abs(value - previous) + edge

    (value, err), reason = guarded(integral, failed=(math.nan, math.inf))
    converged = err <= max(QUAD_ABS_TARGET, QUAD_REL_TARGET * abs(value))  # err = inf on failure
    return QuadratureResult(
        n=n, q=q, value=value, error_estimate=err, converged=converged, reason=reason
    )
