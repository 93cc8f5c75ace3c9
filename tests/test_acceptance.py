"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here, not configured elsewhere.  The exact-layer
criteria assert rational identities (no tolerance at all); the float-layer
criteria use the absolute tolerances stated with each check.
"""

import math
import time
from fractions import Fraction

from nefpoly import (
    bilinear_identity,
    check_full_orthogonality,
    check_two_orthogonality,
    compare_sequences,
    faa_di_bruno_sequence,
    fit_recurrence,
    gram,
    lookup,
    moment_table,
    partial_sum_density,
    quadrature_crosscheck,
    recover_variance_from_gram,
    recurrence_sequence,
    scale_sequence,
    sheffer_check,
)
from nefpoly.families import CATALOG, negative_binomial

from oracles import all_comparisons

CUBIC = ("ig", "strict-arcsine", "takacs", "large-arcsine", "ressel", "abel")


def announce(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")


def default_anchor(family):
    return 0 if family.mean_domain == (None, None) else 1


def test_criterion_1_exact_two_orthogonality_of_cubic_rows():
    start = time.monotonic()
    ok = True
    for name in CUBIC:
        spec = lookup(name).variance_at(1)
        seq = recurrence_sequence(spec, 12)
        g = gram(seq, moment_table(spec, 24))
        for n in range(1, 13):
            if g.entry(n, 0) != 0:
                ok = False
            for q in range(1, 13):
                if n >= 2 * q and g.entry(n, q) != 0:
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    announce(1, ok, f"exact 2-orthogonality, six cubic rows, N=12 ({elapsed:.2f}s)")
    assert ok


def test_criterion_2_quadratic_baselines_are_fully_orthogonal():
    cases = [
        (lookup("normal"), 0),
        (lookup("poisson"), 1),
        (lookup("gamma"), 1),
        (negative_binomial(Fraction(3, 2)), 1),
    ]
    ok = True
    for family, m0 in cases:
        spec = family.variance_at(m0)
        seq = recurrence_sequence(spec, 10)
        rep = check_full_orthogonality(gram(seq, moment_table(spec, 20)))
        ok = ok and rep.verdict == "fully_orthogonal"
    announce(2, ok, "diagonal Gram matrices for the quadratic baselines, N=10")
    assert ok


def test_criterion_3_recurrence_equals_partition_expansion():
    ok = True
    for family in CATALOG.values():
        for m0 in (Fraction(1), Fraction(3, 2)):
            spec = family.variance_at(m0)
            diff = compare_sequences(
                recurrence_sequence(spec, 10), faa_di_bruno_sequence(spec, 10)
            )
            ok = ok and diff.identical
    announce(3, ok, "recurrence == Faa di Bruno (Bell recursion), all families, m0 in {1, 3/2}")
    assert ok


def test_criterion_4_variance_round_trip():
    ok = True
    for family in CATALOG.values():
        spec = family.variance_at(default_anchor(family))
        fit = fit_recurrence(recurrence_sequence(spec, 8))
        ok = ok and fit.exact and fit.a == spec.a and fit.m0 == spec.m0

    spec = lookup("ig").variance_at(1)
    g = gram(recurrence_sequence(spec, 3), moment_table(spec, 6))
    ok = ok and (g.entry(1, 1), g.entry(2, 2), g.entry(2, 3)) == (1, 8, 6)
    rec = recover_variance_from_gram(g)
    ok = ok and (rec.a0, rec.a2, rec.a3) == (1, 3, 1)
    announce(4, ok, "recurrence fit and Gram recovery reproduce every variance exactly")
    assert ok


def test_criterion_5_printed_table_reproduction_with_misprint_detection():
    cmp = {c.family: c for c in all_comparisons()}
    ok = all(c.p1_matches and c.recurrence_matches for c in cmp.values())
    for name in ("takacs", "large-arcsine", "ressel"):
        ok = ok and cmp[name].p2_matches
    for name in ("ig", "strict-arcsine", "abel"):
        c = cmp[name]
        ok = ok and not c.p2_matches and c.p2_defect_inner_product != 0
    ok = ok and cmp["ig"].p2_defect_inner_product == -1
    announce(5, ok, "printed rows reproduced; the three P_2 misprints flagged")
    assert ok


def test_criterion_6_density_series_convergence():
    family = lookup("ig")
    seq = recurrence_sequence(family.variance_at(1), 30)
    forms = family.rebase(1)
    worst = 0.0
    for x in (0.5, 1.0, 2.0):
        for m in (1.05, 1.1):
            probe = partial_sum_density(seq, forms, x=x, m=m, order=30)
            worst = max(worst, probe.residual)
    ok = worst <= 1e-8
    announce(6, ok, f"density partial sums at N=30, worst residual {worst:.2e} <= 1e-8")
    assert ok


def test_criterion_7_bilinear_identity():
    family = lookup("ig")
    spec = family.variance_at(1)
    forms = family.rebase(1)
    g = gram(recurrence_sequence(spec, 20), moment_table(spec, 40))
    worst = 0.0
    for dm in (-0.05, 0.0, 0.05):
        for dmp in (-0.05, 0.0, 0.05):
            probe = bilinear_identity(
                forms, g, m=1.0 + dm, m_prime=1.0 + dmp, order=20
            )
            worst = max(worst, probe.residual)
    ok = worst <= 1e-6
    announce(7, ok, f"bilinear identity on the 3x3 grid, worst residual {worst:.2e} <= 1e-6")
    assert ok


def test_criterion_8_exponential_generating_function_of_scaled_sequence():
    family = lookup("ig")
    spec = family.variance_at(1)
    seq = recurrence_sequence(spec, 30)
    forms = family.rebase(1)
    worst = 0.0
    for z in (0.05, 0.1):
        for x in (0.5, 1.0, 2.0):
            probe = sheffer_check(seq, forms, t=Fraction(1, 2), z=z, x=x, order=30)
            worst = max(worst, probe.residual)
    ok = worst <= 1e-8

    scaled = scale_sequence(recurrence_sequence(spec, 12), Fraction(1, 2))
    rep = check_two_orthogonality(gram(scaled, moment_table(spec, 24)))
    ok = ok and rep.verdict == "two_orthogonal"
    announce(8, ok, f"scaled EGF residual {worst:.2e} <= 1e-8; scaling keeps 2-orthogonality")
    assert ok


def test_criterion_9_quadrature_matches_exact_gram():
    family = lookup("ig")
    spec = family.variance_at(1)
    seq = recurrence_sequence(spec, 12)
    g = gram(seq, moment_table(spec, 24))
    forms = family.rebase(1)
    worst = 0.0
    for n in range(0, 9):
        for q in range(n, 9 - n):
            res = quadrature_crosscheck(forms, seq, n, q)
            worst = max(worst, abs(res.value - float(g.entry(n, q))))
    ok = worst <= 1e-6
    announce(9, ok, f"quadrature vs exact Gram, n+q <= 8, worst |diff| {worst:.2e} <= 1e-6")
    assert ok
