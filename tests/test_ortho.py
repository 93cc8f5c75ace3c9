from fractions import Fraction

import pytest

from nefpoly import (
    InsufficientMomentsError,
    NonNefSequenceError,
    Poly,
    PolySequence,
    X,
    check_full_orthogonality,
    check_two_orthogonality,
    fit_recurrence,
    gram,
    inner_product,
    lookup,
    moment_table,
    recover_variance_from_gram,
    recurrence_sequence,
    scale_sequence,
)
from nefpoly.families import CATALOG
from nefpoly.ortho import DegenerateFamilyError, GramMatrix, expand_in_basis, forced_zero
from nefpoly.table1 import PRINTED_ROWS

from oracles import monomial


def default_anchor(family):
    return 0 if family.mean_domain == (None, None) else 1


def ig_setup(order=12):
    spec = lookup("ig").variance_at(1)
    seq = recurrence_sequence(spec, order)
    mom = moment_table(spec, 2 * order)
    return spec, seq, mom


class TestInnerProduct:
    def test_total_mass(self):
        _, _, mom = ig_setup(2)
        assert inner_product(Poly.one(), Poly.one(), mom) == 1

    def test_p1_squared_is_inverse_anchor_variance(self):
        spec, seq, mom = ig_setup(2)
        assert inner_product(seq[1], seq[1], mom) == 1 / spec.a0 == 1

    def test_p1_p2_vanishes(self):
        _, seq, mom = ig_setup(2)
        assert inner_product(seq[1], seq[2], mom) == 0

    def test_insufficient_order_reported(self):
        _, seq, _ = ig_setup(3)
        short = moment_table(lookup("ig").variance_at(1), 2)
        with pytest.raises(InsufficientMomentsError, match="order 5"):
            inner_product(seq[2], seq[3], short)


class TestGram:
    def test_ig_values_against_moment_oracle(self):
        # independent expansion: coefficients of P_2^2, P_2 P_3 dotted with
        # the closed-form moment list (1, 1, 2, 7, 37, 266, 2431)
        mom_list = [1, 1, 2, 7, 37, 266, 2431]

        def dot(coeffs):
            return sum(c * mom_list[k] for k, c in enumerate(coeffs))

        _, seq, mom = ig_setup(3)
        g = gram(seq, mom)
        assert g.entry(2, 2) == dot((seq[2] * seq[2]).coeffs) == 8
        assert g.entry(2, 3) == dot((seq[2] * seq[3]).coeffs) == 6
        assert g.entry(3, 3) == dot((seq[3] * seq[3]).coeffs) == 186

    def test_first_row_vanishes(self):
        _, seq, mom = ig_setup(6)
        g = gram(seq, mom)
        assert all(g.entry(0, n) == 0 for n in range(1, 7))
        assert g.entry(0, 0) == 1

    def test_symmetry(self):
        _, seq, mom = ig_setup(5)
        g = gram(seq, mom)
        for n in range(6):
            for q in range(6):
                assert g.entry(n, q) == g.entry(q, n)

    def test_normalized_entries(self):
        _, seq, mom = ig_setup(3)
        g = gram(seq, mom)
        assert g.normalized(2, 2) == 2
        assert g.normalized(2, 3) == Fraction(1, 2)

    def test_leading_block_equals_direct_build(self):
        for family in CATALOG.values():
            for m0 in (Fraction(1), Fraction(7, 9)):
                spec = family.variance_at(m0)
                g20 = gram(recurrence_sequence(spec, 20), moment_table(spec, 40))
                for k in (0, 4, 12):
                    direct = gram(recurrence_sequence(spec, k), moment_table(spec, 2 * k))
                    assert g20.leading(k) == direct, (family.name, m0, k)
        with pytest.raises(ValueError):
            g20.leading(21)


class TestTwoOrthogonality:
    def test_forced_zero_pattern(self):
        # rows 0..4: the mean row/column, then n >= 2q or q >= 2n off (0, 0)
        got = [[int(forced_zero(n, q)) for q in range(5)] for n in range(5)]
        assert got == [
            [0, 1, 1, 1, 1],
            [1, 0, 1, 1, 1],
            [1, 1, 0, 0, 1],
            [1, 1, 0, 0, 0],
            [1, 1, 1, 0, 0],
        ]

    def test_ig_to_order_twelve(self):
        _, seq, mom = ig_setup(12)
        rep = check_two_orthogonality(gram(seq, mom))
        assert rep.verdict == "two_orthogonal"
        assert rep.violations == ()
        assert rep.checked_order == 12

    def test_printed_p2_variant_violates_at_2_1(self):
        spec, seq, mom = ig_setup(5)
        polys = list(seq.polys)
        polys[2] = PRINTED_ROWS["ig"].p2  # x^2 - 6x + 3, the misprint
        bad = PolySequence(spec=spec, polys=tuple(polys), provenance="corrupted")
        rep = check_two_orthogonality(gram(bad, mom))
        assert rep.verdict == "neither"
        hits = {(v.n, v.q): v.value for v in rep.violations}
        assert hits[(2, 1)] == -1

    def test_constant_sequence_violates_mean_zero(self):
        spec, _, mom = ig_setup(2)
        bad = PolySequence(
            spec=spec, polys=(Poly.one(), Poly.one(), Poly.one()), provenance="constant"
        )
        rep = check_two_orthogonality(gram(bad, mom))
        assert (1, 0) in {(v.n, v.q) for v in rep.violations}

    def test_every_catalog_family_passes(self):
        for family in CATALOG.values():
            spec = family.variance_at(default_anchor(family))
            seq = recurrence_sequence(spec, 10)
            rep = check_two_orthogonality(gram(seq, moment_table(spec, 20)))
            assert rep.verdict == "two_orthogonal", family.name

    def test_scaling_preserves_verdict_and_scales_entries(self):
        t = Fraction(-2, 3)
        spec, seq, mom = ig_setup(8)
        g = gram(seq, mom)
        gq = gram(scale_sequence(seq, t), mom)
        for n in range(9):
            for q in range(9):
                assert gq.entry(n, q) == t ** (n + q) * g.entry(n, q)
        assert check_two_orthogonality(gq).verdict == "two_orthogonal"


class TestFullOrthogonality:
    def test_poisson_is_diagonal(self):
        spec = lookup("poisson").variance_at(1)
        seq = recurrence_sequence(spec, 10)
        rep = check_full_orthogonality(gram(seq, moment_table(spec, 20)))
        assert rep.verdict == "fully_orthogonal"

    def test_ig_is_not(self):
        _, seq, mom = ig_setup(10)
        rep = check_full_orthogonality(gram(seq, mom))
        assert rep.verdict == "neither"
        assert (2, 3) in {(v.n, v.q) for v in rep.violations} or (3, 2) in {
            (v.n, v.q) for v in rep.violations
        }

    def test_diagonal_implies_two_orthogonal(self):
        for family in CATALOG.values():
            spec = family.variance_at(default_anchor(family))
            seq = recurrence_sequence(spec, 8)
            g = gram(seq, moment_table(spec, 16))
            if check_full_orthogonality(g).verdict == "fully_orthogonal":
                assert check_two_orthogonality(g).verdict == "two_orthogonal"


class TestPerturbationSensitivity:
    def test_single_coefficient_bump_breaks_the_verdict(self):
        # +1 on any one coefficient of any P_n (n >= 2) must surface a
        # violation within Gram order n + 3
        for name in ("ig", "takacs", "abel", "normal", "poisson"):
            family = lookup(name)
            spec = family.variance_at(default_anchor(family))
            for n in (2, 3, 4):
                order = n + 3
                seq = recurrence_sequence(spec, order)
                mom = moment_table(spec, 2 * order)
                for j in range(n + 1):
                    polys = list(seq.polys)
                    polys[n] = polys[n] + monomial(j)
                    bad = PolySequence(spec=spec, polys=tuple(polys), provenance="bumped")
                    rep = check_two_orthogonality(gram(bad, mom))
                    assert rep.verdict == "neither", (name, n, j)


class TestFitRecurrence:
    def test_round_trip_on_catalog(self):
        for family in CATALOG.values():
            for m0 in (default_anchor(family), Fraction(3, 2)):
                spec = family.variance_at(m0)
                fit = fit_recurrence(recurrence_sequence(spec, 8))
                assert fit.exact, family.name
                assert fit.a == spec.a and fit.m0 == spec.m0

    def test_takacs_frozen(self):
        fit = fit_recurrence(recurrence_sequence(lookup("takacs").variance_at(1), 6))
        assert (fit.a, fit.m0) == ((6, 13, 9, 2), 1)

    def test_monomials_leave_residuals(self):
        spec = lookup("ig").variance_at(1)
        monomials = PolySequence(
            spec=spec,
            polys=tuple(monomial(k) for k in range(7)),
            provenance="monomials",
        )
        fit = fit_recurrence(monomials)
        assert not fit.exact

    def test_needs_order_four(self):
        seq = recurrence_sequence(lookup("ig").variance_at(1), 3)
        with pytest.raises(NonNefSequenceError):
            fit_recurrence(seq)

    def test_degenerate_degrees_rejected(self):
        spec = lookup("ig").variance_at(1)
        bad = PolySequence(
            spec=spec, polys=(Poly.one(),) * 6, provenance="flat"
        )
        with pytest.raises(NonNefSequenceError):
            fit_recurrence(bad)

    def test_quadratic_specs_collapse_to_three_terms(self):
        # with a3 = 0 the P_{n-2} component of x P_n vanishes identically
        for name in ("normal", "poisson", "gamma", "binomial"):
            family = lookup(name)
            spec = family.variance_at(default_anchor(family))
            seq = recurrence_sequence(spec, 9)
            for n in range(2, 9):
                coords = expand_in_basis(X * seq[n], list(seq.polys[: n + 2]))
                assert coords[n - 2] == 0, (name, n)
                assert all(c == 0 for c in coords[: n - 2])


class TestRecoverFromGram:
    def test_ig_partial_recovery(self):
        _, seq, mom = ig_setup(3)
        rec = recover_variance_from_gram(gram(seq, mom))
        assert (rec.a0, rec.a2, rec.a3) == (1, 3, 1)

    def test_quadratic_families_have_zero_cubic_coefficient(self):
        for name in ("poisson", "normal", "gamma"):
            family = lookup(name)
            spec = family.variance_at(default_anchor(family))
            seq = recurrence_sequence(spec, 3)
            rec = recover_variance_from_gram(gram(seq, moment_table(spec, 6)))
            assert rec.a3 == 0
            assert rec.a0 == spec.a0 and rec.a2 == spec.a2

    def test_all_cubic_rows_recover_exactly(self):
        for family in CATALOG.values():
            spec = family.variance_at(default_anchor(family))
            seq = recurrence_sequence(spec, 3)
            rec = recover_variance_from_gram(gram(seq, moment_table(spec, 6)))
            assert (rec.a0, rec.a2, rec.a3) == (spec.a0, spec.a2, spec.a3), family.name

    def test_degenerate_gram_rejected(self):
        z = Fraction(0)
        entries = tuple(
            tuple(Fraction(1) if n == q == 0 else z for q in range(4)) for n in range(4)
        )
        with pytest.raises(DegenerateFamilyError):
            recover_variance_from_gram(GramMatrix(entries=entries))
