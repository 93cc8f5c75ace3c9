from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from nefpoly import (
    X,
    compare_sequences,
    faa_di_bruno_sequence,
    lookup,
    recurrence_sequence,
    scale_sequence,
)
from nefpoly.families import CATALOG
from nefpoly.polyseq import DegenerateScalingError

ANCHORS = (Fraction(1), Fraction(3, 2))


def family_anchor(family, m0):
    # normal and hyperbolic-cosine admit any anchor; everything else needs m0
    # inside its positive domain, which both test anchors satisfy.
    return family.variance_at(m0)


class TestRecurrence:
    def test_ig_low_orders(self):
        seq = recurrence_sequence(lookup("ig").variance_at(1), 3)
        assert seq[0] == 1
        assert seq[1] == X - 1
        assert seq[2] == X**2 - 5 * X + 3
        assert seq[3] == X**3 - 12 * X**2 + 30 * X - 13

    def test_takacs_p2(self):
        seq = recurrence_sequence(lookup("takacs").variance_at(1), 2)
        assert seq[2] == (X**2 - 15 * X + 8).scale(Fraction(1, 36))

    def test_abel_p2(self):
        seq = recurrence_sequence(lookup("abel").variance_at(1), 2)
        assert seq[2] == (X**2 - 10 * X + 5).scale(Fraction(1, 16))

    def test_strict_arcsine_p2(self):
        seq = recurrence_sequence(lookup("strict-arcsine").variance_at(1), 2)
        assert seq[2] == (X**2 - 6 * X + 3).scale(Fraction(1, 4))

    def test_first_step_reproduces_p1(self):
        for family in CATALOG.values():
            spec = family_anchor(family, Fraction(1))
            seq = recurrence_sequence(spec, 1)
            assert seq[1] == (X - spec.m0).scale(1 / spec.a0), family.name

    def test_degrees_and_leading_coefficients(self):
        for family in CATALOG.values():
            for m0 in ANCHORS:
                spec = family_anchor(family, m0)
                seq = recurrence_sequence(spec, 10)
                for n, p in enumerate(seq.polys):
                    assert p.degree == n
                    assert p.leading == spec.a0 ** -n


class TestFaaDiBruno:
    def test_ig_p2_from_derivative_polynomials(self):
        # g1 = x - 1 and g2 = -3x + 2, so P_2 = g1^2 + g2 = x^2 - 5x + 3
        seq = faa_di_bruno_sequence(lookup("ig").variance_at(1), 2)
        assert seq[1] == X - 1
        assert seq[2] == (X - 1) ** 2 + (-3 * X + 2)

    def test_p0_is_the_empty_partition(self):
        for family in CATALOG.values():
            seq = faa_di_bruno_sequence(family_anchor(family, Fraction(1)), 0)
            assert seq[0] == 1

    def test_agrees_with_recurrence_everywhere(self):
        for family in CATALOG.values():
            for m0 in ANCHORS + (Fraction(7, 9),):
                spec = family_anchor(family, m0)
                diff = compare_sequences(
                    recurrence_sequence(spec, 16), faa_di_bruno_sequence(spec, 16)
                )
                assert diff.identical, (family.name, m0, diff.mismatches[:1])

    @pytest.mark.parametrize("name, power", (("ig", 3), ("gamma", 2)))
    def test_matches_sympy_mean_derivatives(self, name, power):
        # Oracle sharing no code with either route: for V(m) = m**power,
        # psi and k o psi as sympy integrals of 1/V and m/V from m0 = 1, then
        # P_n as the n-th m-derivative of exp{psi x - k(psi)} at m0.
        m, u, x = sympy.symbols("m u x")
        V = u**power
        spec = lookup(name).variance_at(1)
        assert sympy.expand(V.subs(u, 1 + u)) == sum(c * u**k for k, c in enumerate(spec.a))
        psi = sympy.integrate(1 / V, (u, 1, m))
        kpsi = sympy.integrate(u / V, (u, 1, m))
        density = sympy.exp(psi * x - kpsi)
        seq = faa_di_bruno_sequence(spec, 8)
        for n in range(9):
            at_m0 = sympy.Poly(sympy.expand(density.subs(m, 1)), x)
            expected = [Fraction(int(c.p), int(c.q)) for c in at_m0.all_coeffs()[::-1]]
            assert list(seq[n].coeffs) == expected, (name, n)
            density = sympy.diff(density, m)


def test_prefix_equals_direct_build():
    for family in CATALOG.values():
        for m0 in (Fraction(1), Fraction(7, 9)):
            spec = family.variance_at(m0)
            long = recurrence_sequence(spec, 20)
            for k in (0, 4, 12, 20):
                assert long.prefix(k) == recurrence_sequence(spec, k), (family.name, m0, k)
    with pytest.raises(ValueError):
        long.prefix(21)


class TestCompare:
    def test_sequence_against_itself(self):
        seq = recurrence_sequence(lookup("ig").variance_at(1), 6)
        assert compare_sequences(seq, seq).identical

    def test_different_families_differ_from_p1_on(self):
        a = recurrence_sequence(lookup("ig").variance_at(1), 6)
        b = recurrence_sequence(lookup("abel").variance_at(1), 6)
        diff = compare_sequences(a, b)
        assert [n for n, _, _ in diff.mismatches] == [1, 2, 3, 4, 5, 6]

    def test_mismatched_anchors_rejected(self):
        a = recurrence_sequence(lookup("ig").variance_at(1), 4)
        b = recurrence_sequence(lookup("ig").variance_at(Fraction(3, 2)), 4)
        with pytest.raises(ValueError):
            compare_sequences(a, b)


class TestScaling:
    def test_unit_scale_is_identity(self):
        seq = recurrence_sequence(lookup("ig").variance_at(1), 5)
        assert scale_sequence(seq, 1).polys == seq.polys

    def test_powers_of_t(self):
        seq = recurrence_sequence(lookup("ig").variance_at(1), 3)
        scaled = scale_sequence(seq, 2)
        assert scaled[2] == (X**2 - 5 * X + 3).scale(4)
        assert scaled[3] == seq[3].scale(8)

    def test_zero_scale_rejected(self):
        seq = recurrence_sequence(lookup("ig").variance_at(1), 3)
        with pytest.raises(DegenerateScalingError):
            scale_sequence(seq, 0)


@given(order=st.integers(min_value=0, max_value=6))
def test_sequence_length_tracks_order(order):
    seq = recurrence_sequence(lookup("ressel").variance_at(1), order)
    assert len(seq) == order + 1 and seq.order == order
