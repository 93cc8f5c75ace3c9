import math
from fractions import Fraction

import pytest

from nefpoly import (
    bilinear_identity,
    gram,
    lookup,
    moment_table,
    partial_sum_density,
    quadrature_crosscheck,
    recurrence_sequence,
    sheffer_check,
)
from nefpoly.nef_model import UnsupportedFamilyError


@pytest.fixture(scope="module")
def ig():
    family = lookup("ig")
    spec = family.variance_at(1)
    return {
        "forms": family.rebase(1),
        "seq30": recurrence_sequence(spec, 30),
        "gram20": gram(recurrence_sequence(spec, 20), moment_table(spec, 40)),
        "gram12": gram(recurrence_sequence(spec, 12), moment_table(spec, 24)),
        "spec": spec,
    }


class TestPartialSums:
    def test_identity_at_the_anchor(self, ig):
        probe = partial_sum_density(ig["seq30"], ig["forms"], x=2.7, m=1.0)
        assert probe.target == 1.0
        assert all(s == 1.0 for s in probe.partial_sums)
        assert probe.residual == 0.0

    @pytest.mark.parametrize("x", (0.5, 1.0, 2.0))
    @pytest.mark.parametrize("m", (1.05, 1.1))
    def test_ig_window_converges_tightly(self, ig, x, m):
        probe = partial_sum_density(ig["seq30"], ig["forms"], x=x, m=m)
        assert probe.residual <= 1e-8
        assert probe.converged

    def test_residuals_track_partial_sums(self, ig):
        probe = partial_sum_density(ig["seq30"], ig["forms"], x=1.0, m=1.1)
        assert len(probe.residuals) == probe.order + 1
        assert probe.residuals[-1] == probe.residual

    def test_far_mean_reports_nonconvergence(self, ig):
        probe = partial_sum_density(ig["seq30"], ig["forms"], x=1.0, m=3.0)
        assert not probe.converged
        assert probe.residual > 1.0

    def test_truncation_monotone_inside_window(self, ig):
        probe = partial_sum_density(ig["seq30"], ig["forms"], x=1.0, m=1.1)
        assert probe.residuals[20] <= probe.residuals[5]

    @pytest.mark.parametrize("x", (0.5, 1.0, 2.0))
    @pytest.mark.parametrize("m", (1.05, 1.1))
    def test_residuals_nonincreasing_past_burn_in(self, ig, x, m):
        # inside the window the residual tail decreases monotonically from
        # N0 <= 15 on, up to one ulp of float noise
        r = partial_sum_density(ig["seq30"], ig["forms"], x=x, m=m).residuals
        assert all(r[n + 1] <= r[n] + 1e-15 for n in range(15, 30))

    def test_order_beyond_sequence_rejected(self, ig):
        with pytest.raises(ValueError):
            partial_sum_density(ig["seq30"], ig["forms"], x=1.0, m=1.05, order=40)


class TestSheffer:
    def test_z_zero_is_exact(self, ig):
        probe = sheffer_check(ig["seq30"], ig["forms"], t=Fraction(1, 2), z=0.0, x=1.3)
        assert probe.residual == 0.0

    @pytest.mark.parametrize("z", (0.05, 0.1))
    @pytest.mark.parametrize("x", (0.5, 1.0, 2.0))
    def test_ig_criterion_points(self, ig, z, x):
        probe = sheffer_check(ig["seq30"], ig["forms"], t=Fraction(1, 2), z=z, x=x)
        assert probe.residual <= 1e-8

    def test_unit_scale_reduces_to_partial_sums_bitwise(self, ig):
        # z = 1/2 makes m0 + 1.0*z exactly representable, so both paths see
        # identical float weights and must agree to the last bit
        z = 0.5
        sh = sheffer_check(ig["seq30"], ig["forms"], t=1, z=z, x=0.7)
        ps = partial_sum_density(ig["seq30"], ig["forms"], x=0.7, m=1.0 + z)
        assert sh.partial_sums == ps.partial_sums
        assert sh.target == ps.target
        assert sh.residual == ps.residual

    def test_zero_scale_rejected(self, ig):
        with pytest.raises(ValueError):
            sheffer_check(ig["seq30"], ig["forms"], t=0, z=0.1, x=1.0)


class TestBilinear:
    def test_anchor_point_is_exactly_one(self, ig):
        probe = bilinear_identity(ig["forms"], ig["gram20"], m=1.0, m_prime=1.0)
        assert probe.target == 1.0 and probe.partial_sums == (1.0,)
        assert probe.residual == 0.0

    def test_window_grid(self, ig):
        for dm in (-0.05, 0.0, 0.05):
            for dmp in (-0.05, 0.0, 0.05):
                probe = bilinear_identity(
                    ig["forms"], ig["gram20"], m=1.0 + dm, m_prime=1.0 + dmp, order=20
                )
                assert probe.residual <= 1e-6, (dm, dmp)

    def test_truncation_monotone(self, ig):
        r5 = bilinear_identity(ig["forms"], ig["gram20"], 1.05, 1.05, order=5).residual
        r20 = bilinear_identity(ig["forms"], ig["gram20"], 1.05, 1.05, order=20).residual
        assert r20 <= r5

    def test_order_beyond_gram_rejected(self, ig):
        with pytest.raises(ValueError):
            bilinear_identity(ig["forms"], ig["gram12"], 1.0, 1.0, order=30)


class TestQuadrature:
    def test_total_mass_tight(self, ig):
        res = quadrature_crosscheck(ig["forms"], ig["seq30"], 0, 0)
        assert abs(res.value - 1.0) <= 1e-9
        assert res.converged

    def test_diagonal_entry_relative(self, ig):
        res = quadrature_crosscheck(ig["forms"], ig["seq30"], 2, 2)
        assert abs(res.value - 8.0) / 8.0 <= 1e-6

    def test_required_zero_absolute(self, ig):
        res = quadrature_crosscheck(ig["forms"], ig["seq30"], 2, 1)
        assert abs(res.value) <= 1e-6

    def test_gamma_laguerre_norms(self):
        # shape-1 gamma anchored at 1 is the unit exponential law, whose
        # sequence has the classical squared norms (n!)^2
        family = lookup("gamma")
        spec = family.variance_at(1)
        forms = family.rebase(1)
        seq = recurrence_sequence(spec, 4)
        for n in (2, 3):
            res = quadrature_crosscheck(forms, seq, n, n)
            assert abs(res.value - math.factorial(n) ** 2) <= 1e-6

    def test_unevaluable_base_density_gives_a_reason(self):
        # psi(m0) rounds to theta = 1 in floats, where k = -log(1 - theta)
        # has its pole, so the base density cannot be evaluated
        family = lookup("gamma")
        m0 = 10**17
        seq = recurrence_sequence(family.variance_at(m0), 1)
        res = quadrature_crosscheck(family.rebase(m0), seq, 0, 0)
        assert not res.converged
        assert res.reason == "ValueError: math domain error"

    @pytest.mark.parametrize("m0", (10**170, 10**200, 10**300), ids=("10^170", "10^200", "10^300"))
    def test_huge_split_gives_a_reason(self, m0):
        # past a split of ~1.3e154 the lower-tail substitution x = 1/y
        # divides by y*y, which underflows to 0
        family = lookup("ig")
        seq = recurrence_sequence(family.variance_at(m0), 1)
        res = quadrature_crosscheck(family.rebase(m0), seq, 0, 0)
        assert not res.converged
        assert res.reason == "ZeroDivisionError: float division by zero"

    # poisson is a lattice family; normal's density lives on the whole line
    @pytest.mark.parametrize("name, m0", (("poisson", 1), ("normal", 0)))
    def test_family_without_half_line_density_rejected(self, name, m0):
        family = lookup(name)
        forms = family.rebase(m0)
        seq = recurrence_sequence(family.variance_at(m0), 4)
        with pytest.raises(UnsupportedFamilyError):
            quadrature_crosscheck(forms, seq, 0, 0)
