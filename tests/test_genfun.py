import json
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
from nefpoly.cli import main
from nefpoly.nef_model import UnsupportedFamilyError
from nefpoly.polyseq import scale_sequence


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


# No in-domain anchor moves a report's probe point to these; the guard
# turns each exception into a reason on the probe.
@pytest.mark.parametrize(
    "probe, reason",
    (
        # exp(theta x - k(theta)) overflows at x = 2000, m = 3
        (lambda ig: partial_sum_density(ig["seq30"], ig["forms"], x=2000.0, m=3.0),
         "OverflowError: math range error"),
        # theta + theta' = 1/4 is past k's domain theta <= 0
        (lambda ig: bilinear_identity(ig["forms"], ig["gram20"], m=2.0, m_prime=2.0),
         "ValueError: math domain error"),
        (lambda ig: partial_sum_density(ig["seq30"], ig["forms"], x=1.0, m=-0.5),
         "MeanDomainError: mean -0.5 outside mean domain (0.0, inf) of family 'ig'"),
    ),
    ids=("density-overflow", "cumulant-domain", "mean-domain"),
)
def test_probe_errors_are_reasons_not_raised(ig, probe, reason):
    p = probe(ig)
    assert p.reason == reason
    assert not p.converged
    assert p.to_json()["residual"] is None and p.to_json()["reason"] == reason


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

    def test_non_finite_integral_gives_a_reason(self):
        # Q_2 = 10^150 P_2 has float coefficients, but Q_2^2 overflows to inf,
        # and inf * 0 at the far nodes is NaN
        family = lookup("gamma")
        seq = scale_sequence(recurrence_sequence(family.variance_at(1), 2), 10**150)
        res = quadrature_crosscheck(family.rebase(1), seq, 2, 2)
        assert not res.converged
        assert res.reason == "FloatingPointError: non-finite result"

    # poisson is a lattice family; normal's density lives on the whole line
    @pytest.mark.parametrize("name, m0", (("poisson", 1), ("normal", 0)))
    def test_family_without_half_line_density_rejected(self, name, m0):
        family = lookup(name)
        forms = family.rebase(m0)
        seq = recurrence_sequence(family.variance_at(m0), 4)
        with pytest.raises(UnsupportedFamilyError):
            quadrature_crosscheck(forms, seq, 0, 0)


# Seed-1 anchor-sweep anchors below 1 where the float layer passed even with
# probe points fixed at m0 = 1's scale: a change to a float evaluation that
# flips one of these verdicts shows here.
PASSING_SMALL_ANCHORS = [
    ("ig", "3/4"), ("ig", "8/9"),
    ("gamma", "3/5"), ("gamma", "2/3"), ("gamma", "6/7"),
    ("poisson", "1/6"), ("poisson", "1/5"), ("poisson", "1/4"), ("poisson", "2/7"),
    ("poisson", "3/8"), ("poisson", "2/5"), ("poisson", "1/2"), ("poisson", "3/5"),
    ("poisson", "3/4"), ("poisson", "7/9"),
]


@pytest.mark.parametrize("family, m0", PASSING_SMALL_ANCHORS)
def test_genfun_passes_at_small_anchors(capsys, family, m0):
    assert main(["verify", family, f"--m0={m0}", "--checks", "genfun"]) == 0
    capsys.readouterr()


# Where probe points fixed at m0 = 1's scale failed: the smallest sweep
# anchors and the neighbours of PASSING_SMALL_ANCHORS.
@pytest.mark.parametrize(
    "family, m0",
    [("ig", "1/8"), ("ig", "3/5"), ("gamma", "1/8"), ("gamma", "1/2"),
     ("poisson", "1/8"), ("poisson", "1/7")],
)
def test_probe_geometry_follows_the_anchor(capsys, family, m0):
    assert main(["verify", family, f"--m0={m0}", "--checks", "genfun"]) == 0
    genfun = json.loads(capsys.readouterr().out)["body"]["families"][0]["checks"]["genfun"]
    s = float(Fraction(m0))  # min(1, distance to the boundary 0)
    assert [p["x"] for p in genfun["partial_sum"][:3]] == [s * x for x in (0.5, 1.0, 2.0)]
    assert [p["z"] for p in genfun["sheffer"][::3]] == [s * z for z in (0.05, 0.1)]
    if family != "poisson":  # quadrature runs on t^n P_n with t ~ sqrt(a0) < 1
        t, a0 = Fraction(genfun["quadrature_t"]), lookup(family).variance_at(m0).a0
        assert 0 < t * t <= a0 < (t + Fraction(1, t.denominator)) ** 2
