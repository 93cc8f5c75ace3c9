import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nefpoly.cli import main
from nefpoly.report import VerifyOptions


EXACT = "two-ortho,full-ortho,bruno,recover"
TINY = "1/1" + "0" * 40  # 1/10^40
HUGE = "1" + "0" * 400  # 10^400


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def strict_json(text):
    """json.loads that rejects the bare NaN and Infinity RFC 8259 does not allow."""

    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    return json.loads(text, parse_constant=reject)


class TestFamilies:
    def test_counts(self, capsys):
        code, out = run(capsys, "families")
        assert code == 0
        assert len(out.strip().splitlines()) == 12

    def test_cubic_filter(self, capsys):
        code, out = run(capsys, "families", "--class", "cubic")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("ig")

    def test_json_format(self, capsys):
        code, out = run(capsys, "families", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert {f["name"] for f in payload} >= {"ig", "poisson", "takacs"}
        assert all({"variance", "mean_domain", "params"} <= f.keys() for f in payload)


class TestTable:
    def test_ig_rows(self, capsys):
        code, out = run(capsys, "table", "ig", "--m0", "1", "--n", "3")
        assert code == 0
        assert out.splitlines() == [
            "P_0(x) = 1",
            "P_1(x) = x - 1",
            "P_2(x) = x^2 - 5x + 3",
            "P_3(x) = x^3 - 12x^2 + 30x - 13",
        ]

    def test_order_zero(self, capsys):
        code, out = run(capsys, "table", "ig", "--n", "0")
        assert code == 0
        assert out.strip() == "P_0(x) = 1"

    def test_takacs_includes_printed_row(self, capsys):
        code, out = run(capsys, "table", "takacs", "--m0", "1", "--n", "2")
        assert code == 0
        assert "P_2(x) = (1/36)x^2 - (5/12)x + 2/9" in out

    def test_json_payload(self, capsys):
        code, out = run(capsys, "table", "ig", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["family"] == "ig"
        assert payload["a"] == ["1", "3", "3", "1"]
        assert payload["N"] == 2
        assert payload["provenance"] == "recurrence"
        assert payload["polys"][2] == ["3", "-5", "1"]

    def test_csv_layout(self, capsys):
        code, out = run(capsys, "table", "ig", "--n", "2", "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,c0,c1,c2"
        assert lines[3] == "2,3,-5,1"

    def test_latex_output(self, capsys):
        code, out = run(capsys, "table", "takacs", "--n", "2", "--format", "latex")
        assert code == 0
        assert out.startswith(r"\begin{aligned}")
        assert r"\tfrac{1}{36}" in out

    def test_rational_anchor(self, capsys):
        code, out = run(capsys, "table", "ig", "--m0", "3/2", "--n", "1")
        assert code == 0
        assert "P_1(x)" in out

    def test_unknown_family_is_usage_error(self, capsys):
        assert main(["table", "nosuch"]) == 2

    def test_out_of_domain_anchor_is_usage_error(self, capsys):
        assert main(["table", "ig", "--m0", "-1"]) == 2

    def test_bad_rational_is_usage_error(self, capsys):
        assert main(["table", "ig", "--m0", "1.5.2"]) == 2

    def test_negative_rational_after_separate_flag(self, capsys):
        code, out = run(capsys, "table", "normal", "--m0", "-3/7", "--n", "1")
        assert code == 0
        assert out.splitlines()[1] == "P_1(x) = x + 3/7"


@pytest.mark.parametrize(
    "argv, minimum",
    (
        (["verify", "poisson", "--checks", "two-ortho"], 4),
        (["table", "ig"], 0),
        (["gram", "ig"], 0),
    ),
)
def test_order_below_minimum_is_usage_error(capsys, argv, minimum):
    assert main(argv + ["--n", str(minimum - 1)]) == 2
    assert f"argument --n: must be an integer >= {minimum}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    (
        ["families"],
        ["table", "ig"],
        ["gram", "ig"],
        ["verify", "poisson", "--checks", "two-ortho"],
    ),
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "missing" / "x.json")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    (
        (["ig", "--checks", ","], "argument --checks: must list distinct checks"),
        (["ig", "--checks", "two-ortho,two-ortho"], "argument --checks: must list distinct"),
        (["--all", "ig", "--checks", "two-ortho"], "verify: pass one or more family names"),
        (["ig", "--m0=2", "--inject-typo", "table1-p2", "--checks", "two-ortho"],
         "error: --inject-typo: no selected family has a printed row"),
        (["ig", "--inject-typo", "table1-p2", "--checks", "bruno,genfun"],
         "error: --inject-typo: no selected check reads P_2"),
        (["negative-binomial", "--checks", "genfun"],
         "error: --checks genfun: no selected family has closed forms"),
    ),
)
def test_verify_run_that_checks_nothing_or_ignores_a_flag_is_usage_error(capsys, argv, message):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    # One line, after argparse's usage block when argparse rejects the value.
    assert message in err[-1]
    assert len(err) == 1 or err[0].startswith("usage: ")


def test_verify_options_reject_low_exact_order():
    with pytest.raises(ValueError):
        VerifyOptions(exact_order=3)


class TestGram:
    def test_json_entries_are_exact_strings(self, capsys):
        code, out = run(capsys, "gram", "ig", "--n", "3", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["entries"][2][2] == "8"
        assert payload["entries"][2][3] == "6"
        assert payload["entries"][1][0] == "0"

    def test_poisson_diagonal(self, capsys):
        code, out = run(capsys, "gram", "poisson", "--n", "4", "--format", "json")
        payload = json.loads(out)
        for n in range(5):
            for q in range(5):
                if n != q:
                    assert payload["entries"][n][q] == "0"

    def test_text_marks_zero_pattern(self, capsys):
        code, out = run(capsys, "gram", "ig", "--n", "3")
        assert code == 0
        assert "." in out and "2-orthogonality" in out


class TestVerify:
    def test_requires_target(self, capsys):
        assert main(["verify"]) == 2

    def test_unknown_check_rejected(self, capsys):
        assert main(["verify", "ig", "--checks", "nope"]) == 2

    def test_single_family_check_filter(self, capsys):
        code, out = run(capsys, "verify", "poisson", "--checks", "two-ortho")
        payload = json.loads(out)
        assert code == 0
        checks = payload["body"]["families"][0]["checks"]
        assert checks["two-ortho"]["pass"] is True
        assert checks["bruno"] is None and checks["genfun"] is None

    def test_all_passes_and_lists_misprints(self, capsys):
        code, out = run(capsys, "verify", "--all", "--n", "8")
        payload = json.loads(out)
        assert code == 0
        assert payload["body"]["overall_pass"] is True
        flagged = {
            f["family"]
            for f in payload["body"]["families"]
            if any(d["kind"] == "p2-misprint" for d in f["table1_discrepancies"])
        }
        assert flagged == {"ig", "strict-arcsine", "abel"}

    def test_injected_typo_fails_with_violation(self, capsys):
        code, out = run(capsys, "verify", "ig", "--n", "6", "--inject-typo", "table1-p2")
        payload = json.loads(out)
        assert code == 1
        block = payload["body"]["families"][0]
        assert block["injected_typo"] == "table1-p2"
        two = block["checks"]["two-ortho"]
        assert two["pass"] is False
        assert {"n": 2, "q": 1, "value": "-1"} in two["violations"]

    def test_bruno_follows_n(self, capsys):
        code, out = run(capsys, "verify", "ig", "--n", "16", "--checks", "bruno")
        assert code == 0
        block = json.loads(out)["body"]["families"][0]
        assert block["checks"]["bruno"]["order"] == block["checked_order"] == 16

    def test_negative_rational_after_separate_flag(self, capsys):
        code, out = run(capsys, "verify", "normal", "--m0", "-3/7", "--checks", "two-ortho")
        assert code == 0
        assert json.loads(out)["body"]["families"][0]["m0"] == "-3/7"

    @pytest.mark.parametrize(
        "family, m0, reason",
        (
            ("ig", "1/100", "OverflowError"),  # exp overflows in the density
            ("ig", "1/10", "ValueError"),  # theta + theta' leaves k's domain
            ("poisson", "1/50", "MeanDomainError"),  # probe mean m0 - 0.05 < 0
            ("ig", "1/10000", "OverflowError"),  # a coefficient of P_30 exceeds float range
            ("normal", "-12416752934984733167", "OverflowError"),  # P_30 overflows here too
            # Gram entries past float range: the quadrature cannot compare them
            pytest.param("gamma", TINY, "OverflowError", id="gamma-1/10^40"),
            pytest.param("ig", TINY, "OverflowError", id="ig-1/10^40"),
        ),
    )
    def test_probe_errors_are_reported_not_raised(self, capsys, family, m0, reason):
        code, out = run(capsys, "verify", family, f"--m0={m0}", "--checks", "genfun")
        assert code in (0, 1)
        genfun = json.loads(out)["body"]["families"][0]["checks"]["genfun"]
        failed = [
            p
            for kind in ("partial_sum", "sheffer", "bilinear")
            for p in genfun[kind]
            if "reason" in p
        ]
        assert failed and any(p["reason"].startswith(reason + ":") for p in failed)
        assert all(p["converged"] is False and p["residual"] is None for p in failed)
        unevaluated = [e for e in genfun["quadrature"] or () if "reason" in e]
        assert all(
            e["pass"] is False and e["value"] is e["error_estimate"] is e["abs_diff"] is None
            for e in unevaluated
        )
        if m0 == TINY:
            assert code == 1
            assert any(e["reason"].startswith("OverflowError:") for e in unevaluated)

    @pytest.mark.parametrize(
        "family, m0",
        (
            ("gamma", "1/" + HUGE),  # rounds to 0.0: psi divides by zero
            ("ig", "1/" + HUGE),
            ("poisson", "1/" + HUGE),  # log(0.0) leaves the float domain
            ("ig", HUGE),  # float(m0) overflows
            ("gamma", HUGE),
            ("poisson", HUGE),
            ("normal", HUGE),
            ("normal", "-" + HUGE),
            # psi(m0) = -1/(2 m0^2) underflows to theta0 = -inf
            pytest.param("ig", "1/1" + "0" * 160, id="ig-1/10^160"),
        ),
        ids=lambda v: v.replace(HUGE, "10^400"),
    )
    def test_anchor_past_float_range_is_domain_error(self, capsys, family, m0):
        code = main(["verify", family, f"--m0={m0}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: m0 = ") and m0 in line and f"'{family}'" in line
        # Without genfun the float closed forms are never needed.
        code, _ = run(capsys, "verify", family, f"--m0={m0}", "--n", "4", "--checks", EXACT)
        assert code == 0

    @pytest.mark.parametrize(
        "family, m0, group",
        (
            pytest.param("ig", "1/1" + "0" * 15, "quadrature", id="ig-1/10^15"),
            pytest.param("ig", "1/1" + "0" * 100, "quadrature", id="ig-1/10^100"),
            pytest.param("gamma", "1/1" + "0" * 20, "quadrature", id="gamma-1/10^20"),
            pytest.param("gamma", "1/1" + "0" * 150, "quadrature", id="gamma-1/10^150"),
            pytest.param("normal", "1" + "0" * 200, "bilinear", id="normal-10^200"),
            pytest.param("normal", "-1" + "0" * 200, "bilinear", id="normal--10^200"),
        ),
    )
    def test_non_finite_values_are_reasons_not_bare_nan(self, capsys, family, m0, group):
        code, out = run(capsys, "verify", family, f"--m0={m0}", "--checks", "genfun")
        assert code == 1
        entries = strict_json(out)["body"]["families"][0]["checks"]["genfun"][group]
        non_finite = [
            e for e in entries if e.get("reason", "").startswith("FloatingPointError:")
        ]
        assert non_finite
        null = ("value", "error_estimate", "abs_diff") if group == "quadrature" else ("residual",)
        assert all(e[k] is None for e in non_finite for k in null)

    def test_rel_tol_flag_removed(self, capsys):
        assert main(["verify", "ig", "--rel-tol", "1e-3"]) == 2

    @pytest.mark.parametrize("value", ("nan", "-1", "0", "inf"))
    def test_abs_tol_must_be_finite_and_positive(self, capsys, value):
        code = main(["verify", "normal", "--checks", "genfun", f"--abs-tol={value}"])
        err = capsys.readouterr().err
        assert code == 2
        assert "argument --abs-tol: must be a finite number > 0" in err

    def test_report_body_deterministic(self, capsys):
        _, first = run(capsys, "verify", "ig", "--checks", "two-ortho,recover", "--n", "6")
        _, second = run(capsys, "verify", "ig", "--checks", "two-ortho,recover", "--n", "6")
        body1 = json.dumps(json.loads(first)["body"], sort_keys=True)
        body2 = json.dumps(json.loads(second)["body"], sort_keys=True)
        assert body1 == body2

    def test_report_round_trips(self, capsys):
        _, out = run(capsys, "verify", "poisson", "--checks", "two-ortho", "--n", "6")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload, indent=2, sort_keys=True)) == payload

    def test_report_schema_fields(self, capsys):
        _, out = run(capsys, "verify", "ig", "--n", "6", "--checks", "two-ortho")
        payload = json.loads(out)
        assert {"header", "body"} == payload.keys()
        assert {"tool", "version", "generated"} == payload["header"].keys()
        block = payload["body"]["families"][0]
        assert {
            "family",
            "params",
            "m0",
            "a",
            "variance_class",
            "checked_order",
            "injected_typo",
            "checks",
            "table1_discrepancies",
            "pass",
        } == block.keys()

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["verify", "poisson", "--checks", "two-ortho", "--out", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["body"]["overall_pass"] is True


def test_anchor_override_applies_to_verify(capsys):
    code, out = run(capsys, "verify", "ig", "--m0", "3/2", "--n", "6",
                    "--checks", "two-ortho,recover")
    payload = json.loads(out)
    assert code == 0
    block = payload["body"]["families"][0]
    assert block["m0"] == "3/2"
    assert block["checks"]["recover"]["fitted"]["m0"] == "3/2"


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(("ig", "gamma", "poisson", "normal")),
    p=st.integers(1, 10**12),
    q=st.integers(1, 10**12),
    negative=st.booleans(),
)
def test_genfun_never_raises_on_in_domain_anchors(family, p, q, negative):
    # normal's mean domain is the whole line; the others need m0 > 0
    sign = "-" if negative and family == "normal" else ""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", family, f"--m0={sign}{p}/{q}", "--checks", "genfun"])
    assert code in (0, 1)
    assert len(strict_json(out.getvalue())["body"]["families"]) == 1
