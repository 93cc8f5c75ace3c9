"""Assembly of the machine-readable verification report.

One block per family, each the outcome of up to five check suites
(two-ortho, full-ortho, bruno, recover, genfun) plus the printed-table
comparison for the cubic rows.  `verify_spec` runs the checks on one
anchored variance spec and never sees a family; `verify_family` resolves a
catalog family's anchor, closed forms and printed row around it.  The
report body is deterministic (byte identical across runs), with the
timestamp isolated in a header that golden comparisons exclude.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .families import Family, RebasedForms, guarded
from .genfun import (
    BILINEAR_ABS_TOL,
    QUAD_ABS_TOL,
    SERIES_ABS_TOL,
    bilinear_identity,
    partial_sum_density,
    quadrature_crosscheck,
    sheffer_check,
)
from .nef_model import NefError, VarianceSpec, moment_table
from .ortho import (
    GramMatrix,
    RecoveredVariance,
    check_full_orthogonality,
    check_two_orthogonality,
    fit_recurrence,
    gram,
    recover_variance_from_gram,
)
from .polyseq import (
    PolySequence,
    compare_sequences,
    faa_di_bruno_sequence,
    recurrence_sequence,
)
from .ratpoly import Poly, RationalLike, rat
from .table1 import PRINTED_ROWS, compare_with_printed

ALL_CHECKS = ("two-ortho", "full-ortho", "bruno", "recover", "genfun")

INJECTABLE_TYPOS = ("table1-p2",)

#: Lowest order of the exact checks: the recurrence fit reads P_0..P_4.
MIN_EXACT_ORDER = 4


# Pinned scopes of the float checks (their tolerances live in `genfun`).
# The series probes sum P_0..P_30, the bilinear probe reads the order-20
# Gram and quadrature covers n + q <= 8; none of them follows --n.
SERIES_ORDER = 30
BILINEAR_ORDER = 20
QUAD_ORDER = 8


@dataclass(frozen=True)
class VerifyOptions:
    """Tunable knobs of a verification run; defaults are the accepted ones."""

    exact_order: int = 12
    abs_tol: float | None = None  # None: the per-check defaults in genfun
    checks: tuple[str, ...] = ALL_CHECKS
    inject_typo: str | None = None
    m0: RationalLike | None = None

    def __post_init__(self) -> None:
        if self.exact_order < MIN_EXACT_ORDER:
            raise ValueError(f"exact_order must be >= {MIN_EXACT_ORDER}, got {self.exact_order}")

    def tol(self, default: float) -> float:
        return default if self.abs_tol is None else self.abs_tol


def _genfun_block(
    forms: RebasedForms,
    seq: PolySequence,
    g: GramMatrix,
    opts: VerifyOptions,
) -> dict:
    """Float probes on the shared sequence (order >= 30) and Gram (order >= 20)."""
    xs = (-1.0, 0.0, 1.0) if forms.mean_domain == (-math.inf, math.inf) else (0.5, 1.0, 2.0)
    series_tol, bilinear_tol = opts.tol(SERIES_ABS_TOL), opts.tol(BILINEAR_ABS_TOL)
    probes = {
        "partial_sum": [
            partial_sum_density(
                seq, forms, x=x, m=forms.m0 + dm, order=SERIES_ORDER, abs_tol=series_tol
            )
            for dm in (0.05, 0.1)
            for x in xs
        ],
        "sheffer": [
            sheffer_check(
                seq, forms, t=rat("1/2"), z=z, x=x, order=SERIES_ORDER, abs_tol=series_tol
            )
            for z in (0.05, 0.1)
            for x in xs
        ],
        "bilinear": [
            bilinear_identity(
                forms, g, m=forms.m0 + dm, m_prime=forms.m0 + dmp,
                order=BILINEAR_ORDER, abs_tol=bilinear_tol,
            )
            for dm in (-0.05, 0.0, 0.05)
            for dmp in (-0.05, 0.0, 0.05)
        ],
    }
    ok = all(p.converged for found in probes.values() for p in found)

    quadrature = None
    if forms.has_base_density:
        quadrature = []
        unevaluated = {"value": None, "error_estimate": None, "abs_diff": None}
        for n in range(0, QUAD_ORDER + 1):
            for q in range(n, QUAD_ORDER + 1 - n):
                res = quadrature_crosscheck(forms, seq, n, q)
                exact = g.entry(n, q)
                # An exact entry past float range cannot be compared at all.
                diff, reason = guarded(lambda: abs(res.value - float(exact)), None)
                reason = res.reason or reason
                entry_ok = reason is None and res.converged and diff <= opts.tol(QUAD_ABS_TOL)
                quadrature.append(
                    {
                        "n": n,
                        "q": q,
                        "value": res.value,
                        "error_estimate": res.error_estimate,
                        "exact": str(exact),
                        "abs_diff": diff,
                        "pass": entry_ok,
                        **({} if reason is None else {**unevaluated, "reason": reason}),
                    }
                )
                ok = ok and entry_ok

    return {
        **{kind: [p.to_json() for p in found] for kind, found in probes.items()},
        "quadrature": quadrature,
        "pass": ok,
    }


def _recovered_json(rec: RecoveredVariance) -> dict:
    return {"a0": str(rec.a0), "a2": str(rec.a2), "a3": str(rec.a3)}


def verify_spec(
    spec: VarianceSpec,
    opts: VerifyOptions,
    forms: RebasedForms | None = None,
    typo_p2: Poly | None = None,
) -> dict[str, dict | None]:
    """Run the selected checks on one anchored spec; returns the `checks` mapping.

    genfun runs exactly when closed forms `forms`, anchored at spec.m0, are
    given; `typo_p2` replaces P_2 in the sequence the orthogonality and
    recover checks read.  A check that did not run maps to None.
    """
    order = opts.exact_order
    run_genfun = forms is not None
    # One build per route: the exact checks read the leading order-`order`
    # block, the genfun probes the whole of it.
    seq_order = max(order, SERIES_ORDER) if run_genfun else order
    gram_order = max(order, BILINEAR_ORDER) if run_genfun else order
    seq_full = recurrence_sequence(spec, seq_order)
    moments = moment_table(spec, 2 * gram_order)
    g_full = gram(seq_full.prefix(gram_order), moments)
    seq = seq_ortho = seq_full.prefix(order)
    g_ortho = g_full.leading(order)
    if typo_p2 is not None:
        polys = list(seq.polys)
        polys[2] = typo_p2
        seq_ortho = PolySequence(
            spec=spec, polys=tuple(polys), provenance="recurrence+injected-typo"
        )
        g_ortho = gram(seq_ortho, moments)

    checks: dict[str, dict | None] = {name: None for name in ALL_CHECKS}
    if "two-ortho" in opts.checks or "recover" in opts.checks:
        rec = recover_variance_from_gram(g_ortho)

    if "two-ortho" in opts.checks:
        rep = check_two_orthogonality(g_ortho)
        checks["two-ortho"] = {
            "verdict": rep.verdict,
            "checked_order": rep.checked_order,
            "violations": [
                {"n": v.n, "q": v.q, "value": str(v.value)} for v in rep.violations
            ],
            "recovered": None if rep.violations else _recovered_json(rec),
            "pass": rep.verdict == "two_orthogonal",
        }

    if "full-ortho" in opts.checks:
        rep = check_full_orthogonality(g_ortho)
        expect_diagonal = spec.a3 == 0  # deg V <= 2: the Morris class
        checks["full-ortho"] = {
            "verdict": rep.verdict,
            "checked_order": rep.checked_order,
            "violation_count": len(rep.violations),
            "expected_diagonal": expect_diagonal,
            "pass": (rep.verdict == "fully_orthogonal") == expect_diagonal,
        }

    if "bruno" in opts.checks:
        diff = compare_sequences(seq, faa_di_bruno_sequence(spec, order))
        checks["bruno"] = {
            "order": order,
            "diff_count": len(diff.mismatches),
            "diff_indices": [n for n, _, _ in diff.mismatches],
            "pass": diff.identical,
        }

    if "recover" in opts.checks:
        fit = fit_recurrence(seq_ortho)
        checks["recover"] = {
            "fitted": {
                "m0": str(fit.m0),
                "a": [str(c) for c in fit.a],
                "residual_count": len(fit.residuals),
            },
            "from_gram": _recovered_json(rec),
            "pass": (
                fit.exact and fit.a == spec.a and fit.m0 == spec.m0
                and (rec.a0, rec.a2, rec.a3) == (spec.a0, spec.a2, spec.a3)
            ),
        }

    if run_genfun:
        checks["genfun"] = _genfun_block(forms, seq_full, g_full, opts)

    return checks


def _anchor(family: Family, opts: VerifyOptions) -> Fraction:
    """--m0, else the family's default anchor: 0 on the real line, 1 elsewhere."""
    default = 0 if family.mean_domain == (None, None) else 1
    return rat(default if opts.m0 is None else opts.m0)


def _refuse_unreached(families: list[Family], opts: VerifyOptions) -> None:
    """Raise NefError if the selected checks or --inject-typo would reach nothing."""
    if opts.checks == ("genfun",) and all(f.closed_forms is None for f in families):
        raise NefError("--checks genfun: no selected family has closed forms")
    if opts.inject_typo and not {"two-ortho", "full-ortho", "recover"} & set(opts.checks):
        raise NefError("--inject-typo: no selected check reads P_2")
    if opts.inject_typo and not any(
        f.name in PRINTED_ROWS and _anchor(f, opts) == 1 for f in families
    ):
        raise NefError("--inject-typo: no selected family has a printed row at its m0")


def verify_family(family: Family, opts: VerifyOptions) -> tuple[dict, bool]:
    """Resolve a family's anchor, closed forms and printed row, then run
    `verify_spec`; returns (block, passed)."""
    m0 = _anchor(family, opts)
    spec = family.variance_at(m0)
    forms = None
    if "genfun" in opts.checks and family.closed_forms is not None:
        forms = family.rebase(m0)
    printed = PRINTED_ROWS.get(family.name) if m0 == 1 else None
    typo_p2 = printed.p2 if printed is not None and opts.inject_typo == "table1-p2" else None
    checks = verify_spec(spec, opts, forms, typo_p2)

    discrepancies: list[dict] = []
    consistent = True
    if printed is not None:
        cmp = compare_with_printed(family)
        consistent = cmp.consistent
        if not cmp.p2_matches:
            discrepancies.append(
                {
                    "kind": "p2-misprint",
                    "printed": cmp.p2_printed.to_str(),
                    "generated": cmp.p2_generated.to_str(),
                    "defect_inner_product": str(cmp.p2_defect_inner_product),
                }
            )
        if not cmp.variance_text_matches:
            discrepancies.append(
                {
                    "kind": "variance-text",
                    "printed_at_unit": [str(c) for c in printed.variance_text],
                    "recurrence_row": [str(c) for c in spec.a],
                }
            )
        for note in cmp.notes:
            discrepancies.append({"kind": "note", "text": note})

    passed = consistent and all(c["pass"] for c in checks.values() if c is not None)
    block = {
        "family": family.name,
        "params": {k: str(v) for k, v in family.params.items()},
        "m0": str(m0),
        "a": [str(c) for c in spec.a],
        "variance_class": family.variance_class,
        "checked_order": opts.exact_order,
        "injected_typo": opts.inject_typo if typo_p2 is not None else None,
        "checks": checks,
        "table1_discrepancies": discrepancies,
        "pass": passed,
    }
    return block, passed


def build_report(families: list[Family], opts: VerifyOptions) -> tuple[dict, bool]:
    """Full verification report over the given families, in catalog order."""
    _refuse_unreached(families, opts)
    blocks = []
    overall = True
    for fam in families:
        block, ok = verify_family(fam, opts)
        blocks.append(block)
        overall = overall and ok
    report = {
        "header": {
            "tool": "nefpoly",
            "version": __version__,
            "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
        "body": {
            "settings": {
                "exact_order": opts.exact_order,
                "series_order": SERIES_ORDER,
                "bilinear_order": BILINEAR_ORDER,
                "abs_tol": opts.abs_tol,
                "checks": list(opts.checks),
                "inject_typo": opts.inject_typo,
                "m0": None if opts.m0 is None else str(rat(opts.m0)),
            },
            "families": blocks,
            "overall_pass": overall,
        },
    }
    return report, overall

