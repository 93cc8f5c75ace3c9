"""Correctness gate for one `nefpoly verify` op, independent of its timing.

An op passes only if it exits 0 with `overall_pass`, and for every family
block the verdicts are the mathematically correct ones:

* `two-ortho` is `two_orthogonal` (every catalog family is 2-orthogonal);
* `full-ortho` is `fully_orthogonal` exactly when V has degree <= 2;
* `recover.fitted.a` equals the Taylor coefficients of V about m0;
* the `table1_discrepancies` kinds are the ones listed below.

`judge` never raises on a malformed report; it returns reasons instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# Discrepancy kinds the printed-table comparison reports at m0 = 1, as
# measured when this benchmark was defined.  At any other anchor the
# program makes no comparison, so the expected set is empty.
TABLE1_KINDS_AT_UNIT = {
    "ig": {"p2-misprint"},
    "strict-arcsine": {"p2-misprint"},
    "takacs": {"note"},
    "large-arcsine": {"note"},
    "ressel": {"note", "variance-text"},
    "abel": {"note", "p2-misprint"},
}


@dataclass(frozen=True)
class Expected:
    """What a correct report says about one family at one anchor."""

    family: str
    m0: str
    a: tuple[str, ...]
    quadratic: bool
    table1_kinds: frozenset[str]


def expect(family, m0) -> Expected:
    spec = family.variance_at(m0)
    kinds = TABLE1_KINDS_AT_UNIT.get(family.name, set()) if spec.m0 == 1 else set()
    return Expected(
        family=family.name,
        m0=str(spec.m0),
        a=tuple(str(c) for c in spec.a),
        quadratic=family.variance.degree <= 2,
        table1_kinds=frozenset(kinds),
    )


def _wrong_verdicts(block: dict, exp: Expected, checks: tuple[str, ...]) -> list[str]:
    got = block["checks"]
    wrong = [name for name, sub in got.items() if sub is not None and sub["pass"] is not True]
    if "two-ortho" in checks and (got["two-ortho"] or {}).get("verdict") != "two_orthogonal":
        wrong.append("two-ortho verdict")
    if "full-ortho" in checks:
        full = got["full-ortho"] or {}
        if "verdict" not in full or (full["verdict"] == "fully_orthogonal") != exp.quadratic:
            wrong.append("full-ortho verdict")
    if "recover" in checks and tuple((got["recover"] or {}).get("fitted", {}).get("a", ())) != exp.a:
        wrong.append("recover a")
    if {d["kind"] for d in block["table1_discrepancies"]} != exp.table1_kinds:
        wrong.append("table1 kinds")
    return wrong


def judge(code: int, stdout: str, expected: list[Expected], checks: tuple[str, ...]) -> list[str]:
    """Reasons the op failed (exit code, failing checks per family); [] if it passed."""
    reasons = [] if code == 0 else [f"exit {code}"]
    try:
        body = json.loads(stdout)["body"]
        if code == 0 and body["overall_pass"] is not True:
            reasons.append("overall_pass false")
        blocks = body["families"]
        if [(b["family"], b["m0"]) for b in blocks] != [(e.family, e.m0) for e in expected]:
            return reasons + ["families or anchors differ from the request"]
        for block, exp in zip(blocks, expected):
            wrong = _wrong_verdicts(block, exp, checks)
            if wrong:
                reasons.append(f"{exp.family}@{exp.m0}: {', '.join(wrong)}")
    except (ValueError, KeyError, TypeError, AttributeError):
        reasons.append("no well-formed report")
    return reasons
