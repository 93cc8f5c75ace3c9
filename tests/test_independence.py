"""Route independence: each route is caught by a check fed by another route.

The verifier is worth something only while its routes stay independent:
moments from the cumulant chain against polynomials from the recurrence, the
Faa di Bruno (Bell) expansion against the recurrence, exact rationals
against closed-form floats.  A check that silently started reading the route
it checks would pass everything, and no golden body would notice.

`test_route_mutation_matrix` breaks one route at a time, through the names
`nefpoly.report` calls (and `nefpoly.polyseq` for psi), and asserts the
*exact* set of checks that fail.  A change that moves a row has changed what
a check looks at, and must say so.

`test_exact_layer_holds_at_any_rational_anchor` runs the exact checks at
random in-domain rational anchors with large numerators and denominators,
with the orthogonality class read from the degree of V.
"""

import contextlib
import dataclasses
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nefpoly.polyseq
import nefpoly.report
from nefpoly.cli import main
from nefpoly.families import CATALOG, Family
from nefpoly.nef_model import MomentTable, VarianceSpec

CHECKS = "two-ortho,full-ortho,bruno,recover,genfun"
EXACT = "two-ortho,full-ortho,bruno,recover"


def _moment_7_plus_1(monkeypatch):
    orig = nefpoly.report.moment_table

    def mutated(spec, order):
        t = orig(spec, order)
        return MomentTable(m0=t.m0, mom=t.mom[:7] + (t.mom[7] + 1,) + t.mom[8:])

    monkeypatch.setattr(nefpoly.report, "moment_table", mutated)


def _p5_plus_p2(monkeypatch):
    orig = nefpoly.report.recurrence_sequence

    def mutated(spec, order):
        seq = orig(spec, order)
        polys = list(seq.polys)
        polys[5] = polys[5] + polys[2]
        return dataclasses.replace(seq, polys=tuple(polys))

    monkeypatch.setattr(nefpoly.report, "recurrence_sequence", mutated)


def _recurrence_without_a3(monkeypatch):
    orig = nefpoly.report.recurrence_sequence

    def mutated(spec, order):
        cut = VarianceSpec(m0=spec.m0, a=(*spec.a[:3], 0))
        return dataclasses.replace(orig(cut, order), spec=spec)

    monkeypatch.setattr(nefpoly.report, "recurrence_sequence", mutated)


def _psi_5_plus_1(monkeypatch):
    orig = nefpoly.polyseq.psi_series

    def mutated(spec, order):
        psi = orig(spec, order)
        psi[5] += 1
        return psi

    monkeypatch.setattr(nefpoly.polyseq, "psi_series", mutated)


def _a3_plus_1(monkeypatch):
    orig = Family.variance_at

    def mutated(self, m0):
        spec = orig(self, m0)
        return VarianceSpec(m0=spec.m0, a=(*spec.a[:3], spec.a3 + 1))

    monkeypatch.setattr(Family, "variance_at", mutated)


MUTATIONS = {
    "none": lambda monkeypatch: None,
    "mom[7] + 1": _moment_7_plus_1,
    "P_5 += P_2": _p5_plus_p2,
    "recurrence without a3": _recurrence_without_a3,
    "psi[5] + 1": _psi_5_plus_1,
    "a3 + 1 in V": _a3_plus_1,
}

# (mutation, family) -> (exit code, failing checks).  Both families at their
# default anchor m0 = 1, where takacs is also compared with its printed row.
MATRIX = {
    ("none", "ig"): (0, set()),
    ("none", "takacs"): (0, set()),
    ("mom[7] + 1", "ig"): (1, {"two-ortho", "genfun"}),
    ("mom[7] + 1", "takacs"): (1, {"two-ortho"}),
    ("P_5 += P_2", "ig"): (1, {"two-ortho", "bruno", "recover", "genfun"}),
    ("P_5 += P_2", "takacs"): (1, {"two-ortho", "bruno", "recover"}),
    ("recurrence without a3", "ig"): (1, {"two-ortho", "bruno", "recover", "genfun"}),
    ("recurrence without a3", "takacs"): (1, {"two-ortho", "bruno", "recover"}),
    ("psi[5] + 1", "ig"): (1, {"bruno"}),
    ("psi[5] + 1", "takacs"): (1, {"bruno"}),
    # V is the shared input: only the closed forms (ig) or the printed
    # table (takacs at m0 = 1) can catch it.
    ("a3 + 1 in V", "ig"): (1, {"genfun"}),
    ("a3 + 1 in V", "takacs"): (1, set()),
}


def verify(*args: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", *args])
    return code, json.loads(out.getvalue())["body"]


@pytest.mark.parametrize("mutation, family", MATRIX)
def test_route_mutation_matrix(monkeypatch, mutation, family):
    MUTATIONS[mutation](monkeypatch)
    code, body = verify(family, "--checks", CHECKS)
    block = body["families"][0]
    failing = {name for name, check in block["checks"].items() if check and not check["pass"]}
    assert (code, failing) == MATRIX[mutation, family]


def _anchor(family: Family, p: int, q: int, negative: bool) -> Fraction:
    lo, hi = family.mean_domain
    if lo is None:  # the real line
        return Fraction(-p if negative else p, q)
    if hi is None:  # a half-line (lo, inf)
        return lo + Fraction(p, q)
    return lo + (hi - lo) * Fraction(p, p + q)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(list(CATALOG)),
    p=st.integers(1, 10**6),
    q=st.integers(1, 10**6),
    negative=st.booleans(),
)
def test_exact_layer_holds_at_any_rational_anchor(name, p, q, negative):
    family = CATALOG[name]
    m0 = _anchor(family, p, q, negative)
    code, body = verify(name, f"--m0={m0}", "--n", "8", "--checks", EXACT)
    checks = body["families"][0]["checks"]
    assert code == 0
    assert checks["two-ortho"]["verdict"] == "two_orthogonal"
    full = checks["full-ortho"]["verdict"] == "fully_orthogonal"
    assert full == (family.variance.degree <= 2)
