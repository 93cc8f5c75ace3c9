"""Per-layer tracing of one `nefpoly.cli.main` call, from outside the program.

`Tracer` replaces the public functions that `cli`/`report` call into with
wrappers that record a span (name, start, end, parent) per call, plus a few
count-only wrappers for hot inner operations.  Each name is wrapped where
its caller looks it up: `report` did `from .ortho import gram`, so the
wrapper goes on `nefpoly.report.gram`, not on `nefpoly.ortho.gram`.

Spans stay in memory; `summary()` turns them into self times (a span minus
its direct children), call counts, converged fractions and the largest
operand bit-length of each exact layer.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import scipy.integrate

import nefpoly.cli
import nefpoly.families
import nefpoly.nef_model
import nefpoly.ortho
import nefpoly.polyseq
import nefpoly.ratpoly
import nefpoly.report
import nefpoly.table1

# (layer name, [(owner, attribute), ...]): one span per call.
SPANNED = (
    ("report.build_report", [(nefpoly.cli, "build_report")]),
    ("report.verify_family", [(nefpoly.report, "verify_family")]),
    ("ortho.gram", [(nefpoly.report, "gram")]),
    ("ortho.inner_product", [(nefpoly.ortho, "inner_product"), (nefpoly.table1, "inner_product")]),
    ("polyseq.recurrence_sequence", [(nefpoly.report, "recurrence_sequence"),
                                     (nefpoly.table1, "recurrence_sequence")]),
    ("polyseq.faa_di_bruno_sequence", [(nefpoly.report, "faa_di_bruno_sequence")]),
    ("polyseq.compare_sequences", [(nefpoly.report, "compare_sequences")]),
    ("nef_model.cumulants", [(nefpoly.nef_model, "cumulants")]),
    ("nef_model.raw_moments", [(nefpoly.nef_model, "raw_moments")]),
    ("nef_model.psi_series", [(nefpoly.polyseq, "psi_series")]),
    ("nef_model.kpsi_series", [(nefpoly.polyseq, "kpsi_series")]),
    ("ortho.check_two_orthogonality", [(nefpoly.report, "check_two_orthogonality")]),
    ("ortho.check_full_orthogonality", [(nefpoly.report, "check_full_orthogonality")]),
    ("ortho.recover_variance_from_gram", [(nefpoly.report, "recover_variance_from_gram")]),
    ("ortho.fit_recurrence", [(nefpoly.report, "fit_recurrence")]),
    ("table1.compare_with_printed", [(nefpoly.report, "compare_with_printed")]),
    ("genfun.partial_sum_density", [(nefpoly.report, "partial_sum_density")]),
    ("genfun.sheffer_check", [(nefpoly.report, "sheffer_check")]),
    ("genfun.bilinear_identity", [(nefpoly.report, "bilinear_identity")]),
    ("genfun.quadrature_crosscheck", [(nefpoly.report, "quadrature_crosscheck")]),
)

# Count-only wrappers: these run thousands of times per op, so a span each
# would distort the self time of their callers.
COUNTED = (
    ("ratpoly.Poly.mul", [(nefpoly.ratpoly.Poly, "__mul__"), (nefpoly.ratpoly.Poly, "__rmul__")]),
    ("families.base_density", [(nefpoly.families.RebasedForms, "base_density")]),
    # genfun calls `_integrate.quad`, with `_integrate` bound to scipy.integrate.
    ("genfun.quad_panels", [(scipy.integrate, "quad")]),
)

# Layers whose result carries a convergence flag.
CONVERGED = {
    "genfun.partial_sum_density",
    "genfun.sheffer_check",
    "genfun.bilinear_identity",
    "genfun.quadrature_crosscheck",
}

ROOT = "cli.main"


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


# Layers whose result holds exact rationals: how to list them.
OPERANDS = {
    "ortho.gram": lambda g: (v for row in g.entries for v in row),
    "polyseq.recurrence_sequence": lambda s: (c for p in s.polys for c in p.coeffs),
    "nef_model.cumulants": lambda t: t.kappa,
    "nef_model.raw_moments": lambda t: t.mom,
}


class Tracer:
    """Spans and counts of the ops run through `call()`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, result]
        self.counts: dict[str, int] = defaultdict(int)
        self.ops = 0
        self._stack: list[int] = []

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[4] = result
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def call(self, fn, *args):
        """Run fn(*args) as one traced op, with every wrapper installed."""
        saved = []
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, sites in table:
                for owner, attr in sites:
                    original = owner.__dict__[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, make(name, original))
        self.ops += 1
        try:
            return self._spanned(ROOT, fn)(*args)
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Per-op means of self time and calls, plus fractions and bit sizes."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        converged: dict[str, int] = defaultdict(int)
        max_bits: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, result) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if name in CONVERGED and result is not None and result.converged:
                converged[name] += 1
            if name in OPERANDS and result is not None:
                max_bits[name] = max(max_bits[name], max(map(_bits, OPERANDS[name](result)), default=0))

        ops = max(self.ops, 1)
        out: dict[str, float] = {"cli.serialize_s": self_s.pop(ROOT, 0.0) / ops}
        for name, _ in SPANNED:
            out[f"{name}.self_s"] = self_s[name] / ops
            out[f"{name}.calls"] = calls[name] / ops
            if name in CONVERGED:
                out[f"{name}.converged_frac"] = converged[name] / calls[name] if calls[name] else 0.0
            if name in OPERANDS:
                out[f"{name}.max_bits"] = max_bits[name]
        for name, _ in COUNTED:
            out[f"{name}.calls"] = self.counts[name] / ops
        return out
