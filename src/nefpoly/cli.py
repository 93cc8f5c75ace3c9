"""Command-line surface: catalog browsing, tables, Gram matrices, verification.

Exit codes: 0 = success / all checks passed, 1 = a verification check
failed, 2 = usage or domain error, or an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .families import CATALOG, Family, lookup
from .nef_model import NefError, moment_table
from .ortho import forced_zero, gram
from .polyseq import recurrence_sequence
from .ratpoly import rat
from .report import ALL_CHECKS, INJECTABLE_TYPOS, MIN_EXACT_ORDER, VerifyOptions, build_report

USAGE_ERROR = 2
VERIFICATION_ERROR = 1


def _rational(text: str) -> Fraction:
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational 'p/q' value: {text!r}") from exc


def _order_at_least(minimum: int):
    """argparse type: an integer order >= minimum."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return value

    return integer


def _bind_negative_m0(argv: list[str]) -> list[str]:
    """Join '--m0 -p/q' into '--m0=-p/q': argparse reads a lone '-3/7' as a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--m0" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def _family_json(f: Family) -> dict:
    lo, hi = f.mean_domain
    return {
        "name": f.name,
        "params": {k: str(v) for k, v in f.params.items()},
        "variance_class": f.variance_class,
        "mean_domain": [None if lo is None else str(lo), None if hi is None else str(hi)],
        "variance": f.variance_formula,
        "closed_forms": f.closed_forms is not None,
    }


def cmd_families(args: argparse.Namespace) -> int:
    fams = list(CATALOG.values())
    if args.variance_class:
        fams = [f for f in fams if f.variance_class == args.variance_class]
    if args.format == "json":
        _emit(json.dumps([_family_json(f) for f in fams], indent=2), args.out)
        return 0
    lines = []
    for f in fams:
        params = ", ".join(f"{k}={v}" for k, v in f.params.items()) or "-"
        lines.append(
            f"{f.name:<20} {f.variance_class:<10} params: {params:<12} "
            f"mean domain: {f._domain_str():<12} V(m) = {f.variance_formula}"
        )
    _emit("\n".join(lines), args.out)
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> int:
    family = lookup(args.family)
    spec = family.variance_at(args.m0)
    seq = recurrence_sequence(spec, args.n)
    if args.format == "json":
        payload = {
            "family": family.name,
            "m0": str(spec.m0),
            "a": [str(c) for c in spec.a],
            "N": seq.order,
            "provenance": seq.provenance,
            "polys": [p.to_strings() for p in seq.polys],
        }
        _emit(json.dumps(payload, indent=2), args.out)
    elif args.format == "csv":
        width = seq.order + 1
        header = "n," + ",".join(f"c{k}" for k in range(width))
        rows = [header]
        for n, p in enumerate(seq.polys):
            cs = [str(p.coeff(k)) for k in range(width)]
            rows.append(f"{n}," + ",".join(cs))
        _emit("\n".join(rows), args.out)
    elif args.format == "latex":
        rows = [r"\begin{aligned}"]
        for n, p in enumerate(seq.polys):
            rows.append(rf"P_{{{n}}}(x) &= {p.to_latex()} \\")
        rows.append(r"\end{aligned}")
        _emit("\n".join(rows), args.out)
    else:
        rows = [f"P_{n}(x) = {p}" for n, p in enumerate(seq.polys)]
        _emit("\n".join(rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# gram
# ---------------------------------------------------------------------------


def cmd_gram(args: argparse.Namespace) -> int:
    family = lookup(args.family)
    spec = family.variance_at(args.m0)
    seq = recurrence_sequence(spec, args.n)
    g = gram(seq, moment_table(spec, 2 * args.n))
    if args.format == "json":
        payload = {
            "family": family.name,
            "m0": str(spec.m0),
            "a": [str(c) for c in spec.a],
            "N": g.order,
            "entries": g.to_strings(),
        }
        _emit(json.dumps(payload, indent=2), args.out)
    elif args.format == "csv":
        rows = [",".join(row) for row in g.to_strings()]
        _emit("\n".join(rows), args.out)
    else:
        # Dots mark positions that the 2-orthogonality pattern forces to zero;
        # a '!' prefix flags pattern violations.
        cells = []
        for n in range(g.order + 1):
            row = []
            for q in range(g.order + 1):
                v = g.entry(n, q)
                if forced_zero(n, q):
                    row.append("." if v == 0 else f"!{v}")
                else:
                    row.append(str(v))
            cells.append(row)
        width = max(len(c) for row in cells for c in row)
        lines = ["  ".join(c.rjust(width) for c in row) for row in cells]
        lines.append("('.' = zero required by 2-orthogonality; '!' = violation)")
        _emit("\n".join(lines), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    if args.all:
        fams = list(CATALOG.values())
    elif args.families:
        fams = [lookup(name) for name in args.families]
    else:
        print("verify: pass one or more family names, or --all", file=sys.stderr)
        return USAGE_ERROR
    checks = ALL_CHECKS
    if args.checks:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        unknown = [c for c in checks if c not in ALL_CHECKS]
        if unknown:
            print(
                f"verify: unknown checks {unknown}; known: {list(ALL_CHECKS)}",
                file=sys.stderr,
            )
            return USAGE_ERROR
    opts = VerifyOptions(
        exact_order=args.n,
        abs_tol=args.abs_tol,
        checks=checks,
        inject_typo=args.inject_typo,
        m0=args.m0,
    )
    rep, ok = build_report(fams, opts)
    _emit(json.dumps(rep, indent=2, sort_keys=True), args.out)
    return 0 if ok else VERIFICATION_ERROR


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
    p.add_argument("--m0", type=_rational, default=Fraction(1),
                   help="anchor mean as a rational 'p/q' (default 1)")
    p.add_argument("--n", type=_order_at_least(0), default=12,
                   help="order N >= 0 (default 12)")
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", metavar="PATH", help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nefpoly",
        description=(
            "Exact polynomial sequences for natural exponential families with "
            "polynomial variance functions: tables, Gram matrices, and the "
            "2-orthogonality / recurrence / generating-function verification suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fam = sub.add_parser("families", help="list the family catalog")
    p_fam.add_argument("--class", dest="variance_class",
                       choices=("cubic", "quadratic"), default=None)
    p_fam.add_argument("--format", choices=("text", "json"), default="text")
    p_fam.add_argument("--out", metavar="PATH")
    p_fam.set_defaults(func=cmd_families)

    p_tab = sub.add_parser("table", help="print P_0..P_N for a family")
    p_tab.add_argument("family")
    _add_common(p_tab, ("text", "json", "csv", "latex"))
    p_tab.set_defaults(func=cmd_table)

    p_gram = sub.add_parser("gram", help="print the exact Gram matrix")
    p_gram.add_argument("family")
    _add_common(p_gram, ("text", "json", "csv"))
    p_gram.set_defaults(func=cmd_gram)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("families", nargs="*", help="family names (or use --all)")
    p_ver.add_argument("--all", action="store_true", help="verify the whole catalog")
    p_ver.add_argument("--n", type=_order_at_least(MIN_EXACT_ORDER), default=12,
                       help=f"order for the exact suites, >= {MIN_EXACT_ORDER} (default 12)")
    p_ver.add_argument("--m0", type=_rational, default=None,
                       help="anchor mean (default: per-family anchor)")
    p_ver.add_argument("--checks", default=None,
                       help="comma-separated subset of: " + ",".join(ALL_CHECKS))
    p_ver.add_argument("--abs-tol", type=_positive_float, default=None,
                       help="override the absolute tolerances of float checks")
    p_ver.add_argument("--inject-typo", choices=INJECTABLE_TYPOS, default=None,
                       help="corrupt P_2 with the printed-table misprint first")
    p_ver.add_argument("--out", metavar="PATH", help="write the JSON report to a file")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_bind_negative_m0(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (NefError, OSError) as exc:  # OSError: --out cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
