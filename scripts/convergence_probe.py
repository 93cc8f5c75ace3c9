#!/usr/bin/env python3
"""Sweep partial-sum residuals of the density series against its closed form.

Prints, for a closed-form family, the residual |S_N - f(x, m)| as N grows,
for a grid of means around the anchor.  Useful for eyeballing the empirical
convergence window (the radius is finite and family-dependent; the library
reports behaviour instead of guessing the radius).

Example:
    python scripts/convergence_probe.py ig --m0 1 --x 1.0 \
        --means 1.05 1.1 1.25 1.5 2.0 --orders 5 10 20 30
"""

import argparse

from nefpoly import lookup, partial_sum_density, rat, recurrence_sequence


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("family", help="catalog family with closed forms (e.g. ig)")
    ap.add_argument("--m0", default="1", help="anchor mean, rational 'p/q'")
    ap.add_argument("--x", type=float, default=1.0)
    ap.add_argument("--means", type=float, nargs="+", default=[1.05, 1.1, 1.25, 1.5])
    ap.add_argument("--orders", type=int, nargs="+", default=[5, 10, 20, 30])
    args = ap.parse_args()

    family = lookup(args.family)
    m0 = rat(args.m0)
    seq = recurrence_sequence(family.variance_at(m0), max(args.orders))
    forms = family.rebase(m0)

    header = "m".rjust(8) + "".join(f"N={n}".rjust(14) for n in args.orders)
    print(f"family={family.name}  m0={m0}  x={args.x}")
    print(header)
    for m in args.means:
        probe = partial_sum_density(seq, forms, x=args.x, m=m)
        if probe.reason is not None:
            print(f"{m:8.3f}   not evaluated: {probe.reason}")
            continue
        cells = "".join(f"{probe.residuals[n]:14.3e}" for n in args.orders)
        tag = "" if probe.converged else "   (not converged)"
        print(f"{m:8.3f}{cells}{tag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
