#!/usr/bin/env python3
"""Scan twist values against the closed-form lowering products.

For each rational x on a grid the script walks the degree-zero raising
generator k times from the vacuum of the localized module twisted by -x
(efloc_walk), and compares each step with the closed-form product.  Zeros
of the product show up as the walk dying; x values passing the
admissibility predicate keep every product in the scan nonzero.
"""

import argparse
from fractions import Fraction

from affinekit.locfun import efloc_admissible, efloc_product, efloc_walk


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=Fraction, default=Fraction(1))
    ap.add_argument("--kmax", type=int, default=4)
    ap.add_argument("--den", type=int, default=2, help="grid denominator")
    ap.add_argument("--span", type=int, default=3, help="grid covers -span..span")
    args = ap.parse_args()

    lam, kmax = args.lam, args.kmax
    print(f"lambda = {lam}, products for k = 1..{kmax}\n")
    header = f"{'x':>8}  {'adm':>4}  " + "  ".join(f"{'k=' + str(k):>10}" for k in range(1, kmax + 1))
    print(header)
    for num in range(-args.span * args.den, args.span * args.den + 1):
        x = Fraction(num, args.den)
        got = efloc_walk(lam, x, kmax)
        want = [efloc_product(lam, x, k) for k in range(1, kmax + 1)]
        if got != want:
            raise SystemExit(f"walk disagrees with closed form at x={x}: {got} vs {want}")
        adm = "yes" if efloc_admissible(lam, x) else "no"
        cells = "  ".join(f"{str(v):>10}" for v in got)
        print(f"{str(x):>8}  {adm:>4}  {cells}")
    print("\nevery printed row was checked against the closed-form product")


if __name__ == "__main__":
    main()
