#!/usr/bin/env python3
"""Weight multiplicity growth under truncation refinement.

Builds loop modules over successively wider dense-factor windows and
records the largest weight multiplicity each time; only weights are read,
so no action row is filled.  One dense factor gives a constant ceiling,
two give a strictly growing sequence; the probe reports which side of the
dichotomy a factor list lands on.
"""

import argparse
from fractions import Fraction

from affinekit.affine import build_affine, DegreeWindow
from affinekit.finlie import build_simple
from affinekit.modrep import (
    DenseSL2Params,
    boundedness_probe,
    dense_sl2,
    finite_dim_sl2,
    loop_module,
)


def make_factory(A, dense_count, fin_dims):
    params = [DenseSL2Params(Fraction(1, 2), Fraction(3 + i)) for i in range(dense_count)]

    def make(size):
        factors = [dense_sl2(p, DegreeWindow(-size, size)) for p in params]
        factors += [finite_dim_sl2(m) for m in fin_dims]
        scalars = [Fraction(i + 1) for i in range(len(factors))]
        return loop_module(A, factors, scalars, DegreeWindow(-2, 2), gen_window=1)

    return make


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[3, 6, 9, 12])
    args = ap.parse_args()

    A = build_affine(build_simple("A1"))
    mixes = [
        ("one dense", 1, []),
        ("one dense + fin(2)", 1, [2]),
        ("two dense", 2, []),
        ("two dense + fin(1)", 2, [1]),
    ]
    print(f"{'factors':<22}{'verdict':<12}max multiplicity per size")
    for name, dense_count, fins in mixes:
        probe = boundedness_probe(make_factory(A, dense_count, fins), sizes=args.sizes)
        verdict = "bounded" if probe["bounded"] else "unbounded"
        seq = ", ".join(f"{s}:{m}" for s, m in probe["max_mult"])
        print(f"{name:<22}{verdict:<12}{seq}")


if __name__ == "__main__":
    main()
