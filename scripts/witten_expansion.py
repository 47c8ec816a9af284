#!/usr/bin/env python3
"""Print the q-expansion of the sigma-normalized loop genus for a
rank-2 Chern block with vanishing first Chern class, next to the bare
divisor sums sigma_1(k) for eyeballing the modular shape.

Usage: python3 scripts/witten_expansion.py [--qorder N] [--top T]
"""

import argparse
from fractions import Fraction

from fglcalc.genus import c1_trivial_block, loop_genus_sigma


def divisor_sum(k):
    return sum(d for d in range(1, k + 1) if k % d == 0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--qorder", type=int, default=8)
    ap.add_argument("--top", type=int, default=4, help="block dimension (even)")
    args = ap.parse_args()
    for flag, value in (("--qorder", args.qorder), ("--top", args.top)):
        if value < 0:
            ap.error(f"{flag} must be nonnegative, got {value}")

    X = c1_trivial_block(args.top)
    val = loop_genus_sigma(X, args.qorder)
    print(f"# block: roots (h, -h), dimension {args.top}, q-order {args.qorder}")
    print(f"{'k':>3} {'coeff':>14} {'sigma_1(k)':>11}")
    for k in range(args.qorder + 1):
        c = val.data.get(k, Fraction(0))
        print(f"{k:>3} {str(c):>14} {divisor_sum(k) if k else '-':>11}")


if __name__ == "__main__":
    main()
