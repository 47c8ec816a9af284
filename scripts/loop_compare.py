#!/usr/bin/env python3
"""Compare the cutoff loop-space genus against the quotient-law genus.

The left side divides the cutoff product out of the top class; the
right side evaluates the Todd-style density of the transported law.
They agree exactly, on every stored coefficient, for both laws.  The
manifold grammar and the coefficient windows are those of
``fglcalc genus loop``.

Usage: python3 scripts/loop_compare.py --manifold cp2 --law gm --N 3
"""

import argparse

from fglcalc.cli import LAWS, loop_context, parse_manifold
from fglcalc.genus import loop_genus, loop_vs_quotient_check


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifold", default="cp2")
    ap.add_argument("--law", choices=tuple(LAWS), default="ga")
    ap.add_argument("--N", type=int, default=3)
    ap.add_argument("--qorder", type=int, default=6)
    args = ap.parse_args()
    for flag, value in (("--N", args.N), ("--qorder", args.qorder)):
        if value < 0:
            ap.error(f"{flag} must be nonnegative, got {value}")

    try:
        X = parse_manifold(args.manifold)
    except ValueError as exc:
        ap.error(f"--manifold {args.manifold}: {exc}")
    ctx = loop_context(args.law, X.dimension, args.N, args.qorder)

    val = loop_genus(X, ctx, args.N)
    agree = loop_vs_quotient_check(X, ctx, args.N)
    print(f"loop genus of {args.manifold} ({args.law}, N={args.N}):")
    print(f"  {val.ring.text(val.data)}")
    print(f"quotient comparison (exact): {'agree' if agree else 'DISAGREE'}")


if __name__ == "__main__":
    main()
