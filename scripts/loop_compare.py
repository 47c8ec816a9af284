#!/usr/bin/env python3
"""Compare the cutoff loop-space genus against the quotient-law genus.

The left side divides the cutoff product out of the top class; the
right side evaluates the Todd-style density of the transported law.
They agree exactly, on every stored coefficient, for both laws.

Usage: python3 scripts/loop_compare.py --manifold cp2 --law gm --N 3
"""

import argparse

from fglcalc.equivariant import additive_context, multiplicative_context
from fglcalc.genus import cp, loop_genus, loop_vs_quotient_check, point, product_data


def manifold_of(token):
    if token == "point":
        return point()
    if token == "cp1xcp1":
        return product_data(cp(1, "h1"), cp(1, "h2"))
    if token.startswith("cp") and token[2:].isdigit():
        return cp(int(token[2:]))
    raise ValueError(f"unknown manifold {token!r}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifold", default="cp2")
    ap.add_argument("--law", choices=("ga", "gm"), default="ga")
    ap.add_argument("--N", type=int, default=3)
    ap.add_argument("--qorder", type=int, default=6)
    args = ap.parse_args()
    for flag, value in (("--N", args.N), ("--qorder", args.qorder)):
        if value < 0:
            ap.error(f"{flag} must be nonnegative, got {value}")

    try:
        X = manifold_of(args.manifold)
    except ValueError as exc:
        ap.error(f"--manifold {args.manifold}: {exc}")
    d = X.dimension
    if args.law == "ga":
        ctx = additive_context(
            trunc=d + 4, qhat_order=2, tail=4 * d + 4 + 2 * args.N,
            unit_bound=args.N,
        )
    else:
        ctx = multiplicative_context(
            trunc=d + 2, q_order=args.qorder + 6 * args.N + 10,
            tail=4 * args.N + 2 * d + 8, unit_bound=args.N,
        )

    val = loop_genus(X, ctx, args.N)
    agree = loop_vs_quotient_check(X, ctx, args.N)
    print(f"loop genus of {args.manifold} ({args.law}, N={args.N}):")
    print(f"  {val.ring.text(val.data)}")
    print(f"quotient comparison (exact): {'agree' if agree else 'DISAGREE'}")


if __name__ == "__main__":
    main()
