#!/usr/bin/env python3
"""Tabulate the normalized multiplicative cutoff product against the
Weierstrass product expansion, row by row in q.

Each cutoff N reproduces the sigma rows up to q^N; rows already
computed never change as N grows.

Usage: python3 scripts/theta_sigma_table.py [--N 6]
"""

import argparse

from fglcalc.tate import sigma_series, theta_multiplicative_L


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=int, default=6)
    args = ap.parse_args()
    if args.N < 0:
        ap.error(f"--N must be nonnegative, got {args.N}")

    s = sigma_series(args.N)
    print(f"# sigma rows up to q^{args.N} (coefficients in L)")
    for qe in range(args.N + 1):
        row = s.data.get(qe, {})
        txt = ", ".join(f"L^{le}: {c}" for le, c in sorted(row.items()))
        print(f"  q^{qe}: {txt}")

    print("# cutoff products, normalized by L^-N")
    for N in range(1, args.N + 1):
        _, normalized = theta_multiplicative_L(N, args.N)
        good = all(
            normalized.data.get(qe, {}) == s.data.get(qe, {})
            for qe in range(N + 1)
        )
        status = "matches sigma" if good else "DIVERGES"
        print(f"  N = {N}: rows 0..{N} {status}")


if __name__ == "__main__":
    main()
