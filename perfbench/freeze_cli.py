"""Freeze the expected CLI documents for the small_queries pool.

    PYTHONPATH=src python3 perfbench/freeze_cli.py

Runs every well-formed argv of the pool in-process and stores, per
argv, the exit code and a digest of the normalized JSON document in
perfbench/cli_expected.json.  Before freezing it:

* runs each argv twice and requires byte-identical stdout;
* reruns each argv with every Laurent window enlarged by 16 in order
  and tail, and keeps only the window coefficients that do not move
  (``trust``): a coefficient that changes when the window grows is
  truncation junk, not output.  For multiplicative-law windows the
  trusted range is further capped at the q-order the argv asked for;
* cross-checks the n-series and sigma documents against oracles.py.

Rerun it only when the pool changes; the point of the file is that the
benchmark's references are not computed by the code it measures.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import fglcalc.cli as cli  # noqa: E402
import fglcalc.coefficients as coefficients  # noqa: E402

import jobs  # noqa: E402
import oracles as O  # noqa: E402
from workloads import MALFORMED_GROUPS, Job, pool_argv  # noqa: E402

GROW = 16


def _collect_keys(doc, keys):
    if isinstance(doc, dict):
        for k, v in doc.items():
            keys.add(k)
            _collect_keys(v, keys)
    elif isinstance(doc, list):
        for v in doc:
            _collect_keys(v, keys)


def _has_laurent(doc):
    if isinstance(doc, dict):
        ring = doc.get("coeff_ring")
        if isinstance(ring, str) and ring.startswith("laurent("):
            return True
        return any(_has_laurent(v) for v in doc.values())
    if isinstance(doc, list):
        return any(_has_laurent(v) for v in doc)
    return False


def _window_top(doc):
    """Largest exponent stored in any Laurent-window coefficient."""
    top = None
    if isinstance(doc, dict):
        ring = doc.get("coeff_ring")
        if isinstance(ring, str) and ring.startswith("laurent("):
            texts = [doc["value"]] if "value" in doc else [t["coeff"] for t in doc.get("terms", [])]
            for text in texts:
                for e, _ in jobs._split_series_literal(text):
                    top = e if top is None else max(top, e)
        for v in doc.values():
            t = _window_top(v)
            if t is not None:
                top = t if top is None else max(top, t)
    elif isinstance(doc, list):
        for v in doc:
            t = _window_top(v)
            if t is not None:
                top = t if top is None else max(top, t)
    return top


class _Grown:
    """Enlarge every Laurent window the CLI builds."""

    def __enter__(self):
        self.saved = (cli.additive_context, cli.multiplicative_context, cli.LaurentSeries)
        add, mul, laurent = self.saved

        def grown_add(trunc, qhat_order, tail=0, localized=True, unit_bound=8):
            return add(trunc, qhat_order + GROW, tail + GROW, localized, unit_bound)

        def grown_mul(trunc, q_order, tail=0, localized=True, unit_bound=8):
            return mul(trunc, q_order + GROW, tail + GROW, localized, unit_bound)

        cli.additive_context = grown_add
        cli.multiplicative_context = grown_mul
        cli.LaurentSeries = lambda base, param, order, tail: laurent(base, param, order + GROW, tail + GROW)
        return self

    def __exit__(self, *exc):
        cli.additive_context, cli.multiplicative_context, cli.LaurentSeries = self.saved


def _requested_qorder(argv):
    """The q-precision a multiplicative-law argv asked for (default 6)."""
    if "--law" not in argv or argv[argv.index("--law") + 1] != "gm":
        return None
    return int(argv[argv.index("--qorder") + 1]) if "--qorder" in argv else 6


def _run(group, argv):
    code, out, err, exc = jobs.run_cli(Job("cli", 0, (group, argv)), None)
    if exc is not None or code not in (0, 1):
        raise SystemExit(f"{' '.join(argv)}: exit {code} {exc or err.strip()}")
    return code, out


def _cross_check(argv, doc):
    words = list(argv)
    if words[2:4] == ["fgl", "nseries"]:
        law = words[words.index("--law") + 1]
        k = int(words[words.index("--k") + 1])
        n = int(words[words.index("--trunc") + 1])
        ring = words[words.index("--ring") + 1]
        expected = O.uni_dict(O.law_n_series(law, k, n))
        if ring.startswith("Z/"):
            expected = O.mod_dict(expected, int(ring[2:]))
        got = {tuple(t["exponents"]): Fraction(t["coeff"]) for t in doc["terms"]}
        assert got == expected, argv
    if words[2] == "sigma" and "--modified" not in words:
        q = int(words[words.index("--qorder") + 1])
        ring = coefficients.parse_ring(doc["coeff_ring"])
        assert ring.parse(doc["value"]) == O.sigma_jacobi(q), argv


def main():
    keys: set[str] = set()
    entries = {}
    for group, argv in pool_argv():
        if group in MALFORMED_GROUPS:
            continue
        code, out = _run(group, argv)
        if _run(group, argv)[1] != out:
            raise SystemExit(f"{' '.join(argv)}: stdout is not deterministic")
        doc = json.loads(out)
        _collect_keys(doc, keys)
        _cross_check(argv, doc)
        entries[" ".join(argv)] = (code, doc)

    frozen = {}
    for group, argv in pool_argv():
        if group in MALFORMED_GROUPS:
            continue
        code, doc = entries[" ".join(argv)]
        trust = None
        if _has_laurent(doc):
            with _Grown():
                _, big_out = _run(group, argv)
            big = json.loads(big_out)
            top = _window_top(doc)
            want = _requested_qorder(argv)
            start = top if want is None else want
            if start is not None:
                trust = start
                while jobs.normalize_doc(doc, keys, trust) != jobs.normalize_doc(big, keys, trust):
                    trust -= 1
                    if trust < -1000:
                        raise SystemExit(f"{' '.join(argv)}: no window-stable range")
                if trust == top and want is None:
                    trust = None
                elif want is not None and trust < want:
                    print(f"note: {' '.join(argv)} is window-stable only to {trust} < {want}")
        frozen[" ".join(argv)] = {
            "exit": code,
            "trust": trust,
            "digest": jobs.digest(jobs.normalize_doc(doc, keys, trust)),
        }
    path = os.path.join(HERE, "cli_expected.json")
    with open(path, "w") as fh:
        json.dump({"keys": sorted(keys), "argv": frozen}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    trusted = sum(1 for e in frozen.values() if e["trust"] is not None)
    print(f"froze {len(frozen)} argv ({trusted} with a trusted window) into {path}")


if __name__ == "__main__":
    main()
