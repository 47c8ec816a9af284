"""Job execution and exact output checks.

``prepare`` builds a job's inputs (untimed), ``run`` does the timed
work through fglcalc's public API, and ``check`` compares the result
against a reference that fglcalc did not compute in this run (see
oracles.py and cli_expected.json).  Only coefficients within the
precision the job asked for are compared.

fglcalc is reached through module attributes (``fgl.transport``, not a
copied name) so that the traced pass sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import re
from fractions import Fraction

import fglcalc.cli as cli
import fglcalc.coefficients as coefficients
import fglcalc.equivariant as equivariant
import fglcalc.fgl as fgl
import fglcalc.genus as genus
import fglcalc.polyseries as polyseries
import fglcalc.prospectrum as prospectrum
import fglcalc.tate as tate

import oracles as O
from workloads import KNOWN_DEFECT_GROUP, MALFORMED_GROUPS

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    pass


def _ring(name):
    if name == "Q":
        return coefficients.QQ
    if name == "Z":
        return coefficients.ZZ
    return coefficients.IntegersMod(int(name[2:]))


def _modulus(name):
    return int(name[2:]) if name.startswith("Z/") else None


def _law(ring, law, trunc):
    make = fgl.additive_law if law == "ga" else fgl.multiplicative_law
    return make(ring, trunc)


def _theta_series(ring, trunc, coeffs, perturb=None):
    terms = {(1,): 1}
    for j, c in enumerate(coeffs, start=2):
        terms[(j,)] = c
    if perturb:
        d, c = perturb
        terms[(d,)] = terms.get((d,), 0) + c
    terms = {e: ring.from_fraction(Fraction(c)) for e, c in terms.items()}
    return polyseries.MultiSeries(ring, ("x",), trunc, terms)


def _theta_list(trunc, coeffs):
    return O.u_trim([0, 1] + list(coeffs), trunc)


def _same(terms, expected, modulus):
    if modulus is not None:
        expected = O.mod_dict(expected, modulus)
    if terms != expected:
        bad = sorted(set(terms) ^ set(expected) | {e for e in terms if e in expected and terms[e] != expected[e]})
        raise CheckFailed(f"{len(bad)} coefficients differ, first at {bad[:3]}")


# ----------------------------------------------------------------------
# law_calculus


def prepare_law(job):
    p = job.params
    ring = _ring(p[0])
    if job.kind == "from_log":
        _, law, trunc, coeffs = p
        u = O.u_revert(_theta_list(trunc, coeffs), trunc)
        log = O.u_compose(O.law_log(law, trunc), u, trunc)
        return polyseries.MultiSeries(ring, ("x",), trunc, O.uni_dict(log))
    if job.kind == "is_homomorphism":
        _, law, trunc, coeffs, perturb = p
        return _theta_series(ring, trunc, coeffs), _theta_series(ring, trunc, coeffs, perturb)
    if job.kind == "n_series":
        return _theta_series(ring, p[2], p[4]) if p[4] else None
    return _theta_series(ring, p[2], p[3])


def run_law(job, inputs):
    p = job.params
    ring = _ring(p[0])
    kind = job.kind
    if kind == "from_log":
        return fgl.from_log(inputs).law
    law, trunc = p[1], p[2]
    F = _law(ring, law, trunc)
    if kind == "transport":
        return fgl.transport(F, inputs).target.law
    if kind == "n_series":
        if inputs is not None:
            F = fgl.transport(F, inputs).target
        return fgl.n_series(F, p[3])
    if kind == "is_homomorphism":
        theta, candidate = inputs
        G = fgl.transport(F, theta).target
        return fgl.is_homomorphism(candidate, F, G)
    G = fgl.transport(F, inputs).target
    return fgl.fgl_exp(G) if kind == "fgl_exp" else fgl.fgl_log(G)


def check_law(job, result):
    p = job.params
    kind = job.kind
    modulus = _modulus(p[0])
    law, trunc = p[1], p[2]
    if kind == "is_homomorphism":
        if result != (p[4] is None):
            raise CheckFailed(f"is_homomorphism returned {result}")
        return
    coeffs = p[3] if kind in ("transport", "fgl_exp", "fgl_log", "from_log") else p[4]
    theta = _theta_list(trunc, coeffs)
    if kind in ("transport", "from_log"):
        expected = O.transported_law(law, theta, trunc)
    elif kind == "n_series":
        ns = O.law_n_series(law, p[3], trunc)
        if coeffs:
            u = O.u_revert(theta, trunc)
            ns = O.u_compose(theta, O.u_compose(ns, u, trunc), trunc)
        expected = O.uni_dict(ns)
    elif kind == "fgl_exp":
        expected = O.uni_dict(O.u_compose(theta, O.law_exp(law, trunc), trunc))
    else:
        u = O.u_revert(theta, trunc)
        expected = O.uni_dict(O.u_compose(O.law_log(law, trunc), u, trunc))
    _same(result.terms, expected, modulus)


# ----------------------------------------------------------------------
# q_expansion


def _gm_context(dim, N, qorder):
    """The CLI's window sizing for a multiplicative loop genus."""
    return equivariant.multiplicative_context(
        trunc=dim + 2,
        q_order=qorder + 6 * N + 10,
        tail=4 * N + 2 * dim + 8,
        localized=True,
        unit_bound=N,
    )


def _manifold(token):
    parts = token.split("x")
    if len(parts) == 1:
        return genus.cp(int(token[2:]))
    return genus.product_data(genus.cp(int(parts[0][2:]), "h1"), genus.cp(int(parts[1][2:]), "h2"))


def run_q(job, inputs):
    kind, p = job.kind, job.params
    if kind == "sigma_series":
        return tate.sigma_series(p[0])
    if kind == "sigma_modified":
        return tate.sigma_modified(p[0], p[1])
    if kind == "theta_multiplicative_L":
        return tate.theta_multiplicative_L(p[0], p[1])
    if kind == "loop_genus_sigma":
        return genus.loop_genus_sigma(genus.c1_trivial_block(p[0]), p[1])
    if kind == "loop_genus":
        Xd = _manifold(p[0])
        ctx = _gm_context(Xd.dimension, p[1], p[2])
        return genus.loop_genus(Xd, ctx, p[1])
    if kind == "stabilize":
        blocks, qorder, trunc = p
        rank = sum(m for _, m in blocks)
        n_big = 6
        depth = n_big * (n_big + 1) * rank + trunc + qorder
        ctx = equivariant.multiplicative_context(
            trunc=trunc, q_order=depth, tail=depth, localized=True, unit_bound=n_big
        )
        V = equivariant.bundle(ctx, [(r, 0, m) for r, m in blocks])
        return prospectrum.stabilize(prospectrum.tower(ctx, V), qorder, "sigma", trunc)
    raise ValueError(kind)


def _dense_q(series_list):
    return {e: c for e, c in enumerate(series_list) if c}


def check_q(job, result):
    kind, p = job.kind, job.params
    if kind == "sigma_series":
        _same(result.data, O.sigma_jacobi(p[0]), None)
    elif kind == "sigma_modified":
        _same(result.data, O.sigma_modified_oracle(p[0], p[1]), None)
    elif kind == "theta_multiplicative_L":
        raw, normalized = O.theta_cutoff_oracle(p[0], p[1])
        _same(result[0].data, raw, None)
        _same(result[1].data, normalized, None)
    elif kind == "loop_genus_sigma":
        _same(result.data, _dense_q(O.witten_c1zero_oracle(p[0], p[1])), None)
    elif kind == "loop_genus":
        Xd = _manifold(p[0])
        qorder = p[2]
        density = O.loop_density_gm(p[1], Xd.dimension, qorder)
        blocks = [(b.top, b.roots) for b in Xd.blocks]
        expected = _dense_q(O.genus_blocks(blocks, density, qorder))
        # the window above the requested q-order is headroom, not output
        _same({e: c for e, c in result.data.items() if e <= qorder}, expected, None)
    elif kind == "stabilize":
        blocks, qorder, trunc = p
        n_stable, stable = result
        if n_stable != qorder:
            raise CheckFailed(f"n_stable {n_stable} != {qorder}")
        _same(stable.terms, O.stabilize_oracle(list(blocks), trunc, qorder), None)
    else:
        raise ValueError(kind)


# ----------------------------------------------------------------------
# small_queries: CLI argv run in-process, stdout and exit code checked

_NAMED_REASON = re.compile(r"^(?:[A-Za-z][\w-]*|fglcalc[\w -]*: error): \S")
_LAURENT = re.compile(r"^laurent\((.*);(\w+);(-?\d+);(\d+)\)$")


@functools.lru_cache(maxsize=None)
def _expected():
    with open(os.path.join(HERE, "cli_expected.json")) as fh:
        return json.load(fh)


def run_cli(job, inputs):
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(job.params[1]))
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a traceback exit breaks the CLI contract
            code, exc = None, f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue(), exc


def _split_series_literal(text):
    """'[e:c,...]' into (exponent, coefficient text) pairs."""
    inner = text.strip()[1:-1]
    parts, depth, cur = [], 0, []
    for ch in inner:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    out = []
    for part in parts:
        e, _, c = part.partition(":")
        out.append((int(e), c))
    return out


def _trim_window(text, trust):
    return "[" + ",".join(f"{e}:{c}" for e, c in _split_series_literal(text) if e <= trust) + "]"


def normalize_doc(doc, keys, trust):
    """Keep the keys known when the expectations were frozen, and cut
    Laurent-window coefficients to exponents <= trust (window order and
    tail are sizing, not output)."""
    if isinstance(doc, list):
        return [normalize_doc(d, keys, trust) for d in doc]
    if not isinstance(doc, dict):
        return doc
    out = {k: normalize_doc(v, keys, trust) for k, v in doc.items() if k in keys}
    ring = doc.get("coeff_ring")
    m = _LAURENT.match(ring) if isinstance(ring, str) else None
    if m:
        out["coeff_ring"] = f"laurent({m.group(1)};{m.group(2)})"
        if trust is not None:
            if "value" in out:
                out["value"] = _trim_window(out["value"], trust)
            if "terms" in out:
                terms = []
                for t in out["terms"]:
                    c = _trim_window(t["coeff"], trust)
                    if c != "[]":
                        terms.append(dict(t, coeff=c))
                out["terms"] = terms
    return out


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def check_cli(job, result):
    group, argv = job.params
    code, out, err, exc = result
    if exc is not None:
        raise CheckFailed(f"traceback exit: {exc}")
    if group in MALFORMED_GROUPS:
        lines = err.strip().splitlines()
        if code != 2 or out or not lines or not _NAMED_REASON.match(lines[-1]):
            raise CheckFailed(f"malformed argv: exit {code}, stderr {lines[-1:]}")
        return
    expected = _expected()
    entry = expected["argv"].get(" ".join(argv))
    if entry is None:
        raise CheckFailed("argv missing from cli_expected.json")
    if code != entry["exit"]:
        raise CheckFailed(f"exit {code}, expected {entry['exit']}")
    doc = normalize_doc(json.loads(out), set(expected["keys"]), entry["trust"])
    if digest(doc) != entry["digest"]:
        raise CheckFailed("stdout differs from the frozen document")


def is_known_defect(job) -> bool:
    return job.kind == "cli" and job.params[0] == KNOWN_DEFECT_GROUP


_LAW_KINDS = ("transport", "n_series", "fgl_exp", "fgl_log", "from_log", "is_homomorphism")
_Q_KINDS = ("sigma_series", "sigma_modified", "theta_multiplicative_L", "loop_genus_sigma", "loop_genus", "stabilize")


def _no_inputs(job):
    return None


def handlers(kind):
    """(prepare, run, check) for a job kind."""
    if kind in _LAW_KINDS:
        return prepare_law, run_law, check_law
    if kind in _Q_KINDS:
        return _no_inputs, run_q, check_q
    if kind == "cli":
        return _no_inputs, run_cli, check_cli
    raise ValueError(f"unknown job kind {kind!r}")

