"""Command line front end.

Every computation the library exposes is reachable as a subcommand,
with deterministic output: series documents carry their variables,
truncation, coefficient ring descriptor, and terms sorted by exponent
vector; JSON output sorts keys.  Exit codes: 0 success, 1 a checked
mathematical identity failed, 2 malformed input or an unsuitable ring.

``run(argv)`` may be called many times in one process.  The argument
parser is built on the first call and reused by every later one, and
each call looks its handler ``_cmd_<group>`` up in this module when it
runs, so a handler rebound after the first call still takes effect.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .coefficients import (
    GaussianRationals,
    Integers,
    IntegersMod,
    LaurentSeries,
    Rationals,
    RingElement,
    parse_ring,
    quotient_ring,
)
from .equivariant import (
    EquivariantContext,
    additive_context,
    bundle,
    euler_class,
    multiplicative_context,
    unit_check,
)
from .errors import EngineError, LawAxiomError
from .fgl import (
    X,
    additive_law,
    check_law_axioms,
    fgl_exp,
    fgl_log,
    is_homomorphism,
    multiplicative_law,
    n_series,
    transport,
)
from .genus import (
    ChernBlock,
    ChernData,
    ahat_series,
    chi_residue,
    cp,
    genus_eval,
    loop_genus,
    loop_vs_quotient_check,
    point,
    product_data,
    rr_transform,
    todd_series_of,
)
from .polyseries import MultiSeries, series
from .prospectrum import (
    omega,
    push_class,
    relative_omega,
    stabilize,
    tower,
    transition,
    unit_u,
)
from .quotient import SubgroupPoints, lubin_isogeny, quotient_law
from .tate import (
    TateGroup,
    TatePoint,
    exact_sequence_check,
    sigma_modified,
    sigma_series,
    theta_multiplicative_L,
    theta_series,
)

# ----------------------------------------------------------------------
# documents


def series_document(ms: MultiSeries) -> dict:
    terms = [
        {"exponents": list(e), "coeff": ms.ring.text(c)}
        for e, c in sorted(ms.terms.items())
    ]
    return {
        "kind": "series",
        "vars": list(ms.vars),
        "trunc": ms.trunc,
        "coeff_ring": ms.ring.descriptor(),
        "terms": terms,
    }


_SERIES_DOCUMENT_SHAPE = (
    'expected a series document {"vars": [names], "trunc": int, "coeff_ring": '
    'descriptor, "terms": [{"exponents": [ints], "coeff": text}, ...]}'
)


def parse_series_document(doc: dict) -> MultiSeries:
    """A series from its document.  Another shape is a ValueError that
    states the expected one; a bad ring or coefficient gives its own."""
    try:
        vars_, trunc = tuple(doc["vars"]), int(doc["trunc"])
        descriptor = doc["coeff_ring"]
        raw = [(tuple(map(int, t["exponents"])), t["coeff"]) for t in doc["terms"]]
    except (KeyError, TypeError, AttributeError, IndexError, ValueError):
        raise ValueError(_SERIES_DOCUMENT_SHAPE) from None
    try:
        ring = parse_ring(descriptor)
        terms = {e: ring.parse(c) for e, c in raw}
    except (TypeError, AttributeError):  # a descriptor or coefficient not text
        raise ValueError(_SERIES_DOCUMENT_SHAPE) from None
    return MultiSeries(ring, vars_, trunc, terms)


def element_document(el: RingElement) -> dict:
    return {
        "kind": "element",
        "coeff_ring": el.ring.descriptor(),
        "value": el.ring.text(el.data),
    }


def _monomial(vars_, exps) -> str:
    parts = []
    for v, k in zip(vars_, exps):
        if k == 0:
            continue
        parts.append(v if k == 1 else f"{v}^{k}")
    return "*".join(parts)


def render_text(doc: dict) -> str:
    if doc.get("kind") == "series":
        if not doc["terms"]:
            return "0"
        bits = []
        for t in doc["terms"]:
            mono = _monomial(doc["vars"], t["exponents"])
            bits.append(f"({t['coeff']})*{mono}" if mono else f"({t['coeff']})")
        return " + ".join(bits)
    if doc.get("kind") == "element":
        return doc["value"]
    lines = []
    for k in sorted(doc):
        if k == "kind":
            continue
        v = doc[k]
        if isinstance(v, dict):
            lines.append(f"{k}:")
            lines.append("  " + render_text(v).replace("\n", "\n  "))
        else:
            lines.append(f"{k} = {v}")
    return "\n".join(lines)


def emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(render_text(doc))


# ----------------------------------------------------------------------
# shared argument plumbing


_BASE_RINGS = {"Q": Rationals, "Qi": GaussianRationals, "Z": Integers}


def _ring_arg(name: str):
    if name in _BASE_RINGS:
        return _BASE_RINGS[name]()
    return parse_ring(name)


LAWS = {"ga": additive_law, "gm": multiplicative_law}


def _law_arg(name: str, ring, trunc: int):
    return LAWS[name](ring, trunc)


_MANIFOLD_JSON_SHAPE = (
    '--manifold-json: expected a list of {"var": name, "top": int, '
    '"roots": [[scale, multiplicity], ...]} blocks of integers'
)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _manifold_blocks(text: str) -> tuple[ChernBlock, ...]:
    """The blocks of --manifold-json; any other shape is bad input
    named after the flag."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"--manifold-json: not JSON ({e})") from None
    if not isinstance(data, list):
        raise ValueError(_MANIFOLD_JSON_SHAPE)
    blocks = []
    for b in data:
        if not (
            isinstance(b, dict)
            and isinstance(b.get("var"), str)
            and _is_int(b.get("top"))
            and isinstance(b.get("roots"), list)
            and all(
                isinstance(r, list) and len(r) == 2 and all(map(_is_int, r))
                for r in b["roots"]
            )
        ):
            raise ValueError(_MANIFOLD_JSON_SHAPE)
        blocks.append(
            ChernBlock(b["var"], b["top"], tuple((s, m) for s, m in b["roots"]))
        )
    return tuple(blocks)


def parse_manifold(token: str, json_blocks: str | None = None) -> ChernData:
    """The manifold named by --manifold (point, cpN, or cpAxcpB...), or
    the blocks of --manifold-json when given."""
    if json_blocks:
        return ChernData(blocks=_manifold_blocks(json_blocks), name="custom")
    if token == "point":
        return point()
    parts = token.split("x")
    datas = []
    for i, part in enumerate(parts):
        if not (part.startswith("cp") and part[2:].isdigit()):
            raise ValueError(f"unknown manifold {part!r}")
        var = "h" if len(parts) == 1 else f"h{i + 1}"
        datas.append(cp(int(part[2:]), var))
    out = datas[0]
    for d in datas[1:]:
        out = product_data(out, d)
    return out


def _parse_blocks(spec: str):
    """The blocks of --blocks; another shape is bad input for the flag."""
    blocks = []
    for chunk in spec.split(","):
        try:
            root, weight, mult = chunk.strip().split(":")
            blocks.append((None if root == "none" else root, int(weight), int(mult)))
        except ValueError:
            raise ValueError(
                "--blocks: expected root:weight:multiplicity blocks separated "
                f"by commas, with integer weight and multiplicity, got {chunk!r}"
            ) from None
    return blocks


def _rational_arg(text: str, flag: str) -> Fraction:
    """A rational from argv; malformed text or a zero denominator is
    bad input for the named flag."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag}: {text!r} is not a rational number") from None


def _nonnegative_arg(value: int, flag: str) -> int:
    """An order or count flag for a command that reads it; a negative
    value is bad input for the flag."""
    if value < 0:
        raise ValueError(f"{flag} must be nonnegative, got {value}")
    return value


# sigma[L, r] needs a q-window of depth m(m+1)/2, m = floor(r), so its
# cost grows as m^4; at |m| = 64 one call takes about 1 s
MODIFIED_CAP = 64


def _modified_arg(text: str) -> Fraction:
    """--modified r, with |floor(r)| at most MODIFIED_CAP."""
    r = _rational_arg(text, "--modified")
    if abs(math.floor(r)) > MODIFIED_CAP:
        raise ValueError(
            f"--modified: |floor({r})| exceeds the cap {MODIFIED_CAP}"
        )
    return r


def _theta_from_coeffs(ring, coeffs: str, trunc: int) -> MultiSeries:
    """x + c2 x^2 + c3 x^3 + ... from a comma list of rationals."""
    ctx = series(ring, (X,), trunc)
    th = ctx.var(X)
    if coeffs:
        for j, c in enumerate(coeffs.split(","), start=2):
            fr = _rational_arg(c, "--theta")
            if j <= trunc:
                th = th + ctx.var(X) ** j * ctx.const(ring.from_fraction(fr))
    return th


def _law_context(
    law: str, trunc: int, order: int, tail: int, unit_bound: int
) -> EquivariantContext:
    """The localized context of the named law, in a Laurent window of
    the given order and tail."""
    window = dict(trunc=trunc, tail=tail, localized=True, unit_bound=unit_bound)
    if law == "ga":
        return additive_context(qhat_order=order, **window)
    return multiplicative_context(q_order=order, **window)


def loop_context(law: str, dim: int, N: int, qorder: int) -> EquivariantContext:
    """The context for loop genera and Euler classes of dimension dim
    at cutoff N, with windows sized so the documented computations stay
    exact where they are expected to be: see the loop genus notes in
    genus.py."""
    _nonnegative_arg(qorder, "--qorder")
    _nonnegative_arg(N, "--N")
    if law == "ga":
        order, tail = 2 * dim + 2, 4 * dim + 4 + 2 * N
    else:
        order, tail = qorder + 6 * N + 10, 4 * N + 2 * dim + 8
    return _law_context(law, dim + 2, order, tail, N)


_ARTIN = {
    "z4": (4, 2),   # Z/4[e]/(e^2), qhat = 2e
    "z8": (8, 2),   # Z/8[e]/(e^2), qhat = 2e
    "z9": (9, 3),   # Z/9[e]/(e^2), qhat = 3e
}


def _tate_group(artin: str, law_name: str, trunc: int = 8) -> TateGroup:
    mod, unit = _ARTIN[artin]
    ring = quotient_ring(IntegersMod(mod), ["e"], {"e": (2, {})})
    law = _law_arg(law_name, ring, trunc)
    qhat = ring.wrap({(1,): IntegersMod(mod).from_int(unit)})
    return TateGroup(law, qhat)


def _parse_tate_point(group: TateGroup, token: str, flag: str) -> TatePoint:
    """A point 'c,a' with g = c*e: an integer c and a rational a."""
    try:
        c_text, a_text = token.split(",")
        coeff = int(c_text)
    except ValueError:
        raise ValueError(
            f"{flag}: expected 'c,a' with an integer c, got {token!r}"
        ) from None
    ring = group.law.ring
    g = ring.wrap(
        {(1,): ring.base.from_int(coeff)} if coeff else {}
    )
    return group.point(g, _rational_arg(a_text, flag))


# ----------------------------------------------------------------------
# handlers: each returns (exit_code, document)


def _cmd_fgl(a) -> tuple[int, dict]:
    ring = _ring_arg(a.ring)
    if a.action == "validate" and a.terms:
        try:
            ms = parse_series_document(json.loads(a.terms))
        except json.JSONDecodeError as e:
            raise ValueError(f"--terms: not JSON ({e})") from None
        except ValueError as e:
            raise ValueError(f"--terms: {e}") from None
        try:
            check_law_axioms(ms)
        except LawAxiomError as e:
            return 1, {"kind": "report", "ok": False, "reason": str(e)}
        return 0, {"kind": "report", "ok": True}
    F = _law_arg(a.law, ring, _nonnegative_arg(a.trunc, "--trunc"))
    if a.action == "construct":
        return 0, series_document(F.law)
    if a.action == "validate":
        check_law_axioms(F.law)
        return 0, {"kind": "report", "ok": True}
    if a.action == "log":
        return 0, series_document(fgl_log(F))
    if a.action == "exp":
        return 0, series_document(fgl_exp(F))
    if a.action == "nseries":
        return 0, series_document(n_series(F, a.k))
    if a.action == "transport":
        th = _theta_from_coeffs(ring, a.theta, a.trunc)
        iso = transport(F, th)
        return 0, series_document(iso.target.law)
    raise ValueError(f"unknown fgl action {a.action!r}")


def _cmd_quotient(a) -> tuple[int, dict]:
    _nonnegative_arg(a.trunc, "--trunc")
    if a.case == "mu3":
        # cube roots of unity adjoined to Q: z^2 = -1 - z
        ring = quotient_ring(
            Rationals(),
            ["z"],
            {"z": (2, {(0,): Fraction(-1), (1,): Fraction(-1)})},
        )
        F = multiplicative_law(ring, a.trunc)
        zero = ring.wrap({})
        p1 = ring.wrap({(0,): Fraction(1), (1,): Fraction(-1)})  # 1 - z
        p2 = ring.wrap({(0,): Fraction(2), (1,): Fraction(1)})   # 1 - z^2
        H = SubgroupPoints(F, (zero, p1, p2))
        Q = quotient_law(H)
        ok = is_homomorphism(Q.isogeny, F, Q.law)
        doc = {
            "kind": "report",
            "isogeny": series_document(Q.isogeny),
            "quotient_law": series_document(Q.law.law),
            "homomorphism": bool(ok),
        }
        return (0 if ok else 1), doc
    if a.case == "additive":
        p = a.p
        if p < 2:
            raise ValueError(f"--p must be at least 2, got {p}")
        ring = quotient_ring(IntegersMod(p), ["h"], {"h": None})
        F = additive_law(ring, a.trunc)
        pts = [ring.wrap({}) if k == 0 else ring.wrap({(1,): k}) for k in range(p)]
        H = SubgroupPoints(F, tuple(pts))
        f = lubin_isogeny(H, a.trunc)
        return 0, {"kind": "report", "isogeny": series_document(f)}
    raise ValueError(f"unknown quotient case {a.case!r}")


def _cmd_theta(a) -> tuple[int, dict]:
    _nonnegative_arg(a.qorder, "--qorder")
    _nonnegative_arg(a.N, "--N")
    if a.law == "gm":
        raw, normalized = theta_multiplicative_L(a.N, a.qorder)
        return 0, {
            "kind": "report",
            "theta_L": element_document(raw),
            "normalized": element_document(normalized),
        }
    _nonnegative_arg(a.trunc, "--trunc")
    ring = LaurentSeries(Rationals(), "qh", 2, 2 * a.trunc + 2)
    law = additive_law(ring, a.trunc)
    qhat = RingElement(ring, ring.param_payload(1))
    th = theta_series(law, qhat, a.N, a.trunc)
    return 0, series_document(th.series)


def _cmd_sigma(a) -> tuple[int, dict]:
    _nonnegative_arg(a.qorder, "--qorder")
    if a.modified is not None:
        el = sigma_modified(_modified_arg(a.modified), a.qorder)
    else:
        el = sigma_series(a.qorder)
    return 0, element_document(el)


def _cmd_tate(a) -> tuple[int, dict]:
    group = _tate_group(a.artin, a.law)
    if a.action in ("mul", "inv"):
        x = _parse_tate_point(group, a.x, "--x")
        if a.action == "mul":
            z = group.mul(x, _parse_tate_point(group, a.y, "--y"))
        else:
            z = group.inv(x)
        return 0, {"kind": "report", "g": element_document(z.g), "a": str(z.a)}
    if a.action == "order":
        x = _parse_tate_point(group, a.x, "--x")
        n = group.torsion_order(x)
        return 0, {"kind": "report", "order": n}
    if a.action == "exact-seq":
        import random

        rng = random.Random(a.seed)
        ring = group.law.ring
        mod, _ = _ARTIN[a.artin]
        samples = []
        for _i in range(_nonnegative_arg(a.samples, "--samples")):
            c = rng.randrange(mod)
            x = ring.wrap({(1,): ring.base.from_int(c)} if c else {})
            frac = Fraction(
                rng.randrange(0, 24), rng.choice((1, 2, 3, 4, 6, 8, 12))
            )
            samples.append((x, frac))
        report = exact_sequence_check(group, samples)
        doc = {
            "kind": "report",
            "ok": report.ok,
            "checked": report.checked,
            "failures": list(report.failures),
        }
        return (0 if report.ok else 1), doc
    raise ValueError(f"unknown tate action {a.action!r}")


def _cmd_euler(a) -> tuple[int, dict]:
    _nonnegative_arg(a.trunc, "--trunc")
    ctx = loop_context(a.law, a.trunc, a.N, a.qorder)
    V = bundle(ctx, _parse_blocks(a.blocks))
    e = euler_class(V, a.trunc)
    return 0, {
        "kind": "report",
        "euler": series_document(e),
        "unit": unit_check(V),
    }


def _cmd_genus(a) -> tuple[int, dict]:
    Xd = parse_manifold(a.manifold, a.manifold_json)
    d = Xd.dimension
    if a.action == "todd":
        F = multiplicative_law(Rationals(), d + 2)
        v = genus_eval(Xd, todd_series_of(F))
        return 0, element_document(v)
    if a.action == "ahat":
        v = genus_eval(Xd, ahat_series(max(d, 1)))
        return 0, element_document(v)
    if a.action == "eval":
        ring = Rationals()
        ctx = series(ring, (X,), max(d, 1))
        Q = ctx.zero()
        for j, c in enumerate(a.coeffs.split(",")):
            if j <= Q.trunc:
                Q = Q + ctx.var(X) ** j * ctx.const(_rational_arg(c, "--coeffs"))
        v = genus_eval(Xd, Q)
        return 0, element_document(v)
    if a.action == "rr-check":
        ring = Rationals()
        F = _law_arg(a.law, ring, d + 3)
        th = _theta_from_coeffs(ring, a.theta, d + 3)
        lhs, rhs = rr_transform(Xd, F, th)
        ok = lhs == rhs
        doc = {
            "kind": "report",
            "ok": ok,
            "lhs": element_document(lhs),
            "rhs": element_document(rhs),
        }
        return (0 if ok else 1), doc
    if a.action == "loop":
        ctx = loop_context(a.law, d, a.N, a.qorder)
        v = loop_genus(Xd, ctx, a.N)
        return 0, element_document(v)
    if a.action == "loop-vs-quotient":
        ctx = loop_context(a.law, d, a.N, a.qorder)
        ok = loop_vs_quotient_check(Xd, ctx, a.N)
        return (0 if ok else 1), {"kind": "report", "ok": ok}
    if a.action == "chi":
        v = chi_residue(Xd, _rational_arg(a.r, "--r"))
        return 0, element_document(v)
    raise ValueError(f"unknown genus action {a.action!r}")


def _cmd_tower(a) -> tuple[int, dict]:
    _nonnegative_arg(a.qorder, "--qorder")
    _nonnegative_arg(a.trunc, "--trunc")
    rank = sum(m for _, _, m in _parse_blocks(a.blocks))
    n_big = max(_nonnegative_arg(a.n, "--n"), a.N, 6)
    if a.law == "ga":
        depth = 2 * n_big * (rank + 1) * a.trunc
    else:
        depth = n_big * (n_big + 1) * max(rank, 1) + a.trunc + a.qorder
    ctx = _law_context(a.law, a.trunc, depth, depth, n_big)
    T = tower(ctx, bundle(ctx, _parse_blocks(a.blocks)))
    if a.action == "transition":
        return 0, series_document(transition(T, a.n))
    if a.action == "u":
        return 0, series_document(unit_u(T, a.n))
    if a.action == "omega-check":
        for n in range(1, a.n + 1):
            lhs = push_class(T, omega(T, n - 1, 1), n)
            rhs = omega(T, n, 1)
            if lhs.value != rhs.value:
                return 1, {"kind": "report", "ok": False, "stage": n}
        return 0, {"kind": "report", "ok": True, "stages": a.n}
    if a.action == "relative":
        return 0, series_document(relative_omega(T, _nonnegative_arg(a.N, "--N"), a.trunc))
    if a.action == "stabilize":
        n_st, s = stabilize(T, a.qorder, a.normalization, a.trunc)
        return 0, {
            "kind": "report",
            "n_stable": n_st,
            "series": series_document(s),
        }
    raise ValueError(f"unknown tower action {a.action!r}")


# ----------------------------------------------------------------------
# parser


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared after it."""
    p = argparse.ArgumentParser(
        prog="fglcalc",
        description="exact formal group law calculus",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    sub = p.add_subparsers(dest="group", required=True)

    def common(sp, trunc=8):
        sp.add_argument("--ring", default="Q")
        sp.add_argument("--trunc", type=int, default=trunc)
        sp.add_argument("--qorder", type=int, default=6)
        sp.add_argument("--N", type=int, default=3)

    def law(sp, default):
        sp.add_argument("--law", default=default, choices=tuple(LAWS))

    fgl = sub.add_parser("fgl", help="laws, logs, n-series, transport")
    fgl.add_argument(
        "action",
        choices=("construct", "validate", "log", "exp", "nseries", "transport"),
    )
    common(fgl)
    law(fgl, "gm")
    fgl.add_argument("--k", type=int, default=2)
    fgl.add_argument("--theta", default="", help="c2,c3,... for x + c2 x^2 + ...")
    fgl.add_argument("--terms", default="", help="inline series document JSON")

    quo = sub.add_parser("quotient", help="finite subgroup quotients")
    quo.add_argument("--case", required=True, choices=("mu3", "additive"))
    quo.add_argument("--p", type=int, default=3)
    common(quo, trunc=10)

    th = sub.add_parser("theta", help="renormalized cutoff products")
    law(th, "gm")
    common(th, trunc=5)

    sg = sub.add_parser("sigma", help="Weierstrass product expansion")
    sg.add_argument("--qorder", type=int, default=6)
    sg.add_argument(
        "--modified",
        default=None,
        help=f"rational shift r, with |floor(r)| <= {MODIFIED_CAP}",
    )

    ta = sub.add_parser("tate", help="integral points of the quotient group")
    ta.add_argument("action", choices=("mul", "inv", "order", "exact-seq"))
    ta.add_argument("--artin", default="z4", choices=tuple(_ARTIN))
    law(ta, "gm")
    ta.add_argument("--x", default="1,0", help="point as 'c,a': g = c*e")
    ta.add_argument("--y", default="1,0")
    ta.add_argument("--samples", type=int, default=60)
    ta.add_argument("--seed", type=int, default=0)

    eu = sub.add_parser("euler", help="equivariant Euler classes")
    law(eu, "gm")
    eu.add_argument("--blocks", default="none:1:1", help="root:weight:mult,...")
    common(eu, trunc=4)

    ge = sub.add_parser("genus", help="genera, loop genera, residues")
    ge.add_argument(
        "action",
        choices=(
            "eval",
            "todd",
            "ahat",
            "rr-check",
            "loop",
            "loop-vs-quotient",
            "chi",
        ),
    )
    ge.add_argument("--manifold", default="cp1")
    ge.add_argument("--manifold-json", default=None)
    law(ge, "ga")
    ge.add_argument("--coeffs", default="1", help="Q(x) coefficients from x^0")
    ge.add_argument("--theta", default="", help="c2,c3,...")
    ge.add_argument("--r", default="1/2")
    common(ge, trunc=6)

    to = sub.add_parser("tower", help="staged Thom modules")
    to.add_argument(
        "action", choices=("transition", "u", "omega-check", "relative", "stabilize")
    )
    law(to, "ga")
    to.add_argument("--blocks", default="none:0:1")
    to.add_argument("--n", type=int, default=1)
    to.add_argument(
        "--normalization", default="sigma", choices=("sigma", "sine", "raw")
    )
    common(to, trunc=3)

    return p


def run(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handler = globals()[f"_cmd_{args.group}"]
    try:
        code, doc = handler(args)
    except LawAxiomError as e:
        print(f"LawAxiomFailure: {e}", file=sys.stderr)
        return 1
    except EngineError as e:
        print(f"{e.name}: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as e:
        print(f"InputError: {e}", file=sys.stderr)
        return 2
    emit(doc, args.format)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
