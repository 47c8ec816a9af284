"""Command line surface: documents, exit codes, determinism."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from fglcalc.cli import _modified_arg, run
from fglcalc.coefficients import Rationals, parse_ring
from fglcalc.polyseries import series

from fglcalc.cli import parse_series_document, series_document


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- documents


def test_series_document_round_trip():
    c = series(Rationals(), ("x", "y"), 5)
    f = c.var("x") + c.var("y") ** 2
    doc = series_document(f)
    back = parse_series_document(json.loads(json.dumps(doc)))
    assert back.sorted_terms() == f.sorted_terms()
    assert back.vars == f.vars and back.trunc == f.trunc


def test_parse_ring_round_trip_via_descriptor():
    for desc in ("Q", "Q[i]", "Z", "Z/9", "powser(Q;q;4)", "laurent(Q;q;4;2)"):
        assert parse_ring(desc).descriptor() == desc


# ---------------------------------------------------------- happy paths


def test_nseries_text(capsys):
    code, out, _ = invoke(capsys, "fgl", "nseries", "--law", "gm", "--k", "2", "--trunc", "4")
    assert code == 0
    assert out.strip() == "(2)*x + (-1)*x^2"


def test_nseries_json(capsys):
    code, out, _ = invoke(
        capsys, "--format", "json", "fgl", "nseries", "--law", "gm", "--k", "2", "--trunc", "4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "series"
    assert doc["terms"] == [
        {"coeff": "2", "exponents": [1]},
        {"coeff": "-1", "exponents": [2]},
    ]


def test_fgl_log_multiplicative(capsys):
    code, out, _ = invoke(capsys, "fgl", "log", "--law", "gm", "--trunc", "5")
    assert code == 0
    assert out.strip() == "(1)*x + (1/2)*x^2 + (1/3)*x^3 + (1/4)*x^4 + (1/5)*x^5"


@pytest.mark.parametrize("law", ["gm", "ga"])
@pytest.mark.parametrize("action", ["log", "exp"])
def test_fgl_log_and_exp_at_trunc_zero(capsys, action, law):
    # modulo degree 1 the strict log and exp are the zero series, as the
    # law itself is for construct
    code, out, err = invoke(capsys, "fgl", action, "--law", law, "--trunc", "0")
    assert (code, out.strip(), err) == (0, "0", "")
    code, out, _ = invoke(capsys, "--format", "json", "fgl", action, "--law", law, "--trunc", "0")
    assert code == 0
    doc = json.loads(out)
    assert (doc["vars"], doc["trunc"], doc["terms"]) == (["x"], 0, [])


@pytest.mark.parametrize(
    "argv",
    [
        ["fgl", "transport", "--law", "gm", "--trunc", "0"],
        ["fgl", "transport", "--law", "gm", "--trunc", "0", "--theta", "1"],
        ["fgl", "transport", "--law", "ga", "--trunc", "0", "--theta", "1/2,3"],
    ],
    ids=["gm", "gm-theta", "ga-theta"],
)
def test_fgl_transport_at_trunc_zero(capsys, argv):
    # modulo degree 1 the transported law is the zero series
    code, out, err = invoke(capsys, *argv)
    assert (code, out.strip(), err) == (0, "0", "")
    code, out, _ = invoke(capsys, "--format", "json", *argv)
    assert code == 0
    doc = json.loads(out)
    assert (doc["vars"], doc["trunc"], doc["terms"]) == (["x", "y"], 0, [])


def test_quotient_mu3_at_trunc_zero(capsys):
    code, out, err = invoke(capsys, "quotient", "--case", "mu3", "--trunc", "0")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["homomorphism = True", "isogeny:", "  0", "quotient_law:", "  0"]
    code, out, _ = invoke(capsys, "--format", "json", "quotient", "--case", "mu3", "--trunc", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["homomorphism"] is True
    assert (doc["isogeny"]["trunc"], doc["isogeny"]["terms"]) == (0, [])
    assert (doc["quotient_law"]["trunc"], doc["quotient_law"]["terms"]) == (0, [])


def test_fgl_transport(capsys):
    code, out, _ = invoke(
        capsys, "fgl", "transport", "--law", "ga", "--theta", "2,0", "--trunc", "3"
    )
    assert code == 0
    # theta = x + 2x^2 pushes the additive law to x + y + 4xy - ...
    assert "(4)*x*y" in out


def test_fgl_transport_validates_once(capsys, monkeypatch):
    import fglcalc.cli
    import fglcalc.fgl

    calls = []
    original = fglcalc.fgl.check_law_axioms

    def counted(law):
        calls.append(law.trunc)
        return original(law)

    # the CLI holds its own binding, so count calls through either name
    monkeypatch.setattr(fglcalc.fgl, "check_law_axioms", counted)
    monkeypatch.setattr(fglcalc.cli, "check_law_axioms", counted)
    code, _, _ = invoke(
        capsys, "fgl", "transport", "--law", "gm", "--theta", "2,1", "--trunc", "5"
    )
    assert code == 0
    assert calls == [5]


def test_quotient_mu3(capsys):
    code, out, _ = invoke(capsys, "quotient", "--case", "mu3", "--trunc", "6")
    assert code == 0
    assert "homomorphism = True" in out
    assert "({(0):3})*x + ({(0):-3})*x^2 + ({(0):1})*x^3" in out


def test_quotient_additive_isogeny(capsys):
    code, out, _ = invoke(capsys, "quotient", "--case", "additive", "--p", "3")
    assert code == 0
    # x^3 - h^2 x over F_3[h], printed with 2 = -1 mod 3
    assert "({(2):2})*x + ({(0):1})*x^3" in out


def test_theta_multiplicative_normalized(capsys):
    code, out, _ = invoke(capsys, "theta", "--law", "gm", "--N", "2", "--qorder", "3")
    assert code == 0
    assert "normalized:" in out
    assert "[0:[0:1,1:-1]" in out  # leading row 1 - L


def test_sigma_element(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "sigma", "--qorder", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "element"
    assert doc["coeff_ring"] == "powser(laurpoly(Z;L);q;2)"
    assert doc["value"] == (
        "[0:[0:1,1:-1],1:[-1:-1,0:3,1:-3,2:1],2:[-1:-3,0:9,1:-9,2:3]]"
    )


def test_euler_class_command(capsys):
    code, out, _ = invoke(
        capsys, "euler", "--law", "ga", "--blocks", "none:1:1,none:-1:1", "--qorder", "6"
    )
    assert code == 0
    assert "([2:-1])" in out
    assert "unit = True" in out


def test_tate_mul_carry(capsys):
    code, out, _ = invoke(
        capsys, "tate", "mul", "--artin", "z4", "--law", "gm", "--x", "1,1/2", "--y", "1,1/2"
    )
    assert code == 0
    assert "a = 0" in out


def test_tate_order(capsys):
    code, out, _ = invoke(capsys, "tate", "order", "--artin", "z9", "--law", "ga", "--x", "1,0")
    assert code == 0
    assert "order = 9" in out


def test_tate_exact_seq_seeded(capsys):
    code, out, _ = invoke(
        capsys, "tate", "exact-seq", "--artin", "z9", "--law", "gm",
        "--samples", "20", "--seed", "0",
    )
    assert code == 0
    assert "ok = True" in out
    assert "checked = 69" in out


def test_genus_ahat(capsys):
    code, out, _ = invoke(capsys, "genus", "ahat", "--manifold", "cp2")
    assert code == 0
    assert out.strip() == "-1/8"


def test_genus_eval_with_coeffs(capsys):
    code, out, _ = invoke(capsys, "genus", "eval", "--manifold", "cp1", "--coeffs", "1,1")
    assert code == 0
    assert out.strip() == "2"


def test_genus_rr_check(capsys):
    code, out, _ = invoke(
        capsys, "genus", "rr-check", "--manifold", "cp2", "--law", "gm",
        "--theta", "1,1", "--trunc", "6",
    )
    assert code == 0
    assert "ok = True" in out


def test_genus_loop_frozen(capsys):
    code, out, _ = invoke(
        capsys, "genus", "loop", "--manifold", "cp2", "--law", "ga", "--N", "3"
    )
    assert code == 0
    assert out.strip() == "[-2:49/12]"


def test_genus_loop_vs_quotient(capsys):
    code, out, _ = invoke(
        capsys, "genus", "loop-vs-quotient", "--manifold", "cp1", "--law", "ga",
        "--N", "3", "--qorder", "6",
    )
    assert code == 0
    assert "ok = True" in out


def test_genus_chi(capsys):
    code, out, _ = invoke(capsys, "genus", "chi", "--manifold", "cp1", "--r", "1/2")
    assert code == 0
    assert out.strip() == "[1:2]"


def test_tower_stabilize(capsys):
    code, out, _ = invoke(
        capsys, "tower", "stabilize", "--law", "gm", "--blocks", "x:0:1", "--qorder", "4"
    )
    assert code == 0
    assert "n_stable = 4" in out
    assert "[1:-1,2:-3,3:-4,4:-7])*x^2" in out


def test_tower_omega_check(capsys):
    code, out, _ = invoke(
        capsys, "tower", "omega-check", "--law", "ga", "--blocks", "none:0:1", "--n", "3"
    )
    assert code == 0
    assert "ok = True" in out


def test_manifold_product_token(capsys):
    code, out, _ = invoke(capsys, "genus", "ahat", "--manifold", "cp1xcp1")
    assert code == 0
    assert out.strip() == "0"


# ----------------------------------------------------------- exit codes


def test_validate_good_law_exit_zero(capsys):
    doc = {
        "vars": ["x", "y"], "trunc": 4, "coeff_ring": "Q",
        "terms": [
            {"exponents": [0, 1], "coeff": "1"},
            {"exponents": [1, 0], "coeff": "1"},
            {"exponents": [1, 1], "coeff": "-1"},
        ],
    }
    code, out, _ = invoke(capsys, "fgl", "validate", "--terms", json.dumps(doc))
    assert code == 0
    assert "ok = True" in out


def test_validate_broken_law_exit_one(capsys):
    doc = {
        "vars": ["x", "y"], "trunc": 4, "coeff_ring": "Q",
        "terms": [
            {"exponents": [0, 1], "coeff": "1"},
            {"exponents": [1, 0], "coeff": "1"},
            {"exponents": [1, 2], "coeff": "1"},
        ],
    }
    code, out, _ = invoke(capsys, "fgl", "validate", "--terms", json.dumps(doc))
    assert code == 1
    assert "ok = False" in out
    assert "commutativity" in out


def test_malformed_document_exit_two(capsys):
    code, _, err = invoke(capsys, "fgl", "validate", "--terms", "not json")
    assert code == 2
    assert err.startswith("InputError:")
    code, _, err = invoke(
        capsys, "fgl", "validate", "--terms",
        '{"vars":["x","y"],"trunc":4,"coeff_ring":"Q","terms":{"0,1":"1"}}',
    )
    assert code == 2
    assert err.startswith("InputError:")


def test_engine_error_exit_two(capsys):
    code, _, err = invoke(capsys, "genus", "chi", "--manifold", "cp1", "--r", "1")
    assert code == 2
    assert err.startswith("Pole:")


def test_unknown_ring_exit_two(capsys):
    code, _, err = invoke(capsys, "fgl", "construct", "--law", "ga", "--ring", "bogus(1)")
    assert code == 2
    assert err.startswith("InputError:")


ZERO_DENOMINATOR_ARGV = [
    (["sigma", "--modified", "1/0"], "--modified"),
    (["fgl", "transport", "--theta", "1/0"], "--theta"),
    (["genus", "chi", "--manifold", "cp1", "--r", "1/0"], "--r"),
    (["genus", "eval", "--manifold", "cp1", "--coeffs", "1,1/0"], "--coeffs"),
    (["tate", "mul", "--x", "1,1/0"], "--x"),
]


@pytest.mark.parametrize("argv,flag", ZERO_DENOMINATOR_ARGV, ids=[f for _, f in ZERO_DENOMINATOR_ARGV])
def test_zero_denominator_exit_two(capsys, argv, flag):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"InputError: {flag}: ")


def test_non_unit_denominator_exit_two(capsys):
    code, out, err = invoke(capsys, "fgl", "transport", "--ring", "Z/4", "--theta", "1/2", "--trunc", "4")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["NotAUnit: denominator 2 of 1/2 is not a unit mod 4"]


NEGATIVE_CUTOFF_ARGV = [
    ["theta", "--law", "gm", "--N", "-1"],
    ["theta", "--law", "ga", "--N", "-1"],
    ["genus", "loop", "--manifold", "cp1", "--law", "gm", "--N", "-1"],
    ["euler", "--law", "gm", "--N", "-1"],
]


@pytest.mark.parametrize(
    "argv", NEGATIVE_CUTOFF_ARGV, ids=["theta-gm", "theta-ga", "genus-loop-gm", "euler-gm"]
)
def test_negative_cutoff_exit_two(capsys, argv):
    # the cutoff is the --N flag, and the reason names the flag
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["InputError: --N must be nonnegative, got -1"]


NEGATIVE_FLAG_ARGV = {
    "euler-ga": ["euler", "--law", "ga", "--blocks", "x:1:1", "--qorder", "-3"],
    "euler-gm": ["euler", "--law", "gm", "--qorder", "-16", "--N", "1"],
    "genus-loop-gm": ["genus", "loop", "--manifold", "cp2", "--law", "gm", "--N", "2", "--qorder", "-40"],
    "sigma": ["sigma", "--qorder", "-3"],
    "theta-gm": ["theta", "--law", "gm", "--qorder", "-2"],
    "tower-stabilize": ["tower", "stabilize", "--law", "gm", "--blocks", "x:0:1", "--qorder", "-4"],
    "tate-samples": ["tate", "exact-seq", "--samples", "-1"],
    "theta-ga-trunc": ["theta", "--law", "ga", "--trunc", "-2"],
    "tower-trunc": ["tower", "transition", "--trunc", "-1"],
    "fgl-construct-trunc": ["fgl", "construct", "--trunc", "-1"],
    "fgl-log-trunc": ["fgl", "log", "--trunc", "-1"],
    "fgl-nseries-trunc": ["fgl", "nseries", "--trunc", "-1"],
    "fgl-transport-trunc": ["fgl", "transport", "--trunc", "-1"],
    "euler-trunc": ["euler", "--trunc", "-1"],
    "euler-ga-trunc": ["euler", "--law", "ga", "--trunc", "-1"],
    "quotient-mu3-trunc": ["quotient", "--case", "mu3", "--trunc", "-1"],
    "quotient-additive-trunc": ["quotient", "--case", "additive", "--trunc", "-1"],
    "genus-loop-N": ["genus", "loop", "--N", "-1"],
    "genus-loop-vs-quotient-N": ["genus", "loop-vs-quotient", "--N", "-1"],
    "euler-N": ["euler", "--N", "-1"],
    "tower-relative-N": ["tower", "relative", "--N", "-1"],
    "tower-omega-check-n": ["tower", "omega-check", "--n", "-1"],
    "tower-u-n": ["tower", "u", "--n", "-1"],
    "tower-transition-n": ["tower", "transition", "--n", "-1"],
}


@pytest.mark.parametrize("argv", NEGATIVE_FLAG_ARGV.values(), ids=NEGATIVE_FLAG_ARGV.keys())
def test_negative_qorder_exit_two(capsys, argv):
    # --qorder, and every other order or count flag, rejects a negative
    # value under its own name
    flag, value = next((f, v) for f, v in zip(argv, argv[1:]) if v.startswith("-") and v[1:].isdigit())
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"InputError: {flag} must be nonnegative, got {value}"]


@pytest.mark.parametrize("p", ["-3", "0", "1"])
def test_quotient_modulus_below_two_exit_two(capsys, p):
    # the additive case reads --p as the modulus of Z/p, and the reason
    # names the flag, not the ring
    code, out, err = invoke(capsys, "quotient", "--case", "additive", "--p", p)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"InputError: --p must be at least 2, got {p}"]


@pytest.mark.parametrize("token", ["1", "x,1/2"])
def test_malformed_tate_point_names_the_flag(capsys, token):
    code, out, err = invoke(capsys, "tate", "mul", "--x", token)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"InputError: --x: expected 'c,a' with an integer c, got {token!r}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["fgl", "construct", "--law", "gm", "--qorder", "-1"],
        ["genus", "todd", "--manifold", "cp2", "--qorder", "-1"],
    ],
    ids=["fgl", "genus-todd"],
)
def test_qorder_ignored_where_unread(capsys, argv):
    # only commands that read --qorder check it
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out


@pytest.mark.parametrize(
    "argv",
    [
        ["genus", "loop", "--trunc", "-1"],
        ["tower", "u", "--N", "-1"],
        ["fgl", "construct", "--N", "-1"],
        ["theta", "--law", "gm", "--trunc", "-1"],
    ],
    ids=["genus-loop-trunc", "tower-u-N", "fgl-N", "theta-gm-trunc"],
)
def test_trunc_and_cutoff_ignored_where_unread(capsys, argv):
    # --trunc and --N are checked only by commands that read them
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out


@pytest.mark.parametrize("r", ["-1/2", "-3/2"])
def test_sigma_modified_negative_r(capsys, r):
    code, out, err = invoke(capsys, "sigma", f"--modified={r}", "--qorder", "3")
    assert code == 0, err
    assert out


@pytest.mark.parametrize(
    "text",
    [
        "7",
        "[1,2]",
        '{"blocks": 3}',
        '{"blocks":[{"top":1}]}',
        '[{"var": "h", "top": 1}]',
        '[{"var": "h", "top": "1", "roots": [[1, 2]]}]',
        '[{"var": "h", "top": 1, "roots": [[1, 2, 3]]}]',
        '[{"var": "h", "top": 1, "roots": [[1.5, 2]]}]',
        "[{",
    ],
)
def test_malformed_manifold_json_names_the_flag(capsys, text):
    code, out, err = invoke(capsys, "genus", "eval", "--manifold-json", text)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("InputError: --manifold-json: ")


@pytest.mark.parametrize("group", ["euler", "tower"])
@pytest.mark.parametrize("spec", ["x", "x:1", "x:a:1", "x:1:b", "x:1:1:1", "x:1:1,", ""])
def test_malformed_blocks_name_the_flag(capsys, group, spec):
    argv = [group] + (["u"] if group == "tower" else []) + ["--blocks", spec]
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "InputError: --blocks: expected root:weight:multiplicity blocks separated "
        f"by commas, with integer weight and multiplicity, got {spec.split(',')[-1]!r}"
    ]


SERIES_SHAPE = (
    'expected a series document {"vars": [names], "trunc": int, "coeff_ring": '
    'descriptor, "terms": [{"exponents": [ints], "coeff": text}, ...]}'
)


def _doc(**changes):
    doc = {"vars": ["x", "y"], "trunc": 2, "coeff_ring": "Q", "terms": []}
    return json.dumps({k: v for k, v in {**doc, **changes}.items() if v is not None})


@pytest.mark.parametrize(
    "text,reason",
    [
        ("{}", SERIES_SHAPE),
        ("[]", SERIES_SHAPE),
        ("5", SERIES_SHAPE),
        (_doc(vars=None), SERIES_SHAPE),
        (_doc(trunc="two"), SERIES_SHAPE),
        (_doc(coeff_ring=5), SERIES_SHAPE),
        (_doc(terms={"0,1": "1"}), SERIES_SHAPE),
        (_doc(terms=[{"exponents": ["a", 0], "coeff": "1"}]), SERIES_SHAPE),
        (_doc(terms=[{"coeff": "1"}]), SERIES_SHAPE),
        ("nope", "not JSON (Expecting value: line 1 column 1 (char 0))"),
        (_doc(coeff_ring="bogus"), "unknown ring descriptor 'bogus'"),
        (_doc(terms=[{"exponents": [1, 0], "coeff": "1/0"}]), "not a rational literal: '1/0'"),
        (
            _doc(coeff_ring="Q[i]", terms=[{"exponents": [1, 0], "coeff": "1+1/0i"}]),
            "not a gaussian rational: '1+1/0i'",
        ),
    ],
)
def test_malformed_terms_name_the_flag(capsys, text, reason):
    code, out, err = invoke(capsys, "fgl", "validate", "--terms", text)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"InputError: --terms: {reason}"]


def test_manifold_json_matches_the_named_manifold(capsys):
    blocks = '[{"var": "h", "top": 2, "roots": [[1, 3]]}]'
    assert invoke(capsys, "genus", "ahat", "--manifold-json", blocks)[:2] == invoke(
        capsys, "genus", "ahat", "--manifold", "cp2"
    )[:2]


# ------------------------------------------------------ Laurent windows


GROW = 16

WINDOW_ARGV = [
    *(
        ["genus", "loop", "--manifold", m, "--law", "gm", "--N", n]
        for m in ("cp1", "cp2", "cp1xcp1")
        for n in ("2", "3")
    ),
    ["tower", "relative", "--law", "gm", "--blocks", "x:0:1", "--N", "2"],
    ["tower", "relative", "--law", "gm", "--blocks", "x:1:1", "--N", "2", "--n", "2"],
    ["tower", "relative", "--law", "ga", "--blocks", "x:0:1", "--N", "2"],
    ["theta", "--law", "ga", "--N", "3"],
]


def _grow_windows(monkeypatch):
    """Enlarge the order and tail of every Laurent window the CLI builds."""
    import fglcalc.cli as cli

    add, mul, laurent = cli.additive_context, cli.multiplicative_context, cli.LaurentSeries

    def grown_add(trunc, qhat_order, tail=0, **kw):
        return add(trunc, qhat_order + GROW, tail + GROW, **kw)

    def grown_mul(trunc, q_order, tail=0, **kw):
        return mul(trunc, q_order + GROW, tail + GROW, **kw)

    monkeypatch.setattr(cli, "additive_context", grown_add)
    monkeypatch.setattr(cli, "multiplicative_context", grown_mul)
    monkeypatch.setattr(
        cli, "LaurentSeries",
        lambda base, param, order, tail: laurent(base, param, order + GROW, tail + GROW),
    )


def _window_payloads(doc):
    """(window order, payload) of each Laurent coefficient of an element
    or series document, keyed by its exponent vector."""
    R = parse_ring(doc["coeff_ring"])
    assert R.descriptor().startswith("laurent(")
    if doc["kind"] == "element":
        return R.order, {(): R.parse(doc["value"])}
    return R.order, {tuple(t["exponents"]): R.parse(t["coeff"]) for t in doc["terms"]}


@pytest.mark.parametrize("argv", WINDOW_ARGV, ids=lambda a: "_".join(w.lstrip("-") for w in a))
def test_printed_coefficients_survive_a_larger_window(capsys, monkeypatch, argv):
    # a printed coefficient that moves when the window grows is truncation
    # junk; every division by a division point must leave none
    code, out, _ = invoke(capsys, "--format", "json", *argv)
    assert code == 0
    order, printed = _window_payloads(json.loads(out))
    with monkeypatch.context() as m:
        _grow_windows(m)
        code, out, _ = invoke(capsys, "--format", "json", *argv)
    assert code == 0
    big_order, grown = _window_payloads(json.loads(out))
    assert big_order == order + GROW
    for exps in printed.keys() | grown.keys():
        kept = {e: c for e, c in grown.get(exps, {}).items() if e <= order}
        assert printed.get(exps, {}) == kept, exps


def test_genus_loop_gm_top_coefficients(capsys):
    # q^28 printed 294 and q^33, q^34 printed 297, 492 while windows
    # divided by inverses that lost their top coefficients
    code, out, _ = invoke(capsys, "genus", "loop", "--manifold", "cp2", "--law", "gm", "--N", "2")
    assert code == 0
    assert out.strip().endswith(",28:126]")
    code, out, _ = invoke(capsys, "genus", "loop", "--manifold", "cp2", "--law", "gm", "--N", "3")
    assert code == 0
    assert out.strip().endswith(",33:132,34:153]")


# -------------------------------------------------------- determinism


DETERMINISTIC_CMDS = [
    ["--format", "json", "sigma", "--qorder", "3"],
    ["--format", "json", "fgl", "nseries", "--law", "gm", "--k", "-3", "--trunc", "5"],
    ["--format", "json", "genus", "loop", "--manifold", "cp2", "--law", "ga", "--N", "3"],
    ["tate", "exact-seq", "--artin", "z4", "--law", "gm", "--samples", "12", "--seed", "7"],
    ["theta", "--law", "gm", "--N", "3", "--qorder", "4"],
]


@pytest.mark.parametrize("cmd", DETERMINISTIC_CMDS, ids=lambda c: c[-3].strip("-"))
def test_byte_identical_across_processes(cmd):
    outs = []
    for _ in range(2):
        r = subprocess.run(
            [sys.executable, "-m", "fglcalc.cli", *cmd],
            capture_output=True, timeout=180,
        )
        assert r.returncode == 0, r.stderr.decode()
        outs.append(r.stdout)
    assert outs[0] == outs[1]
    assert outs[0]  # non-empty


# ------------------------------------------------------- parser reuse


REUSE_ARGV = [
    ["fgl", "nseries", "--law", "gm", "--k", "-3", "--trunc", "4", "--ring", "Z/27"],
    ["quotient", "--case", "additive", "--p", "3", "--trunc", "4"],
    ["sigma", "--modified", "1/2", "--qorder", "3"],
    ["tate", "mul", "--artin", "z8", "--law", "gm", "--x", "1,1/2", "--y", "2,2/3"],
    ["genus", "chi", "--manifold", "cp1", "--r", "1/3"],
    ["genus", "chi", "--manifold", "cp1", "--r", "1"],
    ["tower", "u", "--law", "ga", "--blocks", "x:0:1", "--n", "1"],
]


def invoke_exit(capsys, *argv):
    """invoke, with argparse's own exits caught; the last stderr line."""
    try:
        code = run(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err.splitlines()[-1:]


def _reuse_pass(capsys):
    return [invoke_exit(capsys, *fmt, *argv) for argv in REUSE_ARGV for fmt in ([], ["--format", "json"])]


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of every argparse parser built while the test runs."""
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_run_builds_at_most_one_parser(capsys, parsers_built):
    for argv in REUSE_ARGV[:3] * 2:
        invoke(capsys, *argv)
    # at most one tree: one root parser, each subcommand's parser once
    assert parsers_built.count("fglcalc") <= 1
    assert len(parsers_built) == len(set(parsers_built))


def test_reused_parser_gives_identical_output(capsys):
    first = _reuse_pass(capsys)
    assert [r[0] for r in first] == [0] * 10 + [2, 2] + [0, 0]
    for argv in (["sigma", "--qorder", "six"], ["fgl", "nseries", "--law", "gx"]):
        code, out, last = invoke_exit(capsys, *argv)
        assert (code, out) == (2, "")
        assert last[0].startswith("fglcalc ") and "invalid" in last[0]
    code, out, _ = invoke_exit(capsys, "--help")
    assert code == 0 and out.startswith("usage: fglcalc")
    assert _reuse_pass(capsys) == first


def test_handler_is_looked_up_per_call(capsys, monkeypatch):
    import fglcalc.cli as cli

    invoke(capsys, "sigma", "--qorder", "1")  # the parser now exists
    seen = []

    def patched(a):
        seen.append((a.group, a.qorder))
        return 0, {"kind": "report", "patched": True}

    monkeypatch.setattr(cli, "_cmd_sigma", patched)
    code, out, _ = invoke(capsys, "--format", "json", "sigma")
    assert code == 0
    assert json.loads(out) == {"kind": "report", "patched": True}
    assert seen == [("sigma", 6)]


def test_import_builds_no_parser(capsys, parsers_built):
    import importlib.util

    # a private copy of the module, executed from its source
    spec = importlib.util.find_spec("fglcalc.cli")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert parsers_built == []
    assert fresh.run(["sigma", "--qorder", "1"]) == 0
    assert capsys.readouterr().out
    assert parsers_built.count("fglcalc") == 1


MU3_LOW_TRUNC = {
    1: (
        "({(0):3})*x",
        "({(0):1})*y + ({(0):1})*x",
        [[[1], "{(0):3}"]],
        [[[0, 1], "{(0):1}"], [[1, 0], "{(0):1}"]],
    ),
    2: (
        "({(0):3})*x + ({(0):-3})*x^2",
        "({(0):1})*y + ({(0):1})*x + ({(0):-1})*x*y",
        [[[1], "{(0):3}"], [[2], "{(0):-3}"]],
        [[[0, 1], "{(0):1}"], [[1, 0], "{(0):1}"], [[1, 1], "{(0):-1}"]],
    ),
}


@pytest.mark.parametrize("trunc", sorted(MU3_LOW_TRUNC))
def test_quotient_mu3_below_the_law_degree(capsys, trunc):
    # the points add by the whole law x + y - xy even where the stored
    # series has lost its xy term, so they form a subgroup at every trunc
    isogeny, law, isogeny_terms, law_terms = MU3_LOW_TRUNC[trunc]
    code, out, err = invoke(capsys, "quotient", "--case", "mu3", "--trunc", str(trunc))
    assert (code, err) == (0, "")
    assert out.splitlines() == ["homomorphism = True", "isogeny:", f"  {isogeny}", "quotient_law:", f"  {law}"]
    code, out, err = invoke(capsys, "--format", "json", "quotient", "--case", "mu3", "--trunc", str(trunc))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["homomorphism"] is True
    for key, want in (("isogeny", isogeny_terms), ("quotient_law", law_terms)):
        assert doc[key]["trunc"] == trunc
        assert [[t["exponents"], t["coeff"]] for t in doc[key]["terms"]] == want


@pytest.mark.parametrize("r", ["65", "-65", "131/2", "-129/2", "100000"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sigma_modified_over_the_cap_exit_two(capsys, r, fmt):
    code, out, err = invoke(capsys, "--format", fmt, "sigma", f"--modified={r}", "--qorder", "0")
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"InputError: --modified: |floor({Fraction(r)})| exceeds the cap 64"]


def test_sigma_modified_cap_admits_its_edges(capsys):
    # the largest allowed |floor(r)| is the cap itself, for both signs
    assert [_modified_arg(r) for r in ("64", "-64", "129/2", "-127/2")] == [
        64, -64, Fraction(129, 2), Fraction(-127, 2),
    ]
    with pytest.raises(SystemExit):
        run(["sigma", "--help"])
    assert "|floor(r)| <= 64" in capsys.readouterr().out
